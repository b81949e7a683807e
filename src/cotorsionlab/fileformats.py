"""Versioned JSON file formats: category, pairs, reports, certificates.

All emitted files re-parse to equal values (canonical serialization with
sorted keys).  Certificates embed every module and matrix they state, so
`replay` revalidates triangle certificates without a search.  Pair
verification, condition-(1) and pullback-square certificates are built
again by the deciding code from the stated twin and bounds (a square from
its stated d and b too) and must equal the stated certificate.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import repcore as rc
from .pairs import compute_hearts, verified_twin
from .repcore import FieldChar, QuiverPresentation
from .serialcat import CategoryCtx, IndecId, Obj, generate
from .subcat import (SearchBounds, Subcategory, left_perp, right_perp,
                     ses_payload)

CATEGORY_SCHEMA = "cotorsionlab/category/v1"
PAIRS_SCHEMA = "cotorsionlab/pairs/v1"
REPORT_SCHEMA = "cotorsionlab/report/v1"


class FileFormatError(ValueError):
    pass


def dumps_canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, data) -> None:
    """Atomic write: emit to a sibling temp file, then rename into place.
    An OSError names `path`, not the temp file."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name, dir=path.parent or ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(dumps_canonical(data))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def read_json(path: str | Path) -> dict:
    """A JSON object from a file; every file format here is an object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise FileFormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object, "
                              f"got {type(data).__name__}")
    return data


# -- category files -------------------------------------------------------


def category_payload(presentation: QuiverPresentation, fieldc: FieldChar) -> dict:
    return {
        "schema": CATEGORY_SCHEMA,
        "kind": "nakayama_linear",
        "n": presentation.n,
        "relations": [list(r) for r in presentation.relations],
        "field_char": fieldc.p,
    }


def parse_category(data: dict) -> tuple[QuiverPresentation, FieldChar]:
    if data.get("schema") != CATEGORY_SCHEMA:
        raise FileFormatError(f"unsupported category schema {data.get('schema')!r}")
    if data.get("kind") != "nakayama_linear":
        raise FileFormatError(f"unsupported category kind {data.get('kind')!r}")
    try:
        return _parse_algebra({"field_char": 2, **data})
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad category file: {exc}") from exc


def _num(key: str, value) -> int:
    """A JSON integer, not a float, string or bool."""
    if type(value) is not int:
        raise FileFormatError(f"{key} must be an integer, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    """A JSON object, which a report part must be; a TypeError otherwise,
    which replay reports as a malformed certificate."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} is not an object")
    return value


def _parse_algebra(data: dict) -> tuple[QuiverPresentation, FieldChar]:
    """The algebra and field of a category file or certificate context;
    every number must be a JSON integer."""
    relations = tuple((_num("relation vertex", a), _num("relation vertex", b))
                      for a, b in data["relations"])
    return (QuiverPresentation(_num("n", data["n"]), relations),
            FieldChar(_num("field_char", data["field_char"])))


def parse_relations_flag(text: str) -> tuple[tuple[int, int], ...]:
    """Command-line relation syntax: "1-5,2-6" (empty string allowed)."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*-\s*(\d+)\s*", part)
        if not m:
            raise FileFormatError(f"bad relation syntax {part!r}, expected a-b")
        out.append((int(m.group(1)), int(m.group(2))))
    return tuple(out)


# -- pairs files and subcategory expressions ------------------------------


_FUNCS = ("add", "rperp", "lperp", "inter", "oplus")


def _tokenize(expr: str) -> list[str]:
    tokens = re.findall(r"\[|\]|\(|\)|,|/|[A-Za-z_][A-Za-z_0-9]*|\d+", expr)
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise FileFormatError(f"cannot tokenize expression {expr!r}")
    return tokens


class _ExprParser:
    """Recursive descent over: name | interval | func(args)."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise FileFormatError(
                f"expression syntax error near position {self.pos} "
                f"(expected {expected!r}, got {tok!r})")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise FileFormatError(f"trailing tokens in expression: {self.tokens[self.pos:]}")
        return node

    def expr(self):
        tok = self.peek()
        if tok == "[":
            return ("interval", self.interval_bracket())
        if tok is not None and tok.isdigit():
            return ("interval", self.interval_stack())
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name or ""):
            raise FileFormatError(f"unexpected token {name!r}")
        if self.peek() == "(":
            if name not in _FUNCS:
                raise FileFormatError(f"unknown function {name!r}")
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take(",")
                args.append(self.expr())
            self.take(")")
            return (name, args)
        return ("name", name)

    # interval nodes keep their text; _entry_id parses and checks it
    def interval_bracket(self) -> str:
        self.take("[")
        a = self.take()
        self.take(",")
        b = self.take()
        self.take("]")
        return f"[{a},{b}]"

    def interval_stack(self) -> str:
        verts = [self.take()]
        while self.peek() == "/":
            self.take("/")
            verts.append(self.take())
        return "/".join(verts)


def _entry_id(name: str, entry, ctx: CategoryCtx) -> IndecId:
    """The indecomposable that an entry of subcategory `name` (a list item
    or an interval in its expression) denotes, such as "[3,5]" or "5/4/3"."""
    try:
        if not isinstance(entry, str):
            raise ValueError("an entry must be a string")
        return ctx.check_id(IndecId.parse(entry))
    except ValueError as exc:
        raise FileFormatError(f"subcategory {name!r}, entry {entry!r}: {exc}") from None


def _eval_expr(node, name: str, ctx: CategoryCtx, env: dict, resolving: set) -> frozenset[IndecId]:
    kind = node[0]
    if kind == "interval":
        return frozenset({_entry_id(name, node[1], ctx)})
    if kind == "name":
        return _resolve_name(node[1], ctx, env, resolving)
    args = [_eval_expr(a, name, ctx, env, resolving) for a in node[1]]
    if kind in ("add", "oplus"):
        out: frozenset[IndecId] = frozenset()
        for a in args:
            out |= a
        return out
    if kind == "inter":
        out = args[0]
        for a in args[1:]:
            out &= a
        return out
    if kind == "rperp":
        if len(args) != 1:
            raise FileFormatError("rperp takes one argument")
        return right_perp(ctx, Subcategory(args[0])).ids
    if kind == "lperp":
        if len(args) != 1:
            raise FileFormatError("lperp takes one argument")
        return left_perp(ctx, Subcategory(args[0])).ids
    raise FileFormatError(f"unknown expression node {kind!r}")


def _resolve_name(name: str, ctx: CategoryCtx, env: dict, resolving: set) -> frozenset[IndecId]:
    if name not in env:
        raise FileFormatError(f"unknown subcategory name {name!r}")
    if isinstance(env[name], frozenset):
        return env[name]
    if name in resolving:
        raise FileFormatError(f"cyclic subcategory definition involving {name!r}")
    resolving.add(name)
    raw = env[name]
    if isinstance(raw, list):
        ids = frozenset(_entry_id(name, s, ctx) for s in raw)
    elif isinstance(raw, str):
        ids = _eval_expr(_ExprParser(_tokenize(raw)).parse(), name, ctx, env, resolving)
    else:
        raise FileFormatError(f"subcategory {name!r} must be a list or expression string")
    resolving.discard(name)
    env[name] = ids
    return ids


def parse_pairs(data: dict, ctx: CategoryCtx) -> dict[str, Subcategory]:
    if data.get("schema") != PAIRS_SCHEMA:
        raise FileFormatError(f"unsupported pairs schema {data.get('schema')!r}")
    raw = data.get("subcategories")
    if not isinstance(raw, dict):
        raise FileFormatError("pairs file needs a 'subcategories' table")
    missing = {"S", "T", "U", "V"} - set(raw)
    if missing:
        raise FileFormatError(f"pairs file is missing {sorted(missing)}")
    env = dict(raw)
    try:
        return {name: Subcategory(_resolve_name(name, ctx, env, set()), name=name)
                for name in raw}
    except RecursionError:
        raise FileFormatError("subcategory definitions nest too deeply") from None


def pairs_payload(subs: dict[str, Subcategory]) -> dict:
    return {
        "schema": PAIRS_SCHEMA,
        "subcategories": {
            name: [i.as_interval() for i in sub.sorted_ids()]
            for name, sub in subs.items()},
    }


# -- reports ---------------------------------------------------------------


def report_payload(check: str, verdict_payload: dict, presentation, fieldc,
                   subs: dict[str, Subcategory] | None, bounds: SearchBounds,
                   seed: int, timing: float) -> dict:
    data = {
        "schema": REPORT_SCHEMA,
        "check": check,
        "verdict": verdict_payload,
        "category": category_payload(presentation, fieldc),
        "bounds": bounds.payload(),
        "seed": seed,
        "timing_seconds": round(timing, 3),
    }
    if subs is not None:
        data["subcategories"] = pairs_payload(subs)["subcategories"]
    return data


def render_report_text(data: dict) -> str:
    """Human-readable rendering with the same verdict content as the JSON."""
    lines = [f"check: {data['check']}"]
    v = data["verdict"]
    lines.append(f"verdict: {v['status'].upper()}")
    if v.get("route"):
        lines.append(f"route: {v['route']}")
    cat = data["category"]
    rel = ",".join(f"{a}-{b}" for a, b in cat["relations"])
    lines.append(f"category: nakayama_linear n={cat['n']} relations={rel or '-'} "
                 f"char={cat['field_char']}")
    lines.append(f"bounds: mult={data['bounds']['mult']} "
                 f"dim_cap={data['bounds']['dim_cap']} seed={data['seed']}")
    for name in ("S", "T", "U", "V", "W"):
        if name in data.get("subcategories", {}):
            lines.append(f"{name}: {{{', '.join(data['subcategories'][name])}}}")
    for note in v.get("notes", []):
        lines.append(f"note: {note}")
    cert = v.get("certificate")
    if cert:
        lines.append(f"certificate: {json.dumps(cert, sort_keys=True)}")
    for w in v.get("witnesses", [])[:6]:
        lines.append(f"witness: {json.dumps(w, sort_keys=True)}")
    lines.append(f"timing: {data['timing_seconds']}s")
    return "\n".join(lines) + "\n"


EXIT_BY_STATUS = {"holds": 0, "fails": 1, "unknown": 3}


# -- certificate replay ----------------------------------------------------


@dataclass
class ReplayFailure(Exception):
    reason: str

    def __str__(self):
        return self.reason


@contextmanager
def _decoding(what: str):
    """Report a malformed payload decoded in this block as a ReplayFailure."""
    try:
        yield
    except (LookupError, ValueError, TypeError) as exc:
        raise ReplayFailure(f"{what} payload invalid: {exc}") from exc


def _module_from_payload(pres, fieldc, dims, maps) -> rc.Module:
    return rc.Module(pres, fieldc, dims, [np.array(m, dtype=np.int64).reshape(
        (dims[i], dims[i + 1])) if np.size(m) else np.zeros((dims[i], dims[i + 1]),
                                                            dtype=np.int64)
        for i, m in enumerate(maps)])


def _morphism_from_payload(src: rc.Module, dst: rc.Module, comps) -> rc.Morphism:
    return rc.Morphism(src, dst, [np.array(c, dtype=np.int64).reshape(
        (dst.dims[v], src.dims[v])) for v, c in enumerate(comps)])


def ses_from_payload(pres, fieldc, payload: dict) -> rc.SES:
    with _decoding("conflation"):
        first, middle, third = (
            _module_from_payload(pres, fieldc, payload[f"{t}_dims"], payload[f"{t}_maps"])
            for t in ("first", "middle", "third"))
        return rc.SES(_morphism_from_payload(first, middle, payload["i_comps"]),
                      _morphism_from_payload(middle, third, payload["p_comps"]))


def _obj_from_str(text: str) -> Obj:
    if not isinstance(text, str):
        raise ValueError(f"an object must be a string, got {text!r}")
    text = text.strip()
    if text == "0":
        return Obj(())
    return Obj(tuple(IndecId.parse(t) for t in text.split("+")))


# D swaps the twin's classes (S' = DV, T' = DU, U' = DT, V' = DS, W' = DW)
# and the two membership witnesses of a heart object
_DUAL_NAME = {"S": "V", "T": "U", "U": "T", "V": "S", "W": "W",
              "bplus": "bminus", "bminus": "bplus"}


def dual_certificate(cert: dict) -> dict:
    """D maps a non_integral certificate over the twin's algebra to a
    non_integral_dual one over the opposite algebra, and back.  Stated ids
    are mapped, not recomputed, so a replay still checks every claim."""
    c = cert["context"]
    pres, fieldc = _parse_algebra(c)
    n = pres.n
    op = generate(pres.op, fieldc)

    def obj(text):
        return str(_obj_from_str(text).dual(n))

    def ses(p):
        return {**ses_payload(op, ses_from_payload(pres, fieldc, p).dual()),
                "first": obj(p["third"]), "middle": obj(p["middle"]),
                "third": obj(p["first"])}

    primal = cert["kind"] == "non_integral"
    tri, outside, dual_tri, dual_outside = (
        ("epi", "u", "mono", "t") if primal else ("mono", "t", "epi", "u"))
    return {
        "kind": "non_integral_dual" if primal else "non_integral",
        "z": obj(cert["z"]),
        f"z_outside_{dual_outside}": obj(cert[f"z_outside_{outside}"]),
        "conflation": ses(cert["conflation"]),
        f"{dual_tri}_triangles": [{"kind": dual_tri, "conflation": ses(t["conflation"])}
                                  for t in cert[f"{tri}_triangles"]],
        "heart_witnesses": {
            obj(x): {_DUAL_NAME[k]: ses(v)
                     for k, v in _object(e, f"heart_witnesses {x}").items()}
            for x, e in _object(cert["heart_witnesses"], "heart_witnesses").items()},
        "context": {"n": n, "relations": [list(r) for r in pres.op.relations],
                    "field_char": fieldc.p,
                    **{_DUAL_NAME[k]: sorted(obj(x) for x in v)
                       for k, v in c.items() if k in ("S", "T", "U", "V", "W")}},
    }


def _check_ses_ids(ctx: CategoryCtx, ses: rc.SES, payload: dict) -> tuple[Obj, Obj, Obj]:
    first = ctx.identify(ses.first)
    middle = ctx.identify(ses.middle)
    third = ctx.identify(ses.third)
    for got, key in ((first, "first"), (middle, "middle"), (third, "third")):
        if got != _obj_from_str(payload[key]):
            raise ReplayFailure(
                f"conflation term {key} identifies as {got}, "
                f"stated {payload[key]}")
    return first, middle, third


def _ids_from_strings(strings) -> frozenset[IndecId]:
    return frozenset(IndecId.parse(s) for s in strings)


def _validate_heart_witnesses(ctx, classes, witnesses: dict, ids) -> None:
    _object(witnesses, "heart_witnesses")
    s_ids, v_ids, w_ids = classes["S"], classes["V"], classes["W"]
    pres, fieldc = ctx.presentation, ctx.field
    for x in ids:
        entry = witnesses.get(str(x))
        if entry is None or "bplus" not in entry or "bminus" not in entry:
            raise ReplayFailure(f"missing heart witnesses for {x}")
        bp = ses_from_payload(pres, fieldc, entry["bplus"])
        f, m, t = _check_ses_ids(ctx, bp, entry["bplus"])
        if not (f.summands_in(v_ids) and m.summands_in(w_ids) and t == Obj.of(x)):
            raise ReplayFailure(f"bplus witness for {x} violates its id-claims")
        bm = ses_from_payload(pres, fieldc, entry["bminus"])
        f, m, t = _check_ses_ids(ctx, bm, entry["bminus"])
        if not (f == Obj.of(x) and m.summands_in(w_ids) and t.summands_in(s_ids)):
            raise ReplayFailure(f"bminus witness for {x} violates its id-claims")


def _replay_triangle(ctx, classes, witnesses, tri: dict,
                     kind: str) -> tuple[Obj, Obj, Obj]:
    """Check a stated epi- or mono-triangle and return its three terms: the
    conflation is exact with the stated ids; its free end (the third term
    of an epi-triangle, the first of a mono-triangle) lies in add(U), resp.
    add(T); its inflation is core-monic, resp. its deflation core-epic; and
    its two heart terms carry valid membership witnesses."""
    from .heartcat import is_w_epic, is_w_monic  # local: avoids cycle

    payload = tri["conflation"]
    ses = ses_from_payload(ctx.presentation, ctx.field, payload)
    f, m, t = _check_ses_ids(ctx, ses, payload)
    epi = kind == "epi"
    free, term, cls = (t, "third", "U") if epi else (f, "first", "T")
    if not free.summands_in(classes[cls]):
        raise ReplayFailure(f"{kind}-triangle {term} term {free} leaves add({cls})")
    w_sub = Subcategory(classes["W"], "W")
    if epi and not is_w_monic(ctx, ses.i, w_sub):
        raise ReplayFailure("epi-triangle first map is not core-monic")
    if not epi and not is_w_epic(ctx, ses.p, w_sub):
        raise ReplayFailure("mono-triangle deflation is not core-epic")
    heart = f.ids + m.ids if epi else m.ids + t.ids
    _validate_heart_witnesses(ctx, classes, witnesses, sorted(set(heart)))
    return f, m, t


def replay_certificate(report: dict) -> list[str]:
    """Revalidate a stored certificate.  Returns human-readable check log;
    raises ReplayFailure on any mismatch."""
    cert = _object(report.get("verdict", {}), "verdict").get("certificate")
    if cert is None:
        raise ReplayFailure("report carries no certificate to replay")
    _object(cert, "certificate")
    kind = cert.get("kind")
    log = [f"replaying {kind} certificate"]
    cert_ctx = cert.get("context")
    if cert_ctx is None:
        cat = report["category"]
        cert_ctx = {
            "n": cat["n"], "relations": cat["relations"],
            "field_char": cat["field_char"],
        }
        cert_ctx.update(_object(report.get("subcategories", {}), "subcategories"))
    if kind == "non_integral_dual":
        inner = replay_certificate({"verdict": {"certificate": dual_certificate(
            {**cert, "context": cert_ctx})}})
        return log + ["mapped through D to a non_integral certificate over "
                      "the opposite algebra"] + inner[1:]
    pres, fieldc = _parse_algebra(cert_ctx)
    ctx = generate(pres, fieldc)
    classes = {k: _ids_from_strings(cert_ctx[k]) for k in "STUV"}
    w_ids = classes["W"] = classes["U"] & classes["T"]
    if "W" in cert_ctx and _ids_from_strings(cert_ctx["W"]) != w_ids:
        raise ReplayFailure("stated core W is not U intersect T")

    if kind in ("orthogonality", "twin_inclusion"):
        _rederived(cert, _replay_twin(ctx, classes, report)[0].verdict.certificate,
                   f"{kind} certificate")
        log.append("pair verification certificate re-derived from the stated twin")
        return log

    if kind == "non_integral":
        main = ses_from_payload(pres, fieldc, cert["conflation"])
        first, middle, third = _check_ses_ids(ctx, main, cert["conflation"])
        log.append(f"conflation {first} -> {middle} -> {third} is exact")
        z = _obj_from_str(cert["z"])
        if middle != z:
            raise ReplayFailure("conflation middle differs from stated z")
        if not first.summands_in(classes["T"]):
            raise ReplayFailure("conflation first term is not in add(T)")
        offender = IndecId.parse(cert["z_outside_u"])
        if offender not in set(z.ids) or offender in classes["U"]:
            raise ReplayFailure("stated offending summand is not outside U")
        remaining = list(third.ids)
        for tri in cert["epi_triangles"]:
            f, m, t = _replay_triangle(ctx, classes, cert["heart_witnesses"],
                                       tri, "epi")
            for x in t.ids:
                if x not in remaining:
                    raise ReplayFailure("epi-triangle thirds exceed the quotient")
                remaining.remove(x)
            log.append(f"epi-triangle {f} -> {m} -> {t} validated")
        if remaining:
            raise ReplayFailure(f"quotient summands not certified: {remaining}")
        _validate_heart_witnesses(ctx, classes, cert["heart_witnesses"],
                                  sorted(set(z.ids)))
        log.append("heart membership witnesses validated")
        return log

    if kind == "non_abelian":
        cond = cert.get("condition")
        if cond == 1:
            return _replay_condition1(ctx, classes, report, cert, log)
        if cond in (2, 3):
            # (2): the epi-triangle's third term leaves S+W; (3), its dual:
            # the mono-triangle's first term leaves V+W
            tri, cls = ("epi", "S") if cond == 2 else ("mono", "V")
            f, _, t = _replay_triangle(ctx, classes, cert["heart_witnesses"],
                                       cert[f"{tri}_triangle"], tri)
            checked = t if cond == 2 else f
            bad = IndecId.parse(cert["offending_summand"])
            if bad not in set(checked.ids) or bad in (classes[cls] | w_ids):
                raise ReplayFailure(f"offending summand is inside {cls}+W after all")
            log.append(f"condition ({cond}) counterexample validated: {checked}")
            return log
        raise ReplayFailure(f"unknown non-abelian condition {cond!r}")

    if kind == "non_integral_square":
        return _replay_square(ctx, classes, report, cert, log)

    raise ReplayFailure(f"unknown certificate kind {kind!r}")


def _rederived(cert: dict, rebuilt: dict | None, what: str) -> None:
    """Where replay can run the deciding code again, the certificate that
    code builds must be the stated one."""
    if rebuilt != cert:
        raise ReplayFailure(f"stated {what} differs from the one rebuilt")


def _replay_twin(ctx: CategoryCtx, classes: dict, report: dict):
    """(twin, bounds): the stated twin, verified again under the report's
    bounds."""
    bounds = SearchBounds(**{key: _num(f"bounds {key}", value) for key, value
                             in _object(report["bounds"], "bounds").items()})
    subs = {k: Subcategory(classes[k], k) for k in "STUV"}
    return verified_twin(ctx, subs, bounds), bounds


def _replay_hearts(ctx: CategoryCtx, classes: dict, report: dict):
    """(twin, hearts, bounds) of the stated twin, recomputed.  A tainted
    membership in any of the three tables refuses the replay: the decision
    makes no claim from such tables either."""
    tp, bounds = _replay_twin(ctx, classes, report)
    if not tp.verdict.holds:
        raise ReplayFailure("stated twin pair does not verify")
    hearts = compute_hearts(ctx, tp, bounds)
    taint = hearts.tainted_ids
    if taint:
        raise ReplayFailure("recomputed heart tables have tainted memberships "
                            "(a search hit its bound): "
                            + ", ".join(str(x) for x in sorted(taint)))
    return tp, hearts, bounds


def _replay_condition1(ctx: CategoryCtx, classes: dict, report: dict,
                       cert: dict, log: list[str]) -> list[str]:
    """check_abelian's certificate from the recomputed tables."""
    from .heartcat import condition1_certificate  # local: avoids cycle

    _, hearts, _ = _replay_hearts(ctx, classes, report)
    _rederived(cert, condition1_certificate(hearts), "condition (1) certificate")
    log.append("condition (1) witnesses validated against recomputed tables")
    return log


def _replay_square(ctx: CategoryCtx, classes: dict, report: dict, cert: dict,
                   log: list[str]) -> list[str]:
    """An epi d, and the probe's square from the stated d and b."""
    from .heartcat import (HeartMorphism, heart_context, is_epi_in_heart,
                           pullback_square)

    h = heart_context(ctx, *_replay_hearts(ctx, classes, report))

    def hm(key):
        payload = cert[key]
        src = _obj_from_str(payload["src"])
        dst = _obj_from_str(payload["dst"])
        if not (src.summands_in(h.heart_ids) and dst.summands_in(h.heart_ids)):
            raise ReplayFailure(f"square map {key} ({src} -> {dst}) leaves the "
                                f"recomputed heart")
        with _decoding("square map"):
            mor = _morphism_from_payload(ctx.realize(src), ctx.realize(dst),
                                         payload["comps"])
        return HeartMorphism(h, src, dst, mor)

    d, b, _ = hm("d_epi"), hm("b"), hm("leg_to_B")
    if b.dst != d.dst:
        raise ReplayFailure("b and d_epi end at different objects")
    if not is_epi_in_heart(d):
        raise ReplayFailure("stated epi d is not an epi in the heart")
    _rederived(cert, pullback_square(h, b, d), "pullback square of d_epi along b")
    log.append("pullback square counterexample validated")
    return log
