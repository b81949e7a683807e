"""Command-line surface.

Subcommands: generate, check-twin, heart, check-integral, check-abelian,
probe, replay.  Exit codes are a function of the verdict alone:
0 holds / success, 1 fails (certificate emitted), 2 bad input,
3 unknown within bounds, 4 replay mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import fileformats as ff
from .pairs import compute_hearts, verified_twin
from .repcore import FieldChar, QuiverPresentation
from .serialcat import generate as generate_ctx
from .subcat import SearchBounds, Verdict, inter, ses_payload
from .heartcat import (check_abelian, check_integral, heart_context,
                       probe_integral_direct)

EXIT_BAD_INPUT = 2
EXIT_REPLAY_MISMATCH = 4


def _load_setup(args):
    pres, fieldc = ff.parse_category(ff.read_json(args.category))
    ctx = generate_ctx(pres, fieldc)
    subs = ff.parse_pairs(ff.read_json(args.pairs), ctx)
    bounds = SearchBounds(mult=args.bound_mult, dim_cap=args.dim_cap)
    return ctx, subs, bounds


def _emit(args, check: str, verdict: Verdict, ctx, subs, bounds,
          started: float, extra: dict | None = None) -> int:
    # the report's W is always the core, U intersect T, even where the
    # pairs file names a helper W of its own: replay checks it is the core
    subs_out = {**subs, "W": inter(subs["U"], subs["T"], name="W")}
    data = ff.report_payload(check, verdict.payload(), ctx.presentation,
                             ctx.field, subs_out, bounds, 0,
                             time.monotonic() - started)
    if extra:
        data.update(extra)
    sys.stdout.write(ff.render_report_text(data))
    if args.report:
        ff.write_json(args.report, data)
    return ff.EXIT_BY_STATUS[verdict.status]


def _with_hearts(args, check: str, decide) -> int:
    """Load the input and verify its twin; emit the twin's verdict if it
    does not hold, else the (verdict, extra report keys) that
    decide(ctx, tp, hearts, bounds) returns."""
    started = time.monotonic()
    ctx, subs, bounds = _load_setup(args)
    tp = verified_twin(ctx, subs, bounds)
    if not tp.verdict.holds:
        return _emit(args, check, tp.verdict, ctx, subs, bounds, started)
    verdict, extra = decide(ctx, tp, compute_hearts(ctx, tp, bounds), bounds)
    return _emit(args, check, verdict, ctx, subs, bounds, started, extra)


def cmd_generate(args) -> int:
    try:
        relations = ff.parse_relations_flag(args.relations)
        pres = QuiverPresentation(args.n, relations)
        fieldc = FieldChar(args.char)
    except (ff.FileFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    ctx = generate_ctx(pres, fieldc)
    payload = ff.category_payload(pres, fieldc)
    if args.out:
        ff.write_json(args.out, payload)
    print(f"algebra: linear quiver on {pres.n} vertices, "
          f"relations {list(map(list, pres.relations))}, field F_{fieldc.p}")
    print(f"indecomposables: {len(ctx.indecs)}")
    print("  " + "  ".join(i.as_stack() for i in ctx.indecs))
    print(f"projectives: {', '.join(i.as_interval() for i in ctx.projectives)}")
    print(f"injectives:  {', '.join(i.as_interval() for i in ctx.injectives)}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_check_twin(args) -> int:
    started = time.monotonic()
    ctx, subs, bounds = _load_setup(args)
    tp = verified_twin(ctx, subs, bounds)
    verdict = tp.verdict
    if verdict.holds:
        dump = []
        for b in ctx.indecs:
            dump.append({
                "indec": str(b),
                "st_left": ses_payload(ctx, tp.st.left[b]),
                "st_right": ses_payload(ctx, tp.st.right[b]),
                "uv_left": ses_payload(ctx, tp.uv.left[b]),
                "uv_right": ses_payload(ctx, tp.uv.right[b]),
            })
        verdict = Verdict(status="holds", route=verdict.route,
                          witnesses=tuple(dump), bounds=bounds,
                          exhaustive=verdict.exhaustive, notes=verdict.notes)
    return _emit(args, "check-twin", verdict, ctx, subs, bounds, started)


def _tables_payload(hearts) -> dict:
    def ids(s):
        return sorted(str(x) for x in s)
    return {
        "W": ids(hearts.main.core.ids),
        "bplus": ids(hearts.main.plus_ids),
        "bminus": ids(hearts.main.minus_ids),
        "heart": ids(hearts.main.heart_ids),
        "heart_surviving": ids(hearts.main.surviving_ids),
        "h1_surviving": ids(hearts.first.surviving_ids),
        "h2_surviving": ids(hearts.second.surviving_ids),
        "tainted": ids(hearts.main.tainted_ids),
    }


def cmd_heart(args) -> int:
    def decide(ctx, tp, hearts, bounds):
        tables = _tables_payload(hearts)
        verdict = Verdict(
            status="holds", route="membership search (complete reduced space)",
            bounds=bounds, exhaustive=not hearts.main.tainted_ids,
            notes=(f"heart modulo core: {', '.join(tables['heart_surviving']) or '0'}",))
        return verdict, {"tables": tables}
    return _with_hearts(args, "heart", decide)


def _decision(args, which: str) -> int:
    def decide(ctx, tp, hearts, bounds):
        h = heart_context(ctx, tp, hearts, bounds)
        verdict = check_integral(h) if which == "check-integral" else check_abelian(h)
        return verdict, {"tables": _tables_payload(hearts)}
    return _with_hearts(args, which, decide)


def cmd_check_integral(args) -> int:
    return _decision(args, "check-integral")


def cmd_check_abelian(args) -> int:
    return _decision(args, "check-abelian")


def cmd_probe(args) -> int:
    def decide(ctx, tp, hearts, bounds):
        h = heart_context(ctx, tp, hearts, bounds)
        return probe_integral_direct(h, max_squares=args.max_squares), None
    return _with_hearts(args, "probe", decide)


def cmd_replay(args) -> int:
    report = ff.read_json(args.report_file)
    try:
        log = ff.replay_certificate(report)
    except ff.ReplayFailure as exc:
        sys.stdout.write(f"replay: MISMATCH\nreason: {exc}\n")
        return EXIT_REPLAY_MISMATCH
    except (LookupError, TypeError, ValueError) as exc:
        sys.stdout.write(f"replay: MISMATCH\nreason: malformed certificate "
                         f"({exc.__class__.__name__}: {exc})\n")
        return EXIT_REPLAY_MISMATCH
    for line in log:
        sys.stdout.write(f"replay: {line}\n")
    sys.stdout.write("replay: certificate accepted\n")
    return 0


def _add_common(sp):
    sp.add_argument("--category", required=True, help="category JSON file")
    sp.add_argument("--pairs", required=True, help="pairs JSON file")
    sp.add_argument("--bound-mult", type=int, default=2,
                    help="max multiplicity per indecomposable in searches")
    sp.add_argument("--dim-cap", type=int, default=24,
                    help="max total dimension of enumerated modules")
    sp.add_argument("--report", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cotorsionlab",
        description="twin cotorsion pairs and their hearts over bound "
                    "linear Nakayama algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a category file and census")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--relations", default="", help='e.g. "1-5,2-6"')
    g.add_argument("--char", type=int, default=2)
    g.add_argument("--out", help="write the category JSON here")
    g.set_defaults(fn=cmd_generate)

    for name, fn, extra_help in (
            ("check-twin", cmd_check_twin, "verify a twin cotorsion pair"),
            ("heart", cmd_heart, "compute heart membership tables"),
            ("check-integral", cmd_check_integral,
             "decide integrality of the heart"),
            ("check-abelian", cmd_check_abelian,
             "decide abelianness of the heart")):
        sp = sub.add_parser(name, help=extra_help)
        _add_common(sp)
        sp.set_defaults(fn=fn)

    pr = sub.add_parser("probe", help="direct pullback-square probe")
    _add_common(pr)
    pr.add_argument("--max-squares", type=int, default=20000)
    pr.set_defaults(fn=cmd_probe)

    rp = sub.add_parser("replay", help="revalidate a stored certificate")
    rp.add_argument("report_file", help="report JSON containing a certificate")
    rp.set_defaults(fn=cmd_replay)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("bound_mult", "dim_cap", "max_squares"):
        value = getattr(args, flag, 1)
        if value < 1:
            sys.stderr.write(f"error: --{flag.replace('_', '-')} must be at "
                             f"least 1, got {value}\n")
            return EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except ff.FileFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        sys.stderr.write(f"error: {where}{exc.strerror or exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
