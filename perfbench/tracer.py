"""Span tracer for the per-layer run of the benchmark.

`Tracer.install` wraps, from outside, every public function of the eight
layer modules (and the public methods of the classes that do the work:
`Module`, `Morphism`, `CategoryCtx`, `HeartContext`, `WitnessCone`) in
every `cotorsionlab` namespace that holds a reference to it, so that
`cli.check_integral` and `heartcat.check_integral` record the same span.
A span is (name, parent span, request, start, end, code); spans live in
flat arrays in memory and are written out once, at the end, by `dump`.
The harness sets `request` before each request (-1 during set-up) and
`paused` while it checks outputs, so checks leave no spans.
Generator functions get one span for the call and one per `next()`, so
lazily consumed enumerations are timed where their work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("primefield", "repcore", "serialcat", "subcat", "pairs",
          "heartcat", "fileformats", "cli")
WORK_CLASSES = {"repcore": ("Module", "Morphism"),
                "serialcat": ("CategoryCtx",),
                "heartcat": ("HeartContext", "WitnessCone")}

CALL, GEN_CALL, GEN_NEXT, GEN_END = 0, 1, 2, 3
OUTCOME = 4  # added to the code when the outcome classifier says yes


def _approx_holds(result) -> bool:
    return result[0].holds


def _nontrivial_triangle(tri) -> bool:
    return not (tri.first.is_zero or tri.third.is_zero)


OUTCOMES = {"subcat.find_left_approx": _approx_holds,
            "subcat.find_right_approx": _approx_holds,
            "heartcat.enum_epi_triangles": _nontrivial_triangle,
            "heartcat.enum_mono_triangles": _nontrivial_triangle}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.code = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.request = -1
        self.paused = False

    # -- recording ------------------------------------------------------

    def _open(self, nid: int, code: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.request_id.append(self.request)
        self.code.append(code)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.current = self.parent[i]

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        outcome = OUTCOMES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_iter(gen):
                try:
                    while True:
                        i = tracer._open(nid, GEN_NEXT)
                        try:
                            item = next(gen)
                        except StopIteration:
                            tracer.code[i] = GEN_END
                            return
                        finally:
                            tracer._close(i)
                        if outcome is not None and outcome(item):
                            tracer.code[i] = GEN_NEXT + OUTCOME
                        yield item
                finally:
                    gen.close()

            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                i = tracer._open(nid, GEN_CALL)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                return traced_iter(gen)
        else:
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                i = tracer._open(nid, CALL)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                if outcome is not None and outcome(result):
                    tracer.code[i] = CALL + OUTCOME
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap the layers of the imported `cotorsionlab` package."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"cotorsionlab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
            for cls_name in WORK_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (
                            attr == "__init__" or not attr.startswith("_")):
                        setattr(cls, attr,
                                self._wrap(obj, f"{layer}.{cls_name}.{attr}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cotorsionlab"
                                   or mod_name.startswith("cotorsionlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans (record nothing more after this)."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "request": np.frombuffer(self.request_id, dtype=np.int32),
                "code": np.frombuffer(self.code, dtype=np.int8),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def dump(self, path, **meta) -> None:
        np.savez_compressed(path, names=np.array(self.names), **meta,
                            **self.arrays())


class SpanTable:
    """Vectorized view of a finished trace, for the per-layer metrics."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.code = a["code"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        name_layer = np.array([LAYERS.index(n.split(".", 1)[0])
                               for n in self.names])
        self.layer = name_layer[self.nid]

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names
                         if n in self.names], dtype=np.int64)

    def mask(self, *names: str, codes=None) -> np.ndarray:
        m = np.isin(self.nid, self.ids(*names))
        if codes is not None:
            m &= np.isin(self.code, codes)
        return m

    def calls(self, *names: str) -> int:
        return int(self.mask(*names, codes=(CALL, CALL + OUTCOME, GEN_CALL)).sum())

    def inclusive_s(self, *names: str) -> float:
        """Time inside the named functions, counting nested calls once."""
        group = set(self.ids(*names).tolist())
        total = 0.0
        for i in np.flatnonzero(self.mask(*names)):
            p = self.parent[i]
            while p >= 0 and self.nid[p] not in group:
                p = self.parent[p]
            if p < 0:
                total += self.dur[i]
        return float(total)

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self.layer == LAYERS.index(layer)].sum())

    def layer_calls(self, layer: str) -> int:
        return int((self.layer == LAYERS.index(layer)).sum())

    def children_of(self, parents: np.ndarray, *names: str, codes=None) -> np.ndarray:
        """Spans of the named functions whose parent is in `parents`."""
        m = self.mask(*names, codes=codes)
        return m & np.isin(self.parent, np.flatnonzero(parents))


def layer_metrics(t: SpanTable) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""

    def ratio(num: float, den: float) -> float:
        return float(num) / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def timed(prefix: str, *names: str) -> None:
        out[f"{prefix}.calls"] = (t.calls(*names), "count")
        out[f"{prefix}.s"] = (t.inclusive_s(*names), "s")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")

    pf_calls = t.layer_calls("primefield")
    out["primefield.calls"] = (pf_calls, "count")
    out["primefield.us_per_call"] = (
        ratio(t.layer_self_s("primefield") * 1e6, pf_calls), "us")

    timed("repcore.decompose", "repcore.decompose")
    timed("repcore.hom_space", "repcore.hom_space")
    timed("repcore.kernel_cokernel", "repcore.kernel", "repcore.cokernel")
    out["repcore.direct_sum.calls"] = (t.calls("repcore.direct_sum"), "count")
    scanned = t.mask("repcore.submodules", codes=(GEN_NEXT,))
    out["repcore.submodules.scanned"] = (int(scanned.sum()), "count")

    timed("serialcat.ses_for_class", "serialcat.CategoryCtx.ses_for_class")
    timed("serialcat.canonical_iso_from",
          "serialcat.CategoryCtx.canonical_iso_from")
    timed("serialcat.identify", "serialcat.CategoryCtx.identify")
    hb = t.mask("serialcat.CategoryCtx.hom_basis")
    misses = t.children_of(hb, "repcore.hom_space", codes=(CALL,)).sum()
    out["serialcat.hom_basis.calls"] = (int(hb.sum()), "count")
    out["serialcat.hom_basis.hit_ratio"] = (
        ratio(hb.sum() - misses, hb.sum()), "ratio")

    star = t.mask("subcat.star_member")
    timed("subcat.star_member", "subcat.star_member")
    timed("subcat.approx", "subcat.find_left_approx", "subcat.find_right_approx")
    approx_calls = out["subcat.approx.calls"][0]
    holds = t.mask("subcat.find_left_approx", "subcat.find_right_approx",
                   codes=(CALL + OUTCOME,)).sum()
    out["subcat.approx.holds_ratio"] = (ratio(holds, approx_calls), "ratio")
    per_search = t.children_of(star, "repcore.submodules", codes=(GEN_NEXT,)).sum()
    out["subcat.submodules_per_search"] = (ratio(per_search, star.sum()), "count")

    timed("pairs.verify_cotorsion", "pairs.verify_cotorsion")
    timed("pairs.compute_hearts", "pairs.compute_hearts")

    timed("heartcat.epi_mono", "heartcat.is_epi_in_heart",
          "heartcat.is_mono_in_heart")
    timed("heartcat.kernel_cokernel", "heartcat.kernel_in_heart",
          "heartcat.cokernel_in_heart")
    enums = ("heartcat.enum_epi_triangles", "heartcat.enum_mono_triangles")
    kept = t.mask(*enums, codes=(GEN_NEXT + OUTCOME,)).sum()
    realized = t.children_of(t.mask(*enums, codes=(GEN_NEXT, GEN_NEXT + OUTCOME,
                                                   GEN_END)),
                             "serialcat.CategoryCtx.ses_for_class").sum()
    out["heartcat.triangles.kept"] = (int(kept), "count")
    out["heartcat.triangles.keep_ratio"] = (ratio(kept, realized), "ratio")
    out["heartcat.enum.s"] = (t.inclusive_s(*enums), "s")
    out["heartcat.check_integral.s"] = (t.inclusive_s("heartcat.check_integral"), "s")
    out["heartcat.check_abelian.s"] = (t.inclusive_s("heartcat.check_abelian"), "s")
    out["heartcat.probe.s"] = (t.inclusive_s("heartcat.probe_integral_direct"), "s")

    timed("fileformats.replay", "fileformats.replay_certificate")
    out["fileformats.parse.s"] = (t.inclusive_s(
        "fileformats.read_json", "fileformats.parse_category",
        "fileformats.parse_pairs", "fileformats.parse_relations_flag"), "s")
    out["fileformats.report.s"] = (t.inclusive_s(
        "fileformats.report_payload", "fileformats.render_report_text",
        "fileformats.dumps_canonical", "fileformats.write_json"), "s")
    return out
