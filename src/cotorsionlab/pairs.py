"""Cotorsion pairs, twin pairs, and their heart classes.

Verification follows the two-sided contract: Ext-orthogonality on all
indecomposable pairs plus both approximation conflations witnessed for
every indecomposable of the algebra.  Heart membership is computed at
indecomposable level; membership of a general object means all its
summands are members (direct sums of conflations are conflations, so
this direction is always sound).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from . import repcore as rc
from .serialcat import CategoryCtx, IndecId
from .subcat import (SearchBounds, Subcategory, Verdict, approx_table,
                     approx_witness, inter)


class _WitnessTable(Mapping):
    """An IndecId -> SES table of approximation winners, each realized by
    `approx_witness` when read.  Not cached in the context, so holding the
    context makes no reference cycle."""

    def __init__(self, ctx: CategoryCtx, b_is_third: bool,
                 partners: Mapping[IndecId, int]):
        self._ctx, self._b_is_third, self._partners = ctx, b_is_third, partners

    def __getitem__(self, x: IndecId) -> rc.SES:
        return approx_witness(self._ctx, x, self._b_is_third, self._partners[x])

    def __contains__(self, x) -> bool:
        return x in self._partners

    def __iter__(self):
        return iter(self._partners)

    def __len__(self) -> int:
        return len(self._partners)


class _DualTable(Mapping):
    """An IndecId -> SES table read through D: the entry for x is D of the
    source entry for D(x), built on first use."""

    def __init__(self, table: Mapping, n: int):
        self._table, self._n, self._done = table, n, {}

    def __getitem__(self, x: IndecId) -> rc.SES:
        if x not in self._done:
            self._done[x] = self._table[x.dual(self._n)].dual()
        return self._done[x]

    def __contains__(self, x) -> bool:
        return x.dual(self._n) in self._table

    def __iter__(self):
        return (x.dual(self._n) for x in self._table)

    def __len__(self) -> int:
        return len(self._table)


@dataclass
class CotorsionPair:
    u: Subcategory
    v: Subcategory
    verdict: Verdict
    # per-indecomposable witness conflations (live objects, realized when
    # read, not serialized):
    #   left[b]:  V_B -> U_B -> B     right[b]: B -> V^B -> U^B
    left: Mapping[IndecId, rc.SES] = field(default_factory=dict)
    right: Mapping[IndecId, rc.SES] = field(default_factory=dict)


def verify_cotorsion(ctx: CategoryCtx, u: Subcategory, v: Subcategory,
                     bounds: SearchBounds) -> CotorsionPair:
    """Check Ext-orthogonality and search both approximation conflations
    for every indecomposable of the algebra."""
    for x in sorted(u.ids):
        for y in sorted(v.ids):
            if ctx.ext_dim(x, y):
                verdict = Verdict(
                    status="fails",
                    route="orthogonality",
                    certificate={"kind": "orthogonality",
                                 "ext_nonzero": [str(x), str(y)],
                                 "u": u.display(), "v": v.display()},
                    bounds=bounds, exhaustive=True)
                return CotorsionPair(u, v, verdict)
    lvs, lwin = approx_table(ctx, True, u, v, bounds)
    rvs, rwin = approx_table(ctx, False, v, u, bounds)
    unwitnessed = []
    truncated = False
    for b, lv, rv in zip(ctx.indecs, lvs, rvs):
        if not (lv.holds and rv.holds):
            unwitnessed.append(str(b))
            truncated = truncated or not (lv.exhaustive and rv.exhaustive)
    if unwitnessed:
        verdict = Verdict(
            status="unknown",
            route="approximation search",
            bounds=bounds,
            exhaustive=not truncated,
            notes=("unwitnessed indecomposables: " + ", ".join(unwitnessed),))
        return CotorsionPair(u, v, verdict)
    verdict = Verdict(status="holds", route="orthogonality + approximations",
                      bounds=bounds, exhaustive=True,
                      notes=(f"approximation conflations witnessed for all "
                             f"{len(ctx.indecs)} indecomposables",))
    return CotorsionPair(u, v, verdict, _WitnessTable(ctx, True, lwin),
                         _WitnessTable(ctx, False, rwin))


@dataclass
class TwinPair:
    st: CotorsionPair
    uv: CotorsionPair
    w: Subcategory
    verdict: Verdict

    @property
    def s(self) -> Subcategory:
        return self.st.u

    @property
    def t(self) -> Subcategory:
        return self.st.v

    @property
    def u(self) -> Subcategory:
        return self.uv.u

    @property
    def v(self) -> Subcategory:
        return self.uv.v

    def dual(self, n: int) -> "TwinPair":
        """The D-twin ((DV, DU), (DT, DS)) with core DW; D turns the left
        witnesses of a pair into the right ones of its dual and back."""
        def pair(cp):
            return CotorsionPair(cp.v.dual(n), cp.u.dual(n), cp.verdict,
                                 _DualTable(cp.right, n), _DualTable(cp.left, n))
        return TwinPair(pair(self.uv), pair(self.st), self.w.dual(n), self.verdict)


def verify_twin(ctx: CategoryCtx, st: CotorsionPair, uv: CotorsionPair) -> TwinPair:
    """A twin needs S inside U; the core W is U intersect T."""
    w = inter(uv.u, st.v, name="W")
    if not st.verdict.holds or not uv.verdict.holds:
        bad = st if not st.verdict.holds else uv
        verdict = Verdict(status=bad.verdict.status, route="pair verification",
                          certificate=bad.verdict.certificate,
                          bounds=bad.verdict.bounds,
                          notes=bad.verdict.notes)
        return TwinPair(st, uv, w, verdict)
    missing = sorted(st.u.ids - uv.u.ids)
    if missing:
        verdict = Verdict(
            status="fails", route="inclusion S in U",
            certificate={"kind": "twin_inclusion",
                         "outside_u": [str(x) for x in missing]},
            exhaustive=True)
        return TwinPair(st, uv, w, verdict)
    notes = [f"core W = {w.display()}"]
    if w.ids == uv.u.ids and w.ids == st.v.ids:
        notes.append("core coincides with U and T")
    verdict = Verdict(status="holds", route="twin verification",
                      exhaustive=True, notes=tuple(notes))
    return TwinPair(st, uv, w, verdict)


def verified_twin(ctx: CategoryCtx, subs: Mapping[str, Subcategory],
                  bounds: SearchBounds) -> TwinPair:
    """The twin ((S, T), (U, V)) named by subs, both pairs verified."""
    st = verify_cotorsion(ctx, subs["S"], subs["T"], bounds)
    uv = verify_cotorsion(ctx, subs["U"], subs["V"], bounds)
    return verify_twin(ctx, st, uv)


@dataclass
class HeartTable:
    """Indecomposable-level membership for one twin's heart classes."""

    core: Subcategory
    bplus: dict[IndecId, Verdict]
    bminus: dict[IndecId, Verdict]
    bplus_witness: Mapping[IndecId, rc.SES]
    bminus_witness: Mapping[IndecId, rc.SES]

    def plus_ids(self) -> frozenset[IndecId]:
        return frozenset(x for x, v in self.bplus.items() if v.holds)

    def minus_ids(self) -> frozenset[IndecId]:
        return frozenset(x for x, v in self.bminus.items() if v.holds)

    def heart_ids(self) -> frozenset[IndecId]:
        return self.plus_ids() & self.minus_ids()

    def surviving_ids(self) -> frozenset[IndecId]:
        """Heart members that stay nonzero in the quotient by the core."""
        return self.heart_ids() - self.core.ids

    def tainted_ids(self) -> frozenset[IndecId]:
        """Ids whose non-membership rests on a truncated (non-complete) search."""
        out = set()
        for x in self.bplus:
            pv, mv = self.bplus[x], self.bminus[x]
            if (pv.unknown and not pv.exhaustive) or (mv.unknown and not mv.exhaustive):
                out.add(x)
        return frozenset(out)

    def dual(self, n: int) -> "HeartTable":
        """D swaps the plus and minus classes and their witnesses."""
        def rekey(table):
            return {x.dual(n): v for x, v in table.items()}
        return HeartTable(self.core.dual(n), rekey(self.bminus), rekey(self.bplus),
                          _DualTable(self.bminus_witness, n),
                          _DualTable(self.bplus_witness, n))


def _heart_table(ctx: CategoryCtx, tp: TwinPair, bounds: SearchBounds) -> HeartTable:
    """The plus table (conflations V -> W -> x, V in add(V), W in the core)
    and the minus table (x -> W -> S, S in add(S)), read from the context's
    approximation tables; their unknown verdicts carry no notes."""
    pvs, pwin = approx_table(ctx, True, tp.w, tp.v, bounds)
    mvs, mwin = approx_table(ctx, False, tp.w, tp.s, bounds)
    return HeartTable(tp.w, dict(zip(ctx.indecs, pvs)), dict(zip(ctx.indecs, mvs)),
                      _WitnessTable(ctx, True, pwin), _WitnessTable(ctx, False, mwin))


@dataclass
class HeartClasses:
    """Heart data of a twin plus the hearts of its two single pairs."""

    twin: TwinPair
    bounds: SearchBounds
    main: HeartTable     # core W = U cap T
    first: HeartTable    # heart of (S, T), core S cap T
    second: HeartTable   # heart of (U, V), core U cap V

    def tainted_ids(self) -> frozenset[IndecId]:
        """Ids tainted in any of the three tables."""
        return (self.main.tainted_ids() | self.first.tainted_ids()
                | self.second.tainted_ids())

    def dual(self, twin: TwinPair, n: int) -> "HeartClasses":
        """Tables of the D-twin `twin`: D swaps the two single-pair hearts."""
        return HeartClasses(twin, self.bounds, self.main.dual(n),
                            self.second.dual(n), self.first.dual(n))


def degenerate_twin(ctx: CategoryCtx, pair: CotorsionPair) -> TwinPair:
    """The twin ((U,V),(U,V)) whose heart is the heart of the single pair."""
    return verify_twin(ctx, pair, pair)


def compute_hearts(ctx: CategoryCtx, tp: TwinPair,
                   bounds: SearchBounds) -> HeartClasses:
    """Membership tables for the twin's heart and both single-pair hearts."""
    if not tp.verdict.holds:
        raise ValueError("twin pair is not verified")
    main = _heart_table(ctx, tp, bounds)
    first = _heart_table(ctx, degenerate_twin(ctx, tp.st), bounds)
    second = _heart_table(ctx, degenerate_twin(ctx, tp.uv), bounds)
    return HeartClasses(tp, bounds, main, first, second)
