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


class _LazyTable(Mapping):
    """A table over `keys` whose entry for x is entry(x), built when first
    read and kept.  Not cached in the context, so holding the context makes
    no reference cycle."""

    def __init__(self, keys, entry):
        self._keys, self._entry, self._done = keys, entry, {}

    def __getitem__(self, x: IndecId) -> rc.SES:
        if x not in self._done:
            self._done[x] = self._entry(x)
        return self._done[x]

    def __contains__(self, x) -> bool:
        return x in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _witness_table(ctx: CategoryCtx, b_is_third: bool,
                   partners: Mapping[IndecId, int]) -> _LazyTable:
    """The approximation winners `partners`, each realized by
    `approx_witness` when read."""
    return _LazyTable(partners, lambda x: approx_witness(ctx, x, b_is_third,
                                                         partners[x]))


def _dual_table(table: Mapping[IndecId, rc.SES], n: int) -> _LazyTable:
    """The table read through D: the entry for x is D of the entry of D(x)."""
    return _LazyTable(tuple(x.dual(n) for x in table),
                      lambda x: table[x.dual(n)].dual())


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
    return CotorsionPair(u, v, verdict, _witness_table(ctx, True, lwin),
                         _witness_table(ctx, False, rwin))


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
                                 _dual_table(cp.right, n), _dual_table(cp.left, n))
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
    """Indecomposable-level membership for one heart: the plus class
    (conflations V -> W -> x, V in add(V), W in the core), the minus class
    (x -> W -> S, S in add(S)), their witness conflations, and the ids
    whose non-membership rests on a truncated search."""

    core: Subcategory
    bplus_witness: Mapping[IndecId, rc.SES]
    bminus_witness: Mapping[IndecId, rc.SES]
    tainted_ids: frozenset[IndecId]

    def __post_init__(self):
        self.plus_ids = frozenset(self.bplus_witness)
        self.minus_ids = frozenset(self.bminus_witness)
        self.heart_ids = self.plus_ids & self.minus_ids
        # heart members that stay nonzero in the quotient by the core
        self.surviving_ids = self.heart_ids - self.core.ids

    def dual(self, n: int) -> "HeartTable":
        """D swaps the plus and minus classes and their witnesses."""
        return HeartTable(self.core.dual(n), _dual_table(self.bminus_witness, n),
                          _dual_table(self.bplus_witness, n),
                          frozenset(x.dual(n) for x in self.tainted_ids))


def _heart_table(ctx: CategoryCtx, core: Subcategory, v: Subcategory,
                 s: Subcategory, bounds: SearchBounds) -> HeartTable:
    """The heart table of core W with plus partners in add(v) and minus
    partners in add(s), read from the context's approximation tables: a
    table has a winner for an id exactly when its search holds."""
    pvs, pwin = approx_table(ctx, True, core, v, bounds)
    mvs, mwin = approx_table(ctx, False, core, s, bounds)
    # a search that holds is exhaustive, so a search that is not is an
    # unknown cut short by the dimension cap
    tainted = frozenset(x for x, pv, mv in zip(ctx.indecs, pvs, mvs)
                        if not (pv.exhaustive and mv.exhaustive))
    return HeartTable(core, _witness_table(ctx, True, pwin),
                      _witness_table(ctx, False, mwin), tainted)


@dataclass
class HeartClasses:
    """The heart tables of a twin and of its two single pairs."""

    main: HeartTable     # core W = U cap T
    first: HeartTable    # heart of (S, T), core S cap T
    second: HeartTable   # heart of (U, V), core U cap V

    def __post_init__(self):
        # ids tainted in any of the three tables
        self.tainted_ids = (self.main.tainted_ids | self.first.tainted_ids
                            | self.second.tainted_ids)

    def dual(self, n: int) -> "HeartClasses":
        """The tables of the D-twin: D swaps the two single-pair hearts."""
        return HeartClasses(self.main.dual(n), self.second.dual(n),
                            self.first.dual(n))


def compute_hearts(ctx: CategoryCtx, tp: TwinPair,
                   bounds: SearchBounds) -> HeartClasses:
    """Membership tables for the twin's heart and both single-pair hearts;
    a single pair (X, Y) has core X cap Y."""
    if not tp.verdict.holds:
        raise ValueError("twin pair is not verified")
    return HeartClasses(
        _heart_table(ctx, tp.w, tp.v, tp.s, bounds),
        _heart_table(ctx, inter(tp.s, tp.t, name="W"), tp.t, tp.s, bounds),
        _heart_table(ctx, inter(tp.u, tp.v, name="W"), tp.v, tp.u, bounds))
