"""The heart as a computable quotient category, and the two decision
procedures: integrality and abelianness.

Morphisms of the heart are ordinary module morphisms between realized
objects, and the core ideal (maps factoring through add W) has a closed
form.  Hom between intervals is 0 or 1 (Auslander-Reiten-Smalo, ch. VI),
so for a = sum x_i and b = sum y_j the hom basis of Hom(a, b) is the
canonical maps x_i -> y_j, with 0/1 entries and disjoint supports: the
coefficient of x_i -> y_j in a map is its entry at vertex x_i.b, row y_j,
column x_i.  A composite x_i -> w -> y_j of canonical maps is
compose_canonical(x_i, w, y_j) times x_i -> y_j, so the ideal is spanned
by the canonical maps that factor so through some w in W, and the cells
of the others are the coordinates of the quotient (quotient_cells).
Epi/mono tests run two independent methods (cokernel/kernel criterion vs
hom-functor injectivity) and must agree; a disagreement raises instead
of producing a silent verdict.

Verdict policy: bounded searches never upgrade to a universal Holds.
Every Holds names a theorem route (star inclusion, zero heart, the
one-simple-object shortcut, or condition (1) with an id-set inclusion);
every Fails carries a self-contained certificate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from . import primefield as pf
from . import repcore as rc
from .fileformats import dual_certificate
from .pairs import HeartClasses, TwinPair
from .serialcat import CategoryCtx, Obj, basis_position
from .subcat import (SearchBounds, Subcategory, Verdict, _first_split,
                     ses_payload, subcat_in_star)

# Fixed caps of the bounded searches, which no caller sets.  Enumerated
# epi- and mono-triangles have at most TRIANGLE_MAX_SUMMANDS summands per
# end and skip classes over more than TRIANGLE_CLASS_CELLS_CAP support
# cells.  A non-integrality certificate's Z has at most CERT_Z_MAX_SUMMANDS
# summands and total dimension at most CERT_Z_DIM_CAP, which keeps the
# complete submodule scan of each candidate affordable.
TRIANGLE_MAX_SUMMANDS = 2
TRIANGLE_CLASS_CELLS_CAP = 8
CERT_Z_MAX_SUMMANDS = 4
CERT_Z_DIM_CAP = 12


class MethodDisagreement(AssertionError):
    """The criterion method and the hom-functor method disagreed."""


@dataclass
class HeartContext:
    """Bundles a verified twin with its heart tables and caches."""

    ctx: CategoryCtx
    tp: TwinPair
    hearts: HeartClasses
    bounds: SearchBounds
    _cache: dict = field(default_factory=dict)
    _dual: HeartContext | None = field(default=None, repr=False, compare=False)
    _dual_of: weakref.ref | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.w_ids = self.tp.w.ids
        self.heart_ids = self.hearts.main.heart_ids
        self.surviving = tuple(sorted(self.hearts.main.surviving_ids))

    # -- quotient-category linear algebra --------------------------------

    def hom_basis(self, a: Obj, b: Obj) -> list[rc.Morphism]:
        return self.ctx.hom_basis(a, b)

    def quotient_cells(self, a: Obj, b: Obj) -> np.ndarray:
        """Coordinates of Hom(a, b) modulo the core ideal: one (row, column)
        cell of the block matrix per canonical map x_i -> y_j that factors
        through no w in W, its entry at vertex x_i.b (see the module
        docstring).  A read-only array of shape (cells, 2)."""
        def build():
            ctx = self.ctx
            pairs = [(basis_position(b, j, x.b), basis_position(a, i, x.b))
                     for i, x in enumerate(a.ids) for j, y in enumerate(b.ids)
                     if ctx.hom_dim(x, y) and not any(
                         ctx.hom_dim(x, w) and ctx.hom_dim(w, y)
                         and ctx.compose_canonical(x, w, y) for w in self.w_ids)]
            cells = np.array(pairs if pairs else np.zeros((0, 2)), dtype=np.intp)
            cells.flags.writeable = False
            return cells
        return self.cached(("quotient_cells", a.ids, b.ids), build)

    def in_ideal(self, a: Obj, b: Obj, mor: rc.Morphism) -> bool:
        rows, cols = self.quotient_cells(a, b).T
        return not mor.block[rows, cols].any()

    def quotient_hom_dim(self, a: Obj, b: Obj) -> int:
        return len(self.quotient_cells(a, b))

    def dual(self) -> "HeartContext":
        """The heart of the D-twin ((DV,DU),(DT,DS)) over ctx.op, with core
        DW; witnesses are dualized on first use.  Cached, so h.dual().dual()
        is h; the way back is a weak reference, as for CategoryCtx.op."""
        base = self._dual_of() if self._dual_of is not None else None
        if base is not None:
            return base
        if self._dual is None:
            n = self.ctx.presentation.n
            self._dual = HeartContext(self.ctx.op, self.tp.dual(n),
                                      self.hearts.dual(n), self.bounds)
            self._dual._dual_of = weakref.ref(self)
        return self._dual

    # -- witness conflations ---------------------------------------------

    def cached(self, key, build):
        """The value cached under key, from build() on first use.  Keys are
        tuples that start with the name of what they cache."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def witness_map(self, kind: str, o: Obj) -> rc.Morphism:
        """One family of witness conflations summed over the summands of o:
        "bminus" (core envelopes) and "st_right" (the (S, T) pair) give the
        inflation realize(o) -> middle, "uv_left" (the (U, V) pair) the
        deflation middle ->> realize(o).  Cached per (kind, o)."""
        def build():
            table = {"bminus": self.hearts.main.bminus_witness,
                     "st_right": self.tp.st.right, "uv_left": self.tp.uv.left}[kind]
            parts = [table[x] for x in o.ids]
            mids = [s.middle for s in parts]
            total = rc.direct_sum(mids, self.ctx.presentation, self.ctx.field)
            if kind == "uv_left":
                return rc.block_morphism(total, self.ctx.realize(o), mids,
                                         [s.third for s in parts],
                                         {(k, k): s.p for k, s in enumerate(parts)})
            return rc.block_morphism(self.ctx.realize(o), total,
                                     [s.first for s in parts], mids,
                                     {(k, k): s.i for k, s in enumerate(parts)})
        return self.cached((kind, o.ids), build)

    # cached core-monic/epic tests for maps between canonical objects

    def core_monic(self, src: Obj, dst: Obj, mor: rc.Morphism) -> bool:
        p = self.ctx.field.p
        for wid in sorted(self.w_ids):
            wobj = Obj.of(wid)
            src_dim = len(self.hom_basis(src, wobj))
            if src_dim == 0:
                continue
            tgt_basis = self.hom_basis(dst, wobj)
            if not tgt_basis:
                return False
            if pf.rank(_composites(mor, tgt_basis), p) < src_dim:
                return False
        return True


def _composites(f: rc.Morphism, maps) -> np.ndarray:
    """The block matrices of f followed by each of maps, one row each.  The
    entries outside the vertex blocks are zero in every row, so the rank is
    that of the vectorized composites."""
    return (np.stack([g.block for g in maps]) @ f.block).reshape(len(maps), -1)


@dataclass(frozen=True)
class HeartMorphism:
    """A morphism between heart objects, with its coset for free.

    `mor` runs between the canonical realizations of src and dst; its
    coset modulo the core ideal is read at HeartContext.quotient_cells.
    Its dual and its pushout are computed once, on first use.
    """

    hctx: HeartContext
    src: Obj
    dst: Obj
    mor: rc.Morphism

    def payload(self) -> dict:
        return {"src": str(self.src), "dst": str(self.dst),
                "comps": [c.tolist() for c in self.mor.comps]}

    def dual(self) -> "HeartMorphism":
        """D(f): D(dst) -> D(src) in the D-heart, between canonical
        realizations."""
        return self._dual

    @cached_property
    def _dual(self) -> "HeartMorphism":
        n = self.hctx.ctx.presentation.n
        return HeartMorphism(self.hctx.dual(), self.dst.dual(n), self.src.dual(n),
                             self.hctx.ctx.dual_morphism(self.src, self.dst, self.mor))

    @cached_property
    def pushout(self) -> tuple[rc.Module, rc.Morphism]:
        """The pushout of f along the core envelope w: A -> W^A: the
        cokernel D of (f; w): A -> B + W^A, with its leg B -> D."""
        dmod, q = rc.cokernel(_combined_inflation(self.hctx, self))
        return dmod, _first_leg(q, self.hctx.ctx.realize(self.dst))


def heart_morphism_from_coeffs(hctx: HeartContext, a: Obj, b: Obj,
                               coeffs) -> HeartMorphism:
    """sum coeffs[k] * hom_basis(a, b)[k]."""
    basis = hctx.hom_basis(a, b)
    if len(coeffs) != len(basis):
        raise ValueError(f"Hom({a}, {b}) has dimension {len(basis)}, "
                         f"got {len(coeffs)} coefficients")
    src, dst = hctx.ctx.realize(a), hctx.ctx.realize(b)
    block = sum((c * g.block for c, g in zip(coeffs, basis)),
                pf.zeros(dst.total_dim, src.total_dim)) % hctx.ctx.field.p
    return HeartMorphism(hctx, a, b, rc.Morphism._make(src, dst, block))


# -- W-monic and W-epic ---------------------------------------------------


def is_w_monic(ctx: CategoryCtx, f: rc.Morphism, w: Subcategory) -> bool:
    """Hom(target, W) -> Hom(source, W) surjective for every W in w."""
    p = ctx.field.p
    for wid in sorted(w.ids):
        wmod = ctx.realize_id(wid)
        src_dim = len(rc.hom_space(f.source, wmod))
        if src_dim == 0:
            continue
        tgt_basis = rc.hom_space(f.target, wmod)
        if not tgt_basis:
            return False
        if pf.rank(_composites(f, tgt_basis), p) < src_dim:
            return False
    return True


def is_w_epic(ctx: CategoryCtx, f: rc.Morphism, w: Subcategory) -> bool:
    """Hom(W, source) -> Hom(W, target) surjective for every W in w, that
    is, D(f) is DW-monic over the opposite algebra."""
    return is_w_monic(ctx.op, f.dual(), w.dual(ctx.presentation.n))


# -- epi / mono in the heart (two methods, agreement enforced) ------------


def _combined_inflation(h: HeartContext, hm: HeartMorphism) -> rc.Morphism:
    """(f; w): A -> B + W^A."""
    winf = h.witness_map("bminus", hm.src)
    a, b = h.ctx.realize(hm.src), h.ctx.realize(hm.dst)
    bw = rc.direct_sum([b, winf.target], h.ctx.presentation, h.ctx.field)
    return rc.block_morphism(a, bw, [a], [b, winf.target],
                             {(0, 0): hm.mor, (1, 0): winf})


def _first_leg(q: rc.Morphism, first: rc.Module) -> rc.Morphism:
    """q on `first`, the first summand of its source: its columns there."""
    rest = tuple(d - e for d, e in zip(q.source.dims, first.dims))
    cols = rc.layout(first.presentation.n, [first.dims, rest])[1][0]
    return rc.Morphism._make(first, q.target, q.block[:, cols])


def _epi_by_criterion(hm: HeartMorphism) -> tuple[bool, Obj]:
    """Cokernel criterion: push A into B + W^A; epi iff the cokernel of
    the combined inflation lies in add(U)."""
    h = hm.hctx
    obj = h.ctx.identify(hm.pushout[0])
    return obj.summands_in(h.tp.u.ids), obj


def _epi_by_hom_functor(hm: HeartMorphism) -> bool:
    """underline(f) epi iff Hom(B, C)/W -> Hom(A, C)/W, g -> f.g, is
    injective for every surviving heart indecomposable C.  g -> f.g sends
    the core ideal to 0, so that holds iff the quotient cells of Hom(A, C)
    read on f.g, over the whole basis of Hom(B, C), have rank
    dim Hom(B, C)/W."""
    h = hm.hctx
    for c in map(Obj.of, h.surviving):
        need = h.quotient_hom_dim(hm.dst, c)
        if not need:
            continue
        cells = h.quotient_cells(hm.src, c)
        if len(cells) < need:
            return False
        fg = np.stack([g.block for g in h.hom_basis(hm.dst, c)]) @ hm.mor.block
        if pf.rank(fg[:, cells[:, 0], cells[:, 1]], h.ctx.field.p) < need:
            return False
    return True


def is_epi_in_heart(hm: HeartMorphism) -> bool:
    crit, cok = _epi_by_criterion(hm)
    direct = _epi_by_hom_functor(hm)
    if crit != direct:
        raise MethodDisagreement(
            f"epi test disagreement on {hm.src} -> {hm.dst}: "
            f"criterion={crit} (cokernel {cok}), hom-functor={direct}")
    return crit


def is_mono_in_heart(hm: HeartMorphism) -> bool:
    """underline(f) is mono iff D(f) is epi in the D-heart."""
    return is_epi_in_heart(hm.dual())


# -- kernels and cokernels in the heart -----------------------------------


def kernel_in_heart(hm: HeartMorphism) -> tuple[Obj, HeartMorphism, tuple[str, ...]]:
    """Kernel of underline(f) in the heart, as D of the cokernel of D(f) in
    the D-heart.  Returns the kernel object, the kernel morphism into A,
    and taint notes (empty when clean)."""
    cobj, cmor, notes = cokernel_in_heart(hm.dual())
    return (cobj.dual(hm.hctx.ctx.presentation.n), cmor.dual(),
            tuple(f"D-heart: {note}" for note in notes))


def cokernel_in_heart(hm: HeartMorphism) -> tuple[Obj, HeartMorphism, tuple[str, ...]]:
    """Cokernel of underline(f) in the heart: pushout along the core
    envelope of A, then reflect into the heart through the (U,V)-conflation
    and a pushout along the (S,T)-conflation of its middle term."""
    h = hm.hctx
    ctx = h.ctx
    p = ctx.field.p
    notes: list[str] = []
    dmod, uleg = hm.pushout                # uleg: B -> D

    dobj, dfwd, dbwd = ctx.canonical_iso_from(dmod)
    u_raw = h.witness_map("uv_left", dobj)  # U1 ->> realize(dobj)
    u1sum = u_raw.source
    u1obj, u1fwd, u1bwd = ctx.canonical_iso_from(u1sum)
    t2 = h.witness_map("st_right", u1obj)  # realize(u1obj) -> T2
    t2obj = ctx.identify(t2.target)
    if not t2obj.summands_in(h.w_ids):
        notes.append(f"envelope of {u1obj} left the core: {t2obj}")
    uD = u_raw.then(dfwd)                  # U1sum -> D
    t2U = u1bwd.then(t2)                   # U1sum -> T2
    big = rc.direct_sum([dmod, t2.target], ctx.presentation, ctx.field)
    po_map = rc.block_morphism(u1sum, big, [u1sum], [dmod, t2.target],
                               {(0, 0): uD, (1, 0): t2U.scale(p - 1)})
    dplus, qq = rc.cokernel(po_map)
    dleg = _first_leg(qq, dmod)            # D -> D^+
    cobj2, _, cbwd2 = ctx.canonical_iso_from(dplus)
    if not cobj2.summands_in(h.heart_ids):
        notes.append(f"cokernel object {cobj2} has summands outside the "
                     f"verified heart table")
    kmor = uleg.then(dleg).then(cbwd2)
    return cobj2, HeartMorphism(h, hm.dst, cobj2, kmor), tuple(notes)


# -- epi- and mono-triangle enumeration -----------------------------------


@dataclass(frozen=True)
class HeartTriangle:
    """A validated conflation with both heart ends.

    kind "epi": first -> middle -> third with first, middle in the heart,
    first map core-monic, and the third term in add(U).
    kind "mono": first in add(T), middle and third in the heart, and the
    deflation core-epic.
    """

    kind: str
    first: Obj
    middle: Obj
    third: Obj
    ses: rc.SES

    def payload(self, ctx: CategoryCtx) -> dict:
        return {"kind": self.kind, "conflation": ses_payload(ctx, self.ses)}


def _reduced_classes(support: list[tuple[int, int]], rows: int, cols: int, p: int):
    """Class matrices over the support cells with no zero row or column,
    with each row's leading nonzero entry normalized to 1.

    Classes with a zero row or column are direct sums of a smaller
    triangle and a split summand; scaling a row by a unit is an
    automorphism of that summand.  Both reductions preserve the middle
    term up to isomorphism, so this family covers every triangle.
    """
    for values in product(range(p), repeat=len(support)):
        rows_hit, cols_hit = set(), set()
        coeffs = {}
        normalized = True
        for cell, val in zip(support, values):
            if val:
                if cell[0] not in rows_hit and val != 1:
                    normalized = False
                    break
                coeffs[cell] = val
                rows_hit.add(cell[0])
                cols_hit.add(cell[1])
        if normalized and len(rows_hit) == rows and len(cols_hit) == cols:
            yield coeffs


def enum_epi_triangles(h: HeartContext):
    """Validated epi-conflations within h.bounds, canonical order.

    Enumerates reduced candidates over the Ext support between heart and
    U ids (at most TRIANGLE_MAX_SUMMANDS summands per side, every support
    cell nonzero) and keeps those whose middle stays in the heart table
    with a core-monic first map.  Identity conflations A -> A -> 0 and core
    conflations 0 -> W -> W are emitted first; third terms of valid
    triangles combine under direct sums, so coverage is the cone over
    the emitted stream.  Bounded, not exhaustive.
    """
    for _, tris in _epi_blocks(h):
        yield from tris


def _epi_blocks(h: HeartContext):
    """enum_epi_triangles as (third term, lazy triangles onto it) pairs, so
    a caller realizes the classes of only the third terms it asks for."""
    ctx, bounds = h.ctx, h.bounds
    zero = ctx.realize(Obj(()))
    heart_sorted = sorted(h.heart_ids)
    yield Obj(()), (HeartTriangle("epi", o, o, Obj(()), rc.SES(
        rc.identity(ctx.realize(o)), rc.zero_morphism(ctx.realize(o), zero)))
        for o in map(Obj.of, heart_sorted))
    for w in map(Obj.of, sorted(h.w_ids & h.tp.u.ids)):
        yield w, iter([HeartTriangle("epi", Obj(()), w, w, rc.SES(
            rc.zero_morphism(zero, ctx.realize(w)), rc.identity(ctx.realize(w))))])
    a_pool = [x for x in heart_sorted
              if any(ctx.ext_dim(u, x) == 1 for u in h.tp.u.ids)]
    u_pool = [u for u in sorted(h.tp.u.ids)
              if any(ctx.ext_dim(u, x) == 1 for x in h.heart_ids)]
    a_cands = Obj.multisets(a_pool, bounds.mult, bounds.dim_cap,
                            TRIANGLE_MAX_SUMMANDS)[1:]
    u_cands = Obj.multisets(u_pool, bounds.mult, bounds.dim_cap,
                            TRIANGLE_MAX_SUMMANDS)[1:]
    for u0 in u_cands:
        yield u0, _epi_triangles_onto(h, u0, a_cands)


def _epi_triangles_onto(h: HeartContext, u0: Obj, a_cands):
    """The validated epi-triangles a0 -> mid -> u0, a0 in a_cands order."""
    ctx = h.ctx
    for a0 in a_cands:
        support = ctx.ext_matrix_support(u0, a0)
        if len(support) > TRIANGLE_CLASS_CELLS_CAP:
            continue
        rows = {i for i, _ in support}
        cols = {j for _, j in support}
        if len(rows) < len(u0.ids) or len(cols) < len(a0.ids):
            continue  # some summand would split off
        for coeffs in _reduced_classes(support, len(u0.ids), len(a0.ids), ctx.field.p):
            ses = ctx.ses_for_class(u0, a0, coeffs)
            mid = ctx.identify(ses.middle)
            if not mid.summands_in(h.heart_ids):
                continue
            _, fwd, bwd = ctx.canonical_iso_from(ses.middle)
            canon_i = ses.i.then(bwd)
            if h.core_monic(a0, mid, canon_i):
                yield HeartTriangle("epi", a0, mid, u0, rc.SES(canon_i, fwd.then(ses.p)))


def _first_triangles(h: HeartContext, wanted):
    """(third term, first triangle) of each block of _epi_blocks whose third
    term passes wanted(third), asked before the block is realized."""
    for third, tris in _epi_blocks(h):
        t = next(tris, None) if wanted(third) else None
        if t is not None:
            yield third, t


def _epi_cone(h: HeartContext) -> WitnessCone:
    """WitnessCone of enum_epi_triangles(h); realizes one triangle
    per third term that no earlier triangle witnesses."""
    reps = {}
    for third, t in _first_triangles(h, lambda u: not (u.is_zero or u in reps)):
        reps[third] = t
    return WitnessCone(h.ctx, reps.items())


def enum_mono_triangles(h: HeartContext):
    """Conflations T -> X -> Y with X, Y in the heart and the deflation
    core-epic, witnessing T in the mono class: D of the epi-triangles of
    the D-heart, within the same bounds."""
    d = h.dual()
    for t in enum_epi_triangles(d):
        yield _mono_of(d, t)


def _mono_of(d: HeartContext, t: HeartTriangle) -> HeartTriangle:
    """D of an epi-triangle of the D-heart d: a mono-triangle of d.dual()."""
    n = d.ctx.presentation.n
    ses = rc.SES(d.ctx.dual_morphism(t.middle, t.third, t.ses.p),
                 d.ctx.dual_morphism(t.first, t.middle, t.ses.i))
    return HeartTriangle("mono", t.third.dual(n), t.middle.dual(n),
                         t.first.dual(n), ses)


class WitnessCone:
    """Objects generated by a family of witnessed objects under direct
    sums, remembering one witnessing triangle per generator."""

    def __init__(self, ctx: CategoryCtx, items):
        """items: iterable of (Obj, HeartTriangle)."""
        self.ctx = ctx
        self.index = {x: i for i, x in enumerate(ctx.indecs)}
        self.reps: dict[tuple, HeartTriangle] = {}
        for obj, tri in items:
            if obj.is_zero:
                continue
            v = self._vec(obj)
            if v not in self.reps:
                self.reps[v] = tri
        self.atoms = sorted(self.reps)
        self._memo: dict[tuple, tuple | None] = {}

    def _vec(self, o: Obj) -> tuple:
        v = [0] * len(self.index)
        for i in o.ids:
            v[self.index[i]] += 1
        return tuple(v)

    def decompose(self, o: Obj) -> list[HeartTriangle] | None:
        """Witnessing triangles whose terms sum to o, or None."""
        atoms = self._decompose(self._vec(o))
        if atoms is None:
            return None
        return [self.reps[a] for a in atoms]

    def contains(self, o: Obj) -> bool:
        return self._decompose(self._vec(o)) is not None

    def _decompose(self, v: tuple) -> tuple | None:
        if not any(v):
            return ()
        if v in self._memo:
            return self._memo[v]
        result = None
        for atom in self.atoms:
            if all(a <= b for a, b in zip(atom, v)):
                rest = self._decompose(tuple(b - a for a, b in zip(atom, v)))
                if rest is not None:
                    result = (atom,) + rest
                    break
        self._memo[v] = result
        return result


# -- the decision procedures ----------------------------------------------


def _semisimple_shortcut(h: HeartContext) -> bool:
    """One surviving object whose quotient endomorphism ring is the prime
    field, lying in both single-pair hearts: the heart is equivalent to
    vector spaces, hence abelian."""
    if len(h.surviving) != 1:
        return False
    x = h.surviving[0]
    obj = Obj.of(x)
    if h.quotient_hom_dim(obj, obj) != 1:
        return False
    return (x in h.hearts.first.heart_ids
            and x in h.hearts.second.heart_ids)


def check_integral(h: HeartContext) -> Verdict:
    """Decision ladder for integrality of the heart.

    Holds routes: zero heart; either star inclusion (U in S*T or
    T in U*V); the one-object shortcut (abelian implies integral).  Fails:
    a replayable certificate against the epi-triangle criterion or its
    dual.  Otherwise unknown within bounds.

    U inside S+W needs no route of its own: it implies U in S*T, since
    z in S splits as z -> z -> 0 and z in W (inside T) as 0 -> z -> z, and
    a verified twin keeps every indecomposable within dim_cap, so the
    submodule scan never refuses (a refusal would raise, not fall through).
    Likewise T inside V+W implies T in U*V.
    """
    ctx, bounds = h.ctx, h.bounds
    if not h.surviving:
        return Verdict(status="holds", route="zero-heart", bounds=bounds,
                       notes=("heart is the zero category",))
    tp = h.tp
    for name, x, y, z in (("U in S*T", tp.u, tp.s, tp.t), ("T in U*V", tp.t, tp.u, tp.v)):
        star = subcat_in_star(ctx, x, y, z, bounds)
        if star.holds:
            return Verdict(status="holds", route=f"star-inclusion {name}",
                           witnesses=star.witnesses, bounds=bounds)
    if _semisimple_shortcut(h):
        return Verdict(status="holds", route="one-simple-object heart "
                       "(abelian, hence integral)", bounds=bounds)

    cert = _non_integral_certificate(h)
    if cert is not None:
        return Verdict(status="fails", route="epi-triangle criterion",
                       certificate=cert, bounds=bounds)
    cert = _non_integral_certificate(h.dual())
    if cert is not None:
        return Verdict(status="fails", route="mono-triangle criterion (dual)",
                       certificate=dual_certificate(cert), bounds=bounds)
    return Verdict(status="unknown", route="all routes exhausted within bounds",
                   bounds=bounds,
                   notes=("no theorem route applied and no certificate found",))


def _non_integral_certificate(h: HeartContext) -> dict | None:
    """A certificate against the epi-triangle criterion: Z in the minus
    class with a summand outside U and a conflation T0 -> Z -> Y, Y in the
    cone of witnessed epi-triangle third terms.  On the D-heart this is
    the mono-triangle criterion.  Candidates Z ascend by (dim, lex) within
    the CERT_Z caps, so coverage is bounded."""
    ctx, bounds = h.ctx, h.bounds
    epi_cone = _epi_cone(h)
    candidates = Obj.multisets(sorted(h.hearts.main.minus_ids), bounds.mult,
                               min(bounds.dim_cap, CERT_Z_DIM_CAP), CERT_Z_MAX_SUMMANDS)
    for z in candidates:
        if z.summands_in(h.tp.u.ids):
            continue
        _, ses = _first_split(ctx, z, h.tp.t, epi_cone.contains, bounds.dim_cap)
        if ses is None:
            continue
        used = epi_cone.decompose(ctx.identify(ses.third)) or []
        offender = next(x for x in z.ids if x not in h.tp.u.ids)
        return {
            "kind": "non_integral",
            "z": str(z),
            "z_outside_u": str(offender),
            "conflation": ses_payload(ctx, ses),
            "epi_triangles": [t.payload(ctx) for t in used],
            "heart_witnesses": _heart_witness_payload(
                h, set(z.ids) | {i for t in used
                                 for i in t.first.ids + t.middle.ids}),
            "context": _context_payload(h),
        }
    return None


def _context_payload(h: HeartContext) -> dict:
    return {
        "n": h.ctx.presentation.n,
        "relations": [list(r) for r in h.ctx.presentation.relations],
        "field_char": h.ctx.field.p,
        "S": sorted(str(x) for x in h.tp.s.ids),
        "T": sorted(str(x) for x in h.tp.t.ids),
        "U": sorted(str(x) for x in h.tp.u.ids),
        "V": sorted(str(x) for x in h.tp.v.ids),
        "W": sorted(str(x) for x in h.w_ids),
    }


def _heart_witness_payload(h: HeartContext, ids) -> dict:
    """Membership conflations for each heart id used in a certificate."""
    out = {}
    for x in sorted(set(ids)):
        entry = {}
        if x in h.hearts.main.bplus_witness:
            entry["bplus"] = ses_payload(h.ctx, h.hearts.main.bplus_witness[x])
        if x in h.hearts.main.bminus_witness:
            entry["bminus"] = ses_payload(h.ctx, h.hearts.main.bminus_witness[x])
        out[str(x)] = entry
    return out


def _condition_verdict(h: HeartContext, cond: int) -> Verdict | None:
    """Fails on abelian condition (2), from the first epi-triangle whose
    third term leaves S+W, or (3), from the first mono-triangle whose first
    term leaves V+W: (2) on the D-heart, where S'+W' = D(V+W)."""
    d = h if cond == 2 else h.dual()
    t = next((t for _, t in _first_triangles(
        d, lambda u: not u.summands_in(d.tp.s.ids | d.w_ids))), None)
    if t is None:
        return None
    term, allowed, where = "third", h.tp.s.ids, "S+W"
    if cond == 3:
        t, term, allowed, where = _mono_of(d, t), "first", h.tp.v.ids, "V+W"
    obj = getattr(t, term)
    bad = next(x for x in obj.ids if x not in allowed | h.w_ids)
    heart_terms = (t.first, t.middle) if cond == 2 else (t.middle, t.third)
    cert = {"kind": "non_abelian", "condition": cond, f"{term}_term": str(obj),
            "offending_summand": str(bad), f"{t.kind}_triangle": t.payload(h.ctx),
            "heart_witnesses": _heart_witness_payload(
                h, [x for o in heart_terms for x in o.ids])}
    return Verdict(status="fails", route=f"condition ({cond}): witnessed "
                   f"{t.kind}-triangle {term} term outside {where}",
                   certificate=cert, bounds=h.bounds)


def condition1_certificate(hearts: HeartClasses) -> dict | None:
    """The certificate against abelian condition (1), from the three heart
    tables: the ids where the heart modulo the core W differs from
    (H1 cap H2) - W.  None when the two agree."""
    w, lhs = hearts.main.core.ids, hearts.main.surviving_ids
    h1, h2 = hearts.first.heart_ids, hearts.second.heart_ids
    rhs = (h1 & h2) - w
    if lhs == rhs:
        return None
    named = {"in_heart_not_in_h1": lhs - h1, "in_heart_not_in_h2": lhs - h2,
             "in_h1_and_h2_not_in_heart": rhs - lhs, "heart": lhs,
             "h1_surviving": h1 - w, "h2_surviving": h2 - w}
    return {"kind": "non_abelian", "condition": 1,
            **{k: [str(x) for x in sorted(v)] for k, v in named.items()}}


def check_abelian(h: HeartContext) -> Verdict:
    """Decision ladder for abelianness of the heart.

    The three necessary-and-sufficient conditions are: (1) the heart
    agrees with the intersection of the two single-pair hearts, as
    id-sets modulo the core; (2) every witnessed epi-triangle third term
    lies in S+W; (3) every witnessed mono-triangle first term lies in
    V+W.  Condition (1) is decided exactly (the membership searches are
    complete); (2) and (3) fail definitively on any witnessed
    counterexample.  Holds requires a theorem route.
    """
    bounds = h.bounds
    cert = condition1_certificate(h.hearts)
    taint = h.hearts.tainted_ids
    sub_notes = []
    if taint:
        sub_notes.append("tainted memberships: "
                         + ", ".join(str(x) for x in sorted(taint)))

    if cert is not None and not taint:
        return Verdict(status="fails",
                       route="condition (1): heart vs intersection of "
                             "single-pair hearts",
                       certificate=cert, bounds=bounds, exhaustive=True)

    # (2) and (3) cannot fail on the zero heart or a one-simple-object heart
    theorem = None
    if not h.surviving:
        theorem = Verdict(status="holds", route="zero-heart", bounds=bounds)
    elif _semisimple_shortcut(h):
        theorem = Verdict(status="holds", route="one-simple-object heart",
                          bounds=bounds,
                          notes=("heart is equivalent to vector spaces over "
                                 "the prime field",))
    for cond in ((2, 3) if theorem is None or taint else ()):
        failed = _condition_verdict(h, cond)
        if failed is not None:
            return failed
    if theorem is not None:
        return theorem
    # condition (1) passed untainted, so the heart is (H1 cap H2) - W
    if not taint and h.tp.u.ids <= h.tp.s.ids | h.w_ids:
        return Verdict(status="holds",
                       route="heart inside first heart + U inside S+W",
                       bounds=bounds, exhaustive=True)
    if not taint and h.tp.t.ids <= h.tp.v.ids | h.w_ids:
        return Verdict(status="holds",
                       route="heart inside second heart + T inside V+W",
                       bounds=bounds, exhaustive=True)
    integral = check_integral(h)
    if integral.fails:
        return Verdict(status="fails", route="not integral",
                       certificate=integral.certificate, bounds=bounds,
                       notes=("abelian categories are integral",))
    sub_notes.append(f"condition (1) {'holds' if cert is None else 'undecided'}")
    sub_notes.append("conditions (2), (3): no counterexample within bounds")
    sub_notes.append(f"integrality: {integral.status} ({integral.route})")
    return Verdict(status="unknown", route="conditions undecided within bounds",
                   bounds=bounds, notes=tuple(sub_notes))


# -- direct pullback probe -------------------------------------------------


def pullback_square(h: HeartContext, b: HeartMorphism,
                    d: HeartMorphism) -> dict | None:
    """The non_integral_square certificate of the pullback of d: C -> D
    along b: B -> D, or None when its leg to B is epi or the pullback is
    tainted.  The pullback is the heart kernel of (b, -d): B + C -> D."""
    ctx = h.ctx
    parts = [ctx.realize(b.src), ctx.realize(d.src)]
    big = rc.direct_sum(parts, ctx.presentation, ctx.field)
    comb = rc.block_morphism(big, ctx.realize(d.dst), parts, [ctx.realize(d.dst)],
                             {(0, 0): b.mor, (0, 1): d.mor.scale(ctx.field.p - 1)})
    bcobj, fwd, _ = ctx.canonical_iso_from(big)
    kobj, kmor, notes = kernel_in_heart(HeartMorphism(h, bcobj, d.dst, fwd.then(comb)))
    if notes:
        return None
    # the first row block of kmor . fwd: K -> B + C
    rows = rc.layout(ctx.presentation.n, (m.dims for m in parts))[1][0]
    leg = HeartMorphism(h, kobj, b.src, rc.Morphism._make(
        kmor.mor.source, parts[0], kmor.mor.then(fwd).block[rows]))
    if is_epi_in_heart(leg):
        return None
    return {"kind": "non_integral_square", "B": str(b.src), "C": str(d.src),
            "D": str(d.dst), "d_epi": d.payload(), "b": b.payload(),
            "pullback_vertex": str(kobj), "leg_to_B": leg.payload()}


def probe_integral_direct(h: HeartContext, max_squares: int = 20000) -> Verdict:
    """Exhaustive pullback probe: for epis d: C -> D and arbitrary
    b: B -> D among heart objects within h.bounds, the pullback leg toward
    B must stay epi.  Hom spaces of more than 2^14 maps are skipped.  Fails
    with the explicit square on a counterexample; never claims a universal
    Holds."""
    bounds, p = h.bounds, h.ctx.field.p
    objs = Obj.multisets(h.surviving, bounds.mult, bounds.dim_cap)[1:]

    def maps(a, b):
        n = len(h.hom_basis(a, b))
        coeffs = product(range(p), repeat=n) if n * np.log2(p) <= 14 else ()
        return (heart_morphism_from_coeffs(h, a, b, c) for c in coeffs)

    squares = ((d, b) for dobj, cobj in product(objs, objs)
               for d in maps(cobj, dobj) if not d.mor.is_zero() and is_epi_in_heart(d)
               for bobj in objs for b in maps(bobj, dobj))
    count = 0
    for count, (d, b) in enumerate(squares, 1):
        if count > max_squares:
            return Verdict(status="unknown", route="square budget exhausted",
                           bounds=bounds, notes=(f"checked {max_squares} squares",))
        cert = pullback_square(h, b, d)
        if cert is not None:
            return Verdict(status="fails", route="pullback square probe",
                           certificate=cert, bounds=bounds)
    return Verdict(status="unknown",
                   route="no counterexample square within bounds",
                   bounds=bounds, notes=(f"checked {count} squares",))


def heart_context(ctx: CategoryCtx, tp: TwinPair, hearts: HeartClasses,
                  bounds: SearchBounds) -> HeartContext:
    return HeartContext(ctx, tp, hearts, bounds)
