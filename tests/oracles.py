"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the solver paths they check: morphism spaces are
found by enumerating all component tuples and testing naturality entry by
entry; submodules by enumerating all per-vertex subspace tuples; Ext by
searching all middle candidates for a non-split conflation.  The Hom and
Ext tables are also checked by brute-force linear algebra: the nullspace
of the naturality system and an explicit projective presentation.  The
generic Fitting decomposition, the image factorization, the middles of
every Ext class, the core ideal by composition through every core object
and the kernel universal-property probe are cross-checks that nothing in
the solver calls.  The per-vertex module operations (`*_by_vertex`) are
the references for repcore's block-matrix operations: one small matrix,
and one elimination, per vertex or arrow.
"""

from itertools import product

import numpy as np

from cotorsionlab import primefield as pf
from cotorsionlab import repcore as rc
from cotorsionlab.heartcat import HeartMorphism, heart_morphism_from_coeffs
from cotorsionlab.repcore import Module, Morphism
from cotorsionlab.serialcat import CategoryCtx, IndecId, Obj


def all_matrices(rows, cols, p):
    for entries in product(range(p), repeat=rows * cols):
        yield np.array(entries, dtype=np.int64).reshape(rows, cols)


def hom_dim_enumerated(m: Module, n: Module) -> int:
    """Count Hom(m, n) by enumerating every component tuple."""
    p = m.field.p
    nv = m.presentation.n
    shapes = [(n.dims[v], m.dims[v]) for v in range(nv)]
    total = sum(r * c for r, c in shapes)
    if total > 16:
        raise ValueError("module pair too large for the enumeration oracle")
    count = 0
    for entries in product(range(p), repeat=total):
        comps = []
        ofs = 0
        for r, c in shapes:
            comps.append(np.array(entries[ofs:ofs + r * c],
                                  dtype=np.int64).reshape(r, c))
            ofs += r * c
        ok = True
        for i in range(nv - 1):
            lhs = (n.maps[i] @ comps[i + 1]) % p
            rhs = (comps[i] @ m.maps[i]) % p
            if lhs.size and np.any((lhs - rhs) % p):
                ok = False
                break
        if ok:
            count += 1
    # the count is p^dim; recover dim
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count, "morphism count is not a power of p"
    return dim


def hom_dim_brute(m: Module, n: Module) -> int:
    """dim Hom(m, n) from the nullspace of the naturality system."""
    return len(rc.hom_space(m, n))


def ext_dim_brute(ctx: CategoryCtx, x: IndecId, y: IndecId) -> int:
    """Ext dimension from an explicit projective presentation in repcore."""
    pcov = ctx.projective_cover_id(x)
    pmod = ctx.realize_id(pcov)
    omod, oincl = rc.kernel(ctx.canonical_hom(pcov, x))
    ymod = ctx.realize_id(y)
    hom_o = rc.hom_space(omod, ymod)
    if not hom_o:
        return 0
    hom_p = rc.hom_space(pmod, ymod)
    if not hom_p:
        return len(hom_o)
    restricted = np.stack([oincl.then(h).vectorize() for h in hom_p], axis=1)
    return len(hom_o) - pf.rank(restricted, ctx.field.p)


def checked_split(m: Module) -> tuple[list[tuple[int, int]], Morphism, Morphism]:
    """rc.decompose(m) with its iso checked: the intervals ascend, the
    block is zero outside the vertex blocks of a natural map onto m from
    the direct sum of their interval modules, and its inverse mod p is a
    natural two-sided inverse.  Returns (intervals, iso, inverse)."""
    p = m.field.p
    intervals, block = rc.decompose(m)
    assert intervals == sorted(intervals)
    canon = rc.direct_sum([rc.interval_module(m.presentation, m.field, a, b)
                           for a, b in intervals], m.presentation, m.field)
    fwd = Morphism(canon, m, Morphism._make(canon, m, block).comps)
    assert np.array_equal(fwd.block, block)
    assert fwd.is_iso()
    inverse = pf.inv(block, p)
    bwd = Morphism(m, canon, Morphism._make(m, canon, inverse).comps)
    assert np.array_equal(bwd.block, inverse)
    assert np.array_equal(fwd.then(bwd).block, pf.eye(m.total_dim))
    assert np.array_equal(bwd.then(fwd).block, pf.eye(m.total_dim))
    return intervals, fwd, bwd


def count_submodules_enumerated(m: Module) -> int:
    """Count subrepresentations by enumerating per-vertex subspaces."""
    p = m.field.p
    nv = m.presentation.n
    per_vertex = [list(pf.enumerate_subspaces(m.dims[v], p)) for v in range(nv)]
    count = 0
    for choice in product(*per_vertex):
        ok = True
        for i in range(nv - 1):
            img = (m.maps[i] @ choice[i + 1]) % p
            # img must lie inside span(choice[i])
            if img.size and pf.solve(choice[i], img, p) is None:
                ok = False
                break
        if ok:
            count += 1
    return count


def ext_nonzero_by_ses_search(ctx: CategoryCtx, x, y) -> bool:
    """Does a non-split conflation y -> E -> x exist?  Searches every
    middle candidate with the right dimension vector and every submodule."""
    xmod, ymod = ctx.realize_id(x), ctx.realize_id(y)
    want = tuple(a + b for a, b in zip(xmod.dims, ymod.dims))
    split = Obj.of(x, y)
    for cand in _multisets_with_dims(ctx, want):
        if cand == split:
            continue  # a split middle cannot carry a non-split conflation
        # a uniserial submodule embeds into a single summand, and a
        # uniserial quotient is a quotient of a single summand
        if not any(i.a == y.a and i.b >= y.b for i in cand.ids):
            continue
        if not any(i.b == x.b and i.a <= x.a for i in cand.ids):
            continue
        emod = ctx.realize(cand)
        for sub, incl in rc.submodules(emod):
            if sub.dims != ymod.dims or ctx.identify(sub) != Obj.of(y):
                continue
            quot, _ = rc.cokernel(incl)
            if ctx.identify(quot) == Obj.of(x):
                return True
    return False


def _multisets_with_dims(ctx: CategoryCtx, want):
    ids = list(ctx.indecs)

    def rec(idx, remaining, current):
        if all(r == 0 for r in remaining):
            yield Obj(tuple(current))
            return
        if idx == len(ids):
            return
        yield from rec(idx + 1, remaining, current)
        iv = ids[idx]
        fits = all(remaining[v - 1] >= 1 for v in range(iv.a, iv.b + 1))
        if fits:
            nxt = list(remaining)
            for v in range(iv.a, iv.b + 1):
                nxt[v - 1] -= 1
            yield from rec(idx, nxt, current + [iv])

    yield from rec(0, list(want), [])


def multisets_by_product(ids, mult, dim_cap, max_summands=None):
    """Obj.multisets by brute force: every multiplicity vector in
    0..mult, filtered by the caps, sorted by (total_dim, ids)."""
    ids = sorted(ids)
    out = []
    for counts in product(range(mult + 1), repeat=len(ids)):
        o = Obj(tuple(x for x, c in zip(ids, counts) for _ in range(c)))
        if o.total_dim <= dim_cap and (max_summands is None
                                       or len(o.ids) <= max_summands):
            out.append(o)
    return sorted(out, key=lambda o: (o.total_dim, o.ids))


def direct_sum_embeddings(modules, presentation, fieldc):
    """repcore.direct_sum with its canonical inclusions and projections,
    each built as an identity block at the summand's offsets."""
    total = rc.direct_sum(modules, presentation, fieldc)
    incls, projs = [], []
    offsets = [0] * presentation.n
    for m in modules:
        icomps = []
        for v in range(presentation.n):
            ic = pf.zeros(total.dims[v], m.dims[v])
            ic[offsets[v]:offsets[v] + m.dims[v], :] = pf.eye(m.dims[v])
            icomps.append(ic)
            offsets[v] += m.dims[v]
        incls.append(rc.Morphism(m, total, icomps))
        projs.append(rc.Morphism(total, m, [ic.T for ic in icomps]))
    return total, incls, projs


def block_morphism_by_sum(source_parts, target_parts, blocks, presentation,
                          fieldc):
    """repcore.block_morphism by its definition: the sum over the blocks
    f = blocks[j, i] of proj_i . f . incl_j, with direct_sum's embeddings."""
    src, _, projs = direct_sum_embeddings(source_parts, presentation, fieldc)
    dst, incls, _ = direct_sum_embeddings(target_parts, presentation, fieldc)
    out = rc.zero_morphism(src, dst)
    for (j, i), f in blocks.items():
        out = out.add(projs[i].then(f).then(incls[j]))
    return out


def complement_projector_by_inverse(basis, dim, p):
    """primefield.complement_projector by three eliminations and an inverse:
    a column basis of the subspace, its pivot rows, then q as the bottom
    rows of the inverse of [column basis | standard vectors at free rows]."""
    b = pf.asmat(basis, p)
    if b.shape[0] != dim:
        raise ValueError("basis has wrong ambient dimension")
    bcols = pf.column_space_basis(b, p)
    r = bcols.shape[1]
    _, pivots = pf.rref(bcols.T, p)  # pivot rows of the subspace
    free_rows = [i for i in range(dim) if i not in pivots]
    ext = pf.zeros(dim, len(free_rows))
    for j, fr in enumerate(free_rows):
        ext[fr, j] = 1
    fi = pf.inv(np.hstack([bcols, ext]), p)
    if fi is None:
        raise ArithmeticError("complement construction failed")
    return fi[r:, :], ext


def core_epic(h, src: Obj, dst: Obj, mor) -> bool:
    """Hom(W, src) -> Hom(W, dst) surjective for every core W: the D of mor
    is core-monic in the D-heart."""
    n = h.ctx.presentation.n
    return h.dual().core_monic(dst.dual(n), src.dual(n),
                               h.ctx.dual_morphism(src, dst, mor))


def extensions(ctx: CategoryCtx, x: IndecId, y: IndecId) -> list[Obj]:
    """Decomposed middle term for each class of Ext(x, y), split first."""
    ctx.check_id(x)
    ctx.check_id(y)
    middles = [Obj.of(x, y)]
    if ctx.ext_dim(x, y):
        for lam in range(1, ctx.field.p):
            ses = ctx.ses_for_class(Obj.of(x), Obj.of(y), {(0, 0): lam})
            middles.append(ctx.identify(ses.middle))
    return middles


class DecompositionInconclusiveError(RuntimeError):
    """Raised instead of ever returning a possibly-wrong splitting."""


def image(f: Morphism) -> tuple[Module, Morphism, Morphism]:
    """Image factorization f = incl . epi through the image submodule."""
    p = f.p
    bases = [pf.column_space_basis(c, p) for c in f.comps]
    img = restrict_by_vertex(f.target, bases)
    if img is None:
        raise ArithmeticError("image is not a subrepresentation (bug)")
    incl = Morphism(img, f.target, bases, validate=False)
    epi_comps = []
    for v in range(f.source.presentation.n):
        sol = pf.solve(bases[v], f.comps[v], p)
        if sol is None:
            raise ArithmeticError("image factorization failed (bug)")
        epi_comps.append(sol)
    epi = Morphism(f.source, img, epi_comps, validate=False)
    return img, incl, epi


def _fitting_split(m: Module, e: Morphism) -> tuple[Morphism, Morphism] | None:
    """Stabilize e and return inclusions of (ker, im) if both are proper."""
    p = m.field.p
    power = e
    for _ in range(max(1, m.total_dim).bit_length() + 1):
        power = power.then(power)
    k, kincl = rc.kernel(power)
    if k.total_dim == 0 or k.total_dim == m.total_dim:
        return None
    img, iincl, _ = image(power)
    if k.total_dim + img.total_dim != m.total_dim:
        return None
    return kincl, iincl


def decompose_generic(m: Module, end_cap: int = 12, seed: int = 0) -> list[Module]:
    """Fitting/idempotent decomposition, independent of serial structure.

    Tries Fitting splittings from endomorphism basis elements and seeded
    random combinations; falls back to exhaustive idempotent search while
    dim End <= end_cap.  Raises DecompositionInconclusiveError rather than
    guessing.  Pieces are returned sorted by (dims, total_dim).
    """
    rng = np.random.default_rng(seed)
    p = m.field.p

    def combine(tensors, coeffs):
        return [np.tensordot(coeffs, t, axes=1) % p if t.size
                else t[0] for t in tensors]

    def rec(sub: Module) -> list[Module]:
        if sub.is_zero:
            return []
        basis = rc.hom_space(sub, sub)
        if len(basis) == 1:
            return [sub]
        k = len(basis)
        # per-vertex stacked basis components, for cheap linear combinations
        tensors = [np.stack([b.comps[v] for b in basis])
                   for v in range(sub.presentation.n)]
        cand_vectors = [np.eye(k, dtype=np.int64)[i] for i in range(k)]
        cand_vectors += [rng.integers(0, p, size=k) for _ in range(8)]
        for coeffs in cand_vectors:
            if not np.any(coeffs % p):
                continue
            e = Morphism(sub, sub, combine(tensors, coeffs), validate=False)
            split = _fitting_split(sub, e)
            if split is not None:
                kincl, iincl = split
                return rec(kincl.source) + rec(iincl.source)
        if k <= end_cap:
            for vec in pf.enumerate_vectors(k, p):
                if not np.any(vec):
                    continue
                comps = combine(tensors, vec)
                if any(np.any((c @ c - c) % p) for c in comps):
                    continue  # not idempotent
                if all(np.array_equal(c, np.eye(c.shape[0], dtype=np.int64))
                       for c in comps):
                    continue  # the identity splits nothing
                e = Morphism(sub, sub, comps, validate=False)
                split = _fitting_split(sub, e)
                if split is not None:
                    kincl, iincl = split
                    return rec(kincl.source) + rec(iincl.source)
            return [sub]  # no nontrivial idempotent: certified indecomposable
        raise DecompositionInconclusiveError(
            f"dim End = {k} exceeds cap {end_cap} and Fitting found no split")

    return sorted(rec(m), key=lambda x: (x.total_dim, x.dims))


def _basis_matrix(h, a: Obj, b: Obj) -> np.ndarray:
    """The hom basis of Hom(a, b), vectorized and stacked as columns."""
    basis = h.hom_basis(a, b)
    if basis:
        return np.stack([g.vectorize() for g in basis], axis=1)
    return pf.zeros(sum(x * y for x, y in zip(h.ctx.realize(a).dims,
                                             h.ctx.realize(b).dims)), 0)


def core_ideal_by_composition(h, a: Obj, b: Obj) -> np.ndarray:
    """Reduced row basis of the core ideal inside Hom(a, b), vectorized:
    every basis map a -> w followed by every basis map w -> b, for each w in
    the core, row reduced.  The module-arithmetic reference for
    HeartContext.quotient_cells."""
    rows = [f.then(g).vectorize() for w in map(Obj.of, sorted(h.w_ids))
            for f in h.hom_basis(a, w) for g in h.hom_basis(w, b)]
    if not rows:
        return pf.zeros(0, _basis_matrix(h, a, b).shape[0])
    red, piv = pf.rref(np.stack(rows, axis=0), h.ctx.field.p)
    return red[:len(piv), :]


def in_row_span(reduced: np.ndarray, vec: np.ndarray, p: int) -> bool:
    """vec lies in the span of the rows of a reduced row echelon matrix."""
    vec = vec % p
    for row in reduced:
        vec = (vec - vec[np.flatnonzero(row)[0]] * row) % p
    return not np.any(vec)


def in_core_ideal(h, a: Obj, b: Obj, mor: Morphism) -> bool:
    """mor: realize(a) -> realize(b) factors through the core, by
    core_ideal_by_composition."""
    return in_row_span(core_ideal_by_composition(h, a, b), mor.vectorize(),
                       h.ctx.field.p)


def validate_kernel_universal_property(hm: HeartMorphism, kobj: Obj,
                                       kmor: HeartMorphism) -> bool:
    """Lemma-style probe: every underline map d: D -> A killed by f
    factors through the kernel, uniquely modulo the core ideal, for all
    surviving heart indecomposables D.  The core ideal is
    core_ideal_by_composition throughout."""
    h = hm.hctx
    p = h.ctx.field.p
    for did in h.surviving:
        d = Obj.of(did)
        basis_dk = h.hom_basis(d, kobj)
        mat_dk = (np.stack([g.then(kmor.mor).vectorize() for g in basis_dk], axis=1)
                  if basis_dk else _basis_matrix(h, d, hm.src)[:, :0])
        span = np.hstack([mat_dk, core_ideal_by_composition(h, d, hm.src).T])
        for coeffs in product(range(p), repeat=len(h.hom_basis(d, hm.src))):
            dm = heart_morphism_from_coeffs(h, d, hm.src, coeffs).mor
            if not in_core_ideal(h, d, hm.dst, dm.then(hm.mor)):
                continue
            vec = dm.vectorize().reshape(-1, 1)
            if vec.size and pf.solve(span, vec, p) is None:
                return False
        # uniqueness: a map g: D -> K with g . kmor in the core ideal is in it
        ideal_dk = core_ideal_by_composition(h, d, kobj)
        for x in pf.nullspace(span, p)[:len(basis_dk)].T:
            if not in_row_span(ideal_dk, _basis_matrix(h, d, kobj) @ x, p):
                return False
    return True


# -- per-vertex references for the block-matrix operations of repcore ------

def restrict_by_vertex(m: Module, bases) -> Module | None:
    """The subrepresentation of m spanned by one column basis per vertex,
    its arrow maps solved from bases[i] X = maps[i] @ bases[i+1]; None if
    the arrows leave the span."""
    p = m.field.p
    maps = []
    for i in range(m.presentation.n - 1):
        sol = pf.solve(bases[i], (m.maps[i] @ bases[i + 1]) % p, p)
        if sol is None:
            return None
        maps.append(sol)
    return Module(m.presentation, m.field, [b.shape[1] for b in bases], maps,
                  validate=False)


def then_by_vertex(f: Morphism, g: Morphism) -> Morphism:
    """f followed by g, one product per vertex."""
    return Morphism(f.source, g.target,
                    [(b @ a) % f.p for a, b in zip(f.comps, g.comps)], validate=False)


def kernel_by_vertex(f: Morphism) -> tuple[Module, Morphism]:
    """Kernel with its inclusion, one nullspace per vertex."""
    bases = [pf.nullspace(c, f.p) for c in f.comps]
    k = restrict_by_vertex(f.source, bases)
    return k, Morphism(k, f.source, bases, validate=False)


def cokernel_by_vertex(f: Morphism) -> tuple[Module, Morphism]:
    """Cokernel with its projection, one complement projector per vertex."""
    p = f.p
    pres = f.target.presentation
    qs, sections = zip(*(pf.complement_projector(c, d, p)
                         for c, d in zip(f.comps, f.target.dims)))
    maps = [(qs[i] @ f.target.maps[i] @ sections[i + 1]) % p
            for i in range(pres.n - 1)]
    c = Module(pres, f.target.field, [q.shape[0] for q in qs], maps, validate=False)
    return c, Morphism(f.target, c, qs, validate=False)


def direct_sum_by_vertex(modules, presentation, fieldc) -> Module:
    """Block-diagonal direct sum, one arrow matrix at a time."""
    n = presentation.n
    dims = [sum(m.dims[v] for m in modules) for v in range(n)]
    maps = []
    for i in range(n - 1):
        mat = pf.zeros(dims[i], dims[i + 1])
        ro = co = 0
        for m in modules:
            b = m.maps[i]
            mat[ro:ro + b.shape[0], co:co + b.shape[1]] = b
            ro += b.shape[0]
            co += b.shape[1]
        maps.append(mat)
    return Module(presentation, fieldc, dims, maps, validate=False)


def block_morphism_by_vertex(source, target, source_parts, target_parts,
                             blocks) -> Morphism:
    """repcore.block_morphism, one slice assignment per block and vertex."""
    n = source.presentation.n
    rows = np.cumsum([[0] * n] + [m.dims for m in target_parts], axis=0)
    cols = np.cumsum([[0] * n] + [m.dims for m in source_parts], axis=0)
    comps = [pf.zeros(target.dims[v], source.dims[v]) for v in range(n)]
    for (j, i), f in blocks.items():
        for v in range(n):
            comps[v][rows[j, v]:rows[j + 1, v], cols[i, v]:cols[i + 1, v]] = f.comps[v]
    return Morphism(source, target, comps, validate=False)


def module_dual_by_vertex(m: Module) -> Module:
    """D(m) over the opposite algebra: the arrow maps transposed, reversed."""
    return Module(m.presentation.op, m.field, m.dims[::-1],
                  [a.T for a in reversed(m.maps)], validate=False)


def dual_by_vertex(f: Morphism) -> Morphism:
    """D(f): D(target) -> D(source), the components transposed, reversed."""
    return Morphism(module_dual_by_vertex(f.target), module_dual_by_vertex(f.source),
                    [c.T for c in reversed(f.comps)], validate=False)
