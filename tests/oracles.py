"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the solver paths they check: morphism spaces are
found by enumerating all component tuples and testing naturality entry by
entry; submodules by enumerating all per-vertex subspace tuples; Ext by
searching all middle candidates for a non-split conflation.
"""

from itertools import product

import numpy as np

from cotorsionlab import primefield as pf
from cotorsionlab.repcore import Module
from cotorsionlab.serialcat import CategoryCtx, Obj


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
    from cotorsionlab import repcore as rc

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
    from cotorsionlab import repcore as rc

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
    from cotorsionlab import repcore as rc

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
