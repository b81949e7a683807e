import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotorsionlab import primefield as pf
from cotorsionlab import repcore as rc
from cotorsionlab.repcore import (EnumerationRefusedError, FieldChar,
                                  QuiverPresentation)
from cotorsionlab.serialcat import IndecId, Obj, generate

from oracles import (block_morphism_by_sum, block_morphism_by_vertex,
                     checked_split, cokernel_by_vertex,
                     count_submodules_enumerated, decompose_generic, direct_sum_by_vertex,
                     direct_sum_embeddings, dual_by_vertex, hom_dim_enumerated,
                     image, kernel_by_vertex, module_dual_by_vertex,
                     then_by_vertex)


@pytest.fixture(scope="module")
def pres():
    return QuiverPresentation(6, ((1, 5), (2, 6)))


@pytest.fixture(scope="module")
def fld():
    return FieldChar(2)


def iv(ctx, a, b):
    return ctx.realize_id(IndecId(a, b))


# ---- presentation validation --------------------------------------------

def test_presentation_rejects_bad_relations():
    with pytest.raises(ValueError):
        QuiverPresentation(6, ((5, 1),))
    with pytest.raises(ValueError):
        QuiverPresentation(6, ((1, 2),))  # single arrow is not admissible
    with pytest.raises(ValueError):
        QuiverPresentation(3, ((1, 7),))


def test_presentation_drops_nested_relations():
    pres = QuiverPresentation(6, ((1, 5), (1, 4)))
    assert pres.relations == ((1, 4),)


# ---- hom spaces, oracle first --------------------------------------------

def test_hom_examples_against_enumeration_oracle(ctx):
    pairs = [((3, 4), (3, 5)), ((3, 5), (3, 4)), ((3, 5), (4, 4)),
             ((1, 4), (1, 4)), ((2, 3), (2, 5)), ((4, 6), (4, 6))]
    for (a, b), (c, d) in pairs:
        m, n = iv(ctx, a, b), iv(ctx, c, d)
        assert len(rc.hom_space(m, n)) == hom_dim_enumerated(m, n)


def test_hom_paper_and_derived_values(ctx):
    assert len(rc.hom_space(iv(ctx, 3, 4), iv(ctx, 3, 5))) == 1
    assert len(rc.hom_space(iv(ctx, 3, 5), iv(ctx, 3, 4))) == 0
    m = iv(ctx, 2, 5)
    assert len(rc.hom_space(m, m)) >= 1  # contains the identity


def test_hom_space_basis_members_are_natural(ctx):
    for x in [(3, 4), (3, 5), (2, 4)]:
        for y in [(3, 5), (4, 5), (2, 2)]:
            for h in rc.hom_space(iv(ctx, *x), iv(ctx, *y)):
                rc.Morphism(h.source, h.target, h.comps)  # validates


# ---- kernel / cokernel ----------------------------------------------------

def test_kernel_of_identity_and_zero(ctx):
    m = iv(ctx, 3, 5)
    k, _ = rc.kernel(rc.identity(m))
    assert k.total_dim == 0
    n = iv(ctx, 4, 5)
    k2, incl = rc.kernel(rc.zero_morphism(m, n))
    assert k2.dims == m.dims and incl.is_iso()


def test_kernel_of_canonical_epi_is_bottom_segment(ctx):
    epi = ctx.canonical_hom(IndecId(3, 5), IndecId(4, 5))
    k, incl = rc.kernel(epi)
    assert ctx.identify(k) == Obj.of(IndecId(3, 3))
    # brute-force: vertex-wise nullspaces have these dimensions
    for v in range(6):
        assert k.dims[v] == pf.nullspace(epi.comps[v], 2).shape[1]


def test_cokernel_of_identity_and_zero(ctx):
    m = iv(ctx, 3, 5)
    c, _ = rc.cokernel(rc.identity(m))
    assert c.total_dim == 0
    n = iv(ctx, 2, 3)
    c2, proj = rc.cokernel(rc.zero_morphism(n, m))
    assert c2.dims == m.dims and proj.is_iso()


def test_cokernel_of_inclusion_is_top_quotient(ctx):
    incl = ctx.canonical_hom(IndecId(3, 3), IndecId(3, 5))
    c, _ = rc.cokernel(incl)
    assert ctx.identify(c) == Obj.of(IndecId(4, 5))


def test_operation_outputs_are_natural(ctx):
    # every morphism produced by the core operations commutes with all
    # arrow maps (re-validated by the checking constructor)
    f = ctx.canonical_hom(IndecId(3, 5), IndecId(4, 5))
    k, kincl = rc.kernel(f)
    c, cproj = rc.cokernel(f)
    img, iincl, iepi = image(f)
    for mor in (kincl, cproj, iincl, iepi):
        mor.validate()
    ses = ctx.ses_for_class(Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3)),
                            {(0, 0): 1})
    ses.i.validate()
    ses.p.validate()
    m = ctx.realize(Obj.of(IndecId(3, 5), IndecId(4, 4)))
    checked_split(m)  # the split iso and its inverse are natural


def test_image_factorization_builds_a_valid_ses(ctx):
    # kernel -> source -> image is exact for every morphism
    for x, y in [((3, 5), (4, 5)), ((3, 4), (3, 5)), ((2, 4), (4, 4))]:
        f = ctx.canonical_hom(IndecId(*x), IndecId(*y))
        if f is None:
            continue
        img, incl, epi = image(f)
        k, kincl = rc.kernel(f)
        rc.SES(kincl, epi)  # validates exactness
        assert incl.then(rc.identity(f.target)).is_injective()


# ---- direct sums and block maps ------------------------------------------

def test_direct_sum_embeddings_are_orthogonal(ctx):
    mods = [iv(ctx, 3, 4), iv(ctx, 4, 4), iv(ctx, 3, 6)]
    total, incls, projs = direct_sum_embeddings(mods, ctx.presentation, ctx.field)
    assert total.total_dim == sum(m.total_dim for m in mods)
    for i in range(3):
        for j in range(3):
            comp = incls[j].then(projs[i])
            if i == j:
                assert comp.is_iso()
            else:
                assert comp.is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_block_morphism_matches_its_definition(p):
    ctx = generate(QuiverPresentation(6, ((1, 5), (2, 6))), FieldChar(p))
    rng = random.Random(p)
    pool = [rc.zero_module(ctx.presentation, ctx.field)]
    pool += [ctx.realize(Obj.of(x)) for x in ctx.indecs]
    pool += [ctx.realize(Obj.of(*rng.sample(ctx.indecs, 2))) for _ in range(6)]
    absent = zero_parts = 0
    for _ in range(40):
        src_parts = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        dst_parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        zero_parts += sum(m.is_zero for m in src_parts + dst_parts)
        blocks = {}
        for (j, b), (i, a) in product(enumerate(dst_parts), enumerate(src_parts)):
            if rng.random() < 0.3:
                absent += 1
                continue
            f = rc.zero_morphism(a, b)
            for g in rc.hom_space(a, b):
                f = f.add(g.scale(rng.randrange(p)))
            blocks[j, i] = f
        want = block_morphism_by_sum(src_parts, dst_parts, blocks,
                                     ctx.presentation, ctx.field)
        got = rc.block_morphism(want.source, want.target, src_parts,
                                dst_parts, blocks)
        assert all(np.array_equal(a, b) for a, b in zip(got.comps, want.comps))
        got.validate()
    assert absent and zero_parts


def test_block_morphism_rejects_parts_that_do_not_add_up(ctx):
    m = iv(ctx, 3, 4)
    with pytest.raises(ValueError):
        rc.block_morphism(m, m, [m, m], [m], {})


def test_block_morphism_rejects_a_block_between_other_parts(ctx):
    # the identity of [4,4] is no block from [4,4] into [3,5] + [4,4]
    m = iv(ctx, 4, 4)
    d = ctx.realize(Obj.of(IndecId(3, 5), IndecId(4, 4)))
    with pytest.raises(ValueError, match="block"):
        rc.block_morphism(m, d, [m], [d], {(0, 0): rc.identity(m)})
    with pytest.raises(ValueError, match="block"):
        rc.block_morphism(d, m, [d], [m], {(0, 0): rc.identity(m)})


# ---- is_iso ----------------------------------------------------------------

def test_is_iso_examples(ctx):
    m = iv(ctx, 3, 4)
    assert rc.identity(m).is_iso()
    assert not rc.zero_morphism(m, m).is_iso()
    f = ctx.canonical_hom(IndecId(3, 4), IndecId(3, 5))
    assert not f.is_iso()  # dimension count


# ---- submodules ------------------------------------------------------------

def test_submodules_of_zero_module(ctx, fld):
    z = rc.zero_module(ctx.presentation, fld)
    assert len(list(rc.submodules(z))) == 1


def test_submodules_of_uniserial_form_a_chain(ctx):
    subs = [ctx.identify(s) for s, _ in rc.submodules(iv(ctx, 3, 5))]
    expected = [Obj(()), Obj.of(IndecId(3, 3)), Obj.of(IndecId(3, 4)),
                Obj.of(IndecId(3, 5))]
    assert sorted(subs, key=lambda o: o.total_dim) == expected
    assert len(subs) == 4


def test_submodule_count_against_enumeration_oracle(ctx):
    m = ctx.realize(Obj.of(IndecId(1, 2), IndecId(1, 1)))
    brute = count_submodules_enumerated(m)
    assert brute == 7  # frozen from the oracle
    assert len(list(rc.submodules(m))) == brute


def test_submodules_respect_dim_cap(ctx):
    m = ctx.realize(Obj.of(IndecId(1, 4), IndecId(2, 5)))
    with pytest.raises(EnumerationRefusedError) as err:
        list(rc.submodules(m, dim_cap=4))
    assert err.value.cap == 4


def test_submodules_with_simple_quotient_are_maximal(ctx):
    # spot-check: submodules with simple quotient = kernels of surjections
    # onto simples
    m = ctx.realize(Obj.of(IndecId(3, 5), IndecId(4, 4)))
    simples = [iv(ctx, v, v) for v in range(1, 7)]
    from_kernels = set()
    for s in simples:
        for h in rc.hom_space(m, s):
            if h.is_surjective():
                k, _ = rc.kernel(h)
                from_kernels.add(ctx.identify(k).ids)
    from_enum = set()
    for sub, incl in rc.submodules(m):
        quot, _ = rc.cokernel(incl)
        q = ctx.identify(quot)
        if len(q.ids) == 1 and q.ids[0].dim == 1:
            from_enum.add(ctx.identify(sub).ids)
    assert from_enum == from_kernels


# ---- decomposition ---------------------------------------------------------

def test_decompose_split_sum(ctx):
    m = ctx.realize(Obj.of(IndecId(3, 4), IndecId(4, 4)))
    assert checked_split(m)[0] == [(3, 4), (4, 4)]


def test_decompose_nonsplit_extension_middle(ctx):
    ses = ctx.ses_for_class(Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3)),
                            {(0, 0): 1})
    assert checked_split(ses.middle)[0] == [(3, 5)]
    split = ctx.realize(Obj.of(IndecId(3, 3), IndecId(4, 5)))
    assert checked_split(split)[0] == [(3, 3), (4, 5)]


def test_decomposition_maps_are_a_splitting(ctx):
    # the iso's column blocks are the summand inclusions and the inverse's
    # row blocks the projections: incl_i . proj_i are orthogonal
    # idempotents summing to the identity, and proj_j . incl_i is the
    # identity for i = j and zero otherwise
    m = ctx.realize(Obj.of(IndecId(3, 5), IndecId(3, 4), IndecId(4, 4)))
    intervals, fwd, bwd = checked_split(m)
    assert intervals == [(3, 4), (3, 5), (4, 4)]
    _, places = rc.layout(m.presentation.n, (ctx.realize_id(IndecId(*iv)).dims
                                             for iv in intervals))
    total = pf.zeros(m.total_dim, m.total_dim)
    for i, at in enumerate(places):
        idem = (fwd.block[:, at] @ bwd.block[at]) % 2
        assert np.array_equal((idem @ idem) % 2, idem)
        total = (total + idem) % 2
        for j, to in enumerate(places):
            comp = (bwd.block[to] @ fwd.block[:, at]) % 2
            want = pf.eye(len(at)) if i == j else pf.zeros(len(to), len(at))
            assert np.array_equal(comp, want)
    assert np.array_equal(total, pf.eye(m.total_dim))


def test_decompose_is_idempotent(ctx):
    ses = ctx.ses_for_class(Obj.of(IndecId(4, 4)), Obj.of(IndecId(3, 3)),
                            {(0, 0): 1})
    intervals = checked_split(ses.middle)[0]
    assert intervals == [(3, 4)]
    for a, b in intervals:
        piece = rc.interval_module(ctx.presentation, ctx.field, a, b)
        assert checked_split(piece)[0] == [(a, b)]


def test_generic_decomposition_matches_fast_path(ctx):
    for ids in [[(3, 5)], [(3, 4), (4, 4)], [(1, 2), (1, 1)],
                [(2, 4), (2, 4)], [(1, 4), (2, 2), (5, 6)]]:
        m = ctx.realize(Obj(tuple(IndecId(a, b) for a, b in ids)))
        fast = dict(Counter(checked_split(m)[0]))
        generic = {}
        for piece in decompose_generic(m):
            for k, v in rc.interval_multiset(piece).items():
                generic[k] = generic.get(k, 0) + v
        assert fast == generic


def test_generic_decomposition_certifies_indecomposables(ctx):
    m = iv(ctx, 2, 5)
    pieces = decompose_generic(m)
    assert len(pieces) == 1


# ---- hypothesis properties -------------------------------------------------

obj_ids = st.lists(
    st.sampled_from([(a, b) for a in range(1, 7) for b in range(a, 7)
                     if not ((a <= 1 and b >= 5) or (a <= 2 and b >= 6))]),
    min_size=0, max_size=4)


@given(obj_ids)
def test_realize_identify_round_trip(ctx, ids):
    obj = Obj(tuple(IndecId(a, b) for a, b in ids))
    assert ctx.identify(ctx.realize(obj)) == obj


@given(obj_ids, st.integers(0, 2**16 - 1))
@settings(max_examples=25)
def test_decompose_after_basis_twist(ctx, ids, seed):
    obj = Obj(tuple(IndecId(a, b) for a, b in ids))
    m = ctx.realize(obj)
    rng = np.random.default_rng(seed)
    p = 2
    comps = []
    for d in m.dims:
        while True:
            g = rng.integers(0, p, size=(d, d))
            if pf.inv(g, p) is not None:
                comps.append(np.array(g, dtype=np.int64))
                break
    maps = [(comps[i] @ m.maps[i] @ pf.inv(comps[i + 1], p)) % p
            for i in range(len(m.maps))]
    twisted = rc.Module(m.presentation, m.field, m.dims, maps)
    assert ctx.identify(twisted) == obj
    assert dict(Counter(checked_split(twisted)[0])) == {
        (i.a, i.b): c for i, c in obj.multiset().items()}


# ---- block-matrix operations against the per-vertex references ------------

def _twisted(m, rng):
    """m with its basis changed by a random automorphism at each vertex:
    a module with the dims of m but with non-canonical arrow maps."""
    p = m.field.p
    gs = []
    for d in m.dims:
        while True:
            g = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                         dtype=np.int64).reshape(d, d)
            if pf.inv(g, p) is not None:
                gs.append(g)
                break
    return rc.Module(m.presentation, m.field, m.dims,
                     [(gs[i] @ a @ pf.inv(gs[i + 1], p)) % p
                      for i, a in enumerate(m.maps)])


def _random_map(a, b, rng):
    f = rc.zero_morphism(a, b)
    for g in rc.hom_space(a, b):
        f = f.add(g.scale(rng.randrange(a.field.p)))
    return f


def _same_module(x, y):
    return (x.dims == y.dims and x.presentation == y.presentation
            and x.block.dtype == y.block.dtype
            and x.block.tobytes() == y.block.tobytes())


def _same_map(f, g):
    return (_same_module(f.source, g.source) and _same_module(f.target, g.target)
            and f.block.dtype == g.block.dtype and f.block.tobytes() == g.block.tobytes())


@pytest.mark.parametrize("n, relations", [(6, ((1, 5), (2, 6))), (5, ((1, 3), (2, 5)))])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_operations_match_the_per_vertex_references(n, relations, p):
    # then, kernel, cokernel, direct_sum, block_morphism and dual on random
    # maps between random objects, canonical and with a twisted basis, are
    # byte for byte what one operation per vertex gives
    ctx = generate(QuiverPresentation(n, relations), FieldChar(p))
    rng = random.Random(100 * n + p)

    def module():
        obj = Obj(tuple(rng.choice(ctx.indecs) for _ in range(rng.randint(1, 3))))
        m = ctx.realize(obj)
        return _twisted(m, rng) if rng.random() < 0.5 else m

    def receiving(a):  # a module with nonzero maps from a, if one is found
        for _ in range(20):
            b = module()
            if rc.hom_space(a, b):
                break
        return b
    nonzero = 0
    for _ in range(30):
        a = module()
        b = receiving(a)
        c = receiving(b)
        f, g = _random_map(a, b, rng), _random_map(b, c, rng)
        nonzero += not (f.is_zero() or g.is_zero())
        assert _same_map(f.then(g), then_by_vertex(f, g))
        for got, want in ((rc.kernel(f), kernel_by_vertex(f)),
                          (rc.cokernel(f), cokernel_by_vertex(f))):
            assert _same_module(got[0], want[0]) and _same_map(got[1], want[1])
        assert _same_module(a.dual(), module_dual_by_vertex(a))
        assert _same_map(f.dual(), dual_by_vertex(f))
        parts = [a, rc.zero_module(ctx.presentation, ctx.field), b, c][:rng.randint(0, 4)]
        assert _same_module(rc.direct_sum(parts, ctx.presentation, ctx.field),
                            direct_sum_by_vertex(parts, ctx.presentation, ctx.field))
        src_parts, dst_parts = [a, b], [c, b, a]
        blocks = {(0, 1): g, (1, 1): _random_map(b, b, rng), (2, 0): _random_map(a, a, rng)}
        src = rc.direct_sum(src_parts, ctx.presentation, ctx.field)
        dst = rc.direct_sum(dst_parts, ctx.presentation, ctx.field)
        assert _same_map(rc.block_morphism(src, dst, src_parts, dst_parts, blocks),
                         block_morphism_by_vertex(src, dst, src_parts, dst_parts, blocks))
    assert nonzero >= 10


def test_cokernel_and_kernel_are_one_elimination(ctx, monkeypatch):
    calls = []

    def counting(name):
        fn = getattr(pf, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(pf, name, wrapped)
    for name in ("complement_projector", "nullspace"):
        counting(name)
    f = ctx.canonical_hom(IndecId(3, 5), IndecId(4, 5))
    big = rc.direct_sum([f.source, f.target], ctx.presentation, ctx.field)
    g = rc.block_morphism(big, big, [f.source, f.target], [f.source, f.target],
                          {(1, 0): f, (1, 1): rc.identity(f.target)})
    for h in (f, g):
        calls.clear()
        rc.cokernel(h)
        assert calls == ["complement_projector"]
        calls.clear()
        rc.kernel(h)
        assert calls == ["nullspace"]


def test_blocks_and_their_views_are_read_only(ctx):
    f = ctx.canonical_hom(IndecId(3, 4), IndecId(3, 5))
    m = rc.direct_sum([f.source, f.target], ctx.presentation, ctx.field)
    for a in (m.block, m.maps[2], f.block, f.comps[3], rc.cokernel(f)[1].comps[4],
              rc.kernel(f)[0].block, f.then(rc.identity(f.target)).block,
              f.dual().comps[2]):
        with pytest.raises(ValueError):
            a[...] = 0
