import hashlib
import json
import random
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotorsionlab import repcore as rc
from cotorsionlab.repcore import FieldChar, QuiverPresentation
from cotorsionlab.serialcat import IndecId, Obj, generate

from oracles import (checked_split, ext_dim_brute, ext_nonzero_by_ses_search,
                     extensions, hom_dim_brute, hom_dim_enumerated,
                     multisets_by_product)

# the 18 indecomposables of the bound A6 algebra, by interval
PAPER_INDECS = sorted(
    IndecId(a, b) for a in range(1, 7) for b in range(a, 7)
    if not ((a <= 1 and b >= 5) or (a <= 2 and b >= 6)))


def test_census_matches_the_displayed_quiver(ctx):
    assert len(ctx.indecs) == 18
    assert sorted(ctx.indecs) == PAPER_INDECS
    # stacked display spot checks
    assert IndecId(3, 5).as_stack() == "5/4/3"
    assert IndecId(4, 4).as_stack() == "4"


def test_small_algebra_censuses():
    a2 = generate(QuiverPresentation(2), FieldChar(2))
    assert sorted(a2.indecs) == [IndecId(1, 1), IndecId(1, 2), IndecId(2, 2)]
    a3 = generate(QuiverPresentation(3, ((1, 3),)), FieldChar(2))
    assert sorted(a3.indecs) == [IndecId(1, 1), IndecId(1, 2), IndecId(2, 2),
                                 IndecId(2, 3), IndecId(3, 3)]


def test_small_census_against_exhaustive_module_decomposition():
    # every indecomposable of total dim <= 3 appears among the pieces of
    # some brute-force-enumerated module, and nothing else does
    a3 = generate(QuiverPresentation(3, ((1, 3),)), FieldChar(2))
    pres, fld = a3.presentation, a3.field
    seen = set()
    for dims in product(range(3), repeat=3):
        if sum(dims) == 0 or sum(dims) > 3:
            continue
        shapes = [(dims[0], dims[1]), (dims[1], dims[2])]
        spaces = [list(product(range(2), repeat=r * c)) for r, c in shapes]
        for e0 in spaces[0]:
            for e1 in spaces[1]:
                maps = [np.array(e0, dtype=np.int64).reshape(shapes[0]),
                        np.array(e1, dtype=np.int64).reshape(shapes[1])]
                try:
                    m = rc.Module(pres, fld, dims, maps)
                except ValueError:
                    continue  # violates the relation
                for piece in checked_split(m)[0]:
                    seen.add(IndecId(*piece))
    assert seen == set(a3.indecs)


def test_projectives_and_injectives(ctx):
    assert sorted(ctx.projectives) == [
        IndecId(1, 1), IndecId(1, 2), IndecId(1, 3), IndecId(1, 4),
        IndecId(2, 5), IndecId(3, 6)]
    assert sorted(ctx.injectives) == [
        IndecId(1, 4), IndecId(2, 5), IndecId(3, 6), IndecId(4, 6),
        IndecId(5, 6), IndecId(6, 6)]


def test_hom_table_against_brute_force_on_all_pairs(ctx):
    for x in ctx.indecs:
        for y in ctx.indecs:
            assert ctx.hom_dim(x, y) == hom_dim_brute(
                ctx.realize_id(x), ctx.realize_id(y)), (x, y)


def test_hom_examples(ctx):
    assert ctx.hom_dim(IndecId(3, 4), IndecId(3, 5)) == 1
    assert ctx.hom_dim(IndecId(3, 5), IndecId(4, 4)) == 0
    for x in ctx.indecs:
        assert ctx.hom_dim(x, x) == 1


def test_hom_closed_form_against_enumeration_oracle(ctx):
    for x, y in [((3, 4), (3, 5)), ((3, 5), (4, 4)), ((2, 3), (3, 3)),
                 ((1, 4), (4, 6)), ((2, 2), (2, 5))]:
        xm, ym = ctx.realize_id(IndecId(*x)), ctx.realize_id(IndecId(*y))
        assert ctx.hom_dim(IndecId(*x), IndecId(*y)) == hom_dim_enumerated(xm, ym)


def test_ext_table_against_resolution_on_all_pairs(ctx):
    for x in ctx.indecs:
        for y in ctx.indecs:
            assert ctx.ext_dim(x, y) == ext_dim_brute(ctx, x, y), (x, y)


def test_ext_table_against_ses_search_on_all_pairs(ctx):
    for x in ctx.indecs:
        for y in ctx.indecs:
            found = ext_nonzero_by_ses_search(ctx, x, y)
            assert found == (ctx.ext_dim(x, y) == 1), (x, y)


def test_ext_examples(ctx):
    assert ctx.ext_dim(IndecId(4, 5), IndecId(3, 3)) == 1
    for p in ctx.projectives:
        for y in ctx.indecs:
            assert ctx.ext_dim(p, y) == 0
    assert ctx.ext_dim(IndecId(3, 4), IndecId(3, 4)) == 0


def test_projective_injectives_are_two_sided_ext_orthogonal(ctx):
    for pi in (IndecId(1, 4), IndecId(2, 5), IndecId(3, 6)):
        for y in ctx.indecs:
            assert ctx.ext_dim(pi, y) == 0
            assert ctx.ext_dim(y, pi) == 0


def test_canonical_hom_composition_rule(ctx):
    # composite of canonical maps is canonical or zero, per the closed form
    f = ctx.canonical_hom(IndecId(3, 4), IndecId(3, 5))
    g = ctx.canonical_hom(IndecId(3, 5), IndecId(4, 5))
    comp = f.then(g)
    can = ctx.canonical_hom(IndecId(3, 4), IndecId(4, 5))
    assert all(np.array_equal(a, b) for a, b in zip(comp.comps, can.comps))
    assert ctx.compose_canonical(IndecId(3, 4), IndecId(3, 5), IndecId(4, 5)) == 1
    # image of the first map is killed by the second
    h1 = ctx.canonical_hom(IndecId(3, 3), IndecId(3, 4))
    h2 = ctx.canonical_hom(IndecId(3, 4), IndecId(4, 4))
    assert h1.then(h2).is_zero()
    assert ctx.compose_canonical(IndecId(3, 3), IndecId(3, 4), IndecId(4, 4)) == 0


def test_compose_canonical_is_associative_where_defined(ctx):
    chains = [(x, y, z, w)
              for x in ctx.indecs for y in ctx.indecs
              if ctx.hom_dim(x, y)
              for z in ctx.indecs if ctx.hom_dim(y, z)
              for w in ctx.indecs if ctx.hom_dim(z, w)]
    for x, y, z, w in chains:
        f = ctx.canonical_hom(x, y)
        g = ctx.canonical_hom(y, z)
        h = ctx.canonical_hom(z, w)
        lhs = f.then(g).then(h)
        rhs = f.then(g.then(h))
        assert all(np.array_equal(a, b) for a, b in zip(lhs.comps, rhs.comps))


def test_identity_composition_is_neutral(ctx):
    f = ctx.canonical_hom(IndecId(3, 4), IndecId(3, 5))
    idx = ctx.canonical_hom(IndecId(3, 4), IndecId(3, 4))
    idy = ctx.canonical_hom(IndecId(3, 5), IndecId(3, 5))
    assert all(np.array_equal(a, b)
               for a, b in zip(idx.then(f).comps, f.comps))
    assert all(np.array_equal(a, b)
               for a, b in zip(f.then(idy).comps, f.comps))


def test_extensions_examples(ctx):
    mids = extensions(ctx, IndecId(4, 5), IndecId(3, 3))
    assert mids == [Obj.of(IndecId(3, 3), IndecId(4, 5)), Obj.of(IndecId(3, 5))]
    mids2 = extensions(ctx, IndecId(4, 4), IndecId(3, 3))
    assert Obj.of(IndecId(3, 4)) in mids2
    # no extension: split only
    assert extensions(ctx, IndecId(3, 4), IndecId(3, 4)) == [
        Obj.of(IndecId(3, 4), IndecId(3, 4))]


def test_extensions_overlapping_case(ctx):
    # Ext([4,5],[3,4]) glues to the rectangle middle [3,5] + [4,4]
    mids = extensions(ctx, IndecId(4, 5), IndecId(3, 4))
    assert mids[1] == Obj.of(IndecId(3, 5), IndecId(4, 4))


def test_extension_classes_over_f3():
    ctx3 = generate(QuiverPresentation(6, ((1, 5), (2, 6))), FieldChar(3))
    assert len(ctx3.indecs) == 18  # field-independent census
    mids = extensions(ctx3, IndecId(4, 5), IndecId(3, 3))
    assert len(mids) == 3  # one middle per class of a 1-dim Ext space
    assert mids[1] == mids[2] == Obj.of(IndecId(3, 5))
    assert ctx3.hom_dim(IndecId(3, 4), IndecId(3, 5)) == 1


def test_ses_for_class_produces_valid_conflations(ctx):
    ses = ctx.ses_for_class(Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3)),
                            {(0, 0): 1})
    assert ctx.identify(ses.first) == Obj.of(IndecId(3, 3))
    assert ctx.identify(ses.third) == Obj.of(IndecId(4, 5))
    split = ctx.ses_for_class(Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3)), {})
    assert ctx.identify(split.middle) == Obj.of(IndecId(3, 3), IndecId(4, 5))


# the A6 fixture algebra, the n=5 census algebra and hereditary A5; the
# classes that are not a nested chain, where the split-off rule of
# ones_class_middle is needed, occur on each of them
CLOSED_FORM_ALGEBRAS = [(5, ((1, 3), (2, 5)), 2), (5, ((1, 3), (2, 5)), 3),
                        (5, ((1, 3), (2, 5)), 5), (6, ((1, 5), (2, 6)), 2),
                        (6, ((1, 5), (2, 6)), 3), (5, (), 3)]


@pytest.mark.parametrize("n,relations,p", CLOSED_FORM_ALGEBRAS)
def test_closed_form_middle_matches_the_pushout(n, relations, p):
    """ones_class_middle equals the identified middle of the realized
    all-ones class for every b and every subset of its Ext pool, with b
    as the third term and as the first."""
    ctx = generate(QuiverPresentation(n, relations), FieldChar(p))
    checked = 0
    for b in ctx.indecs:
        for b_is_third in (True, False):
            pool = [y for y in ctx.indecs
                    if (ctx.ext_dim(b, y) if b_is_third else ctx.ext_dim(y, b))]
            for k in range(len(pool) + 1):
                for others in map(Obj, combinations(pool, k)):
                    if b_is_third:
                        ends = Obj.of(b), others
                        coeffs = {(0, j): 1 for j in range(k)}
                    else:
                        ends = others, Obj.of(b)
                        coeffs = {(i, 0): 1 for i in range(k)}
                    realized = ctx.identify(ctx.ses_for_class(*ends, coeffs).middle)
                    assert ctx.ones_class_middle(*ends) == realized, (b, ends)
                    checked += 1
    assert checked > 2 * len(ctx.indecs)


def test_closed_form_middle_keeps_one_copy_of_a_repeated_summand(ctx):
    b, y = IndecId(4, 5), IndecId(3, 3)
    first = Obj.of(y, y)
    realized = ctx.ses_for_class(Obj.of(b), first, {(0, 0): 1, (0, 1): 1})
    assert ctx.ones_class_middle(Obj.of(b), first) == ctx.identify(realized.middle)
    assert ctx.ones_class_middle(Obj.of(b), first) == Obj.of(y, IndecId(3, 5))
    with pytest.raises(ValueError):
        ctx.ones_class_middle(Obj.of(b), Obj.of(IndecId(4, 4)))  # Ext is 0


def test_realize_identify_fixture_round_trips(ctx):
    for obj in [Obj(()), Obj.of(IndecId(3, 5)),
                Obj.of(IndecId(3, 4), IndecId(4, 4), IndecId(3, 4))]:
        assert ctx.identify(ctx.realize(obj)) == obj
    assert ctx.realize(Obj(())).total_dim == 0


def test_hom_and_ext_tables_against_brute_force_at_f3():
    ctx3 = generate(QuiverPresentation(6, ((1, 5), (2, 6))), FieldChar(3))
    for x, y in product(ctx3.indecs, repeat=2):
        assert ctx3.hom_dim(x, y) == hom_dim_brute(
            ctx3.realize_id(x), ctx3.realize_id(y)), (x, y)
        assert ctx3.ext_dim(x, y) == ext_dim_brute(ctx3, x, y), (x, y)


def test_random_extension_classes_realize_to_valid_conflations(ctx):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    ids = list(ctx.indecs)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(ids), min_size=1, max_size=2),
           st.lists(st.sampled_from(ids), min_size=1, max_size=2),
           st.integers(0, 2**8 - 1))
    def run(third_ids, first_ids, mask):
        third, first = Obj(tuple(third_ids)), Obj(tuple(first_ids))
        support = ctx.ext_matrix_support(third, first)
        coeffs = {cell: 1 for i, cell in enumerate(support)
                  if (mask >> i) & 1}
        ses = ctx.ses_for_class(third, first, coeffs)
        ses.i.validate()
        ses.p.validate()
        assert ctx.identify(ses.first) == first
        assert ctx.identify(ses.third) == third
        assert ses.middle.total_dim == first.total_dim + third.total_dim

    run()


def test_submodule_enumeration_is_deterministic(ctx):
    m = ctx.realize(Obj.of(IndecId(3, 5), IndecId(4, 4), IndecId(2, 3)))
    import cotorsionlab.repcore as rc_mod
    first = [(s.dims, tuple(c.tobytes() for c in incl.comps))
             for s, incl in rc_mod.submodules(m)]
    second = [(s.dims, tuple(c.tobytes() for c in incl.comps))
              for s, incl in rc_mod.submodules(m)]
    assert first == second


def test_interval_parsing_round_trips(ctx):
    for x in ctx.indecs:
        assert IndecId.parse(x.as_interval()) == x
        assert IndecId.parse(x.as_stack()) == x
    with pytest.raises(ValueError):
        IndecId.parse("5/3")  # must descend by one
    with pytest.raises(ValueError):
        IndecId.parse("[4,3]")


# ---- the per-context cache ---------------------------------------------------

CACHE_ALGEBRAS = [(6, ((1, 5), (2, 6)), 2), (6, ((1, 5), (2, 6)), 3),
                  (5, ((1, 3), (2, 5)), 2)]


def _ses_bytes(ses):
    return (ses.first.key, ses.middle.key, ses.third.key,
            tuple(c.tobytes() for c in ses.i.comps + ses.p.comps))


def _random_classes(ctx, rng, count):
    ids = list(ctx.indecs)
    out = []
    while len(out) < count:
        third = Obj(tuple(rng.choices(ids, k=rng.randint(1, 2))))
        first = Obj(tuple(rng.choices(ids, k=rng.randint(1, 2))))
        support = ctx.ext_matrix_support(third, first)
        if support:
            out.append((third, first, {cell: rng.randrange(2 * ctx.field.p)
                                       for cell in support}))
    return out


@pytest.mark.parametrize("n,relations,p", CACHE_ALGEBRAS)
def test_warm_and_fresh_contexts_realize_classes_identically(n, relations, p):
    pres, fieldc = QuiverPresentation(n, relations), FieldChar(p)
    warm = generate(pres, fieldc)
    classes = _random_classes(warm, random.Random(n * 100 + p), 25)
    first_pass = [warm.ses_for_class(*c) for c in classes]
    for cls, ses in zip(classes, first_pass):
        hit = warm.ses_for_class(*cls)
        assert hit is ses
        assert _ses_bytes(hit) == _ses_bytes(generate(pres, fieldc).ses_for_class(*cls))


def test_equal_content_module_hits_the_split_cache(ctx, monkeypatch):
    ses = ctx.ses_for_class(Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3)),
                            {(0, 0): 1})
    m = ses.middle
    copy = rc.Module(m.presentation, m.field, m.dims, m.maps)
    assert copy is not m and copy.key == m.key
    cold_obj, cold_fwd, cold_bwd = generate(m.presentation, m.field).canonical_iso_from(copy)
    ctx.canonical_iso_from(m)

    def no_decompose(_):
        raise AssertionError("split cache missed")
    monkeypatch.setattr(rc, "decompose", no_decompose)
    obj, fwd, bwd = ctx.canonical_iso_from(copy)
    assert obj == cold_obj
    assert fwd.target is copy and bwd.source is copy
    assert fwd.source is ctx.realize(obj) and bwd.target is ctx.realize(obj)
    for got, cold in ((fwd, cold_fwd), (bwd, cold_bwd)):
        assert [c.tobytes() for c in got.comps] == [c.tobytes() for c in cold.comps]
        got.validate()
    for c, d in zip(fwd.then(bwd).comps, ctx.realize(obj).dims):
        assert np.array_equal(c, np.eye(d, dtype=np.int64))


# sha256 of canonical_iso_from on every middle below, recorded while each
# summand's projection was still built by its own complement solve
SPLIT_ISOS_SHA256 = (
    "f450d199cbb4e392bd633fbdf0b5d639c7c43093a3863caf2bcd4dad81e6d314")


def test_split_isos_are_pinned():
    """sha256 over (obj, iso, inverse) of canonical_iso_from on the middle
    of every class over at most 3 support cells between objects of at most
    2 summands, n=5 {1-3, 2-5} at F_2 and F_3, each in a fresh context."""
    digest = hashlib.sha256()
    for p in (2, 3):
        ctx5 = generate(QuiverPresentation(5, ((1, 3), (2, 5))), FieldChar(p))
        objs = [Obj(ids) for k in (1, 2)
                for ids in combinations_with_replacement(ctx5.indecs, k)]
        for third, first in product(objs, objs):
            support = ctx5.ext_matrix_support(third, first)
            if not support or len(support) > 3:
                continue
            for vals in product(range(p), repeat=len(support)):
                ses = ctx5.ses_for_class(third, first, dict(zip(support, vals)))
                obj, fwd, bwd = ctx5.canonical_iso_from(ses.middle)
                digest.update(json.dumps([str(obj), fwd.block.tolist(),
                                          bwd.block.tolist()]).encode())
    assert digest.hexdigest() == SPLIT_ISOS_SHA256


def test_ids_outside_the_algebra_raise_value_error(ctx):
    bad, good = IndecId(1, 6), IndecId(3, 4)  # [1,6] contains the path 5 -> 1
    for x, y in ((bad, good), (good, bad), (bad, bad)):
        for table in (ctx.hom_dim, ctx.ext_dim):
            with pytest.raises(ValueError, match=r"\[1,6\] is not an indecomposable"):
                table(x, y)
    assert ctx.hom_dim(good, IndecId(3, 5)) == 1 and ctx.ext_dim(good, good) == 0


def test_cached_arrays_are_read_only(ctx):
    third, first = Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3))
    ses = ctx.ses_for_class(third, first, {(0, 0): 1})
    ctx.canonical_iso_from(ses.middle)
    _, packed = ctx.cached(("split", ses.middle.key), pytest.fail)
    arrays = [ses.i.comps[3], ses.p.comps[4], ses.middle.maps[2],
              ctx.realize(third).maps[3],
              ctx.hom_basis(first, Obj.of(IndecId(3, 5)))[0].comps[2]]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
    assert isinstance(packed, bytes)


def test_realized_modules_and_split_isos_are_read_only(ctx):
    m = ctx.realize(Obj.of(IndecId(1, 2), IndecId(1, 3)))
    ses = ctx.ses_for_class(Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3)), {(0, 0): 1})
    _, fwd, bwd = ctx.canonical_iso_from(ses.middle)
    for a in (m.maps[0], m.block, fwd.comps[2], bwd.comps[4], fwd.block, bwd.block):
        assert a.size
        with pytest.raises(ValueError):
            a[...] = 0


def test_canonical_maps_are_built_once(ctx, monkeypatch):
    x, y = IndecId(3, 4), IndecId(3, 5)
    f = ctx.canonical_hom(x, y)
    assert ctx.canonical_hom(x, y) is f
    assert ctx.canonical_hom(y, x) is None

    def no_rebuild(*args):
        raise AssertionError("canonical map rebuilt")
    monkeypatch.setattr(rc.Morphism, "validate", no_rebuild)
    assert ctx.canonical_hom(x, y) is f


@pytest.mark.parametrize("n, relations, p", [(6, ((1, 5), (2, 6)), 3),
                                             (5, ((1, 3), (2, 5)), 5)])
def test_hom_basis_is_the_canonical_summand_pair_maps(n, relations, p, monkeypatch):
    # on every pair of objects with one or two summands, the canonical
    # summand-pair maps sorted by their entry at x_i.b are the basis the
    # nullspace of the naturality system gives: same order, same entries
    ctx = generate(QuiverPresentation(n, relations), FieldChar(p))
    objs = [Obj.of(x) for x in ctx.indecs] + [
        Obj(xy) for xy in combinations(ctx.indecs, 2)] + [
        Obj.of(x, x) for x in ctx.indecs]
    want = {(a, b): rc.hom_space(ctx.realize(a), ctx.realize(b))
            for a in objs for b in objs}

    def no_hom_space(*args):
        raise AssertionError("hom_basis solved the naturality system")
    monkeypatch.setattr(rc, "hom_space", no_hom_space)
    for (a, b), basis in want.items():
        got = ctx.hom_basis(a, b)
        assert len(got) == len(basis), (a, b)
        assert all(g.source is ctx.realize(a) and g.target is ctx.realize(b)
                   and g.block.tobytes() == h.block.tobytes()
                   for g, h in zip(got, basis)), (a, b)


def test_class_keys_are_reduced_mod_p(ctx):
    third, first = Obj.of(IndecId(4, 5)), Obj.of(IndecId(3, 3))
    ses = ctx.ses_for_class(third, first, {(0, 0): 1})
    p = ctx.field.p
    assert ctx.ses_for_class(third, first, {(0, 0): p + 1}) is ses
    assert ctx.ses_for_class(third, first, {(0, 0): 1, (0, 1): p}) is ses


def test_bad_input_never_reaches_the_cache(ctx):
    ctx5 = generate(QuiverPresentation(5, ((1, 3), (2, 5))), FieldChar(2))
    third, first = Obj.of(IndecId(3, 3)), Obj.of(IndecId(2, 2))
    assert ctx5.ext_matrix_support(third, first) == [(0, 0)]
    bad = {(0, 0): 1, (0, 1): 1}
    with pytest.raises(ValueError, match="outside the Ext support"):
        ctx5.ses_for_class(third, first, bad)
    ctx5.ses_for_class(third, first, {(0, 0): 1})
    with pytest.raises(ValueError, match="outside the Ext support"):
        ctx5.ses_for_class(third, first, bad)
    # a module over another field with the same content key
    m = ctx.realize(Obj.of(IndecId(3, 5)))
    ctx.identify(m)
    other = rc.Module(m.presentation, FieldChar(3), m.dims, m.maps)
    assert other.key == m.key
    for call in (ctx.identify, ctx.canonical_iso_from):
        with pytest.raises(rc.ContextMismatchError):
            call(other)


@settings(max_examples=200)
@given(st.frozensets(st.sampled_from(PAPER_INDECS), max_size=6),
       st.integers(1, 3), st.none() | st.integers(1, 4), st.integers(-1, 12))
def test_multisets_match_the_product_enumeration(ids, mult, max_summands, dim_cap):
    assert Obj.multisets(ids, mult, dim_cap, max_summands) == \
        multisets_by_product(ids, mult, dim_cap, max_summands)
