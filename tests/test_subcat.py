import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotorsionlab.pairs import verified_twin
from cotorsionlab.serialcat import IndecId, Obj
from cotorsionlab.subcat import (SearchBounds, Subcategory, Verdict,
                                 find_left_approx,
                                 find_right_approx, inter, left_perp, oplus,
                                 right_perp, star_member, subcat_in_star)

from oracles import extensions
from paper_fixtures import FIXTURES, fixture_subcategories, paper_context

ALL_IDS = sorted(
    IndecId(a, b) for a in range(1, 7) for b in range(a, 7)
    if not ((a <= 1 and b >= 5) or (a <= 2 and b >= 6)))

subsets = st.frozensets(st.sampled_from(ALL_IDS), max_size=18)


def sub(ids, name=""):
    return Subcategory(frozenset(ids), name)


# ---- set algebra ----------------------------------------------------------

@given(subsets, subsets, subsets)
def test_oplus_laws(a, b, c):
    x, y, z = sub(a), sub(b), sub(c)
    assert oplus(x, y).ids == oplus(y, x).ids
    assert oplus(oplus(x, y), z).ids == oplus(x, oplus(y, z)).ids
    assert oplus(x, x).ids == x.ids
    assert oplus(x, Subcategory.empty()).ids == x.ids


@given(subsets, subsets)
def test_perps_are_antitone(ctx, a, b):
    x, y = sub(a), sub(a | b)
    assert right_perp(ctx, y).ids <= right_perp(ctx, x).ids
    assert left_perp(ctx, y).ids <= left_perp(ctx, x).ids


def test_right_perp_examples(ctx):
    assert right_perp(ctx, Subcategory.empty()).ids == frozenset(ctx.indecs)
    assert right_perp(ctx, Subcategory.projectives(ctx)).ids == frozenset(ctx.indecs)
    perp = right_perp(ctx, sub({IndecId(4, 5)}))
    assert IndecId(3, 3) not in perp.ids


def test_verdict_requires_certificates_on_fails():
    with pytest.raises(ValueError):
        Verdict(status="fails")
    with pytest.raises(ValueError):
        Verdict(status="maybe")


# ---- star membership -------------------------------------------------------

def test_star_member_trivial_left_slot(ctx, bounds):
    x = sub({IndecId(3, 4)}, "X")
    anything = Subcategory.everything(ctx)
    v = star_member(ctx, Obj.of(IndecId(3, 4)), x, anything)
    assert v.holds


def test_star_member_paper_conflation(ctx):
    v = star_member(ctx, Obj.of(IndecId(3, 5)),
                    sub({IndecId(3, 3)}), sub({IndecId(4, 5)}))
    assert v.holds
    w = v.witnesses[0]["conflation"]
    assert w["first"] == "[3,3]" and w["third"] == "[4,5]"


def test_star_member_reversed_order_fails(ctx):
    v = star_member(ctx, Obj.of(IndecId(3, 5)),
                    sub({IndecId(4, 5)}), sub({IndecId(3, 3)}))
    assert v.fails
    assert v.certificate["submodules_checked"] == 4
    assert v.exhaustive


def test_star_member_consistent_with_extensions(ctx):
    # every middle listed by extensions() is a member of {y} * {x}
    for x in ctx.indecs:
        for y in ctx.indecs:
            if ctx.ext_dim(x, y) != 1:
                continue
            for mid in extensions(ctx, x, y):
                v = star_member(ctx, mid, sub({y}), sub({x}))
                assert v.holds, (x, y, mid)


def test_subcat_in_star_reflexive(ctx, bounds):
    x = sub({IndecId(3, 4), IndecId(5, 6)}, "X")
    assert subcat_in_star(ctx, x, x, Subcategory.everything(ctx), bounds).holds


def test_subcat_in_star_paper_failures(ctx, bounds):
    subs = fixture_subcategories(ctx, "ex-abelian")
    r1 = subcat_in_star(ctx, subs["U"], subs["S"], subs["T"], bounds)
    r2 = subcat_in_star(ctx, subs["T"], subs["U"], subs["V"], bounds)
    assert r1.fails and r2.fails
    assert "offender" in r1.certificate


# ---- approximation searches -------------------------------------------------

def test_left_approx_split_for_projectives(ctx, bounds):
    every = Subcategory.everything(ctx)
    v, ses = find_left_approx(ctx, IndecId(1, 3), every, every, bounds)
    assert v.holds and v.route == "split"
    assert ses.first.total_dim == 0


def test_left_approx_with_zero_cover_is_unknown(ctx, bounds):
    v, ses = find_left_approx(ctx, IndecId(3, 4), Subcategory.empty(),
                              Subcategory.everything(ctx), bounds)
    assert v.unknown and ses is None
    assert v.exhaustive  # the reduced search space was fully scanned


def test_right_approx_split_for_members(ctx, bounds):
    every = Subcategory.everything(ctx)
    v, ses = find_right_approx(ctx, IndecId(4, 6), every, every, bounds)
    assert v.holds and ses.third.total_dim == 0


def test_right_approx_with_zero_middle_is_unknown(ctx, bounds):
    v, ses = find_right_approx(ctx, IndecId(3, 4), Subcategory.empty(),
                               Subcategory.everything(ctx), bounds)
    assert v.unknown and ses is None


def test_fixture_pairs_have_witnesses_for_all_indecs(ctx, bounds):
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    for b in ctx.indecs:
        lv, lses = find_left_approx(ctx, b, subs["U"], subs["V"], bounds)
        rv, rses = find_right_approx(ctx, b, subs["V"], subs["U"], bounds)
        assert lv.holds and rv.holds, b
        # witnesses are genuine conflations with the right memberships
        assert ctx.identify(lses.middle).summands_in(subs["U"].ids)
        assert ctx.identify(lses.first).summands_in(subs["V"].ids)
        assert ctx.identify(lses.third) == Obj.of(b)
        assert ctx.identify(rses.first) == Obj.of(b)
        assert ctx.identify(rses.middle).summands_in(subs["V"].ids)
        assert ctx.identify(rses.third).summands_in(subs["U"].ids)


def test_approx_witnesses_are_smallest_first(ctx, bounds):
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    v, ses = find_left_approx(ctx, IndecId(3, 4), subs["W"] if "W" in subs else
                              inter(subs["U"], subs["T"]), subs["V"], bounds)
    # kernel [1,2] gives the smallest cover [1,4] of [3,4]
    assert v.holds
    assert ctx.identify(ses.middle) == Obj.of(IndecId(1, 4))


def test_left_approx_with_b_above_the_dim_cap_is_unknown(ctx):
    # b alone exceeds the cap, so not even the split conflation is tried
    every = Subcategory.everything(ctx)
    v, ses = find_left_approx(ctx, IndecId(1, 4), every, every,
                              SearchBounds(dim_cap=3))
    assert v.unknown and ses is None
    assert not v.exhaustive


# sha256 of (status, route, exhaustive, notes, witness matrices) of every
# approximation search below, recorded before the left and right searches
# were merged into one
APPROX_ANSWERS_SHA256 = (
    "37dbae099e81776870d09b1317e8403c78f32d748dead34ab687e9d83db96c23")


def _ses_matrices(ses):
    return [[list(m.dims), [a.tolist() for a in m.maps]]
            for m in (ses.first, ses.middle, ses.third)] + [
        [c.tolist() for c in ses.i.comps], [c.tolist() for c in ses.p.comps]]


def approx_answers_digest(ctx, twins) -> str:
    """Every indecomposable against both approximations of each cotorsion
    pair of the twins and against their two heart membership searches."""
    searches = set()
    for tp in twins:
        for x, y in ((tp.s, tp.t), (tp.u, tp.v)):
            searches.add((find_left_approx, x.ids, y.ids))
            searches.add((find_right_approx, y.ids, x.ids))
        searches.add((find_left_approx, tp.w.ids, tp.v.ids))
        searches.add((find_right_approx, tp.w.ids, tp.s.ids))
    digest = hashlib.sha256()
    for search, mid, end in sorted(searches, key=lambda s: (
            s[0].__name__, sorted(s[1]), sorted(s[2]))):
        for b in ctx.indecs:
            v, ses = search(ctx, b, Subcategory(mid), Subcategory(end),
                            SearchBounds())
            record = [v.status, v.route, v.exhaustive, list(v.notes),
                      None if ses is None else _ses_matrices(ses)]
            digest.update(json.dumps(record).encode())
    return digest.hexdigest()


def test_approximation_answers_are_pinned(census_a5):
    digests = []
    for p in (2, 3):
        ctx = paper_context(p)
        digests.append(approx_answers_digest(ctx, [
            verified_twin(ctx, fixture_subcategories(ctx, name), SearchBounds())
            for name in FIXTURES]))
    digests.append(approx_answers_digest(census_a5[0].ctx,
                                         [h.tp for h in census_a5]))
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert digest == APPROX_ANSWERS_SHA256
