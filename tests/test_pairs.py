import hashlib
import json

import pytest

from cotorsionlab import pairs
from cotorsionlab.pairs import (compute_hearts, verified_twin,
                                verify_cotorsion, verify_twin)
from cotorsionlab.serialcat import IndecId, Obj
from cotorsionlab.subcat import (Subcategory, find_left_approx,
                                 find_right_approx)
from cotorsionlab import repcore as rc

from paper_fixtures import FIXTURES, fixture_subcategories, paper_context


def test_projectives_against_everything_is_a_cotorsion_pair(ctx, bounds):
    cp = verify_cotorsion(ctx, Subcategory.projectives(ctx),
                          Subcategory.everything(ctx), bounds)
    assert cp.verdict.holds
    assert len(cp.left) == len(ctx.indecs) == len(cp.right)


def test_everything_against_everything_fails_orthogonality(ctx, bounds):
    every = Subcategory.everything(ctx)
    cp = verify_cotorsion(ctx, every, every, bounds)
    assert cp.verdict.fails
    bad = cp.verdict.certificate["ext_nonzero"]
    x, y = IndecId.parse(bad[0]), IndecId.parse(bad[1])
    assert ctx.ext_dim(x, y) == 1


def test_fixture_twins_verify_with_mult_two(setups):
    for name, s in setups.items():
        assert s.st.verdict.holds, name
        assert s.uv.verdict.holds, name
        assert s.tp.verdict.holds, name


def test_twin_inclusion_failure_names_an_indec(ctx, bounds):
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    st = verify_cotorsion(ctx, subs["S"], subs["T"], bounds)
    uv = verify_cotorsion(ctx, subs["U"], subs["V"], bounds)
    # swap the pairs: U is not inside S
    tp = verify_twin(ctx, uv, st)
    assert tp.verdict.fails
    assert tp.verdict.certificate["outside_u"]


def test_nonabelian_fixture_has_core_equal_to_u_and_t(ex_nonabelian):
    tp = ex_nonabelian.tp
    assert tp.w.ids == tp.u.ids == tp.t.ids


def test_corrupted_fixture_is_rejected_with_named_indec(ctx, bounds):
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    dropped = IndecId(2, 2)
    v_small = Subcategory(subs["V"].ids - {dropped}, "V'")
    cp = verify_cotorsion(ctx, subs["U"], v_small, bounds)
    assert not cp.verdict.holds
    assert any("[" in n for n in cp.verdict.notes)


def test_remark_inclusions_on_all_fixtures(ctx, setups):
    # V inside T, and Ext(S, V) = 0, for every verified twin
    for name, s in setups.items():
        assert s.tp.v.ids <= s.tp.t.ids, name
        for x in s.tp.s.ids:
            for y in s.tp.v.ids:
                assert ctx.ext_dim(x, y) == 0, (name, x, y)


def test_core_identities_on_all_fixtures(setups):
    # H cap U = W = H cap T as id-sets
    for name, s in setups.items():
        h = s.hearts.main.heart_ids
        assert h & s.tp.u.ids == s.tp.w.ids, name
        assert h & s.tp.t.ids == s.tp.w.ids, name


def _ids(*pairs):
    return frozenset(IndecId(a, b) for a, b in pairs)


# the hearts modulo the core of the three fixtures, and the first
# single-pair heart of ex-nonabelian
EXPECTED_HEART = {
    "ex-nonintegral": _ids((3, 4), (3, 5), (4, 4)),
    "ex-abelian": _ids((3, 5)),
    "ex-nonabelian": _ids((3, 4), (3, 5), (4, 4), (4, 5), (5, 5)),
}
EXPECTED_H1_NONABELIAN = _ids((3, 4), (3, 5), (5, 5))


def test_heart_tables_match_expected_sets(setups):
    for name, s in setups.items():
        assert s.hearts.main.surviving_ids == EXPECTED_HEART[name], name
        assert not s.hearts.main.tainted_ids, name


def test_h1_table_of_nonabelian_fixture(ex_nonabelian):
    assert ex_nonabelian.hearts.first.surviving_ids == EXPECTED_H1_NONABELIAN


# sha256 of the plus, minus, tainted, heart and surviving ids and the
# witness key sets of the three heart tables of every census-a5 twin at F_2
# and of the three fixtures at F_2 and F_3, recorded while each table kept
# a verdict per indecomposable and the single-pair tables came from
# re-verified twins ((X, Y), (X, Y))
HEART_TABLES_SHA256 = (
    "d9608d97aa95ab8fb0a451f6ad7f85d78ac70d12d8fcbe30c3efb6c107444ccb")


def test_heart_tables_are_pinned(census_a5, setups, bounds):
    def ids(s):
        return sorted(str(x) for x in s)
    hearts = [h.hearts for h in census_a5] + [s.hearts for s in setups.values()]
    ctx3 = paper_context(3)
    for name in FIXTURES:
        tp = verified_twin(ctx3, fixture_subcategories(ctx3, name), bounds)
        hearts.append(compute_hearts(ctx3, tp, bounds))
    digest = hashlib.sha256()
    for hs in hearts:
        record = [[ids(t.plus_ids), ids(t.minus_ids), ids(t.tainted_ids),
                   ids(t.heart_ids), ids(t.surviving_ids),
                   ids(t.bplus_witness), ids(t.bminus_witness)]
                  for t in (hs.main, hs.first, hs.second)]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == HEART_TABLES_SHA256


def test_compute_hearts_verifies_no_twin(ctx, bounds, ex_nonabelian, monkeypatch):
    """The single-pair tables come from their cores directly, not from
    re-verified twins."""
    calls = []
    verify = pairs.verify_twin
    monkeypatch.setattr(pairs, "verify_twin",
                        lambda *args: calls.append(args) or verify(*args))
    hearts = compute_hearts(ctx, ex_nonabelian.tp, bounds)
    assert calls == []
    assert hearts.first.surviving_ids == EXPECTED_H1_NONABELIAN


def test_membership_trivial_for_core_objects(ctx, bounds, ex_nonintegral):
    tp = ex_nonintegral.tp
    for w in sorted(tp.w.ids)[:3]:
        pv, _ = find_left_approx(ctx, w, tp.w, tp.v, bounds)
        mv, _ = find_right_approx(ctx, w, tp.w, tp.s, bounds)
        assert pv.holds and mv.holds


def test_membership_witness_conflations_have_right_classes(ctx, ex_nonintegral):
    tp = ex_nonintegral.tp
    hearts = ex_nonintegral.hearts
    for x, ses in hearts.main.bplus_witness.items():
        assert ctx.identify(ses.first).summands_in(tp.v.ids)
        assert ctx.identify(ses.middle).summands_in(tp.w.ids)
        assert ctx.identify(ses.third) == Obj.of(x)
    for x, ses in hearts.main.bminus_witness.items():
        assert ctx.identify(ses.first) == Obj.of(x)
        assert ctx.identify(ses.middle).summands_in(tp.w.ids)
        assert ctx.identify(ses.third).summands_in(tp.s.ids)


def test_paper_heart_member_has_both_witnesses(ctx, bounds, ex_nonintegral):
    tp = ex_nonintegral.tp
    pv, pses = find_left_approx(ctx, IndecId(3, 5), tp.w, tp.v, bounds)
    mv, mses = find_right_approx(ctx, IndecId(3, 5), tp.w, tp.s, bounds)
    assert pv.holds and mv.holds


def test_membership_without_witness_reports_unknown(ctx, bounds, ex_nonintegral):
    # [4,5] sits outside the plus class of this twin; its complete reduced
    # search must come back empty, flagged exhaustive
    tp = ex_nonintegral.tp
    v, ses = find_left_approx(ctx, IndecId(4, 5), tp.w, tp.v, bounds)
    assert v.unknown and v.exhaustive and ses is None


def test_zero_heart_control_minus_class_is_projectives(ctx, bounds):
    proj = Subcategory.projectives(ctx)
    cp = verify_cotorsion(ctx, proj, Subcategory.everything(ctx), bounds)
    tp = verify_twin(ctx, cp, cp)
    hearts = compute_hearts(ctx, tp, bounds)
    assert hearts.main.minus_ids == proj.ids
    assert hearts.main.surviving_ids == frozenset()


def test_verified_pairs_sit_inside_their_perps(ctx, setups):
    from cotorsionlab.subcat import left_perp, right_perp
    for name, s in setups.items():
        for pair in (s.st, s.uv):
            assert pair.v.ids <= right_perp(ctx, pair.u).ids, name
            assert pair.u.ids <= left_perp(ctx, pair.v).ids, name


def test_field_char_validation():
    from cotorsionlab.repcore import FieldChar
    FieldChar(97)
    with pytest.raises(ValueError):
        FieldChar(4)
    with pytest.raises(ValueError):
        FieldChar(101)  # beyond the enumeration feasibility bound


def test_factorization_through_core_covers(ctx, setups):
    # every map from a U-object into a heart member factors through the
    # member's core cover (solvable linear system, exact)
    import numpy as np
    from cotorsionlab import primefield as pf
    for name, s in setups.items():
        hearts = s.hearts
        for a, ses in hearts.main.bplus_witness.items():
            if a not in hearts.main.heart_ids:
                continue
            w = ses.p  # W_A ->> A
            amod = ctx.realize_id(a)
            for u in sorted(s.tp.u.ids):
                for f in ctx.hom_basis(Obj.of(u), Obj.of(a)):
                    basis = rc.hom_space(ctx.realize_id(u), w.source)
                    if not basis:
                        assert f.is_zero(), (name, u, a)
                        continue
                    mat = np.stack([h.then(w).vectorize() for h in basis],
                                   axis=1)
                    sol = pf.solve(mat, f.vectorize().reshape(-1, 1), 2)
                    assert sol is not None, (name, u, a)


def test_conflations_with_core_monic_start_keep_minus_class(ctx, bounds, setups):
    # enumerated conflations A -> B -> C with A, C in the verified minus
    # class and A -> B core-monic have B in the minus class too
    from cotorsionlab.heartcat import is_w_monic
    s = setups["ex-nonintegral"]
    minus = s.hearts.main.minus_ids
    checked = 0
    for a in sorted(minus):
        for c in sorted(minus):
            if ctx.ext_dim(c, a) != 1:
                continue
            ses = ctx.ses_for_class(Obj.of(c), Obj.of(a), {(0, 0): 1})
            if not is_w_monic(ctx, ses.i, s.tp.w):
                continue
            mid = ctx.identify(ses.middle)
            checked += 1
            assert mid.summands_in(minus), (a, c, mid)
    assert checked > 0
