"""The decisions realize only the extension classes that can change their
answer.  These tests hold the pruned searches to the full triangle
streams they replace: the first triangle whose third term leaves an
allowed set, the witness cone of the integrality certificate, and the
theorem routes that check_abelian now takes before conditions (2) and
(3).  They also pin why the ladders need no id-set exhaustion route, and
that replay rejects condition-(2)/(3) certificates that a search could
never have produced."""

import json

import pytest

from cotorsionlab import fileformats as ff
from cotorsionlab import repcore as rc
from cotorsionlab.cli import main
from cotorsionlab.heartcat import (WitnessCone, _condition_verdict, _epi_cone,
                                   _first_triangles, check_abelian,
                                   enum_epi_triangles, heart_context)
from cotorsionlab.pairs import compute_hearts, verified_twin
from cotorsionlab.serialcat import IndecId, Obj
from cotorsionlab.subcat import SearchBounds, Verdict, subcat_in_star

from paper_fixtures import FIXTURES, fixture_subcategories, paper_context

THEOREM_ROUTES = ("zero-heart", "one-simple-object heart")


@pytest.fixture(scope="module")
def fixture_hearts():
    """The three fixture hearts over A6 at F_2 and at F_3."""
    out = {}
    bounds = SearchBounds()
    for p in (2, 3):
        ctx = paper_context(p)
        for name in FIXTURES:
            tp = verified_twin(ctx, fixture_subcategories(ctx, name), bounds)
            out[name, p] = heart_context(ctx, tp, compute_hearts(ctx, tp, bounds),
                                         bounds)
    return out


def _payloads(h, tris):
    return [None if t is None else t.payload(h.ctx) for t in tris]


def assert_pruned_matches_full_stream(h):
    full = list(enum_epi_triangles(h))
    for allowed in (h.tp.s.ids | h.w_ids, h.w_ids, frozenset()):
        want = next((t for t in full if not t.third.summands_in(allowed)), None)
        got = next((t for _, t in _first_triangles(
            h, lambda u: not u.summands_in(allowed))), None)
        assert _payloads(h, [got]) == _payloads(h, [want])
    cone = _epi_cone(h)
    full_cone = WitnessCone(h.ctx, [(t.third, t) for t in full])
    assert list(cone.reps) == list(full_cone.reps)
    assert _payloads(h, cone.reps.values()) == _payloads(h, full_cone.reps.values())


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("side", ["heart", "D-heart"])
def test_pruned_search_matches_full_stream_on_fixtures(fixture_hearts, name, p, side):
    h = fixture_hearts[name, p]
    assert_pruned_matches_full_stream(h if side == "heart" else h.dual())


def test_pruned_search_matches_full_stream_on_census(census_a5):
    for h in census_a5:
        assert_pruned_matches_full_stream(h)
        assert_pruned_matches_full_stream(h.dual())


def test_theorem_routes_leave_no_condition_counterexample(census_a5, fixture_hearts):
    # check_abelian takes these routes before the (2)/(3) searches; the
    # searches, run anyway, must find nothing on those hearts
    taken = 0
    for h in census_a5 + list(fixture_hearts.values()):
        if check_abelian(h).route in THEOREM_ROUTES:
            taken += 1
            assert _condition_verdict(h, 2) is None
            assert _condition_verdict(h, 3) is None
    assert taken > 150


def _condition_report(h, subs, cond, tmp_path):
    verdict = _condition_verdict(h, cond)
    assert verdict is not None and verdict.certificate["condition"] == cond
    data = ff.report_payload("check-abelian", verdict.payload(), h.ctx.presentation,
                             h.ctx.field, subs, h.bounds, 0, 0.0)
    path = tmp_path / f"condition{cond}.json"
    ff.write_json(path, data)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("cond,allowed", [(2, "S"), (3, "V")])
def test_replay_of_condition_certificates(ex_nonintegral, cond, allowed,
                                          tmp_path, capsys):
    # condition (1) ends check_abelian on this heart before (2) and (3)
    h = ex_nonintegral.hctx
    subs = {**ex_nonintegral.subs, "W": h.tp.w}
    path, data = _condition_report(h, subs, cond, tmp_path)
    cert = data["verdict"]["certificate"]
    if cond == 2:
        conf = cert["epi_triangle"]["conflation"]
        assert (conf["first"], conf["middle"], conf["third"]) == \
            ("[3,4]", "[3,5]", "[5,5]")
    assert main(["replay", str(path)]) == 0
    assert f"condition ({cond}) counterexample validated" in capsys.readouterr().out
    inside = sorted(getattr(h.tp, allowed.lower()).ids | h.w_ids)[0]
    cert["offending_summand"] = inside.as_interval()
    ff.write_json(path, data)
    assert main(["replay", str(path)]) == 4
    assert f"inside {allowed}+W after all" in capsys.readouterr().out


@pytest.mark.parametrize("p", [2, 3])
def test_id_set_exhaustion_implies_the_star_inclusion(p, fresh_census,
                                                      fixture_hearts):
    # z in S splits as z -> z -> 0 and z in W (inside T) as 0 -> z -> z, so
    # U inside S+W gives U in S*T, which check_integral tries first; dually
    # T inside V+W gives T in U*V
    bounds = SearchBounds()
    ctx, twins = fresh_census(bounds, p)
    cases = [(ctx, tp) for tp in twins]
    cases += [(h.ctx, h.tp) for (_, q), h in sorted(fixture_hearts.items()) if q == p]
    u_inside = t_inside = 0
    for c, tp in cases:
        if tp.u.ids <= tp.s.ids | tp.w.ids:
            u_inside += 1
            assert subcat_in_star(c, tp.u, tp.s, tp.t, bounds.dim_cap) is not None
        if tp.t.ids <= tp.v.ids | tp.w.ids:
            t_inside += 1
            assert subcat_in_star(c, tp.t, tp.u, tp.v, bounds.dim_cap) is not None
    # 145 and 151 census twins, and ex-nonabelian
    assert (u_inside, t_inside) == (146, 152)


def _forged_condition_report(setup, cond, tmp_path, **extra):
    """A condition-(2) certificate from the split 0 -> [2,3] -> [2,3], or a
    condition-(3) one from [3,4] -> [3,4] -> 0, with the given extra keys.
    Its offending summand does lie outside S+W, resp. V+W."""
    h = setup.hctx
    ctx = h.ctx
    zero = ctx.realize(Obj(()))
    if cond == 2:
        x = ctx.realize_id(IndecId(2, 3))
        ses = rc.SES(rc.zero_morphism(zero, x), rc.identity(x))
        cert = {"third_term": "[2,3]", "offending_summand": "[2,3]",
                "epi_triangle": {"kind": "epi", "conflation": ff.ses_payload(ctx, ses)}}
    else:
        x = ctx.realize_id(IndecId(3, 4))
        ses = rc.SES(rc.identity(x), rc.zero_morphism(x, zero))
        cert = {"first_term": "[3,4]", "offending_summand": "[3,4]",
                "mono_triangle": {"kind": "mono", "conflation": ff.ses_payload(ctx, ses)}}
    cert = {"kind": "non_abelian", "condition": cond, **cert, **extra}
    verdict = Verdict(status="fails", route="forged", certificate=cert,
                      bounds=h.bounds)
    data = ff.report_payload("check-abelian", verdict.payload(), ctx.presentation,
                             ctx.field, {**setup.subs, "W": h.tp.w}, h.bounds,
                             0, 0.0)
    path = tmp_path / f"forged{cond}.json"
    ff.write_json(path, data)
    return path


@pytest.mark.parametrize("cond,extra,reason", [
    (2, {}, "malformed certificate (KeyError: 'heart_witnesses')"),
    (2, {"heart_witnesses": {}}, "epi-triangle third term [2,3] leaves add(U)"),
    (3, {}, "malformed certificate (KeyError: 'heart_witnesses')"),
    (3, {"heart_witnesses": {}}, "missing heart witnesses for [3,4]")],
    ids=["2-no-witnesses", "2-empty-witnesses", "3-no-witnesses",
         "3-empty-witnesses"])
def test_replay_rejects_forged_condition_certificates(ex_abelian, cond, extra,
                                                      reason, tmp_path, capsys):
    # ex-abelian is abelian, so no condition-(2)/(3) certificate is genuine
    path = _forged_condition_report(ex_abelian, cond, tmp_path, **extra)
    assert main(["replay", str(path)]) == 4
    out = capsys.readouterr().out
    assert out.startswith("replay: MISMATCH") and reason in out


@pytest.mark.parametrize("cond", [2, 3])
def test_replay_needs_every_heart_witness(ex_nonintegral, cond, tmp_path, capsys):
    h = ex_nonintegral.hctx
    path, data = _condition_report(h, {**ex_nonintegral.subs, "W": h.tp.w},
                                   cond, tmp_path)
    witnesses = data["verdict"]["certificate"]["heart_witnesses"]
    dropped = sorted(witnesses)[0]
    del witnesses[dropped]
    ff.write_json(path, data)
    assert main(["replay", str(path)]) == 4
    assert f"missing heart witnesses for {dropped}" in capsys.readouterr().out
