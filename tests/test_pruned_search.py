"""The decisions realize only the extension classes that can change their
answer.  These tests hold the pruned searches to the full triangle
streams they replace: the first triangle whose third term leaves an
allowed set, the witness cone of the integrality certificate, and the
theorem routes that check_abelian now takes before conditions (2) and
(3)."""

import json

import pytest

from cotorsionlab import fileformats as ff
from cotorsionlab.cli import main
from cotorsionlab.fixtures import FIXTURES, fixture_subcategories, paper_context
from cotorsionlab.heartcat import (WitnessCone, _condition_verdict, _epi_cone,
                                   _first_triangles, check_abelian,
                                   enum_epi_triangles, heart_context)
from cotorsionlab.pairs import compute_hearts, verified_twin
from cotorsionlab.subcat import SearchBounds

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
            h, h.bounds, lambda u: not u.summands_in(allowed))), None)
        assert _payloads(h, [got]) == _payloads(h, [want])
    cone = _epi_cone(h, h.bounds)
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
            assert _condition_verdict(h, 2, h.bounds) is None
            assert _condition_verdict(h, 3, h.bounds) is None
    assert taken > 150


def _condition_report(h, subs, cond, tmp_path):
    verdict = _condition_verdict(h, cond, h.bounds)
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
