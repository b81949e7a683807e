"""The duality D = Hom_k(-, k) from mod A to mod A^op.

D relabels vertices v -> n+1-v, is an involution on ids, modules,
morphisms and conflations, and re-anchors heart morphisms onto the
canonical realizations of the opposite algebra.  The D-twin of a fixture,
verified from scratch over the opposite algebra, must reach the same
verdicts as the fixture, and the mono/kernel side derived through D must
agree with the epi/cokernel side of the D-heart.
"""

import json
from itertools import combinations_with_replacement

import numpy as np
import pytest

from cotorsionlab import fileformats as ff
from cotorsionlab import repcore as rc
from cotorsionlab.cli import main
from cotorsionlab.heartcat import (_non_integral_certificate, check_abelian,
                                   check_integral, enum_epi_triangles,
                                   enum_mono_triangles, heart_context,
                                   is_w_epic)
from cotorsionlab.pairs import compute_hearts, verify_cotorsion, verify_twin
from cotorsionlab.serialcat import IndecId, Obj, generate
from oracles import core_epic


def census_context():
    return generate(rc.QuiverPresentation(5, ((1, 3), (2, 5))), rc.FieldChar(2))


def same_module(m, n):
    return (m.presentation == n.presentation and m.dims == n.dims
            and all(np.array_equal(a, b) for a, b in zip(m.maps, n.maps)))


def same_morphism(f, g):
    return (same_module(f.source, g.source) and same_module(f.target, g.target)
            and all(np.array_equal(a, b) for a, b in zip(f.comps, g.comps)))


def test_opposite_algebra_relabels_relations(ctx):
    assert ctx.op.op is ctx
    assert ctx.op.presentation == ctx.presentation  # A6 is self-dual
    cen = census_context()
    assert cen.op.presentation.relations == ((1, 4), (3, 5))
    assert cen.op.op is cen
    assert sorted(x.dual(5) for x in cen.indecs) == sorted(cen.op.indecs)
    assert IndecId(2, 3).dual(5) == IndecId(3, 4)


@pytest.mark.parametrize("which", ["a6", "census"])
def test_double_dual_is_identity_and_reanchoring_is_exact(ctx, which):
    c = ctx if which == "a6" else census_context()
    n = c.presentation.n
    for k in (1, 2, 3):
        for ids in combinations_with_replacement(c.indecs, k):
            o = Obj(ids)
            assert o.dual(n).dual(n) == o
            m = c.realize(o)
            assert same_module(m.dual().dual(), m)
            for f in c.hom_basis(o, o):
                assert same_morphism(f.dual().dual(), f)
                g = c.dual_morphism(o, o, f)
                assert g.source is c.op.realize(o.dual(n))
                g.validate()  # natural between the canonical realizations
                assert same_morphism(c.op.dual_morphism(o.dual(n), o.dual(n), g), f)


def test_double_dual_of_witness_conflations(ctx, setups):
    n = ctx.presentation.n
    for s in setups.values():
        d = s.hctx.dual()
        assert d.dual() is s.hctx and d.ctx is ctx.op
        for x in ctx.indecs:
            ses = s.tp.uv.left[x]
            dd = ses.dual().dual()
            assert same_morphism(dd.i, ses.i) and same_morphism(dd.p, ses.p)
            # the (S', T') pair of the D-twin is D of the (U, V) pair
            lazy = d.tp.st.right[x.dual(n)]
            assert same_morphism(lazy.i, ses.dual().i)
            assert ctx.op.identify(lazy.first) == ctx.identify(ses.third).dual(n)


def test_dual_heart_tables_are_the_image_of_the_heart(ctx, setups):
    n = ctx.presentation.n
    for s in setups.values():
        h, d = s.hctx, s.hctx.dual()
        assert set(d.surviving) == {x.dual(n) for x in h.surviving}
        assert d.w_ids == {x.dual(n) for x in h.w_ids}
        assert d.hearts.first.surviving_ids == \
            {x.dual(n) for x in h.hearts.second.surviving_ids}
        assert d.hearts.second.surviving_ids == \
            {x.dual(n) for x in h.hearts.first.surviving_ids}
    assert set(setups["ex-nonintegral"].hctx.dual().surviving) == \
        {IndecId(3, 4), IndecId(2, 4), IndecId(3, 3)}


def test_mono_triangles_are_dual_epi_triangles(ctx, ex_nonintegral):
    h = ex_nonintegral.hctx
    n = ctx.presentation.n
    mono = {(t.first, t.middle, t.third) for t in enum_mono_triangles(h)}
    epi = {(t.third.dual(n), t.middle.dual(n), t.first.dual(n))
           for t in enum_epi_triangles(h.dual())}
    assert mono == epi
    for t in enum_mono_triangles(h):
        assert t.ses.first is ctx.realize(t.first)
        assert t.ses.third is ctx.realize(t.third)
        assert is_w_epic(ctx, t.ses.p, h.tp.w)
        assert core_epic(h, t.middle, t.third, t.ses.p)


@pytest.mark.parametrize("name", ["ex-nonintegral", "ex-abelian", "ex-nonabelian"])
def test_d_twin_verified_from_scratch_reaches_the_same_verdicts(ctx, bounds,
                                                                setups, name):
    s = setups[name]
    n = ctx.presentation.n
    op = ctx.op
    dual = {k: s.subs[src].dual(n)
            for k, src in (("S", "V"), ("T", "U"), ("U", "T"), ("V", "S"))}
    st = verify_cotorsion(op, dual["S"], dual["T"], bounds)
    uv = verify_cotorsion(op, dual["U"], dual["V"], bounds)
    tp = verify_twin(op, st, uv)
    assert tp.verdict.holds
    hearts = compute_hearts(op, tp, bounds)
    assert hearts.main.surviving_ids == {x.dual(n) for x in s.hctx.surviving}
    assert hearts.main.surviving_ids == set(s.hctx.dual().surviving)
    fresh = heart_context(op, tp, hearts, bounds)
    for check in (check_integral, check_abelian):
        got, want = check(fresh), check(s.hctx)
        assert (got.status, got.route) == (want.status, want.route), check


def _dual_branch_report(h, bounds):
    cert = ff.dual_certificate(_non_integral_certificate(h.dual()))
    verdict = {"status": "fails", "route": "mono-triangle criterion (dual)",
               "certificate": cert}
    return json.loads(ff.dumps_canonical(ff.report_payload(
        "check-integral", verdict, h.ctx.presentation, h.ctx.field, None,
        bounds, 0, 0.0)))


def test_dual_branch_certificate_replays_and_rejects_tampering(
        ex_nonintegral, bounds, tmp_path, capsys):
    h = ex_nonintegral.hctx
    report = _dual_branch_report(h, bounds)
    cert = report["verdict"]["certificate"]
    assert cert["kind"] == "non_integral_dual"
    assert {"kind", "z", "z_outside_t", "conflation", "mono_triangles",
            "heart_witnesses", "context"} == set(cert)
    assert cert["context"]["S"] == sorted(str(x) for x in h.tp.s.ids)
    assert ff.dual_certificate(ff.dual_certificate(cert)) == cert
    good = tmp_path / "dual.json"
    ff.write_json(good, report)
    assert main(["replay", str(good)]) == 0
    assert "certificate accepted" in capsys.readouterr().out

    for tamper in ("matrix", "claim"):
        bad = json.loads(json.dumps(report))
        bcert = bad["verdict"]["certificate"]
        if tamper == "matrix":
            for comp in bcert["conflation"]["p_comps"]:
                if comp and comp[0]:
                    comp[0][0] = 1 - comp[0][0]
                    break
        else:
            bcert["z_outside_t"] = sorted(str(x) for x in h.tp.t.ids)[0]
        path = tmp_path / f"tampered-{tamper}.json"
        ff.write_json(path, bad)
        assert main(["replay", str(path)]) == 4, tamper
        assert "MISMATCH" in capsys.readouterr().out
