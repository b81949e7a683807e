"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status and timing.  The property sweeps in criterion 6 are exhaustive at
desk scale and deliberately heavyweight.
"""

import time
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from cotorsionlab import primefield as pf
from cotorsionlab import repcore as rc
from cotorsionlab.heartcat import (check_abelian, check_integral,
                                   enum_epi_triangles, heart_context,
                                   heart_morphism_from_coeffs,
                                   is_epi_in_heart, is_mono_in_heart,
                                   is_w_monic, kernel_in_heart,
                                   probe_integral_direct,
                                   _epi_by_hom_functor)
from cotorsionlab import fileformats as ff
from cotorsionlab.cli import main as cli_main
from cotorsionlab.pairs import compute_hearts, verify_cotorsion, verify_twin
from cotorsionlab.serialcat import IndecId, Obj
from cotorsionlab.subcat import (SearchBounds, Subcategory, subcat_in_star)

from oracles import (checked_split, core_ideal_by_composition, decompose_generic,
                     ext_dim_brute, hom_dim_brute, in_row_span,
                     validate_kernel_universal_property)
from paper_fixtures import fixture_subcategories, paper_context


def _pipeline(ctx, name, bounds):
    subs = fixture_subcategories(ctx, name)
    st = verify_cotorsion(ctx, subs["S"], subs["T"], bounds)
    uv = verify_cotorsion(ctx, subs["U"], subs["V"], bounds)
    tp = verify_twin(ctx, st, uv)
    hearts = compute_hearts(ctx, tp, bounds)
    return subs, tp, hearts, heart_context(ctx, tp, hearts, bounds)


def _report(label, started, limit=None):
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)"
    if limit is not None:
        assert elapsed < limit, f"{label} exceeded {limit}s ({elapsed:.2f}s)"
        line += f" [limit {limit}s]"
    print(line)


def test_criterion_1_census_and_tables(capsys):
    started = time.monotonic()
    ctx = paper_context()
    expected = sorted(
        IndecId(a, b) for a in range(1, 7) for b in range(a, 7)
        if not ((a <= 1 and b >= 5) or (a <= 2 and b >= 6)))
    assert len(ctx.indecs) == 18
    assert sorted(ctx.indecs) == expected
    for x in ctx.indecs:
        for y in ctx.indecs:
            assert ctx.hom_dim(x, y) == hom_dim_brute(
                ctx.realize_id(x), ctx.realize_id(y))
            assert ctx.ext_dim(x, y) == ext_dim_brute(ctx, x, y)
    with capsys.disabled():
        _report("1 (census + Hom/Ext tables)", started, limit=5.0)


def test_criterion_2_nonintegral_example(tmp_path, capsys):
    started = time.monotonic()
    ctx = paper_context()
    bounds = SearchBounds(mult=2, dim_cap=24)
    subs, tp, hearts, h = _pipeline(ctx, "ex-nonintegral", bounds)
    assert tp.verdict.holds
    assert hearts.main.surviving_ids == frozenset(
        {IndecId(3, 4), IndecId(3, 5), IndecId(4, 4)})
    verdict = check_integral(h)
    assert verdict.fails
    cert = verdict.certificate
    assert cert["z"] == "[3,5]"
    conf = cert["conflation"]
    assert (conf["first"], conf["middle"], conf["third"]) == \
        ("[3,3]", "[3,5]", "[4,5]")
    tri = cert["epi_triangles"][0]["conflation"]
    assert (tri["first"], tri["middle"], tri["third"]) == \
        ("[3,4]", "[3,5] + [4,4]", "[4,5]")
    # the certificate is accepted by the replay command
    from cotorsionlab.subcat import inter
    subs_out = dict(subs)
    subs_out["W"] = inter(subs["U"], subs["T"], "W")
    report = ff.report_payload("check-integral", verdict.payload(),
                               ctx.presentation, ctx.field, subs_out, bounds,
                               0, 0.0)
    path = tmp_path / "cert.json"
    ff.write_json(path, report)
    assert cli_main(["replay", str(path)]) == 0
    assert check_abelian(h).fails
    with capsys.disabled():
        _report("2 (non-integral example end to end)", started, limit=60.0)


def test_criterion_3_abelian_example(capsys):
    started = time.monotonic()
    ctx = paper_context()
    bounds = SearchBounds(mult=2, dim_cap=24)
    subs, tp, hearts, h = _pipeline(ctx, "ex-abelian", bounds)
    assert tp.verdict.holds
    assert hearts.main.surviving_ids == frozenset({IndecId(3, 5)})
    va = check_abelian(h)
    assert va.holds and va.route  # definitive, with the route recorded
    assert "one-simple-object" in va.route
    assert check_integral(h).holds
    assert subcat_in_star(ctx, subs["U"], subs["S"], subs["T"], bounds.dim_cap) is None
    assert subcat_in_star(ctx, subs["T"], subs["U"], subs["V"], bounds.dim_cap) is None
    with capsys.disabled():
        _report("3 (abelian example end to end)", started, limit=60.0)


def test_criterion_4_nonabelian_example(capsys):
    started = time.monotonic()
    ctx = paper_context()
    bounds = SearchBounds(mult=2, dim_cap=24)
    subs, tp, hearts, h = _pipeline(ctx, "ex-nonabelian", bounds)
    assert tp.verdict.holds
    assert tp.w.ids == tp.u.ids == tp.t.ids
    assert hearts.main.surviving_ids == frozenset(
        {IndecId(3, 4), IndecId(3, 5), IndecId(4, 4), IndecId(4, 5),
         IndecId(5, 5)})
    assert hearts.first.surviving_ids == frozenset(
        {IndecId(3, 4), IndecId(3, 5), IndecId(5, 5)})
    verdict = check_abelian(h)
    assert verdict.fails
    assert verdict.certificate["condition"] == 1
    assert set(verdict.certificate["in_heart_not_in_h1"]) == \
        {"[4,4]", "[4,5]"}
    # the necessary conditions (2) and (3) show no counterexample in bounds
    s_plus_w = h.tp.s.ids | h.w_ids
    v_plus_w = h.tp.v.ids | h.w_ids
    from cotorsionlab.heartcat import enum_mono_triangles
    assert all(all(x in s_plus_w for x in t.third.ids)
               for t in enum_epi_triangles(h))
    assert all(all(x in v_plus_w for x in t.first.ids)
               for t in enum_mono_triangles(h))
    with capsys.disabled():
        _report("4 (non-abelian example end to end)", started, limit=60.0)


def test_criterion_5_zero_heart_control(capsys):
    started = time.monotonic()
    ctx = paper_context()
    bounds = SearchBounds()
    proj = Subcategory.projectives(ctx)
    every = Subcategory.everything(ctx)
    cp = verify_cotorsion(ctx, proj, every, bounds)
    tp = verify_twin(ctx, cp, cp)
    assert tp.verdict.holds
    hearts = compute_hearts(ctx, tp, bounds)
    assert hearts.main.surviving_ids == frozenset()
    h = heart_context(ctx, tp, hearts, bounds)
    vi, va = check_integral(h), check_abelian(h)
    assert vi.holds and vi.route == "zero-heart"
    assert va.holds and va.route == "zero-heart"
    with capsys.disabled():
        _report("5 (zero-heart control)", started, limit=5.0)


# ---- criterion 6: property suites -----------------------------------------


@pytest.fixture(scope="module")
def suite_setups():
    ctx = paper_context()
    bounds = SearchBounds()
    out = {}
    for name in ("ex-nonintegral", "ex-abelian", "ex-nonabelian"):
        out[name] = _pipeline(ctx, name, bounds)
    return ctx, bounds, out


def test_criterion_6a_core_identities(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    for name, (subs, tp, hearts, h) in setups.items():
        heart = hearts.main.heart_ids
        assert heart & tp.u.ids == tp.w.ids, name
        assert heart & tp.t.ids == tp.w.ids, name
    with capsys.disabled():
        _report("6a (heart/core intersection identities)", started)


def test_criterion_6b_twin_inclusions(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    for name, (subs, tp, hearts, h) in setups.items():
        assert tp.v.ids <= tp.t.ids, name
        for s in tp.s.ids:
            for v in tp.v.ids:
                assert ctx.ext_dim(s, v) == 0, (name, s, v)
    with capsys.disabled():
        _report("6b (inclusions and orthogonality)", started)


def test_criterion_6c_factorization_through_covers(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    for name, (subs, tp, hearts, h) in setups.items():
        for a, ses in hearts.main.bplus_witness.items():
            if a not in hearts.main.heart_ids:
                continue
            cover = ses.p
            for u in sorted(tp.u.ids):
                for f in ctx.hom_basis(Obj.of(u), Obj.of(a)):
                    basis = rc.hom_space(ctx.realize_id(u), cover.source)
                    if not basis:
                        assert f.is_zero(), (name, u, a)
                        continue
                    mat = np.stack([g.then(cover).vectorize() for g in basis],
                                   axis=1)
                    assert pf.solve(mat, f.vectorize().reshape(-1, 1),
                                    ctx.field.p) is not None, (name, u, a)
    with capsys.disabled():
        _report("6c (maps from U factor through core covers)", started)


@pytest.mark.slow
def test_criterion_6d_cross_method_agreement(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    counts = {}
    for name, (subs, tp, hearts, h) in setups.items():
        surv = sorted(h.surviving)
        objs = [Obj(tuple(c)) for k in range(1, len(surv) + 1)
                for c in combinations(surv, k)]
        n = 0
        for a in objs:
            for b in objs:
                basis = h.hom_basis(a, b)
                ideal = core_ideal_by_composition(h, a, b)
                assert h.quotient_hom_dim(a, b) == len(basis) - len(ideal)
                for coeffs in product(range(2), repeat=len(basis)):
                    hm = heart_morphism_from_coeffs(h, a, b, coeffs)
                    assert h.in_ideal(a, b, hm.mor) == in_row_span(
                        ideal, hm.mor.vectorize(), ctx.field.p), (name, a, b, coeffs)
                    is_epi_in_heart(hm)    # raises on method disagreement
                    is_mono_in_heart(hm)
                    n += 1
        counts[name] = n
    with capsys.disabled():
        total = sum(counts.values())
        _report(f"6d (epi/mono method agreement on {total} morphisms)", started)


def test_criterion_6e_epi_conflations_land_in_u(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    checked = 0
    for name, (subs, tp, hearts, h) in setups.items():
        heart = sorted(h.heart_ids)
        for cid in ctx.indecs:
            for aid in heart:
                if ctx.ext_dim(cid, aid) != 1:
                    continue
                ses = ctx.ses_for_class(Obj.of(cid), Obj.of(aid), {(0, 0): 1})
                mid = ctx.identify(ses.middle)
                if not mid.summands_in(h.heart_ids):
                    continue
                _, fwd, bwd = ctx.canonical_iso_from(ses.middle)
                canon_i = ses.i.then(bwd)
                if not is_w_monic(ctx, canon_i, tp.w):
                    continue
                from cotorsionlab.heartcat import HeartMorphism
                if not _epi_by_hom_functor(
                        HeartMorphism(h, Obj.of(aid), mid, canon_i)):
                    continue
                checked += 1
                assert cid in tp.u.ids, (name, aid, cid)
    assert checked > 0
    with capsys.disabled():
        _report(f"6e (third terms of quotient epis in U, {checked} conflations)",
                started)


def test_criterion_6f_kernel_universal_property(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    probed = 0
    for name, (subs, tp, hearts, h) in setups.items():
        surv = sorted(h.surviving)
        from cotorsionlab.heartcat import HeartMorphism
        for x in surv:
            for y in surv:
                f = ctx.canonical_hom(x, y)
                if f is None:
                    continue
                hm = HeartMorphism(h, Obj.of(x), Obj.of(y), f)
                kobj, kmor, notes = kernel_in_heart(hm)
                assert not notes, (name, x, y)
                assert h.in_ideal(kobj, hm.dst, kmor.mor.then(hm.mor))
                assert validate_kernel_universal_property(hm, kobj, kmor)
                probed += 1
    assert probed > 0
    with capsys.disabled():
        _report(f"6f (kernel universal property, {probed} kernels)", started)


def test_criterion_6g_probe_results(suite_setups, capsys):
    started = time.monotonic()
    ctx, bounds, setups = suite_setups
    b1 = SearchBounds(mult=1, dim_cap=24)

    def probe(name):
        _, tp, hearts, _ = setups[name]
        return probe_integral_direct(heart_context(ctx, tp, hearts, b1))
    bad = probe("ex-nonintegral")
    assert bad.fails
    clean = probe("ex-abelian")
    assert clean.unknown and "no counterexample" in clean.route
    with capsys.disabled():
        _report("6g (pullback probe: counterexample found / none)", started)


@pytest.mark.slow
def test_criterion_6h_decomposition_agreement(capsys):
    started = time.monotonic()
    ctx = paper_context()
    ids = sorted(ctx.indecs)

    def multisets_dim_at_most(cap):
        out = []

        def rec(idx, current, dim):
            out.append(tuple(current))
            for k in range(idx, len(ids)):
                d = ids[k].dim
                if dim + d <= cap:
                    current.append(ids[k])
                    rec(k, current, dim + d)
                    current.pop()

        rec(0, [], 0)
        return out

    candidates = multisets_dim_at_most(8)
    assert len(candidates) == 17286
    rng = np.random.default_rng(0)

    def twisted(m):
        comps = []
        for d in m.dims:
            while True:
                g = np.array(rng.integers(0, 2, size=(d, d)), dtype=np.int64)
                if pf.inv(g, 2) is not None:
                    comps.append(g)
                    break
        maps = [(comps[i] @ m.maps[i] @ pf.inv(comps[i + 1], 2)) % 2
                for i in range(len(m.maps))]
        return rc.Module(m.presentation, m.field, m.dims, maps, validate=False)

    for idx, tup in enumerate(candidates):
        obj = Obj(tup)
        want = {(i.a, i.b): c for i, c in obj.multiset().items()}
        m = ctx.realize(obj)
        # every isomorphism class in canonical form; every 12th additionally
        # through a seeded change of basis
        mods = [m] if idx % 12 else [m, twisted(m)]
        for mod in mods:
            intervals = checked_split(mod)[0]
            assert dict(Counter(intervals)) == want, tup
            for a, b in intervals:
                piece = rc.interval_module(mod.presentation, mod.field, a, b)
                assert rc.decompose(piece)[0] == [(a, b)], tup
            generic = {}
            for piece in decompose_generic(mod):
                for k, v in rc.interval_multiset(piece).items():
                    generic[k] = generic.get(k, 0) + v
            assert generic == want, tup
    with capsys.disabled():
        _report(f"6h (decomposition agreement on {len(candidates)} "
                f"isomorphism classes)", started)
