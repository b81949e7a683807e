"""The per-context memo of approximation tables and star answers.

A search is decided once per category context and shared by every twin,
heart table and pair check of that context.  These tests pin that the
sharing is invisible: warm and fresh contexts give the same answers, the
bounds are part of every key, no caller can reach a shared payload,
`replay` shares nothing with the deciding context, and each search runs
at most once (counted, not timed).
"""

import gc
import json
import weakref
from collections import Counter

import pytest

from cotorsionlab import fileformats as ff
from cotorsionlab import subcat
from cotorsionlab.heartcat import check_abelian, check_integral, heart_context
from cotorsionlab.pairs import compute_hearts, verified_twin
from cotorsionlab.serialcat import CategoryCtx, IndecId, Obj
from cotorsionlab.subcat import (SearchBounds, Subcategory, find_left_approx,
                                 star_member)

from paper_fixtures import fixture_subcategories, paper_context


def _ses_matrices(ses):
    return [[list(m.dims), [a.tolist() for a in m.maps]]
            for m in (ses.first, ses.middle, ses.third)] + [
        [c.tolist() for c in ses.i.comps], [c.tolist() for c in ses.p.comps]]


def _table_record(ctx, table):
    return [[str(x), x in table.plus_ids, x in table.minus_ids, x in table.tainted_ids,
             _ses_matrices(table.bplus_witness[x]) if x in table.bplus_witness else None,
             _ses_matrices(table.bminus_witness[x]) if x in table.bminus_witness else None]
            for x in ctx.indecs]


def _decide_all(ctx, twins, bounds):
    """Heart tables, witness matrices and both verdicts of every twin, each
    twin with new heart tables and a new heart context."""
    out = []
    for tp in twins:
        hearts = compute_hearts(ctx, tp, bounds)
        h = heart_context(ctx, tp, hearts, bounds)
        out.append([check_integral(h).payload(), check_abelian(h).payload()]
                   + [_table_record(ctx, t) for t in (hearts.main, hearts.first,
                                                      hearts.second)])
    return json.dumps(out, sort_keys=True)


def test_warm_and_fresh_contexts_agree(census_a5, fresh_census):
    bounds = SearchBounds()
    shared = census_a5[0].ctx
    twins = [h.tp for h in census_a5]
    first = _decide_all(shared, twins, bounds)
    second = _decide_all(shared, twins, bounds)
    ctx, fresh_twins = fresh_census(bounds)
    assert first == second == _decide_all(ctx, fresh_twins, bounds)


def test_bounds_are_part_of_the_approximation_key():
    b = IndecId(1, 4)  # b alone exceeds dim_cap=3
    for capped_first in (False, True):
        ctx = paper_context()
        every = Subcategory.everything(ctx)
        answers = {}
        for bounds in ((SearchBounds(dim_cap=3), SearchBounds()) if capped_first
                       else (SearchBounds(), SearchBounds(dim_cap=3))):
            answers[bounds.dim_cap] = find_left_approx(ctx, b, every, every, bounds)
        capped, ses = answers[3]
        assert capped.unknown and ses is None and not capped.exhaustive
        assert capped.bounds == SearchBounds(dim_cap=3)
        full, ses = answers[24]
        assert full.holds and full.route == "split" and ses is not None
        assert full.bounds == SearchBounds()


def test_reports_never_mutate_a_memoized_star_witness():
    ctx = paper_context()
    z, x, y = (Obj.of(IndecId(3, 5)), Subcategory(frozenset({IndecId(3, 3)})),
               Subcategory(frozenset({IndecId(4, 5)})))
    bounds = SearchBounds()
    pres, fieldc = ctx.presentation, ctx.field

    def report():
        verdict = star_member(ctx, z, x, y)
        assert verdict.holds
        return ff.report_payload("star", verdict.payload(), pres, fieldc,
                                 {"X": x, "Y": y}, bounds, 0, 0.0)

    first = report()
    expected = ff.dumps_canonical(first)
    # a caller that edits its report must not reach the memo
    conflation = first["verdict"]["witnesses"][0]["conflation"]
    next(m for m in conflation["middle_maps"] if m and m[0])[0][0] = 7
    conflation["first"] = "edited"
    first["verdict"]["witnesses"].clear()
    assert ff.dumps_canonical(report()) == expected


def test_replay_shares_nothing_with_the_deciding_context(census_a5, monkeypatch):
    ctx = census_a5[0].ctx
    read = set()
    cached = CategoryCtx.cached

    def recording(self, key, build):
        read.add(id(self))
        return cached(self, key, build)

    replayed = 0
    for h in census_a5:
        subs = {"S": h.tp.s, "T": h.tp.t, "U": h.tp.u, "V": h.tp.v, "W": h.tp.w}
        for check, decide in (("check-integral", check_integral),
                              ("check-abelian", check_abelian)):
            verdict = decide(h)
            if not verdict.fails:
                continue
            report = json.loads(ff.dumps_canonical(ff.report_payload(
                check, verdict.payload(), ctx.presentation, ctx.field, subs,
                h.bounds, 0, 0.0)))
            keys = list(ctx._cache)
            with monkeypatch.context() as m:
                m.setattr(CategoryCtx, "cached", recording)
                log = ff.replay_certificate(report)
            assert log and list(ctx._cache) == keys
            replayed += 1
    assert replayed > 0 and read and id(ctx) not in read


def test_each_search_runs_once_per_context(fresh_census, monkeypatch):
    """One census pass in a new context: every approximation search, keyed
    by (object, side, middle, partner, bounds), and every star scan, keyed
    by (z, X, Y, dim_cap), runs at most once."""
    searches, scans = Counter(), Counter()
    approx_search, first_split = subcat._approx_search, subcat._first_split

    def counted_search(ctx, b, b_is_third, middle, partner, bounds):
        searches[ctx, b, b_is_third, middle.ids, partner.ids, bounds] += 1
        return approx_search(ctx, b, b_is_third, middle, partner, bounds)

    def counted_split(ctx, z, x, y_holds, dim_cap):
        # the certificate search passes a witness cone, which is not memoized
        y = getattr(y_holds, "__self__", None)
        if isinstance(y, Subcategory):
            scans[ctx, z, x.ids, y.ids, dim_cap] += 1
        return first_split(ctx, z, x, y_holds, dim_cap)

    monkeypatch.setattr(subcat, "_approx_search", counted_search)
    monkeypatch.setattr(subcat, "_first_split", counted_split)
    bounds = SearchBounds()
    ctx, twins = fresh_census(bounds)
    for tp in twins:
        h = heart_context(ctx, tp, compute_hearts(ctx, tp, bounds), bounds)
        check_integral(h)
        check_abelian(h)
    assert searches and scans
    assert max(searches.values()) == 1 and max(scans.values()) == 1


@pytest.fixture
def pushouts(monkeypatch):
    """The (third, first, class) of every extension class realized from
    now on, in any context."""
    built = []
    pushout = CategoryCtx._pushout_ses

    def counted(self, *args):
        built.append(args)
        return pushout(self, *args)

    monkeypatch.setattr(CategoryCtx, "_pushout_ses", counted)
    return built


def test_census_decisions_and_replays_build_no_pushout(fresh_census, pushouts):
    """Approximation searches read closed-form middles, so census set-up,
    every decision and every condition-(1) replay realize no extension
    class."""
    bounds = SearchBounds()
    ctx, twins = fresh_census(bounds)
    reports = []
    for tp in twins:
        h = heart_context(ctx, tp, compute_hearts(ctx, tp, bounds), bounds)
        subs = {"S": tp.s, "T": tp.t, "U": tp.u, "V": tp.v, "W": tp.w}
        for check, decide in (("check-integral", check_integral),
                              ("check-abelian", check_abelian)):
            verdict = decide(h)
            if verdict.fails:
                reports.append(json.loads(ff.dumps_canonical(ff.report_payload(
                    check, verdict.payload(), ctx.presentation, ctx.field, subs,
                    bounds, 0, 0.0))))
    assert pushouts == []
    assert len(reports) == 18
    for report in reports:
        assert report["verdict"]["certificate"]["condition"] == 1
        assert ff.replay_certificate(report)
        assert pushouts == []


def test_table_witnesses_are_realized_once_when_read(pushouts):
    """A witness of a pair or heart table is realized on first read, by
    `ses_for_class`: a second read is the same object as its entry."""
    ctx = paper_context()
    bounds = SearchBounds()
    tp = verified_twin(ctx, fixture_subcategories(ctx, "ex-nonintegral"), bounds)
    hearts = compute_hearts(ctx, tp, bounds)
    assert pushouts == []
    tables = [(tp.st.left, True), (tp.st.right, False), (tp.uv.left, True),
              (tp.uv.right, False), (hearts.main.bplus_witness, True),
              (hearts.main.bminus_witness, False)]
    assert all(len(table) > 0 for table, _ in tables)
    assert pushouts == []
    for table, b_is_third in tables:
        for x in table:
            ses = table[x]
            assert table[x] is ses
            if b_is_third:
                other = ctx.identify(ses.first)
                entry = ctx.ses_for_class(Obj.of(x), other, {
                    (0, j): 1 for j in range(len(other.ids))})
            else:
                other = ctx.identify(ses.third)
                entry = ctx.ses_for_class(other, Obj.of(x), {
                    (i, 0): 1 for i in range(len(other.ids))})
            assert entry is ses
    keys = [(third, first, tuple(sorted(cls.items())))
            for third, first, cls in pushouts]
    assert 0 < len(keys) == len(set(keys))


def _decide_and_replay(p):
    """Weak references to a new context and its opposite, after the twin
    ex-nonabelian was verified, its hearts built and decided, its witness
    tables and those of its D-heart read, and its fails replayed."""
    ctx = paper_context(p)
    bounds = SearchBounds()
    subs = fixture_subcategories(ctx, "ex-nonabelian")
    tp = verified_twin(ctx, subs, bounds)
    h = heart_context(ctx, tp, compute_hearts(ctx, tp, bounds), bounds)
    for table in (tp.st.left, tp.uv.right, h.hearts.main.bplus_witness,
                  h.dual().tp.uv.left, h.dual().hearts.main.bminus_witness):
        for x in table:
            assert table[x] is not None
    replayed = 0
    for check, decide in (("check-integral", check_integral),
                          ("check-abelian", check_abelian)):
        verdict = decide(h)
        if verdict.fails:
            report = json.loads(ff.dumps_canonical(ff.report_payload(
                check, verdict.payload(), ctx.presentation, ctx.field, subs,
                bounds, 0, 0.0)))
            replayed += bool(ff.replay_certificate(report))
    assert replayed == 1
    return weakref.ref(ctx), weakref.ref(ctx.op)


def test_contexts_are_freed_without_a_gc_pass():
    """Nothing that a decision, a witness read or a replay leaves behind
    makes a reference cycle through the context: with the cycle collector
    off, the context and its opposite go with their last reference."""
    gc.collect()
    gc.disable()
    try:
        refs = _decide_and_replay(2)
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
