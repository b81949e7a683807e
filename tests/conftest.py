from itertools import combinations

import hypothesis
import pytest

from cotorsionlab.heartcat import heart_context
from cotorsionlab.pairs import compute_hearts, verify_cotorsion, verify_twin
from cotorsionlab.repcore import FieldChar, QuiverPresentation
from cotorsionlab.serialcat import generate
from cotorsionlab.subcat import (SearchBounds, Subcategory, left_perp,
                                 right_perp)

from paper_fixtures import FIXTURES, fixture_subcategories, paper_context

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def ctx():
    return paper_context()


@pytest.fixture(scope="session")
def bounds():
    return SearchBounds()


class FixtureSetup:
    def __init__(self, ctx, name, bounds):
        self.name = name
        self.subs = fixture_subcategories(ctx, name)
        self.st = verify_cotorsion(ctx, self.subs["S"], self.subs["T"], bounds)
        self.uv = verify_cotorsion(ctx, self.subs["U"], self.subs["V"], bounds)
        self.tp = verify_twin(ctx, self.st, self.uv)
        self.hearts = compute_hearts(ctx, self.tp, bounds)
        self.hctx = heart_context(ctx, self.tp, self.hearts, bounds)


@pytest.fixture(scope="session")
def setups(ctx, bounds):
    return {name: FixtureSetup(ctx, name, bounds) for name in FIXTURES}


@pytest.fixture(scope="session")
def ex_nonintegral(setups):
    return setups["ex-nonintegral"]


@pytest.fixture(scope="session")
def ex_abelian(setups):
    return setups["ex-abelian"]


@pytest.fixture(scope="session")
def ex_nonabelian(setups):
    return setups["ex-nonabelian"]


def _fresh_census(bounds, p=2):
    """A new context of n=5, relations {1-3, 2-5}, at F_p and its 237
    verified twins: every pair ((S,T),(U,V)) of complete cotorsion pairs
    (lperp(rperp X), rperp X) with S inside U."""
    ctx = generate(QuiverPresentation(5, ((1, 3), (2, 5))), FieldChar(p))
    found = set()
    for k in range(len(ctx.indecs) + 1):
        for xs in combinations(ctx.indecs, k):
            t = right_perp(ctx, Subcategory(frozenset(xs)))
            found.add((left_perp(ctx, t).ids, t.ids))
    cps = [verify_cotorsion(ctx, Subcategory(s, "S"), Subcategory(t, "T"), bounds)
           for s, t in sorted(found, key=lambda st: (sorted(st[0]), sorted(st[1])))]
    cps = [cp for cp in cps if cp.verdict.holds]
    twins = [verify_twin(ctx, st, uv) for st in cps for uv in cps
             if st.u.ids <= uv.u.ids]
    assert len(twins) == 237 and all(tp.verdict.holds for tp in twins)
    return ctx, twins


@pytest.fixture(scope="session")
def fresh_census():
    """fresh_census(bounds, p=2) -> (ctx, twins): the census twins over
    F_p, built in a context nothing else has used."""
    return _fresh_census


@pytest.fixture(scope="session")
def census_a5():
    """Heart contexts of the 237 census twins, in one shared context."""
    bounds = SearchBounds()
    ctx, twins = _fresh_census(bounds)
    return [heart_context(ctx, tp, compute_hearts(ctx, tp, bounds), bounds)
            for tp in twins]
