"""Verdicts transfer across the prime field: the interval combinatorics
of these monomial algebras do not depend on the characteristic, so heart
tables and the integrality/abelianness decisions must agree over F_2,
F_3 and F_5 on the bundled examples."""

import pytest

from cotorsionlab.heartcat import check_abelian, check_integral, heart_context
from cotorsionlab.pairs import compute_hearts, verify_cotorsion, verify_twin
from cotorsionlab.subcat import SearchBounds

from paper_fixtures import FIXTURES, fixture_subcategories, paper_context


@pytest.mark.parametrize("p", [3, 5])
def test_heart_tables_and_verdicts_transfer(p):
    ctx = paper_context(p)
    bounds = SearchBounds()
    assert len(ctx.indecs) == 18
    expected_heart = {
        "ex-nonintegral": {"[3,4]", "[3,5]", "[4,4]"},
        "ex-abelian": {"[3,5]"},
        "ex-nonabelian": {"[3,4]", "[3,5]", "[4,4]", "[4,5]", "[5,5]"},
    }
    expected_status = {
        "ex-nonintegral": ("fails", "fails"),
        "ex-abelian": ("holds", "holds"),
        "ex-nonabelian": ("holds", "fails"),
    }
    for name in FIXTURES:
        subs = fixture_subcategories(ctx, name)
        st = verify_cotorsion(ctx, subs["S"], subs["T"], bounds)
        uv = verify_cotorsion(ctx, subs["U"], subs["V"], bounds)
        tp = verify_twin(ctx, st, uv)
        assert tp.verdict.holds, (p, name)
        hearts = compute_hearts(ctx, tp, bounds)
        assert {str(x) for x in hearts.main.surviving_ids} == \
            expected_heart[name], (p, name)
        h = heart_context(ctx, tp, hearts, bounds)
        vi, va = check_integral(h), check_abelian(h)
        assert (vi.status, va.status) == expected_status[name], (p, name)
        if vi.fails:
            assert vi.certificate["z"] == "[3,5]"
