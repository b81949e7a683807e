#!/usr/bin/env python3
"""Regenerate the JSON fixture files under fixtures/ from the bundled
definitions, including the stored non-integrality report used by the
replay tests.  Output is deterministic; the repository copies must match."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cotorsionlab import fileformats as ff
from cotorsionlab.fixtures import (FIXTURES, fixture_subcategories,
                                   paper_context, paper_presentation)
from cotorsionlab.heartcat import check_integral, heart_context
from cotorsionlab.pairs import compute_hearts, verified_twin
from cotorsionlab.repcore import FieldChar
from cotorsionlab.subcat import SearchBounds, inter

OUT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    ctx = paper_context()
    ff.write_json(OUT / "paper_a6.category.json",
                  ff.category_payload(paper_presentation(), FieldChar(2)))
    for name in FIXTURES:
        subs = fixture_subcategories(ctx, name)
        ff.write_json(OUT / f"{name}.pairs.json", ff.pairs_payload(subs))
    # stored report with the non-integrality certificate, for replay
    bounds = SearchBounds()
    subs = fixture_subcategories(ctx, "ex-nonintegral")
    tp = verified_twin(ctx, subs, bounds)
    hearts = compute_hearts(ctx, tp, bounds)
    h = heart_context(ctx, tp, hearts, bounds)
    verdict = check_integral(h)
    assert verdict.fails, "expected the non-integral fixture to fail"
    subs_out = dict(subs)
    subs_out["W"] = inter(subs["U"], subs["T"], name="W")
    report = ff.report_payload("check-integral", verdict.payload(),
                               ctx.presentation, ctx.field, subs_out,
                               bounds, 0, 0.0)
    report["timing_seconds"] = 0.0  # keep the stored fixture reproducible
    ff.write_json(OUT / "ex-nonintegral.integral-report.json", report)
    print(f"wrote fixtures to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
