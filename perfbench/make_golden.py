#!/usr/bin/env python3
"""Write golden_census_a5.json: the (integral, abelian) verdict pair of
every twin of the census-a5 workload, decided by the current code.

Run once from the root of a checkout whose verdicts are trusted:

    python3 perfbench/make_golden.py

The full census takes about two minutes.  Each twin also gets a cost
stratum (its rank by decision time, cut into equal-size groups).  The
benchmark draws one twin per stratum in every round, so every round
holds the same mix of cheap and expensive decisions; the strata only
shape the sample and never enter a correctness check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from run import provenance  # noqa: E402


def main() -> int:
    ctx = wl.census_context()
    bounds = wl.sub.SearchBounds()
    twins = wl.census_twins(wl.census_pairs(ctx, bounds))
    rows = []
    for st, uv in twins:
        t0 = time.perf_counter()
        status, integral, abelian, replays = wl.decide_twin(ctx, st, uv, bounds)
        elapsed = time.perf_counter() - t0
        if status != "holds" or "unknown" in (integral, abelian):
            raise SystemExit(f"undecided twin {wl.twin_key(st, uv)}")
        if len(replays) != [integral, abelian].count("fails"):
            raise SystemExit(f"unreplayed fails on {wl.twin_key(st, uv)}")
        rows.append({"key": wl.twin_key(st, uv),
                     "verdicts": [integral, abelian], "seconds": elapsed})
    by_cost = sorted(range(len(rows)), key=lambda i: rows[i]["seconds"])
    for rank, i in enumerate(by_cost):
        rows[i]["stratum"] = rank * wl.CENSUS_STRATA // len(rows)
    for row in rows:
        row["seconds"] = round(row["seconds"], 4)
    tally: dict[str, int] = {}
    for row in rows:
        pair = "/".join(row["verdicts"])
        tally[pair] = tally.get(pair, 0) + 1
    data = {
        "census": {"n": wl.CENSUS_N,
                   "relations": [list(r) for r in wl.CENSUS_RELATIONS],
                   "field_char": 2, "pairs": len({wl.twin_key(st, st)
                                                  for st, _ in twins}),
                   "twins": len(rows), "strata": wl.CENSUS_STRATA},
        "tally": tally,
        "provenance": provenance(),
        "twins": sorted(rows, key=lambda r: r["key"]),
    }
    wl.GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDEN.name}: {len(rows)} twins, {tally}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
