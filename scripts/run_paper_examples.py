#!/usr/bin/env python3
"""End-to-end driver: verify the three bundled twin cotorsion pairs over
the bound A6 algebra, compute their hearts, and decide integrality and
abelianness, printing one summary block per example.

Usage: python scripts/run_paper_examples.py [--probe]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cotorsionlab.fixtures import FIXTURES, fixture_subcategories, paper_context
from cotorsionlab.heartcat import (check_abelian, check_integral,
                                   heart_context, probe_integral_direct)
from cotorsionlab.pairs import compute_hearts, verified_twin
from cotorsionlab.subcat import SearchBounds


def show(name, ids):
    print(f"  {name:<18} {{{', '.join(str(x) for x in sorted(ids))}}}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true",
                    help="also run the direct pullback-square probe")
    ap.add_argument("--bound-mult", type=int, default=2)
    args = ap.parse_args()

    ctx = paper_context()
    bounds = SearchBounds(mult=args.bound_mult)
    print(f"algebra: bound linear A6, relations {ctx.presentation.relations}, "
          f"field F_{ctx.field.p}, {len(ctx.indecs)} indecomposables\n")

    for name in FIXTURES:
        t0 = time.monotonic()
        print(f"=== {name} ===")
        subs = fixture_subcategories(ctx, name)
        tp = verified_twin(ctx, subs, bounds)
        print(f"  twin verification: {tp.verdict.status}")
        if not tp.verdict.holds:
            continue
        hearts = compute_hearts(ctx, tp, bounds)
        h = heart_context(ctx, tp, hearts, bounds)
        show("core W", tp.w.ids)
        show("heart (mod core)", hearts.main.surviving_ids())
        show("heart of (S,T)", hearts.first.surviving_ids())
        show("heart of (U,V)", hearts.second.surviving_ids())
        vi = check_integral(h)
        print(f"  integral: {vi.status}  [{vi.route}]")
        if vi.fails:
            c = vi.certificate
            print(f"    certificate: Z = {c['z']}, conflation "
                  f"{c['conflation']['first']} -> {c['conflation']['middle']} "
                  f"-> {c['conflation']['third']}")
        va = check_abelian(h)
        print(f"  abelian:  {va.status}  [{va.route}]")
        if va.fails and va.certificate.get("condition") == 1:
            c = va.certificate
            print(f"    in heart, not in first heart:  {c['in_heart_not_in_h1']}")
            print(f"    in heart, not in second heart: {c['in_heart_not_in_h2']}")
        if args.probe:
            pv = probe_integral_direct(h, SearchBounds(mult=1))
            print(f"  pullback probe: {pv.status}  [{pv.route}]")
        print(f"  elapsed: {time.monotonic() - t0:.2f}s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
