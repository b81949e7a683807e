#!/usr/bin/env python3
"""Rebuild fixtures/ex-nonintegral.integral-report.json, the stored
non-integrality report that the replay tests read, from the category and
pairs files beside it.  The report is the one `cotorsionlab check-integral
--report` writes, without its `tables` key and with `timing_seconds` set
to 0.0, so the output is deterministic; the repository copy must match.

Usage: python scripts/regen_fixtures.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cotorsionlab import fileformats as ff
from cotorsionlab.cli import main as cli_main

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
REPORT = FIXDIR / "ex-nonintegral.integral-report.json"


def main() -> int:
    code = cli_main(["check-integral",
                     "--category", str(FIXDIR / "paper_a6.category.json"),
                     "--pairs", str(FIXDIR / "ex-nonintegral.pairs.json"),
                     "--report", str(REPORT)])
    if code != ff.EXIT_BY_STATUS["fails"]:
        sys.stderr.write(f"error: expected the non-integral fixture to fail, "
                         f"check-integral exited {code}\n")
        return 1
    report = ff.read_json(REPORT)
    del report["tables"]
    report["timing_seconds"] = 0.0
    ff.write_json(REPORT, report)
    print(f"wrote {REPORT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
