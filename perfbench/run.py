#!/usr/bin/env python3
"""cotorsionlab benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload a6-cli --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  a6-cli       `cotorsionlab.cli.main` on the three shipped A6 fixtures
  census-a5    twin census of n=5, relations {1-3, 2-5}, at F_2
  a6-heart-f3  epi/mono/kernel/cokernel of heart morphisms at F_3

The program is imported from `src/` of the checkout this file sits in.
Set-up (imports, context and workload generation) is timed, then the
workload runs as a closed loop in whole rounds for about `--seconds`,
and every output is checked.  Stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
provenance and the latency sample counts.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a set-up and
about a third of `--seconds` of rounds untraced, then wraps every public
function of the eight layer modules, sets up again from scratch, replays
the same rounds traced, reports the per-layer metrics and the tracing
overhead, and writes the spans to .bench_out/trace-<workload>.npz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TRACE_SHARE = 1 / 3


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(ROOT),
            "src_sha256": src_sha256(SRC)}


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, as statistics.quantiles(values, n=100) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_rounds(workload, rounds, budget: float | None, errors: list[str],
               tracer=None) -> dict:
    """Run whole rounds; with a budget, stop at the round count nearest it.
    Output checks run untimed, and untraced when a tracer is given."""
    marks = tracer or types.SimpleNamespace()
    latencies: list[float] = []
    done: list[list] = []
    failed = 0
    start = time.perf_counter()
    for round_ in rounds:
        for req in round_:
            marks.request = len(latencies)
            t0 = time.perf_counter()
            try:
                out = workload.call(req)
            except Exception as exc:  # counted as a failed request
                latencies.append(time.perf_counter() - t0)
                err = f"{type(exc).__name__}: {exc}"
            else:
                latencies.append(time.perf_counter() - t0)
                marks.paused = True
                try:
                    err = workload.check(req, out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
                finally:
                    marks.paused = False
            if err is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(err)
        done.append(round_)
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed + elapsed / len(done) / 2 >= budget:
            break
    return {"latencies": latencies, "failed": failed, "rounds": done,
            "wall": time.perf_counter() - start}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "cotorsionlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cotorsionlab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads as wl
    import_s = time.perf_counter() - t0
    if args.workload not in wl.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}\n")
        return 2

    errors: list[str] = []
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload = wl.make(args.workload, OUT_DIR)
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    if not args.trace:
        res = run_rounds(workload, workload.rounds(args.seed), args.seconds, errors)
        lat = res["latencies"]
        attempted, failed = len(lat), res["failed"]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / res["wall"], "1/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (quantile(lat, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        samples = {"requests": attempted, "rounds": len(res["rounds"]),
                   "beyond_p90": sum(x > metrics["latency_p90_s"][0] for x in lat),
                   "setup_repeats": SETUP_REPEATS, "import_s": import_s}
    else:
        import tracer as tr
        untraced = run_rounds(workload, workload.rounds(args.seed),
                              args.seconds * TRACE_SHARE, errors)
        tracer = tr.Tracer()
        tracer.install()
        workload = wl.make(args.workload, OUT_DIR)
        t0 = time.perf_counter()
        workload.setup(args.seed)
        traced_setup = time.perf_counter() - t0
        traced = run_rounds(workload, untraced["rounds"], None, errors, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}.npz", seed=args.seed)
        metrics = tr.layer_metrics(tr.SpanTable(tracer))
        metrics["tracing_overhead_frac"] = (
            (traced_setup + traced["wall"]) / (setup_times[0] + untraced["wall"]) - 1,
            "ratio")
        attempted = len(untraced["latencies"]) + len(traced["latencies"])
        failed = untraced["failed"] + traced["failed"]
        samples = {"requests": attempted, "rounds": len(untraced["rounds"]),
                   "spans": len(tracer.name_id)}

    for err in errors:
        sys.stderr.write(f"failed: {err}\n")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failed_frac": failed / max(attempted, 1),
            "samples": samples, "provenance": provenance()}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
