"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workload dense_api --runs 10 [--first-seed 1]

Each run measures ``run_seconds`` from ``BENCHMARK.json`` with ``--trace 0``.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles`` with ``n=4``), and the spread: the distance between
the quartiles as a share of the median.  ``--json PATH`` also writes the summary there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat the benchmark over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]

    samples: dict = {}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run_bench.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200,
        )
        walls.append(time.monotonic() - started)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(f"seed {seed}: incorrect output\n{proc.stdout}")
            return 1
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s", flush=True)

    summary = {name: summarise(values) for name, values in samples.items()}
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seconds": seconds, "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
