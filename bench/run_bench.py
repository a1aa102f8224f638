"""ckgframes benchmark: one command, four workloads, end-to-end or traced.

    python3 bench/run_bench.py --workload atoms_sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/ckgframes``.  The
benchmark writes its seeded inputs under ``.bench_out/``, starts the
workload in fresh processes with BLAS pinned to one thread (``worker.py``),
and prints a human-readable summary, one ``details`` JSON line, and as the
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  See ``bench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

# fresh processes that only set up; with the main worker's own set-up that
# makes five samples, and the run reports their median
EXTRA_SETUPS = 4
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s") or name == "traced_op_s":
        return "s/op"
    if name.endswith(".calls"):
        return "calls/op"
    return "ratio"


def _worker(args: list, env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark time limit reached")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Generate the inputs, run the workload processes, return the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "ckgframes" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ckgframes sources under {ROOT / 'src'}")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    work_dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    try:
        manifest = workloads.make_inputs(workload, seed, work_dir / "inputs", smoke=smoke)
        manifest_path = work_dir / "inputs" / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        common = ["--manifest", str(manifest_path), "--root", str(ROOT), "--seconds", str(seconds)]
        setups = []
        if not trace and not smoke:
            for _ in range(EXTRA_SETUPS):
                setups.append(_worker([*common, "--setup-only"], env, deadline)["setup_s"])
        extra = ["--min-ops", "3"] if smoke else []
        main = _worker([*common, "--trace", str(trace), *extra], env, deadline)
    finally:
        shutil.rmtree(work_dir / "inputs", ignore_errors=True)
        try:
            work_dir.rmdir()
        except OSError:
            pass

    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in main["metrics"].items()}
    else:
        setups.append(main["metrics"]["setup_s"])
        main["metrics"]["setup_s"] = statistics.median(setups)
        main["details"]["setup_samples_s"] = setups
        metrics = {k: {"value": main["metrics"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "details": {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "op_fail_ratio": main["failed"] / main["attempted"],
            "load": "closed loop, 1 client, 1 process",
            **main["details"],
            "failure_notes": main["failure_notes"],
            "machine": main["machine"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ckgframes benchmark")
    parser.add_argument("--workload", required=True, choices=("atoms_sweep", "dense_api", "perturb_sampled", "dual_reports"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes only (for the smoke test)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1

    details = result.pop("details")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'op_fail_ratio':48s} {details['op_fail_ratio']:>14.6g} ratio")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
