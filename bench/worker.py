"""One workload process: set-up, a closed loop of operations, checks, metrics.

Started by ``run_bench.py`` in a fresh interpreter with BLAS pinned to one
thread.  It imports ckgframes (timed as set-up, together with one warm-up
operation), then runs one client in a closed loop: each operation starts when
the previous one returns.  Every output is checked against the benchmark's
own references outside the timed region, and every end-to-end time is scaled
by a host probe timed around it (see ``host_probe``).  The last line of
stdout is one JSON object with the measurements.

    python3 bench/worker.py --manifest M --root R --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_OPS = 100
# The host probe's time on the development host at its fastest.  Every
# reported time is scaled by PROBE_REF_S / (the probe's time around it), so
# times read as milliseconds (or seconds) on that host at that speed.
PROBE_REF_S = 0.006
# stop the loop here even below MIN_OPS, so one run stays well inside its time limit
LOOP_WALL_CAP_S = 100.0


def _git_commit(root: Path) -> str:
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
    return "unknown"


def machine_facts(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
    }


class Runner:
    """Runs one operation of the workload and checks its output."""

    def __init__(self, workload: str, manifest: dict, out_dir: Path) -> None:
        import ckgframes.cli  # noqa: F401  (imported during set-up)
        import numpy as np

        import workloads as wl

        self.ck = sys.modules["ckgframes"]
        self.np = np
        self.wl = wl
        self.workload = workload
        self.report_path = str(out_dir / "report.json")
        self.configs = {}
        self.arrays = {}
        self.references = {}
        for item in [manifest["warmup"], *manifest["cycle"]]:
            if "config" in item:
                self.configs[item["config"]] = json.loads(Path(item["config"]).read_text())
            else:
                with np.load(item["arrays"]) as data:
                    arrays = {k: data[k] for k in data.files}
                self.arrays[item["arrays"]] = arrays
                self.references[item["arrays"]] = wl.dense_reference(arrays)

    def op(self, item: dict):
        if "config" in item:
            return self.ck.cli.main(["run", "--config", item["config"], "--out", self.report_path])
        return self._dense_op(self.arrays[item["arrays"]])

    def _dense_op(self, arrays: dict) -> dict:
        ck = self.ck
        weights, ops, k = arrays["weights"], arrays["ops"], arrays["K"]
        space = ck.measure.DiscreteMeasureSpace(
            ck.measure.Atom(atom_id=f"a{j}", weight=float(w), fiber_dim=ops.shape[1])
            for j, w in enumerate(weights)
        )
        fam = ck.frames.OperatorFamily(space=space, ops=list(ops), ambient_dim=ops.shape[2])
        bounds = ck.frames.optimal_bounds(fam, k)
        claimed = ck.frames.FrameBounds(lower=0.5 * bounds.lower, upper=2.0 * bounds.upper)
        report = ck.frames.verify_frame(fam, k, claimed)
        pair = ck.duality.douglas_gamma(fam, k)
        dual_lower = ck.duality.lower_bound_from_dual(pair)
        theta = ck.duality.theta_dual(pair)
        canonical = ck.duality.canonical_dual(fam)
        return {
            "bounds": bounds,
            "report": report,
            "pair": pair,
            "dual_lower": dual_lower,
            "theta": theta,
            "canonical": canonical,
        }

    def check(self, item: dict, output, checks) -> None:
        if "arrays" in item:
            path = item["arrays"]
            self.wl.check_dense(self.arrays[path], self.references[path], output, checks)
            return
        checks.expect("exit code", output, item["exit_code"])
        report = json.loads(Path(self.report_path).read_text())
        checks.expect("success", report["success"], item["exit_code"] == 0)
        self.wl.check_cli(self.workload, self.configs[item["config"]], report, checks)

    def closed_form(self, item: dict):
        """Exact frame operator of every family an atoms_sweep op builds, if known."""
        cfg = self.configs.get(item.get("config"))
        if self.workload != "atoms_sweep":
            return None
        sc = cfg["scenario"]
        if sc["kind"] == "continuous_fourier":
            return self.np.eye(sc["dim"], dtype=complex)
        if sc["kind"] == "paper_example":
            return self.wl.paper_kk(sc["m"])
        return None


def host_probe(np, matrix) -> float:
    """Time a fixed piece of Python, small-array and BLAS work: the host's current speed.

    The host's CPUs switch several times a minute between a fast state and
    states up to twice as slow, whatever runs on them.  A program slows with
    the probe, so dividing by the probe's time removes most of that.  The
    three parts mirror the workloads: plain Python objects, per-atom numpy
    calls on tiny arrays, and dense products.
    """
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i] = str(i)
    acc = np.zeros((8, 8))
    for i in range(600):
        row = matrix[i % 96, :8]
        acc += np.outer(row, row)
    x = matrix
    for _ in range(20):
        x = np.tanh(matrix @ x * 0.01)
    return time.perf_counter() - start


class Loop:
    """Closed loop of operations: times each one, checks it untimed, counts failures."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.checks = runner.wl.Checks()
        self.latencies: list[float] = []
        # per operation: the mean probe time just before and just after it
        self.probes: list[float] = []
        self._probe_matrix = runner.np.random.default_rng(0).standard_normal((96, 96))
        self._last_probe = self._probe()
        self.failed = 0
        self.failure_notes: list[str] = []

    def one(self, item: dict) -> float:
        start = time.perf_counter()
        try:
            output = self.runner.op(item)
        except Exception as err:  # any raise is a failed operation, and the loop goes on
            output = err
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        probe = self._probe()
        self.probes.append((self._last_probe + probe) / 2.0)
        self._last_probe = probe
        op_checks = self.runner.wl.Checks()
        if isinstance(output, Exception):
            op_checks.failures.append(f"raised {type(output).__name__}: {output}")
        else:
            try:
                self.runner.check(item, output, op_checks)
            except Exception as err:  # a malformed output fails the op, not the run
                op_checks.failures.append(f"check raised {type(err).__name__}: {err}")
        self.checks.errors.extend(op_checks.errors)
        if op_checks.failures:
            self.failed += 1
            if len(self.failure_notes) < 5:
                self.failure_notes.append(f"{item}: {op_checks.failures[:3]}")
        return elapsed

    def _probe(self) -> float:
        return host_probe(self.runner.np, self._probe_matrix)

    def run_for(self, cycle: list, seconds: float, min_ops: int) -> list:
        done = []
        measured = 0.0
        wall_start = time.perf_counter()
        while measured < seconds or len(done) < min_ops:
            if time.perf_counter() - wall_start > LOOP_WALL_CAP_S:
                break
            item = cycle[len(done) % len(cycle)]
            measured += self.one(item)
            done.append(item)
        return done


def end_to_end(loop: Loop, done: list, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over the inputs, each at its median probe-scaled latency."""
    lat = loop.latencies
    scaled: dict = {}
    for item, elapsed, probe in zip(done, lat, loop.probes):
        key = item.get("config") or item["arrays"]
        scaled.setdefault(key, []).append(elapsed * PROBE_REF_S / probe)
    per_input = sorted(statistics.median(values) for values in scaled.values())
    metrics = {
        "ops_per_s": len(per_input) / sum(per_input),
        "op_p50_ms": 1e3 * statistics.median(per_input),
        "op_tail_ms": 1e3 * per_input[-1],
        "accuracy_digits": loop.checks.digits(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    details = {
        "ops": len(lat),
        "inputs": len(per_input),
        "visits_per_input": len(lat) // len(per_input),
        "probe_ms": 1e3 * statistics.median(loop.probes),
        "unscaled_ops_per_s": len(lat) / sum(lat),
        "unscaled_op_p50_ms": 1e3 * statistics.median(lat),
    }
    return metrics, details


def traced(runner: Runner, loop: Loop, cycle: list, seconds: float, spans_path: Path) -> dict:
    """Untraced pass, then the same operations traced; per-layer metrics per operation."""
    import tracing

    np, wl = runner.np, runner.wl
    untraced_items = loop.run_for(cycle, seconds / 2.0, min_ops=len(cycle))
    untraced_s = sum(loop.latencies)
    tracer = tracing.Tracer()
    family_total = 0
    worst = {"residual": 0.0, "error": 0.0}

    def rows_of(fam):
        return np.vstack(fam.ops), np.repeat(fam.space.weights, fam.space.fiber_dims)

    def check_records(closed_form) -> int:
        """Check the recorded results of one operation; return its distinct families."""
        families = set()
        for name, arg, result in tracer.records:
            if name == "frames.frame_operator":
                families.add(id(arg))
                ref = closed_form
                if ref is None or ref.shape != result.shape:
                    rows, row_w = rows_of(arg)
                    ref = wl.stacked_frame_operator(row_w, rows[:, None, :])
                err = wl.spectral_norm(result - ref) / max(1.0, wl.spectral_norm(ref))
                worst["error"] = max(worst["error"], err)
            else:
                rows, row_w = rows_of(result.primary_family)
                t_gamma = (rows.conj().T * row_w) @ np.vstack(result.dual_family.ops)
                k = result.reproduced_operator
                res = wl.spectral_norm(t_gamma - k) / max(1.0, wl.spectral_norm(k))
                worst["residual"] = max(worst["residual"], res)
        tracer.records.clear()
        return len(families)

    first = len(loop.latencies)
    tracer.install()
    try:
        for item in untraced_items:
            tracer.op += 1
            loop.one(item)
            family_total += check_records(runner.closed_form(item))
    finally:
        tracer.uninstall()
    if tracing.installed():
        raise RuntimeError("tracing wrappers left behind after uninstall")
    tracer.write(spans_path)

    self_s, calls = tracer.self_times()
    n_ops = len(untraced_items)
    traced_s = sum(loop.latencies[first:])
    metrics: dict = {}
    layer_self: dict = {}
    layer_calls: dict = {}
    for layer, name in tracing.span_names():
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
        metrics[f"{name}.calls"] = calls.get(name, 0) / n_ops
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s.get(name, 0.0)
        layer_calls[layer] = layer_calls.get(layer, 0) + calls.get(name, 0)
    for layer in layer_self:
        metrics[f"{layer}.self_s"] = layer_self[layer] / n_ops
        metrics[f"{layer}.calls"] = layer_calls[layer] / n_ops
    denominator = max(family_total, 1)
    metrics["frames.frame_operator.per_family"] = calls.get("frames.frame_operator", 0) / denominator
    metrics["lapack.eigh.per_family"] = calls.get("lapack.eigh", 0) / denominator
    metrics["duality.douglas_gamma.residual_max"] = worst["residual"]
    metrics["frames.frame_operator.error_max"] = worst["error"]
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    metrics["traced_op_s"] = traced_s / n_ops
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--min-ops", type=int, default=MIN_OPS)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    manifest = json.loads(Path(args.manifest).read_text())

    start = time.perf_counter()
    import ckgframes

    import_s = time.perf_counter() - start
    source = Path(ckgframes.__file__).resolve()
    if root / "src" not in source.parents:
        sys.stderr.write(f"error: imported ckgframes from {source}, not from {root / 'src'}\n")
        return 2

    out_dir = Path(args.manifest).parent
    runner = Runner(manifest["workload"], manifest, out_dir)
    loop = Loop(runner)
    warmup_s = loop.one(manifest["warmup"])
    setup_s = (import_s + warmup_s) * PROBE_REF_S / loop.probes[0]
    loop.latencies.clear()
    loop.probes.clear()
    result: dict = {"setup_s": setup_s, "failed": loop.failed, "attempted": 1}
    if not args.setup_only:
        cycle = manifest["cycle"]
        if args.trace:
            spans_path = root / ".bench_out" / f"spans-{manifest['workload']}.jsonl"
            metrics = traced(runner, loop, cycle, args.seconds, spans_path)
            details = {"ops": len(loop.latencies)}
        else:
            done = loop.run_for(cycle, args.seconds, args.min_ops)
            metrics, details = end_to_end(loop, done, setup_s)
        result = {
            "metrics": metrics,
            "details": details,
            "attempted": len(loop.latencies) + 1,
            "failed": loop.failed,
            "failure_notes": loop.failure_notes,
            "machine": machine_facts(root),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
