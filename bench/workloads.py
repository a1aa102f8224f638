"""Workload definitions: seeded input generation, one operation, reference checks.

Every workload is a ladder of five rungs (fixed sizes) with one seeded input
per rung.  The seed decides only the content of each input (measures, random
families, perturbation parameters) and the order in which the inputs are
cycled, so the size mix is the same for every seed.  Few inputs mean many
visits to each one in a run, which the host-noise-robust timing in
``worker.py`` relies on.

Inputs reach the program only as files: JSON configs for the CLI workloads and
``.npz`` arrays for the library workload.  The reference checks recompute the
expected results from those inputs with plain numpy (closed forms, Cholesky
factors, stacked products), never through ckgframes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("atoms_sweep", "dense_api", "perturb_sampled", "dual_reports")

# The library's default residual_tol: a check that misses by more fails the op.
RESIDUAL_TOL = 1e-9
DIGITS_CAP = 16.0


# ----------------------------------------------------------------------------
# input generation (runs in the benchmark's parent process)


def _atoms_sweep_config(rung: dict, rng) -> dict:
    scenario = dict(rung)
    if rung["kind"] == "continuous_fourier":
        refine = [rung["n_atoms"] // 2]
        claimed = [0.5, 2.0]
    elif rung["kind"] == "paper_example":
        scenario["partition_measures"] = [float(x) for x in rng.uniform(0.25, 4.0, rung["m"])]
        refine = [rung["atoms_per_cell"] // 2]
        claimed = [1.0, 2.0]
    else:
        scenario["fiber_dims"] = 1
        scenario["seed"] = int(rng.integers(2**31))
        refine = [2]
        # far outside the spectrum of a 1000-atom Gaussian family on C^8
        claimed = [1e-3, 1e6]
    return {
        "scenario": scenario,
        "requests": ["bounds", "verify", "refine"],
        "claimed": claimed,
        "refine": {"values": refine},
    }


def _perturb_config(rung: dict, rng) -> dict:
    if rung["kind"] == "paper_example":
        return {
            "scenario": {
                "kind": "paper_example",
                "m": rung["m"],
                "partition_measures": [float(x) for x in rng.uniform(0.25, 4.0, rung["m"])],
            },
            "requests": ["perturb"],
            "perturb": {"lambda1": float(rng.uniform(0.05, 0.3)), "kill_range": True},
            "seed": int(rng.integers(2**31)),
            "samples": 64,
        }
    # A random scenario, not an explicit family literal: parsing a literal of
    # this size in the CLI would take about as long as sample_condition.
    return {
        "scenario": {
            "kind": "random",
            "dim": rung["dim"],
            "n_atoms": rung["n_atoms"],
            "fiber_dims": 1,
            "seed": int(rng.integers(2**31)),
        },
        "requests": ["perturb"],
        "perturb": {"delta": float(rng.uniform(0.05, 0.3))},
        "seed": int(rng.integers(2**31)),
        "samples": 64,
    }


def _matrix_literal(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _low_rank(rng, n: int, rank: int) -> np.ndarray:
    return _complex_gaussian(rng, n, rank) @ _complex_gaussian(rng, rank, n) / math.sqrt(n)


def _dual_reports_config(rung: dict, rng) -> dict:
    n = rung["dim"]
    return {
        "scenario": {
            "kind": "random",
            "dim": n,
            "n_atoms": rung["n_atoms"],
            "fiber_dims": 1,
            "seed": int(rng.integers(2**31)),
            "K": _matrix_literal(_low_rank(rng, n, n // 2)),
        },
        "requests": ["bounds", "dual", "theta"],
        "seed": int(rng.integers(2**31)),
        "samples": 64,
    }


def _dense_api_arrays(rung: dict, rng) -> dict:
    n, atoms = rung["dim"], rung["n_atoms"]
    return {
        "weights": rng.uniform(0.5, 1.5, atoms),
        "ops": _complex_gaussian(rng, atoms, 4, n),
        "K": _low_rank(rng, n, n // 2),
    }


RUNGS = {
    "atoms_sweep": [
        {"kind": "continuous_fourier", "dim": 8, "n_atoms": 1000},
        {"kind": "paper_example", "m": 4, "atoms_per_cell": 300},
        {"kind": "random", "dim": 8, "n_atoms": 1000},
        {"kind": "continuous_fourier", "dim": 16, "n_atoms": 2000},
        {"kind": "paper_example", "m": 16, "atoms_per_cell": 250},
    ],
    "dense_api": [
        {"dim": 64, "n_atoms": 48},
        {"dim": 80, "n_atoms": 60},
        {"dim": 96, "n_atoms": 72},
        {"dim": 112, "n_atoms": 84},
        {"dim": 128, "n_atoms": 96},
    ],
    # one rung in five kills range(K): the correct outcome is exit 1, success false
    "perturb_sampled": [
        {"kind": "paper_example", "m": 8},
        {"kind": "random", "dim": 16, "n_atoms": 200},
        {"kind": "random", "dim": 24, "n_atoms": 300},
        {"kind": "random", "dim": 32, "n_atoms": 400},
        {"kind": "random", "dim": 48, "n_atoms": 600},
    ],
    "dual_reports": [
        {"dim": 8, "n_atoms": 150},
        {"dim": 10, "n_atoms": 200},
        {"dim": 12, "n_atoms": 250},
        {"dim": 14, "n_atoms": 300},
        {"dim": 16, "n_atoms": 350},
    ],
}

SMOKE_RUNGS = {
    "atoms_sweep": [
        {"kind": "continuous_fourier", "dim": 4, "n_atoms": 64},
        {"kind": "paper_example", "m": 2, "atoms_per_cell": 8},
        {"kind": "random", "dim": 4, "n_atoms": 32},
    ],
    "dense_api": [{"dim": 8, "n_atoms": 6}],
    "perturb_sampled": [{"kind": "paper_example", "m": 2}, {"kind": "random", "dim": 4, "n_atoms": 16}],
    "dual_reports": [{"dim": 4, "n_atoms": 16}],
}


def make_inputs(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> dict:
    """Write the seeded inputs under ``out_dir`` and return the manifest.

    The manifest lists one warm-up input (rung 0) followed by the cycle the
    timed loop walks through, in a seeded order.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for r, rung in enumerate((SMOKE_RUNGS if smoke else RUNGS)[workload]):
        if workload == "dense_api":
            path = out_dir / f"in{r}.npz"
            np.savez(path, **_dense_api_arrays(rung, rng))
            inputs.append({"rung": r, "arrays": str(path)})
            continue
        if workload == "atoms_sweep":
            cfg = _atoms_sweep_config(rung, rng)
        elif workload == "perturb_sampled":
            cfg = _perturb_config(rung, rng)
        else:
            cfg = _dual_reports_config(rung, rng)
        path = out_dir / f"in{r}.json"
        path.write_text(json.dumps(cfg))
        expected_exit = 1 if cfg.get("perturb", {}).get("kill_range") else 0
        inputs.append({"rung": r, "config": str(path), "exit_code": expected_exit})
    order = [int(i) for i in rng.permutation(len(inputs))]
    return {
        "workload": workload,
        "seed": seed,
        "warmup": inputs[0],
        "cycle": [inputs[i] for i in order],
    }


# ----------------------------------------------------------------------------
# reference algebra (plain numpy, independent of ckgframes)


def stacked_frame_operator(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``sum_k w_k L_k* L_k`` as one product of the stacked (rows, n) array."""
    n = ops.shape[-1]
    rows = ops.reshape(-1, n)
    row_w = np.repeat(weights, ops.shape[1])
    s = (rows.conj().T * row_w) @ rows
    return (s + s.conj().T) / 2.0


def stacked_mixed(weights: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_k w_k left_k* right_k`` (synthesis of ``left`` after analysis by ``right``)."""
    n = left.shape[-1]
    row_w = np.repeat(weights, left.shape[1])
    return (left.reshape(-1, n).conj().T * row_w) @ right.reshape(-1, n)


def reference_bounds(s: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """Optimal (A, B) for invertible S: B = lambda_max(S), A = 1/||C^-1 K||^2, S = C C*."""
    upper = float(np.linalg.eigvalsh(s)[-1])
    c = np.linalg.cholesky(s)
    top = float(np.linalg.svd(np.linalg.solve(c, k), compute_uv=False)[0])
    return 1.0 / top**2, upper


def range_projector(k: np.ndarray, cutoff: float = 1e-12) -> np.ndarray:
    u, sv, _ = np.linalg.svd(k)
    basis = u[:, sv > cutoff * sv[0]]
    return basis @ basis.conj().T


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def frobenius(m: np.ndarray) -> float:
    """Cheap upper bound on the spectral norm, used for per-operation residuals."""
    return float(np.linalg.norm(m))


def paper_kk(m: int) -> np.ndarray:
    """Closed form K K* of the paper example: one all-ones 2x2 block per pair."""
    return np.kron(np.eye(m), np.ones((2, 2))).astype(np.complex128)


def _literal_array(literal) -> np.ndarray:
    a = np.asarray(literal, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _family_arrays(literal: dict) -> tuple[np.ndarray, np.ndarray]:
    weights = np.array([atom["weight"] for atom in literal["space"]], dtype=float)
    return weights, _literal_array(literal["ops"])


# ----------------------------------------------------------------------------
# checks (run outside the timed region)


class Checks:
    """Relative errors against the benchmark's references, plus failed expectations."""

    def __init__(self) -> None:
        self.errors: list[tuple[str, float]] = []
        self.failures: list[str] = []

    def rel(self, name: str, value: float, reference: float, independent: bool = True) -> None:
        self.err(name, abs(value - reference) / max(abs(reference), 1e-300), independent)

    def err(self, name: str, rel_error: float, independent: bool = True) -> None:
        """Record a relative error; only errors against an independent reference count as digits."""
        rel_error = float(rel_error)
        if independent:
            self.errors.append((name, rel_error))
        if not rel_error <= RESIDUAL_TOL:
            self.failures.append(f"{name}: relative error {rel_error:.3e} > {RESIDUAL_TOL:g}")

    def expect(self, name: str, value, wanted) -> None:
        if value != wanted:
            self.failures.append(f"{name}: got {value!r}, expected {wanted!r}")

    def digits(self) -> float:
        worst = max((e for _, e in self.errors), default=0.0)
        return DIGITS_CAP if worst <= 0.0 else min(DIGITS_CAP, -math.log10(worst))


def _bound(value) -> float:
    return float("inf") if value == "inf" else float(value)


def check_atoms_sweep(cfg: dict, report: dict, checks: Checks) -> None:
    sc = cfg["scenario"]
    res = report["results"]
    verify = res["verify"]
    bounds = res["bounds"]
    lower, upper = _bound(bounds["lower"]), _bound(bounds["upper"])
    if sc["kind"] == "random":
        # no closed form: the family is generated inside the program, so check
        # that equal-weight atom splitting leaves S and both bounds unchanged,
        # a self-consistency check that does not count for accuracy_digits
        checks.expect("bounds ordered", 0.0 < lower <= upper, True)
        for row in res["refine"]:
            checks.err("refine S invariance", row["frame_operator_error"] / upper, independent=False)
            checks.rel("refine lower", _bound(row["lower"]), lower, independent=False)
            checks.rel("refine upper", _bound(row["upper"]), upper, independent=False)
        checks.expect("is_ckg_frame", verify["is_ckg_frame"], True)
        checks.expect("is_tight", verify["is_tight"], False)
        return
    # closed forms: Fourier S = I with bounds (1, 1); paper example S = K K*, bounds (1, 2)
    ref_lower, ref_upper = (1.0, 1.0) if sc["kind"] == "continuous_fourier" else (1.0, 2.0)
    checks.rel("bounds lower", lower, ref_lower)
    checks.rel("bounds upper", upper, ref_upper)
    for row in res["refine"]:
        checks.err("refine S closed form", row["frame_operator_error"] / ref_upper)
        checks.rel("refine lower", _bound(row["lower"]), ref_lower)
        checks.rel("refine upper", _bound(row["upper"]), ref_upper)
    for flag in ("is_bessel", "is_ckg_frame", "is_tight", "is_parseval"):
        checks.expect(flag, verify[flag], True)


def check_perturb(cfg: dict, report: dict, checks: Checks) -> None:
    res = report["results"]["perturb"]
    pred_lo, pred_hi = (_bound(x) for x in res["predicted"])
    emp_lo, emp_hi = (_bound(x) for x in res["empirical"])
    spec = cfg["perturb"]
    if spec.get("kill_range"):
        # the paper example has bounds (1, 2) and ||K||^2 = 2, so the bracket is closed form
        l1 = spec["lambda1"]
        checks.rel("predicted lower", pred_lo, 1.0 - l1)
        checks.rel("predicted upper", pred_hi, (1.0 + l1) * 2.0)
        checks.expect("success", res["success"], False)
        checks.expect("slack positive", res["slack"] > 0.0, True)
        checks.expect("empirical", [emp_lo, emp_hi], [0.0, 0.0])
        return
    # scalar shrink: l1 = 1-(1-d)^2, so predicted = ((1-d)^2 A, (2-(1-d)^2) B) and
    # the perturbed family's own optimal bounds are exactly (1-d)^2 (A, B).  The
    # family is generated inside the program, so (A, B) can only be read back
    # from the prediction: a self-consistency check that counts for failures,
    # not for accuracy_digits.
    shrink = (1.0 - spec["delta"]) ** 2
    base_lower = pred_lo / shrink
    base_upper = pred_hi / (2.0 - shrink)
    checks.rel("empirical lower", emp_lo, shrink * base_lower, independent=False)
    checks.rel("empirical upper", emp_hi, shrink * base_upper, independent=False)
    checks.expect("success", res["success"], True)


def check_dual_reports(cfg: dict, report: dict, checks: Checks) -> None:
    res = report["results"]
    dual = res["dual"]
    weights, lam = _family_arrays(dual["primary_family"])
    _, gamma = _family_arrays(dual["dual_family"])
    _, theta = _family_arrays(res["theta"]["theta_family"])
    k = _literal_array(cfg["scenario"]["K"])
    s = stacked_frame_operator(weights, lam)
    ref_lower, ref_upper = reference_bounds(s, k)
    checks.rel("bounds lower", _bound(res["bounds"]["lower"]), ref_lower)
    checks.rel("bounds upper", _bound(res["bounds"]["upper"]), ref_upper)
    k_norm = max(1.0, spectral_norm(k))
    checks.err("T Gamma = K", frobenius(stacked_mixed(weights, lam, gamma) - k) / k_norm)
    checks.rel("lower_bound_from_dual", dual["lower_bound_from_dual"], ref_lower)
    p = range_projector(k)
    checks.err("theta forward", frobenius(stacked_mixed(weights, lam, theta) @ p - p))
    checks.err("theta backward", frobenius(stacked_mixed(weights, theta, lam) @ p - p))
    checks.expect("theta passed", res["theta"]["passed"], True)


def dense_reference(arrays: dict) -> dict:
    """Everything the dense checks need that depends only on the input arrays."""
    weights, ops, k = arrays["weights"], arrays["ops"], arrays["K"]
    s = stacked_frame_operator(weights, ops)
    lower, upper = reference_bounds(s, k)
    return {"lower": lower, "upper": upper, "p": range_projector(k), "k_norm": max(1.0, spectral_norm(k))}


def check_dense(arrays: dict, ref: dict, out: dict, checks: Checks) -> None:
    weights, ops, k = arrays["weights"], arrays["ops"], arrays["K"]
    checks.rel("bounds lower", out["bounds"].lower, ref["lower"])
    checks.rel("bounds upper", out["bounds"].upper, ref["upper"])
    checks.expect("is_ckg_frame", out["report"].is_ckg_frame, True)
    checks.expect("is_tight", out["report"].is_tight, False)
    gamma = np.stack(out["pair"].dual_family.ops)
    checks.err("T Gamma = K", frobenius(stacked_mixed(weights, ops, gamma) - k) / ref["k_norm"])
    checks.rel("lower_bound_from_dual", out["dual_lower"], ref["lower"])
    theta = np.stack(out["theta"].ops)
    p = ref["p"]
    checks.err("theta forward", frobenius(stacked_mixed(weights, ops, theta) @ p - p))
    checks.err("theta backward", frobenius(stacked_mixed(weights, theta, ops) @ p - p))
    canonical = np.stack(out["canonical"].ops)
    eye = np.eye(ops.shape[-1])
    checks.err("canonical reconstruction", frobenius(stacked_mixed(weights, ops, canonical) - eye))


def check_cli(workload: str, cfg: dict, report: dict, checks: Checks) -> None:
    checks.expect("errors", report["errors"], {})
    {
        "atoms_sweep": check_atoms_sweep,
        "perturb_sampled": check_perturb,
        "dual_reports": check_dual_reports,
    }[workload](cfg, report, checks)
