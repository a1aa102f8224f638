"""Scenario builders and the config-driven runner.

Three built-in scenario kinds plus fully explicit families:

``paper_example``
    The paired-basis K-frame on a partitioned measure space: on a space of
    dimension 2m, K sends each odd basis vector to the sum of its pair and
    kills the even ones; every cell of the partition carries the rank-one
    analysis functional of that pair, normalized by the square root of the
    cell measure so the total analysis energy is the plain sum of squared
    pair coefficients.  Its frame operator equals K K* exactly.

``continuous_fourier``
    A genuinely continuous tight frame over the circle, discretized by a
    midpoint rule.  The discretized frame operator equals the identity
    exactly once the atom count reaches the ambient dimension (aliasing).

``random``
    Seeded complex-Gaussian operator blocks, deterministic given the seed.

A config file is a single JSON object; see the README for the schema.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .duality import DualPair, bessel_constant, douglas_gamma, lower_bound_from_dual, theta_dual
from .errors import DimensionMismatch, InvalidConfig, ParseError, ToolkitError
from .frames import (
    FrameBounds,
    OperatorFamily,
    _check_reference,
    optimal_bounds,
    refine_family,
    scale_family,
    synthesis_matrix,
    verify_frame,
)
from .linalg import TolerancePolicy, _Decomposed, operator_norm
from .literals import (
    _integer,
    _real,
    bound_to_literal,
    bounds_to_literal,
    family_from_literal,
    family_to_literal,
    matrix_from_literal,
    matrix_to_literal,
    report_to_literal,
)
from .measure import Atom, DiscreteMeasureSpace
from .perturbation import (
    PerturbationParams,
    project_out_range,
    scalar_perturbation_params,
    verify_perturbation,
)

__all__ = [
    "build_paper_example",
    "build_continuous_fourier",
    "build_random_frame",
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "run_config",
]

REQUEST_KINDS = ("bounds", "verify", "dual", "theta", "perturb", "refine")
SCENARIO_KINDS = ("paper_example", "continuous_fourier", "random", "explicit")
# The keys each config object may hold; a scenario's keys depend on its kind.
CONFIG_KEYS = {
    "config": ("scenario", "requests", "claimed", "bessel_only", "tolerances", "refine",
               "perturb", "seed", "samples"),
    "tolerances": ("rel_rank_cutoff", "psd_slack", "residual_tol"),
    "refine": ("values",),
    "perturb": ("delta", "lambda1", "lambda2", "gamma", "scale", "kill_range", "family"),
    "paper_example": ("kind", "m", "partition_measures", "atoms_per_cell"),
    "continuous_fourier": ("kind", "dim", "n_atoms"),
    "random": ("kind", "dim", "n_atoms", "fiber_dims", "seed", "K"),
    "explicit": ("kind", "family", "K"),
}


def build_paper_example(
    m: int,
    partition_measures=None,
    atoms_per_cell: int = 1,
) -> tuple[OperatorFamily, np.ndarray]:
    """Paired-basis K-frame on a partitioned measure space of dimension 2m.

    Cell k (measure ``partition_measures[k]``, default 1) is split into
    ``atoms_per_cell`` equal-weight atoms with one-dimensional fibers; each
    carries ``f -> <f, e_{2k} + e_{2k+1}> / sqrt(measure_k)``.  Because the
    per-cell energies telescope, the frame operator is exactly ``K K*``
    regardless of the measures or the atom split, with optimal bounds (1, 2).
    """
    if m < 1:
        raise InvalidConfig(f"pair count m must be >= 1, got {m}")
    if atoms_per_cell < 1:
        raise InvalidConfig(f"atoms_per_cell must be >= 1, got {atoms_per_cell}")
    if partition_measures is None:
        partition_measures = [1.0] * m
    measures = [float(x) for x in partition_measures]
    if len(measures) != m:
        raise InvalidConfig(f"expected {m} partition measures, got {len(measures)}")
    if any(not x > 0 for x in measures):
        raise InvalidConfig("partition measures must be strictly positive")

    dim = 2 * m
    k_op = np.zeros((dim, dim), dtype=np.complex128)
    pairs = np.zeros((m, dim), dtype=np.complex128)
    atoms: list[Atom] = []
    for cell in range(m):
        pairs[cell, 2 * cell : 2 * cell + 2] = 1.0
        k_op[:, 2 * cell + 1] = pairs[cell]
        atoms.extend(
            Atom(
                atom_id=f"cell{cell}:{j}",
                weight=measures[cell] / atoms_per_cell,
                fiber_dim=1,
                partition=f"cell{cell}",
            )
            for j in range(atoms_per_cell)
        )
    # one row per cell, shared by all atoms of the cell
    rows = pairs.conj() / np.sqrt(measures)[:, np.newaxis]
    starts = np.repeat(np.arange(m), atoms_per_cell)
    fam = OperatorFamily.from_rows(DiscreteMeasureSpace(atoms), rows, dim, starts=starts)
    return fam, k_op


def build_continuous_fourier(n: int, n_atoms: int) -> tuple[OperatorFamily, np.ndarray]:
    """Midpoint discretization of the tight Fourier frame over the circle.

    Atom j sits at ``theta_j = 2 pi (j + 1/2) / n_atoms`` with weight
    ``2 pi / n_atoms`` and analyzes against ``exp(i k theta) / sqrt(2 pi)``,
    k = 0..n-1.  The exact (continuum) frame operator is the identity; the
    discretization reproduces it exactly for ``n_atoms >= n``.
    """
    if n < 1:
        raise InvalidConfig(f"ambient dimension must be >= 1, got {n}")
    if n_atoms < 1:
        raise InvalidConfig(f"n_atoms must be >= 1, got {n_atoms}")
    weight = 2.0 * math.pi / n_atoms
    thetas = 2.0 * math.pi * (np.arange(n_atoms) + 0.5) / n_atoms
    waves = np.exp(1j * np.outer(thetas, np.arange(n))) / math.sqrt(2.0 * math.pi)
    atoms = [Atom(atom_id=f"theta{j}", weight=weight, fiber_dim=1) for j in range(n_atoms)]
    fam = OperatorFamily.from_rows(DiscreteMeasureSpace(atoms), waves.conj(), n)
    return fam, np.eye(n, dtype=np.complex128)


def build_random_frame(n: int, atoms: int, fiber_dims, seed: int) -> OperatorFamily:
    """Seeded complex-Gaussian operator blocks on unit-weight atoms."""
    if n < 1:
        raise InvalidConfig(f"ambient dimension must be >= 1, got {n}")
    if atoms < 1:
        raise InvalidConfig(f"atom count must be >= 1, got {atoms}")
    if isinstance(fiber_dims, int):
        fiber_dims = [fiber_dims] * atoms
    dims = [int(d) for d in fiber_dims]
    if len(dims) != atoms:
        raise InvalidConfig(f"expected {atoms} fiber dims, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise InvalidConfig("fiber dims must be >= 1")
    rng = np.random.default_rng(seed)
    space = DiscreteMeasureSpace(
        Atom(atom_id=f"atom{k}", weight=1.0, fiber_dim=d) for k, d in enumerate(dims)
    )
    # The per-atom draws in one: atom k, whose rows start at s_k, drew its d_k
    # real rows and then its d_k imaginary rows, so row r of the family has
    # its real part in draw row s_k + r and its imaginary part d_k rows later.
    sizes = np.array(dims)
    real = np.repeat(np.cumsum(sizes) - sizes, sizes) + np.arange(sizes.sum())
    draws = rng.standard_normal((2 * int(sizes.sum()), n))
    rows = (draws[real] + 1j * draws[real + np.repeat(sizes, sizes)]) / math.sqrt(2.0)
    return OperatorFamily.from_rows(space, rows, n)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed configuration: scenario, requested operations, and knobs."""

    raw: dict
    kind: str
    scenario: dict
    requests: tuple[str, ...]
    claimed: FrameBounds | None
    bessel_only: bool
    perturb: dict
    refine_values: tuple[int, ...]
    tol: TolerancePolicy
    seed: int
    samples: int


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw config dict; raises :class:`InvalidConfig` on problems."""
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    _known_keys(raw, "config", "the config")
    scenario = raw.get("scenario")
    if not isinstance(scenario, dict) or "kind" not in scenario:
        raise InvalidConfig('config must contain a "scenario" object with a "kind"')
    kind = scenario["kind"]
    if kind not in SCENARIO_KINDS:
        raise InvalidConfig(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    _known_keys(scenario, kind, f"a {kind!r} scenario")
    measures = scenario.get("partition_measures")
    if measures is not None:
        if not isinstance(measures, list):
            raise InvalidConfig('scenario "partition_measures" must be a list of numbers')
        for x in measures:
            _real(x, 'scenario "partition_measures" entries')

    requests_raw = raw.get("requests", ["bounds"])
    if not isinstance(requests_raw, list) or not requests_raw:
        raise InvalidConfig('"requests" must be a non-empty list')
    requests = []
    for req in requests_raw:
        if req not in REQUEST_KINDS:
            raise InvalidConfig(f"unknown request {req!r}; expected one of {REQUEST_KINDS}")
        if req not in requests:
            requests.append(req)

    claimed = None
    if "claimed" in raw:
        pair = raw["claimed"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InvalidConfig('"claimed" must be a [lower, upper] pair')
        what = '"claimed" entries'
        claimed = FrameBounds(lower=_real(pair[0], what), upper=_real(pair[1], what))

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise InvalidConfig('"tolerances" must be an object')
    _known_keys(tol_raw, "tolerances", '"tolerances"')
    try:
        # a missing key keeps the policy's default
        tol = TolerancePolicy(**{key: _real(v, f'"tolerances" {key}') for key, v in tol_raw.items()})
    except ValueError as bad:
        raise InvalidConfig(f'malformed "tolerances": {bad}') from None

    refine_raw = raw.get("refine", {})
    if not isinstance(refine_raw, dict):
        raise InvalidConfig('"refine" must be an object')
    _known_keys(refine_raw, "refine", '"refine"')
    values = refine_raw.get("values", (9, 18, 36, 72))
    if not isinstance(values, (list, tuple)):
        raise InvalidConfig(f'"refine" values must be a list of integers, got {values!r}')
    refine_values = tuple(_integer(v, '"refine" values') for v in values)
    if any(v < 1 for v in refine_values):
        raise InvalidConfig("refine values must be >= 1")

    perturb = raw.get("perturb", {"delta": 0.1})
    if not isinstance(perturb, dict):
        raise InvalidConfig('"perturb" must be an object')
    _known_keys(perturb, "perturb", '"perturb"')
    for key in ("delta", "lambda1", "lambda2", "gamma", "scale"):
        if key in perturb:
            _real(perturb[key], f'"perturb" {key}')
    if "kill_range" in perturb:
        _flag(perturb["kill_range"], '"perturb" kill_range')

    return ScenarioConfig(
        raw=raw,
        kind=kind,
        scenario=scenario,
        requests=tuple(requests),
        claimed=claimed,
        bessel_only=_flag(raw.get("bessel_only", False), '"bessel_only"'),
        perturb=perturb,
        refine_values=refine_values,
        tol=tol,
        seed=_count(raw, "seed", 0),
        samples=_count(raw, "samples", 64),
    )


def _known_keys(obj: dict, part: str, what: str) -> None:
    """Raise InvalidConfig naming the first key of ``obj`` outside ``CONFIG_KEYS[part]``."""
    allowed = CONFIG_KEYS[part]
    for key in obj:
        if key not in allowed:
            raise InvalidConfig(f"unknown key {key!r} in {what}; expected one of {allowed}")


def _flag(value, what: str) -> bool:
    """A JSON boolean; anything else raises InvalidConfig."""
    if not isinstance(value, bool):
        raise InvalidConfig(f"{what} must be true or false, got {value!r}")
    return value


def _count(raw: dict, key: str, default: int) -> int:
    """A nonnegative integer field of the config."""
    count = _integer(raw.get(key, default), f'"{key}"')
    if count < 0:
        raise InvalidConfig(f'"{key}" must be >= 0, got {count}')
    return count


def _scenario_int(sc: dict, key: str, default: int) -> int:
    """An integer field of the scenario object, read like the top-level counts."""
    return _integer(sc.get(key, default), f'scenario "{key}"')


def load_config(path) -> ScenarioConfig:
    """Read and parse a JSON config file; IO/JSON failures raise ParseError."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ParseError(f"cannot read config file {path}: {err}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"config file {path} is not valid JSON: {err}") from None
    return parse_config(raw)


def build_scenario(cfg: ScenarioConfig) -> tuple[OperatorFamily, _Decomposed]:
    """The configured scenario as (family, record of its reference operator)."""
    sc = cfg.scenario
    try:
        if cfg.kind == "paper_example":
            fam, k_op = build_paper_example(
                m=_scenario_int(sc, "m", 8),
                partition_measures=sc.get("partition_measures"),
                atoms_per_cell=_scenario_int(sc, "atoms_per_cell", 1),
            )
        elif cfg.kind == "continuous_fourier":
            fam, k_op = build_continuous_fourier(
                n=_scenario_int(sc, "dim", 4), n_atoms=_scenario_int(sc, "n_atoms", 64)
            )
        elif cfg.kind == "random":
            fiber_dims = sc.get("fiber_dims", 1)
            what = 'scenario "fiber_dims"'
            if isinstance(fiber_dims, list):
                fiber_dims = [_integer(d, what) for d in fiber_dims]
            else:
                fiber_dims = _integer(fiber_dims, what)
            fam = build_random_frame(
                n=_scenario_int(sc, "dim", 4),
                atoms=_scenario_int(sc, "n_atoms", 8),
                fiber_dims=fiber_dims,
                seed=_scenario_int(sc, "seed", cfg.seed),
            )
        else:  # explicit
            if "family" not in sc:
                raise InvalidConfig('explicit scenario requires a "family" literal')
            fam = family_from_literal(sc["family"])
        if cfg.kind in ("random", "explicit"):
            k_op = matrix_from_literal(sc["K"]) if "K" in sc else np.eye(fam.ambient_dim)
        return fam, _check_reference(fam, k_op)
    except (TypeError, ValueError, DimensionMismatch) as bad:
        raise InvalidConfig(f"malformed scenario parameters: {bad}") from None


def _run_theta(cfg: ScenarioConfig, pair: DualPair) -> dict:
    fam, k_op = pair.primary_family, pair.reproduced_operator
    theta = theta_dual(pair, cfg.tol)
    # synthesis(fam, analysis(theta, .)) and the reverse order
    forward = synthesis_matrix(fam) @ synthesis_matrix(theta).conj().T
    backward = forward.conj().T
    # one sample per column, drawn as real then imaginary part per sample
    draws = np.random.default_rng(cfg.seed).standard_normal((cfg.samples, 2, fam.ambient_dim))
    fs = k_op @ pair._k.pinv(cfg.tol) @ (draws[:, 0] + 1j * draws[:, 1]).T
    norms = np.linalg.norm(fs, axis=0)
    # draws that K pinv(K) all but kills test nothing
    kept = norms >= cfg.tol.rel_rank_cutoff
    fs, norms, tested = fs[:, kept], norms[kept], int(np.count_nonzero(kept))
    residuals = [np.linalg.norm(op @ fs - fs, axis=0) / norms for op in (forward, backward)]
    worst = float(np.max(residuals, initial=0.0))
    return {
        "theta_family": family_to_literal(theta),
        "max_relative_residual": worst,
        "samples": tested,
        # testing no vector at all proves nothing
        "passed": bool(tested > 0 and worst <= cfg.tol.residual_tol),
    }


def _run_perturb(cfg: ScenarioConfig, fam: OperatorFamily, k_op: _Decomposed) -> dict:
    spec = cfg.perturb
    if "delta" in spec:
        delta = float(spec["delta"])
        params = scalar_perturbation_params(delta)
        gam = scale_family(fam, 1.0 - delta)
    else:
        params = PerturbationParams(
            lambda1=float(spec.get("lambda1", 0.0)),
            lambda2=float(spec.get("lambda2", 0.0)),
            gamma=float(spec.get("gamma", 0.0)),
        )
        if spec.get("kill_range"):
            gam = project_out_range(fam, k_op, cfg.tol)
        elif "scale" in spec:
            gam = scale_family(fam, float(spec["scale"]))
        elif "family" in spec:
            gam = family_from_literal(spec["family"])
        else:
            gam = fam
    report = verify_perturbation(
        fam, gam, k_op, params, n_samples=cfg.samples, seed=cfg.seed, tol=cfg.tol
    )
    return {
        "predicted": [bound_to_literal(report.predicted.lower), bound_to_literal(report.predicted.upper)],
        "empirical": [bound_to_literal(report.empirical.lower), bound_to_literal(report.empirical.upper)],
        "slack": report.max_condition_slack,
        "samples": report.samples,
        "seed": report.seed,
        "success": report.success,
    }


def _run_refine(cfg: ScenarioConfig, fam: OperatorFamily, k_op: _Decomposed) -> list[dict]:
    sc = cfg.scenario
    # the built-in kinds reproduce K K* exactly (Fourier: K = I)
    target = k_op.gram
    if cfg.kind == "continuous_fourier":
        param = "n_atoms"

        def refine(value):
            return build_continuous_fourier(fam.ambient_dim, value)[0]

    elif cfg.kind == "paper_example":
        param = "atoms_per_cell"

        def refine(value):
            return build_paper_example(
                _scenario_int(sc, "m", 8), sc.get("partition_measures"), atoms_per_cell=value
            )[0]

    else:
        # Atom-splitting refinement: the frame operator must not move at all.
        param, target = "parts", fam._frame[0]

        def refine(value):
            return refine_family(fam, value)

    rows = []
    for value in cfg.refine_values:
        refined = refine(value)
        bounds = optimal_bounds(refined, k_op, cfg.tol)
        rows.append(
            {
                "param": param,
                "value": value,
                # optimal_bounds built the refined family's S from its own atoms
                "frame_operator_error": operator_norm(refined._frame[0] - target),
                "lower": bound_to_literal(bounds.lower),
                "upper": bound_to_literal(bounds.upper),
            }
        )
    return rows


def write_refine_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([rows[0]["param"] if rows else "value", "frame_operator_error", "lower", "upper"])
        for row in rows:
            writer.writerow([row["value"], repr(row["frame_operator_error"]), row["lower"], row["upper"]])


def run_config(source, requests=None, csv_path=None) -> dict:
    """Execute every requested operation of a config; never raises per-request.

    ``source`` may be a path to a JSON file, a raw dict, or a parsed
    :class:`ScenarioConfig`.  Each requested operation contributes exactly
    one entry to ``results`` or ``errors``.  The report's ``success`` flag is
    true iff nothing errored and every verifying request passed.
    """
    started = time.perf_counter()
    if isinstance(source, ScenarioConfig):
        cfg = source
    elif isinstance(source, dict):
        cfg = parse_config(source)
    else:
        cfg = load_config(source)

    fam, k_op = build_scenario(cfg)
    results: dict = {}
    errors: dict = {}
    passed = True
    todo = tuple(requests) if requests else cfg.requests
    # the dual and theta requests share one Douglas factor
    douglas = functools.cache(lambda: douglas_gamma(fam, k_op, cfg.tol))

    for request in todo:
        try:
            if request == "bounds":
                results["bounds"] = bounds_to_literal(optimal_bounds(fam, k_op, cfg.tol))
            elif request == "verify":
                if cfg.claimed is None:
                    raise InvalidConfig('verify request needs a "claimed" [lower, upper] pair')
                report = verify_frame(
                    fam, None if cfg.bessel_only else k_op, cfg.claimed, cfg.tol
                )
                results["verify"] = report_to_literal(report)
                passed = passed and (
                    report.is_bessel if cfg.bessel_only else report.is_ckg_frame
                )
            elif request == "dual":
                pair = douglas()
                results["dual"] = {
                    "primary_family": family_to_literal(pair.primary_family),
                    "dual_family": family_to_literal(pair.dual_family),
                    "reproduced_operator": matrix_to_literal(pair.reproduced_operator),
                    "residual": pair.residual,
                    "dual_bessel_constant": bessel_constant(pair.dual_family),
                    "lower_bound_from_dual": lower_bound_from_dual(pair),
                }
            elif request == "theta":
                results["theta"] = _run_theta(cfg, douglas())
                passed = passed and results["theta"]["passed"]
            elif request == "perturb":
                results["perturb"] = _run_perturb(cfg, fam, k_op)
                passed = passed and results["perturb"]["success"]
            elif request == "refine":
                rows = _run_refine(cfg, fam, k_op)
                results["refine"] = rows
                if csv_path is not None:
                    write_refine_csv(rows, csv_path)
        except ToolkitError as err:
            errors[request] = f"{type(err).__name__}: {err}"
        except ValueError as err:
            errors[request] = f"ValueError: {err}"

    return {
        "config": cfg.raw,
        "version": __version__,
        "results": results,
        "errors": errors,
        "success": bool(passed and not errors),
        "wall_clock_seconds": time.perf_counter() - started,
    }
