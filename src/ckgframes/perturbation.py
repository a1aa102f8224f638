"""Perturbation analysis: admissibility, predicted bounds, and sampled checks.

Given a frame family Lam with optimal bounds (A, B), a perturbed family Gam
is again a frame for the same reference operator whenever the pointwise
condition

    int |<(Lam* Lam - Gam* Gam) f, g>| dmu
        <= l1 * int |<Lam* Lam f, g>| dmu
         + l2 * int |<Gam* Gam f, g>| dmu
         + gamma * ||K* f||^2

holds for all f, g with max(l2, gamma/A + l1) < 1, and the perturbed bounds
bracket ((1-l1)A - gamma)/(1+l2) and ((1+l1)B + gamma ||K||^2)/(1-l2).

The universally quantified condition is never proved here: it is sampled on
seeded random unit pairs plus adversarial eigenvector pairs.  A positive
slack disproves the condition; a nonpositive slack is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InadmissibleParams, InvalidDelta, NotAFrame
from .frames import (
    FrameBounds,
    OperatorFamily,
    _check_reference,
    _lower_cap,
    _rows,
    _split_rows,
    _times,
    check_synthesis_range,
    optimal_bounds,
)
from .linalg import DEFAULT_TOL, TolerancePolicy, _Decomposed, operator_norm
from .measure import DiscreteMeasureSpace

__all__ = [
    "PerturbationParams",
    "PerturbationReport",
    "predicted_bounds",
    "sample_condition",
    "verify_perturbation",
    "scalar_perturbation_params",
    "project_out_range",
]

@dataclass(frozen=True)
class PerturbationParams:
    """Nonnegative perturbation constants (l1, l2, gamma)."""

    lambda1: float
    lambda2: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InadmissibleParams(f"{name} must be finite and >= 0, got {value!r}")

    def admissible(self, lower: float) -> bool:
        """True iff ``max(l2, gamma/A + l1) < 1`` for the given lower bound A."""
        if not lower > 0.0:
            raise InadmissibleParams(f"lower bound must be positive, got {lower!r}")
        return max(self.lambda2, self.gamma / lower + self.lambda1) < 1.0


@dataclass(frozen=True)
class PerturbationReport:
    """Predicted vs. measured bounds plus the sampled condition slack."""

    predicted: FrameBounds
    empirical: FrameBounds
    max_condition_slack: float
    samples: int
    seed: int
    success: bool


def scalar_perturbation_params(delta: float) -> PerturbationParams:
    """Exact parameters for the scalar perturbation ``Gam = (1-delta) Lam``.

    Then ``Gam* Gam = (1-delta)^2 Lam* Lam``, so the condition holds with
    equality at ``l1 = 1 - (1-delta)^2`` and ``l2 = gamma = 0``.
    """
    if not (0.0 <= delta < 1.0):
        raise InvalidDelta(f"delta must lie in [0, 1), got {delta!r}")
    return PerturbationParams(lambda1=1.0 - (1.0 - delta) ** 2, lambda2=0.0, gamma=0.0)


def predicted_bounds(
    lower: float,
    upper: float,
    k,
    params: PerturbationParams,
) -> FrameBounds:
    """Frame bounds guaranteed for the perturbed family.

    ``(((1-l1) A - gamma)/(1+l2), ((1+l1) B + gamma ||K||^2)/(1-l2))``;
    admissibility makes the lower value positive.  A finite ``A`` must
    satisfy ``A ||K||^2 <= B``, the rule of :func:`frames.verify_frame`, not
    ``A <= B``: for ``||K|| < 1`` optimal bounds have ``A > B``.  The vacuous
    ``A = +inf`` of a numerically zero K passes.
    """
    if not lower > 0.0:
        raise InadmissibleParams(f"lower bound must be positive, got {lower!r}")
    kk_w = (k if isinstance(k, _Decomposed) else _Decomposed(k)).gram_w
    cap = _lower_cap(upper, kk_w)
    if math.isfinite(lower) and lower > cap:
        raise InadmissibleParams(f"lower bound {lower!r} exceeds upper bound / ||K||^2 = {cap!r}")
    if not params.admissible(lower):
        raise InadmissibleParams(
            f"max(l2, gamma/A + l1) = "
            f"{max(params.lambda2, params.gamma / lower + params.lambda1)!r} >= 1"
        )
    # ||K||^2 as the bound rules of frames read it
    k_norm_sq = float(kk_w[-1])
    new_lower = ((1.0 - params.lambda1) * lower - params.gamma) / (1.0 + params.lambda2)
    new_upper = ((1.0 + params.lambda1) * upper + params.gamma * k_norm_sq) / (
        1.0 - params.lambda2
    )
    return FrameBounds(lower=new_lower, upper=new_upper)


def _sample_pairs(dim: int, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic complex-Gaussian unit vectors (f, g), one pair per column.

    f and g come from two independent child streams of ``seed``, so no seed's
    f-samples reappear as another seed's g-samples.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    pair = []
    for stream in np.random.SeedSequence(seed).spawn(2):
        rng = np.random.default_rng(stream)
        z = rng.standard_normal((dim, n_samples)) + 1j * rng.standard_normal((dim, n_samples))
        norms = np.linalg.norm(z, axis=0)
        norms[norms == 0.0] = 1.0
        pair.append(z / norms)
    return pair[0], pair[1]


def _condition_slack(
    lam_rows: np.ndarray,
    gam_rows: np.ndarray,
    space: DiscreteMeasureSpace,
    k: np.ndarray,
    params: PerturbationParams,
    fs: np.ndarray,
    gs: np.ndarray,
) -> np.ndarray:
    """LHS - RHS of the condition at each pair ``(fs[:, s], gs[:, s])``.

    Works on analysis coefficients: ``<Lam_k* Lam_k f, g> = <Lam_k f, Lam_k g>``
    is the sum over atom k's rows of ``conj(Lam g) * (Lam f)``.
    """
    dims = np.array(space.fiber_dims, dtype=np.intp)
    nonempty = dims > 0
    # reduceat gives an empty segment the next row, so zero-dim atoms
    # (which contribute nothing) are dropped instead
    starts = (np.cumsum(dims) - dims)[nonempty]
    weights = space.weights[nonempty]

    def pairing(rows: np.ndarray) -> np.ndarray:
        # row k, column s: <Lam_k f_s, Lam_k g_s>
        p = (rows @ gs).conj() * (rows @ fs)
        return np.add.reduceat(p, starts, axis=0)

    p_lam = pairing(lam_rows)
    p_gam = pairing(gam_rows)
    lhs = weights @ np.abs(p_lam - p_gam)
    rhs = (
        params.lambda1 * (weights @ np.abs(p_lam))
        + params.lambda2 * (weights @ np.abs(p_gam))
        + params.gamma * np.linalg.norm(k.conj().T @ fs, axis=0) ** 2
    )
    return lhs - rhs


def sample_condition(
    lam: OperatorFamily,
    gam: OperatorFamily,
    k,
    params: PerturbationParams,
    n_samples: int,
    seed: int,
) -> float:
    """Max over sampled unit pairs (f, g) of LHS - RHS of the condition.

    A value <= 0 means no sampled violation (necessary evidence for the
    universally quantified condition, not a proof); any positive value is a
    certified violation.  The sample set is the seeded random pairs plus
    eigenvector pairs of both frame operators and of K K*.  Deterministic
    given (seed, n_samples).
    """
    if lam.ambient_dim != gam.ambient_dim or lam.space.fiber_dims != gam.space.fiber_dims:
        raise DimensionMismatch(
            "families must share a measure space, per-atom fiber dimensions and ambient dim"
        )
    k = _check_reference(lam, k)
    fs, gs = _sample_pairs(lam.ambient_dim, n_samples, seed)

    # eigenvectors of both frame operators and of K K*, as candidate extremes
    adversarial = np.hstack([lam._frame[1].eigenvectors, gam._frame[1].eigenvectors, k.gram_v])
    fs = np.hstack([fs, adversarial])
    gs = np.hstack([gs, adversarial])
    slack = _condition_slack(_rows(lam), _rows(gam), lam.space, k.matrix, params, fs, gs)
    return float(np.max(slack))


def verify_perturbation(
    lam: OperatorFamily,
    gam: OperatorFamily,
    k,
    params: PerturbationParams,
    n_samples: int,
    seed: int,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> PerturbationReport:
    """Predicted-vs-empirical bound bracket plus sampled condition slack.

    The unperturbed family must be a frame for K; its optimal bounds feed
    the prediction.  Success means: no sampled condition violation (slack at
    roundoff level or below) and the measured optimal bounds of the
    perturbed family lie inside the predicted bracket.
    """
    k = _check_reference(lam, k)
    if not check_synthesis_range(lam, k, tol):
        raise NotAFrame("unperturbed family is not a frame for the reference operator")
    base = optimal_bounds(lam, k, tol)
    if not base.lower > 0.0:
        raise NotAFrame("unperturbed family has no positive lower bound")
    if not params.admissible(base.lower):
        raise InadmissibleParams(
            f"parameters inadmissible for lower bound {base.lower!r}"
        )
    predicted = predicted_bounds(base.lower, base.upper, k, params)
    empirical = optimal_bounds(gam, k, tol)
    slack = sample_condition(lam, gam, k, params, n_samples, seed)

    # slack at or below rel_rank_cutoff (scaled) counts as zero: the exact
    # equality cases land at accumulated roundoff, orders below any violation
    slack_ok = slack <= tol.rel_rank_cutoff * max(1.0, base.upper)
    bracket_ok = (
        predicted.lower <= empirical.lower + tol.residual_tol
        and empirical.upper <= predicted.upper + tol.residual_tol
    )
    return PerturbationReport(
        predicted=predicted,
        empirical=empirical,
        max_condition_slack=slack,
        samples=n_samples,
        seed=seed,
        success=bool(slack_ok and bracket_ok),
    )


def project_out_range(fam: OperatorFamily, k, tol: TolerancePolicy = DEFAULT_TOL) -> OperatorFamily:
    """Deliberately broken perturbation: compose with the projector onto
    the orthogonal complement of ``range(K)``.

    The result annihilates ``range(K)``, so it cannot be a frame for K; use
    it to exercise failure reporting.
    """
    k = _check_reference(fam, k)
    projector = np.eye(fam.ambient_dim) - k.matrix @ k.pinv(tol)
    rows = _times(fam, projector)
    for op, projected in zip(fam.ops, _split_rows(rows, fam.space)):
        # rows that lie inside range(K) must come out exactly zero, not as
        # projection roundoff whose own relative range would be meaningless
        chop = tol.rel_rank_cutoff * max(1.0, operator_norm(op))
        projected[np.abs(projected) <= chop] = 0.0
    return OperatorFamily.from_rows(fam.space, rows, fam.ambient_dim)
