"""Dual-type families: Douglas factors, pseudo-inverse duals, canonical duals,
and pullbacks along a bounded operator.

The central construction factors a reference operator K through the synthesis
operator of a frame family: ``K = T Gamma`` with the minimal-norm factor
``Gamma = pinv(T) K``.  From it derive a lower frame bound (via the dual's
Bessel constant), the pseudo-inverse dual that reconstructs on ``range(K)``,
and the canonical dual when the frame operator is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDual, InvalidPair, NotAFrame, NotPsd
from .frames import (
    OperatorFamily,
    _check_reference,
    _row_weights,
    _times,
    check_synthesis_range,
    synthesis_matrix,
)
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _Decomposed,
    _psd,
    operator_norm,
    pseudo_inverse,
)

__all__ = [
    "DualPair",
    "douglas_gamma",
    "bessel_constant",
    "lower_bound_from_dual",
    "theta_dual",
    "canonical_dual",
    "pullback_by",
    "k_power_family",
]


@dataclass(frozen=True, eq=False)
class DualPair:
    """A frame family, a Bessel factor, and the operator their pairing reproduces."""

    primary_family: OperatorFamily
    dual_family: OperatorFamily
    reproduced_operator: np.ndarray
    residual: float
    # the record of the reproduced operator: douglas_gamma passes the one it
    # checked, so theta reads that record's SVD instead of taking another
    _k: _Decomposed | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._k is None:
            object.__setattr__(self, "_k", _Decomposed(self.reproduced_operator))


_EPS = float(np.finfo(np.float64).eps)


def _allowance(k: _Decomposed, tol: TolerancePolicy) -> float:
    """``residual_tol * max(1, ||K||)``, with ``||K||`` read from the record's SVD."""
    svd = k.svd
    return tol.residual_tol * (1.0 if svd is None else max(1.0, float(svd[1][0])))


def _invertible(w: np.ndarray, tol: TolerancePolicy) -> bool:
    """``lambda_min > rel_rank_cutoff * lambda_max`` on ascending eigenvalues:
    the Loewner gap's rank cut keeps every eigenvalue."""
    return bool(w[0] > tol.rel_rank_cutoff * w[-1])


def douglas_gamma(lam: OperatorFamily, k, tol: TolerancePolicy = DEFAULT_TOL) -> DualPair:
    """Minimal-norm Bessel factor ``Gamma`` with ``T_Lam o analysis_Gamma = K``.

    Requires ``range(K) <= range(T)`` (the frame condition for K); otherwise
    raises :class:`NotAFrame`.  Among all factorizations the pseudo-inverse
    solution ``pinv(T) K`` has minimal norm, which makes the derived lower
    bound ``1/B_Gamma`` optimal.  The range test is the factorization
    residual itself, ``||T Gamma - K|| <= residual_tol * max(1, ||K||)``.

    ``pinv(T) K`` is first formed as ``T* inv(S) K`` from the family's cached
    spectrum of ``S = T T*``, when ``S`` is invertible by :func:`_invertible`
    and that form's forward error, ``eps * cond(S)`` (it squares the
    condition number of ``T``), is within ``residual_tol``.  Otherwise, or
    when its residual misses, ``pinv(T) K`` from an SVD of ``T`` decides, so
    the short form never turns a pass into :class:`NotAFrame`.
    """
    k = _check_reference(lam, k, square=True)
    t = synthesis_matrix(lam)
    allowed = _allowance(k, tol)
    w, v = lam._frame[1].eigenvalues, lam._frame[1].eigenvectors
    residual = np.inf
    if _invertible(w, tol) and _EPS * w[-1] <= tol.residual_tol * w[0]:
        packed = t.conj().T @ ((v / w) @ (v.conj().T @ k.matrix))
        residual = operator_norm(t @ packed - k.matrix)
    if residual > allowed:
        packed = pseudo_inverse(t, tol) @ k.matrix
        residual = operator_norm(t @ packed - k.matrix)
    if residual > allowed:
        raise NotAFrame(
            "range(K) is not contained in the range of the synthesis operator; "
            "the family is not a frame for this reference operator "
            f"(factorization residual {residual:.3e}, allowed {allowed:.3e})"
        )
    packed /= np.sqrt(_row_weights(lam.space))[:, None]
    dual = OperatorFamily.from_rows(lam.space, packed, lam.ambient_dim)
    return DualPair(lam, dual, reproduced_operator=k.matrix, residual=residual, _k=k)


def bessel_constant(fam: OperatorFamily) -> float:
    """Optimal Bessel constant: ``lambda_max`` of the frame operator."""
    return float(fam._frame[1].eigenvalues[-1])


def lower_bound_from_dual(pair: DualPair) -> float:
    """Lower frame bound ``1/B_Gamma`` derived from the dual's Bessel constant.

    Never exceeds the optimal lower bound of the primary family; for the
    minimal-norm factor it attains it.
    """
    b_gamma = bessel_constant(pair.dual_family)
    if b_gamma <= 0.0:
        raise DegenerateDual("dual family is zero (reference operator is zero)")
    return 1.0 / b_gamma


def theta_dual(pair: DualPair, tol: TolerancePolicy = DEFAULT_TOL) -> OperatorFamily:
    """Pseudo-inverse dual ``Theta_k = Gamma_k pinv(K)``.

    Interchangeable with the primary family on ``range(K)``: for f there,
    ``synthesis(lam, analysis(theta, f)) == f`` and the order may be swapped.
    Vanishes on the orthogonal complement of ``range(K)`` because
    ``pinv(K)`` annihilates it.
    """
    # ||K|| and pinv(K) both come from the pair's one SVD of K
    allowed = _allowance(pair._k, tol)
    if pair.residual > allowed:
        raise InvalidPair(
            f"pair residual {pair.residual:.3e} exceeds {allowed:.3e}"
        )
    k_pinv = pair._k.pinv(tol)
    dual = pair.dual_family
    return OperatorFamily.from_rows(dual.space, _times(dual, k_pinv), dual.ambient_dim)


def canonical_dual(fam: OperatorFamily, tol: TolerancePolicy = DEFAULT_TOL) -> OperatorFamily:
    """Family ``ops[k] @ inv(S)``; reproduces every vector of the ambient space.

    Requires the family to be a frame for the whole space: ``S`` PSD and
    invertible by :func:`_invertible`, read from its cached spectrum.  That
    is the sign of the Loewner gap of ``S`` against the identity.
    """
    s = fam._frame[1]
    w, v = s.eigenvalues, s.eigenvectors
    if not _psd(w, tol):
        raise NotPsd("canonical_dual: frame operator is not positive semidefinite")
    if not _invertible(w, tol):
        raise NotAFrame("frame operator is singular; no canonical dual exists")
    s_inv = (v / w) @ v.conj().T
    return OperatorFamily.from_rows(fam.space, _times(fam, s_inv), fam.ambient_dim)


def pullback_by(fam: OperatorFamily, t) -> OperatorFamily:
    """Family ``ops[k] @ T*``; its frame operator is ``T S T*``.

    Maps a frame for K to a frame for ``T K`` with upper bound inflated by
    ``||T*||^2``.
    """
    t = _check_reference(fam, t, square=True).matrix
    return OperatorFamily.from_rows(fam.space, _times(fam, t.conj().T), fam.ambient_dim)


def k_power_family(
    fam: OperatorFamily,
    k,
    n_power: int,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> OperatorFamily:
    """Iterated pullback ``ops[j] @ (K*)^N``, a frame for ``K^(N+1)``."""
    if n_power < 1:
        raise ValueError(f"power must be >= 1, got {n_power}")
    k = _check_reference(fam, k, square=True)
    if not check_synthesis_range(fam, k, tol):
        raise NotAFrame("family is not a frame for the reference operator")
    result = fam
    for _ in range(n_power):
        result = pullback_by(result, k)
    return result
