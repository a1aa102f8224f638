"""Deterministic dense complex linear algebra kernels.

Adjoints, SVD-based pseudo-inverses, Hermitian eigendecompositions, and the
decision procedures built on them: positive-semidefiniteness, Loewner-order
gaps, and range inclusion.  Every rank or residual decision is governed by an
explicit :class:`TolerancePolicy` so results are reproducible.

All functions are pure: they never mutate their arguments and hold no state,
so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPsd

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "HermitianEigen",
    "as_matrix",
    "adjoint",
    "pseudo_inverse",
    "hermitian_eigen",
    "operator_norm",
    "is_psd",
    "loewner_gap",
    "range_inclusion",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical thresholds used by every decision procedure.

    rel_rank_cutoff
        Singular values below ``rel_rank_cutoff * sigma_max`` count as zero
        (numerical rank, pseudo-inverse truncation, range tests).
    psd_slack
        Eigenvalues above ``-psd_slack * max(1, norm)`` count as nonnegative.
    residual_tol
        Relative residual below which an operator identity is accepted.
    """

    rel_rank_cutoff: float = 1e-12
    psd_slack: float = 1e-10
    residual_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rel_rank_cutoff", "psd_slack", "residual_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Spectral decomposition ``H = V diag(w) V*`` with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite complex 2-d array (the working matrix type)."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose, so that <M f, g> = <f, adjoint(M) g>."""
    return as_matrix(m).conj().T.copy()


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (spectral norm)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def pseudo_inverse(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with relative rank cutoff.

    Singular values at or below ``rel_rank_cutoff * sigma_max`` are treated
    as zero.  A (numerically) zero matrix maps to the zero matrix of the
    transposed shape.  The result satisfies the four Penrose identities and
    ``M pinv(M) f = f`` for ``f`` in the range of ``M``.
    """
    return _Decomposed(m).pinv(tol)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that raises on write; ``a`` itself stays writable."""
    view = a.view()
    view.setflags(write=False)
    return view


class _Decomposed:
    """A read-only matrix ``M`` and its decompositions, each formed on first
    use: ``gram``, the exactly Hermitian ``M M*``, with its eigenvalues
    ascending (``gram_w``) and eigenvectors (``gram_v``); and ``svd``, the thin
    SVD ``(u, s, vh)``, or ``None`` for a zero ``M``.  Tolerance-free."""

    def __init__(self, m) -> None:
        self.matrix = _read_only(as_matrix(m))

    @cached_property
    def gram(self) -> np.ndarray:
        mm = self.matrix @ self.matrix.conj().T
        return (mm + mm.conj().T) / 2.0

    @cached_property
    def gram_w(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gram)

    @cached_property
    def gram_v(self) -> np.ndarray:
        return np.linalg.eigh(self.gram)[1]

    @cached_property
    def svd(self):
        return np.linalg.svd(self.matrix, full_matrices=False) if self.matrix.any() else None

    def pinv(self, tol: TolerancePolicy) -> np.ndarray:
        """:func:`pseudo_inverse` of ``matrix`` from the kept SVD."""
        if self.svd is not None:
            u, s, vh = self.svd
            keep = s > tol.rel_rank_cutoff * s[0]
            if keep.any():
                return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
        return np.zeros(self.matrix.shape[::-1], dtype=np.complex128)


def _square(m, what: str) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")
    return m


def _require_hermitian(h: np.ndarray, tol: TolerancePolicy, what: str) -> None:
    """Raise :class:`NotHermitian` unless ``||H - H*|| <= residual_tol * ||H||``."""
    hnorm = operator_norm(h)
    deviation = operator_norm(h - h.conj().T)
    if deviation > tol.residual_tol * hnorm:
        raise NotHermitian(
            f"{what} deviates from Hermitian by {deviation:.3e} "
            f"(allowed {tol.residual_tol * hnorm:.3e})"
        )


def _spectrum(h, tol: TolerancePolicy, what: str, vectors: bool = False):
    """``(sym, w, v)``: the Hermitian part ``(H + H*)/2``, its eigenvalues
    ascending and, if ``vectors``, its eigenvectors (else ``None``).

    An exactly Hermitian input is its own Hermitian part and needs no
    further test; any other input must pass :func:`_require_hermitian`.
    """
    h = _square(h, what)
    h_adj = h.conj().T
    if np.array_equal(h, h_adj):
        sym = h
    else:
        _require_hermitian(h, tol, what)
        sym = (h + h_adj) / 2.0
    if vectors:
        w, v = np.linalg.eigh(sym)
    else:
        w, v = np.linalg.eigvalsh(sym), None
    return sym, w, v


def _abs_max(w: np.ndarray) -> float:
    """Largest ``|eigenvalue|``: the spectral norm of a Hermitian matrix."""
    return float(np.max(np.abs(w))) if w.size else 0.0


def _psd(w: np.ndarray, tol: TolerancePolicy) -> bool:
    """``lambda_min >= -psd_slack * max(1, ||H||)`` on ascending eigenvalues."""
    if w.size == 0:
        return True
    return bool(w[0] >= -tol.psd_slack * max(1.0, _abs_max(w)))


def _negligible(m_w: np.ndarray, s_w: np.ndarray, tol: TolerancePolicy) -> bool:
    """``||M|| <= rel_rank_cutoff * max(1, ||S||)`` from the two spectra: next
    to ``S``, ``M`` is numerically zero and a constraint ``S >= A M`` vacuous."""
    return _abs_max(m_w) <= tol.rel_rank_cutoff * max(1.0, _abs_max(s_w))


def _hermitian_norm(h: np.ndarray) -> float:
    """Spectral norm of a matrix that is Hermitian up to roundoff."""
    return _abs_max(np.linalg.eigvalsh((h + h.conj().T) / 2.0))


def hermitian_eigen(h, tol: TolerancePolicy = DEFAULT_TOL) -> HermitianEigen:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized as ``(H + H*)/2`` to absorb roundoff; inputs
    that deviate from Hermitian beyond ``residual_tol * ||H||`` raise
    :class:`NotHermitian`.
    """
    _, w, v = _spectrum(h, tol, "hermitian_eigen input", vectors=True)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def is_psd(h, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True iff ``lambda_min(H) >= -psd_slack * max(1, ||H||)``."""
    return _psd(_spectrum(h, tol, "is_psd input")[1], tol)


def loewner_gap(s, m, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Largest ``A >= 0`` such that ``S - A*M`` is positive semidefinite.

    For Hermitian PSD ``S`` and ``M`` this is the optimal constant in the
    operator inequality ``S >= A*M``.  It is computed by reducing to the
    range of ``S``: with ``S = V diag(d) V*`` restricted to its numerical
    rank, the gap equals ``1 / lambda_max(D^{-1/2} V* M V D^{-1/2})``.
    Directions outside the range of ``S`` admit no positive ``A`` unless
    ``M`` vanishes there, so a range leak of ``M`` out of ``range(S)``
    yields 0, and a numerically zero ``M`` yields ``+inf`` (the constraint
    is vacuous).

    Raises
    ------
    NotHermitian, NotPsd
        If either input fails its cone membership test.
    """
    _, d, v = _spectrum(s, tol, "loewner_gap S", vectors=True)
    m_sym, m_w, _ = _spectrum(m, tol, "loewner_gap M")
    return _loewner_gap(HermitianEigen(eigenvalues=d, eigenvectors=v), m_sym, m_w, tol)


def _loewner_gap(
    s: HermitianEigen, m_sym: np.ndarray, m_w: np.ndarray, tol: TolerancePolicy
) -> float:
    """:func:`loewner_gap` from the spectrum of ``S`` and the Hermitian ``M``
    with its ascending eigenvalues ``m_w``, so that callers holding them
    decompose nothing twice.  Norms are largest ``|eigenvalue|``."""
    d, v = s.eigenvalues, s.eigenvectors
    if v.shape != m_sym.shape:
        raise DimensionMismatch(f"shape mismatch: S {v.shape} vs M {m_sym.shape}")
    if not _psd(d, tol):
        raise NotPsd("loewner_gap: S is not positive semidefinite")
    if not _psd(m_w, tol):
        raise NotPsd("loewner_gap: M is not positive semidefinite")

    if _negligible(m_w, d, tol):
        return float("inf")
    m_norm = _abs_max(m_w)

    keep = d > tol.rel_rank_cutoff * max(d[-1], 0.0)
    rank = int(np.count_nonzero(keep))
    if rank < d.size:
        v0 = v[:, ~keep]
        leak = _hermitian_norm(v0.conj().T @ m_sym @ v0)
        if leak > tol.residual_tol * max(1.0, m_norm):
            return 0.0
    if rank == 0:
        # S ~ 0 with M supported nowhere detectable: constraint vacuous.
        return float("inf")

    vr = v[:, keep]
    scale = 1.0 / np.sqrt(d[keep])
    g = (vr * scale).conj().T @ m_sym @ (vr * scale)
    g = (g + g.conj().T) / 2.0
    top = float(np.linalg.eigvalsh(g)[-1])
    if top <= 0.0:
        return float("inf")
    return 1.0 / top


def range_inclusion(bm, am, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Decide ``range(B) <= range(A)`` via the orthogonal projector of ``A``.

    True iff ``||(I - A pinv(A)) B|| <= residual_tol * max(1, ||B||)``.
    """
    bm = as_matrix(bm)
    am = as_matrix(am)
    if bm.shape[0] != am.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: B has {bm.shape[0]}, A has {am.shape[0]}"
        )
    projector = am @ pseudo_inverse(am, tol)
    residual = operator_norm(bm - projector @ bm)
    return bool(residual <= tol.residual_tol * max(1.0, operator_norm(bm)))
