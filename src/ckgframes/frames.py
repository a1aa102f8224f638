"""Operator families over a measure space and their frame machinery.

An :class:`OperatorFamily` assigns one operator per atom, mapping the
ambient space into that atom's fiber.  This module builds the analysis,
synthesis, and frame operators, computes the optimal frame constants
against a reference operator K, and classifies families (Bessel, frame,
tight, Parseval).

Per-atom contributions are always reduced in canonical atom order, so
every result is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    HermitianEigen,
    TolerancePolicy,
    _abs_max,
    _Decomposed,
    _hermitian_norm,
    _loewner_gap,
    _negligible,
    _read_only,
    _spectrum,
    as_matrix,
    is_psd,
    range_inclusion,
)
from .measure import BlockVector, DiscreteMeasureSpace, _require_conforming

__all__ = [
    "OperatorFamily",
    "FrameBounds",
    "FrameReport",
    "analysis",
    "synthesis",
    "frame_operator",
    "synthesis_matrix",
    "optimal_bounds",
    "verify_frame",
    "check_synthesis_range",
    "scale_family",
    "refine_family",
]


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """One operator per atom; ``ops[k]`` has shape (fiber_dim_k, ambient_dim).

    The family caches ``S`` and its spectrum on first use, so ``ops[k]`` is
    a read-only view of the input; writing into the caller's array later is
    undefined.
    """

    space: DiscreteMeasureSpace
    ops: tuple[np.ndarray, ...]
    ambient_dim: int

    def __init__(self, space, ops, ambient_dim) -> None:
        ambient_dim = _ambient(ambient_dim)
        coerced = tuple(_read_only(as_matrix(op)) for op in ops)
        if len(coerced) != len(space.atoms):
            raise DimensionMismatch(
                f"{len(coerced)} operators for {len(space.atoms)} atoms"
            )
        for op, atom in zip(coerced, space.atoms):
            if op.shape != (atom.fiber_dim, ambient_dim):
                raise DimensionMismatch(
                    f"operator for atom {atom.atom_id!r} has shape {op.shape}, "
                    f"expected ({atom.fiber_dim}, {ambient_dim})"
                )
        self._assign(space, coerced, ambient_dim)

    def _assign(self, space, ops: tuple[np.ndarray, ...], ambient_dim: int) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "ambient_dim", ambient_dim)

    @classmethod
    def _from_views(cls, space, ops: tuple[np.ndarray, ...], ambient_dim: int) -> "OperatorFamily":
        """A family of already checked read-only ops, taken as they are."""
        fam = cls.__new__(cls)
        fam._assign(space, ops, ambient_dim)
        return fam

    @classmethod
    def from_rows(cls, space, rows, ambient_dim, starts=None) -> "OperatorFamily":
        """Family whose atom k carries ``rows[starts[k] : starts[k] + fiber_dim_k]``.

        The stacked ``(R, ambient_dim)`` array is checked once (one coercion,
        one finite test) and every op is a read-only view of it, so atoms
        with the same start share their rows.  Without ``starts`` the blocks
        follow one another in atom order and must use every row.
        """
        ambient_dim = _ambient(ambient_dim)
        rows = _read_only(as_matrix(rows))
        if rows.shape[1] != ambient_dim:
            raise DimensionMismatch(
                f"rows have shape {rows.shape}, expected (any, {ambient_dim})"
            )
        dims = np.array(space.fiber_dims, dtype=np.intp)
        if starts is None:
            if rows.shape[0] != int(dims.sum()):
                raise DimensionMismatch(
                    f"{rows.shape[0]} rows for a total fiber dim of {int(dims.sum())}"
                )
            starts = np.cumsum(dims) - dims
        else:
            starts = np.asarray(starts)
            if starts.shape != dims.shape or (starts.size and starts.dtype.kind not in "iu"):
                raise DimensionMismatch(
                    f"starts must be {dims.size} integers, one per atom, "
                    f"got shape {starts.shape} of {starts.dtype}"
                )
            # uint64 plus intp would be float64; a start past intp wraps
            # negative and is rejected below
            starts = starts.astype(np.intp)
        ends = starts + dims
        outside = np.flatnonzero((starts < 0) | (ends > rows.shape[0]))
        if outside.size:
            k = int(outside[0])
            raise DimensionMismatch(
                f"atom {space.atoms[k].atom_id!r} starts at row {int(starts[k])} and needs "
                f"{int(dims[k])} rows, but there are {rows.shape[0]}"
            )
        ops = tuple(rows[a:b] for a, b in zip(starts.tolist(), ends.tolist()))
        return cls._from_views(space, ops, ambient_dim)

    @cached_property
    def _frame(self) -> tuple[np.ndarray, HermitianEigen]:
        """Read-only ``S`` and its ``eigh``, built on first use.  Tolerance-free:
        ``S`` is exactly Hermitian, so ``_spectrum`` never reads ``tol``."""
        s = _read_only(frame_operator(self))
        _, w, v = _spectrum(s, DEFAULT_TOL, "frame operator", vectors=True)
        return s, HermitianEigen(eigenvalues=_read_only(w), eigenvectors=_read_only(v))


def _ambient(ambient_dim) -> int:
    ambient_dim = int(ambient_dim)
    if ambient_dim < 1:
        raise DimensionMismatch(f"ambient_dim must be >= 1, got {ambient_dim}")
    return ambient_dim


@dataclass(frozen=True)
class FrameBounds:
    """Lower/upper frame constants; ``lower`` may be ``+inf`` (vacuous K)."""

    lower: float
    upper: float


@dataclass(frozen=True)
class FrameReport:
    """Classification flags form a chain: parseval => tight => frame => bessel."""

    bounds: FrameBounds
    is_bessel: bool
    is_ckg_frame: bool
    is_tight: bool
    is_parseval: bool
    diagnostics: tuple[str, ...]


def _as_vector(f, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(f, dtype=np.complex128).reshape(-1)
    if arr.size != dim:
        raise DimensionMismatch(f"{what}: vector length {arr.size}, expected {dim}")
    return arr


def analysis(fam: OperatorFamily, f) -> BlockVector:
    """Coefficient field of ``f``: block k is ``ops[k] @ f`` (unweighted)."""
    vec = _as_vector(f, fam.ambient_dim, "analysis")
    return BlockVector(tuple(op @ vec for op in fam.ops))


def synthesis(fam: OperatorFamily, coeffs: BlockVector) -> np.ndarray:
    """Adjoint of analysis w.r.t. the weighted inner product.

    Returns ``sum_k weight_k * ops[k]* @ F_k``.
    """
    _require_conforming(coeffs, fam.space, "synthesis")
    out = np.zeros(fam.ambient_dim, dtype=np.complex128)
    for atom, op, block in zip(fam.space.atoms, fam.ops, coeffs.blocks):
        out += atom.weight * (op.conj().T @ block)
    return out


# frame_operator forms the products ``op* op`` of a batch of atoms at once, as
# many as fit in _BATCH_BYTES.  A batch of fewer than _MIN_BATCH atoms costs
# more in numpy calls than it saves, so such atoms, and every atom once
# n > 32, run the plain loop body.
_BATCH_BYTES = 128 * 1024
_MIN_BATCH = 8


def _runs(space: DiscreteMeasureSpace, limit: int):
    """Atom ranges ``[a, b)`` in atom order, each of one fiber dim and at
    most ``limit`` atoms long."""
    dims = np.asarray(space.fiber_dims)
    edges = [0, *(np.flatnonzero(np.diff(dims)) + 1).tolist(), dims.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        for a in range(lo, hi, limit):
            yield a, min(a + limit, hi)


def frame_operator(fam: OperatorFamily) -> np.ndarray:
    """``S = sum_k weight_k * ops[k]* ops[k]``; Hermitian PSD by construction.

    The terms are added in atom order, a batch of atoms at a time, so ``S``
    is bitwise the result of the plain per-atom loop.  A fresh writable
    array; decisions read the family's cached copy instead.
    """
    n = fam.ambient_dim
    s = np.zeros((n, n), dtype=np.complex128)
    atoms, weights, ops = fam.space.atoms, fam.space.weights, fam.ops
    batch = _BATCH_BYTES // (16 * n * n)
    # below _MIN_BATCH no batch forms, and each run is looped whole
    limit = batch if batch >= _MIN_BATCH else max(1, len(ops))
    for a, b in _runs(fam.space, limit):
        if not _MIN_BATCH <= b - a <= batch:
            for atom, op in zip(atoms[a:b], ops[a:b]):
                s += atom.weight * (op.conj().T @ op)
            continue
        block = np.concatenate(ops[a:b]).reshape(b - a, ops[a].shape[0], n)
        p = np.matmul(block.conj().transpose(0, 2, 1), block)
        np.multiply(weights[a:b, np.newaxis, np.newaxis], p, out=p)
        p[0] += s
        # Complex addition is componentwise.  On the float view the atom axis
        # is never the innermost one (not even for n = 1), so numpy sums it
        # term by term in atom order instead of pairwise.
        s = p.view(np.float64).sum(axis=0).view(np.complex128)
    return (s + s.conj().T) / 2.0


def _times(fam: OperatorFamily, m: np.ndarray) -> np.ndarray:
    """Stacked rows of ``ops[k] @ m`` in atom order, formed op by op."""
    out = np.empty((sum(fam.space.fiber_dims), m.shape[1]), dtype=np.complex128)
    for op, block in zip(fam.ops, _split_rows(out, fam.space)):
        np.matmul(op, m, out=block)
    return out


def _rows(fam: OperatorFamily) -> np.ndarray:
    """All operators of the family stacked in atom order: (total fiber dim, n)."""
    if not fam.ops:
        return np.zeros((0, fam.ambient_dim), dtype=np.complex128)
    return np.vstack(fam.ops)


def _row_weights(space: DiscreteMeasureSpace) -> np.ndarray:
    """Each atom's weight repeated over its fiber rows, matching :func:`_rows`."""
    return np.repeat(space.weights, space.fiber_dims)


def _split_rows(rows: np.ndarray, space: DiscreteMeasureSpace) -> tuple[np.ndarray, ...]:
    """Inverse of :func:`_rows`: one block of rows per atom of ``space``."""
    if not space.atoms:
        return ()
    return tuple(np.split(rows, np.cumsum(space.fiber_dims)[:-1]))


def synthesis_matrix(fam: OperatorFamily) -> np.ndarray:
    """Matrix of the synthesis operator on weight-packed coefficients.

    Block column k is ``sqrt(weight_k) * ops[k]*``, so that
    ``T @ T* == frame_operator(fam)`` as a matrix identity.
    """
    # scaled in place: at most two n x N arrays are alive at once
    t = np.conjugate(_rows(fam).T, order="C")
    t *= np.sqrt(_row_weights(fam.space))
    return t


def _check_reference(fam: OperatorFamily, k, square: bool = False) -> _Decomposed:
    """The record of ``k`` (``k`` itself if it is one); its matrix must have
    one row per ambient coordinate, and one column too if ``square``."""
    k = k if isinstance(k, _Decomposed) else _Decomposed(k)
    n, shape = fam.ambient_dim, k.matrix.shape
    if shape[0] != n or (square and shape[1] != n):
        want = f"({n}, {n})" if square else f"({n}, any)"
        raise DimensionMismatch(f"reference operator must have shape {want}, got {shape}")
    return k


def _lower_cap(upper: float, kk_w: np.ndarray) -> float:
    """Largest lower constant consistent with ``upper``: ``A ||K||^2 <= B``.

    ``kk_w`` are the record's ascending eigenvalues of ``K K*`` (``gram_w``).
    """
    k_norm_sq = float(kk_w[-1])
    return upper / k_norm_sq if k_norm_sq > 0.0 else float("inf")


def optimal_bounds(fam: OperatorFamily, k, tol: TolerancePolicy = DEFAULT_TOL) -> FrameBounds:
    """Extremal constants in ``A ||K* f||^2 <= int ||Lam f||^2 dmu <= B ||f||^2``.

    The upper constant is ``lambda_max(S)``; the lower is the Loewner gap of
    ``S`` against ``K K*`` (``+inf`` when K is numerically zero, 0 when the
    family misses part of the range of K).  A finite lower constant is
    capped at ``upper / ||K||^2``, the most that ``A ||K||^2 <= B`` allows,
    so that roundoff cannot produce a pair :func:`verify_frame` rejects.
    Both constants come from the family's one eigendecomposition of ``S``.
    """
    k = _check_reference(fam, k)
    _, s = fam._frame
    upper = max(float(s.eigenvalues[-1]), 0.0)
    lower = _loewner_gap(s, k.gram, k.gram_w, tol)
    if not math.isinf(lower):
        lower = min(lower, _lower_cap(upper, k.gram_w))
    return FrameBounds(lower=lower, upper=upper)


def verify_frame(
    fam: OperatorFamily,
    k,
    claimed: FrameBounds,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> FrameReport:
    """Check claimed constants and classify the family.

    With ``k=None`` only the Bessel (upper) inequality is verified and the
    frame/tight/Parseval flags stay false.  Otherwise:

    * bessel:   ``lambda_max(S) <= claimed.upper`` (plus PSD slack),
    * frame:    additionally ``S - claimed.lower * K K*`` is PSD,
    * tight:    additionally ``S == A* K K*`` for the gap-saturating ``A*``,
    * parseval: tight with ``A* == 1``.

    The flags are conjunctive by construction, so the chain
    parseval => tight => frame => bessel always holds in the report.
    A claim whose upper constant is infinite raises ``ValueError``, and so
    does, when K is given, a lower constant outside
    ``(0, upper / ||K||^2]``.  The one exception is the vacuous claim
    ``lower = +inf`` against a numerically zero ``K K*`` (the Loewner gap's
    own test), which :func:`optimal_bounds` returns there: it is accepted
    with ``frame = bessel``.
    """
    if not claimed.upper < float("inf"):
        raise ValueError("claimed upper bound must be finite")
    if k is not None:
        k = _check_reference(fam, k)
        vacuous = claimed.lower == float("inf") and _negligible(
            k.gram_w, fam._frame[1].eigenvalues, tol
        )
        if not (0 < claimed.lower < float("inf") or vacuous):
            raise ValueError("claimed lower bound must be positive and finite")
        if not vacuous and claimed.lower > _lower_cap(claimed.upper, k.gram_w):
            raise ValueError("claimed lower bound exceeds claimed upper bound / ||K||^2")

    diagnostics: list[str] = []
    # the family's one decomposition of S serves every test below
    s, spectrum = fam._frame
    w = spectrum.eigenvalues
    top = float(w[-1])
    slack = tol.psd_slack * max(1.0, claimed.upper)
    bessel = top <= claimed.upper + slack
    diagnostics.append(f"optimal Bessel constant lambda_max(S) = {top!r}")

    if k is None:
        diagnostics.append("no reference operator supplied: Bessel-only verification")
        return FrameReport(
            bounds=claimed,
            is_bessel=bessel,
            is_ckg_frame=False,
            is_tight=False,
            is_parseval=False,
            diagnostics=tuple(diagnostics),
        )

    # a vacuous claim forms no S - inf K K*
    frame = bessel and (vacuous or is_psd(s - claimed.lower * k.gram, tol))

    gap = _loewner_gap(spectrum, k.gram, k.gram_w, tol)
    if math.isinf(gap):
        diagnostics.append(
            "reference operator is numerically zero: lower bound is vacuous (+inf)"
        )
        tight = False
    else:
        diagnostics.append(f"optimal lower constant (Loewner gap) = {gap!r}")
        saturation = _hermitian_norm(s - gap * k.gram)
        tight = frame and saturation <= tol.residual_tol * max(1.0, _abs_max(w))
    parseval = tight and abs(gap - 1.0) <= tol.residual_tol

    return FrameReport(
        bounds=claimed,
        is_bessel=bessel,
        is_ckg_frame=frame,
        is_tight=tight,
        is_parseval=parseval,
        diagnostics=tuple(diagnostics),
    )


def check_synthesis_range(fam: OperatorFamily, k, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Range test ``range(K) <= range(T)``; equivalent to the frame property."""
    k = _check_reference(fam, k)
    return range_inclusion(k.matrix, synthesis_matrix(fam), tol)


def scale_family(fam: OperatorFamily, factor: complex) -> OperatorFamily:
    """Multiply every operator of the family by a scalar."""
    # numpy's elementwise loops can round a product differently by its place in
    # the array, so each block is scaled alone, as the per-atom product would be
    rows = np.vstack([factor * op for op in fam.ops]) if fam.ops else _rows(fam)
    return OperatorFamily.from_rows(fam.space, rows, fam.ambient_dim)


def refine_family(fam: OperatorFamily, parts: int) -> OperatorFamily:
    """Split every atom into equal-weight sub-atoms carrying the same operator.

    Leaves analysis energies, the frame operator, and all bounds unchanged.
    The sub-atoms share the parent's checked, read-only ops: nothing is
    copied or checked again.
    """
    from .measure import refine_space

    refined = refine_space(fam.space, parts)
    ops = tuple(op for op in fam.ops for _ in range(parts))
    return OperatorFamily._from_views(refined, ops, fam.ambient_dim)
