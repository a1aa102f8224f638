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

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_matrix,
    is_psd,
    loewner_gap,
    operator_norm,
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
    "pack_blocks",
    "unpack_blocks",
]


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """One operator per atom; ``ops[k]`` has shape (fiber_dim_k, ambient_dim)."""

    space: DiscreteMeasureSpace
    ops: tuple[np.ndarray, ...]
    ambient_dim: int

    def __init__(self, space, ops, ambient_dim) -> None:
        ambient_dim = int(ambient_dim)
        if ambient_dim < 1:
            raise DimensionMismatch(f"ambient_dim must be >= 1, got {ambient_dim}")
        coerced = tuple(as_matrix(op) for op in ops)
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
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "ops", coerced)
        object.__setattr__(self, "ambient_dim", ambient_dim)


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


def frame_operator(fam: OperatorFamily) -> np.ndarray:
    """``S = sum_k weight_k * ops[k]* ops[k]``; Hermitian PSD by construction."""
    n = fam.ambient_dim
    s = np.zeros((n, n), dtype=np.complex128)
    for atom, op in zip(fam.space.atoms, fam.ops):
        s += atom.weight * (op.conj().T @ op)
    return (s + s.conj().T) / 2.0


def _stacked_frame_operator(rows: np.ndarray, row_weights: np.ndarray) -> np.ndarray:
    """``S`` from the operators stacked in atom order, ``(total fiber dim, n)``.

    ``row_weights`` repeats each atom's weight over its rows.  One product
    instead of one per atom, so it may differ from :func:`frame_operator` in
    the last bits.
    """
    s = (rows.conj().T * row_weights) @ rows
    return (s + s.conj().T) / 2.0


def synthesis_matrix(fam: OperatorFamily) -> np.ndarray:
    """Matrix of the synthesis operator on weight-packed coefficients.

    Block column k is ``sqrt(weight_k) * ops[k]*``, so that
    ``T @ T* == frame_operator(fam)`` as a matrix identity.
    """
    n = fam.ambient_dim
    blocks = [
        math.sqrt(atom.weight) * op.conj().T
        for atom, op in zip(fam.space.atoms, fam.ops)
    ]
    if not blocks:
        return np.zeros((n, 0), dtype=np.complex128)
    return np.hstack(blocks)


def pack_blocks(coeffs: BlockVector, space: DiscreteMeasureSpace) -> np.ndarray:
    """Isometry onto plain Euclidean coordinates: block k scaled by sqrt(weight_k)."""
    _require_conforming(coeffs, space, "pack_blocks")
    parts = [
        math.sqrt(atom.weight) * block
        for atom, block in zip(space.atoms, coeffs.blocks)
    ]
    if not parts:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(parts)


def unpack_blocks(packed: np.ndarray, space: DiscreteMeasureSpace) -> BlockVector:
    """Inverse of :func:`pack_blocks`."""
    packed = np.asarray(packed, dtype=np.complex128).reshape(-1)
    if packed.size != space.total_fiber_dim:
        raise DimensionMismatch(
            f"packed length {packed.size}, expected {space.total_fiber_dim}"
        )
    blocks = []
    offset = 0
    for atom in space.atoms:
        blocks.append(packed[offset : offset + atom.fiber_dim] / math.sqrt(atom.weight))
        offset += atom.fiber_dim
    return BlockVector(tuple(blocks))


def _check_reference(fam: OperatorFamily, k) -> np.ndarray:
    k = as_matrix(k)
    if k.shape[0] != fam.ambient_dim:
        raise DimensionMismatch(
            f"reference operator has {k.shape[0]} rows, ambient dim is {fam.ambient_dim}"
        )
    return k


def optimal_bounds(fam: OperatorFamily, k, tol: TolerancePolicy = DEFAULT_TOL) -> FrameBounds:
    """Extremal constants in ``A ||K* f||^2 <= int ||Lam f||^2 dmu <= B ||f||^2``.

    The upper constant is ``lambda_max(S)``; the lower is the Loewner gap of
    ``S`` against ``K K*`` (``+inf`` when K is numerically zero, 0 when the
    family misses part of the range of K).
    """
    k = _check_reference(fam, k)
    s = frame_operator(fam)
    upper = float(np.linalg.eigvalsh(s)[-1]) if s.size else 0.0
    upper = max(upper, 0.0)
    lower = loewner_gap(s, k @ k.conj().T, tol)
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
    """
    if not claimed.upper < float("inf"):
        raise ValueError("claimed upper bound must be finite")
    if k is not None and not claimed.lower > 0:
        raise ValueError("claimed lower bound must be positive")
    if k is not None and claimed.lower > claimed.upper:
        raise ValueError("claimed lower bound exceeds claimed upper bound")

    diagnostics: list[str] = []
    s = frame_operator(fam)
    top = float(np.linalg.eigvalsh(s)[-1]) if s.size else 0.0
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

    k = _check_reference(fam, k)
    kk = k @ k.conj().T
    frame = bessel and is_psd(s - claimed.lower * kk, tol)

    gap = loewner_gap(s, kk, tol)
    if math.isinf(gap):
        diagnostics.append(
            "reference operator is numerically zero: lower bound is vacuous (+inf)"
        )
        tight = False
    else:
        diagnostics.append(f"optimal lower constant (Loewner gap) = {gap!r}")
        saturation = operator_norm(s - gap * kk)
        tight = frame and saturation <= tol.residual_tol * max(1.0, operator_norm(s))
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
    return range_inclusion(k, synthesis_matrix(fam), tol)


def scale_family(fam: OperatorFamily, factor: complex) -> OperatorFamily:
    """Multiply every operator of the family by a scalar."""
    return OperatorFamily(
        space=fam.space,
        ops=tuple(factor * op for op in fam.ops),
        ambient_dim=fam.ambient_dim,
    )


def refine_family(fam: OperatorFamily, parts: int) -> OperatorFamily:
    """Split every atom into equal-weight sub-atoms carrying the same operator.

    Leaves analysis energies, the frame operator, and all bounds unchanged.
    """
    from .measure import refine_space

    refined = refine_space(fam.space, parts)
    ops = tuple(op for op in fam.ops for _ in range(parts))
    return OperatorFamily(space=refined, ops=ops, ambient_dim=fam.ambient_dim)
