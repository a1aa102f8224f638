"""Finite weighted measure spaces and their direct-sum coefficient space.

A measure space is a finite ordered list of atoms, each carrying a positive
weight and a fiber dimension.  Coefficient fields over the space are
:class:`BlockVector` values: one complex vector per atom.  The weighted
l2 inner product is linear in its first argument and conjugate-linear in
the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Atom",
    "DiscreteMeasureSpace",
    "BlockVector",
    "l2_inner",
    "l2_norm",
    "validate",
    "refine_space",
]


@dataclass(frozen=True)
class Atom:
    """One atom: opaque id, positive weight, fiber dimension, optional cell tag."""

    atom_id: str
    weight: float
    fiber_dim: int
    partition: str | None = None


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Ordered atom list; the order is part of the space's identity."""

    atoms: tuple[Atom, ...]

    def __init__(self, atoms) -> None:
        object.__setattr__(self, "atoms", tuple(atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    # Built on first use and kept with the space, which is immutable; the
    # cache is no dataclass field, so equality and hashing ignore it.
    @cached_property
    def weights(self) -> np.ndarray:
        """Atom weights in atom order, read-only."""
        weights = np.array([a.weight for a in self.atoms], dtype=float)
        weights.setflags(write=False)
        return weights

    @cached_property
    def fiber_dims(self) -> tuple[int, ...]:
        return tuple(a.fiber_dim for a in self.atoms)

    def partition_measure(self, label: str) -> float:
        """Measure of the cell with the given tag (sum of its atoms' weights)."""
        return float(sum(a.weight for a in self.atoms if a.partition == label))


@dataclass(frozen=True, eq=False)
class BlockVector:
    """Element of the weighted direct sum: one complex vector per atom."""

    blocks: tuple[np.ndarray, ...]

    def __init__(self, blocks) -> None:
        coerced = []
        for k, b in enumerate(blocks):
            arr = np.asarray(b, dtype=np.complex128).reshape(-1)
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"block {k} has non-finite entries")
            coerced.append(arr)
        object.__setattr__(self, "blocks", tuple(coerced))

    @classmethod
    def zeros(cls, space: DiscreteMeasureSpace) -> "BlockVector":
        return cls(tuple(np.zeros(d, dtype=np.complex128) for d in space.fiber_dims))

    def conforms(self, space: DiscreteMeasureSpace) -> bool:
        return len(self.blocks) == len(space.atoms) and all(
            b.size == a.fiber_dim for b, a in zip(self.blocks, space.atoms)
        )


def _require_conforming(vec: BlockVector, space: DiscreteMeasureSpace, what: str) -> None:
    if not vec.conforms(space):
        raise DimensionMismatch(
            f"{what}: block layout {[b.size for b in vec.blocks]} does not match "
            f"fiber dims {list(space.fiber_dims)}"
        )


def l2_inner(f: BlockVector, g: BlockVector, space: DiscreteMeasureSpace) -> complex:
    """Weighted inner product: sum_k weight_k * <F_k, G_k>.

    Fiber inner products are linear in ``f`` and conjugate-linear in ``g``.
    The per-atom terms are combined with a correctly rounded sum, so the
    result is deterministic and equal-weight atom splits cannot perturb it.
    """
    _require_conforming(f, space, "l2_inner first argument")
    _require_conforming(g, space, "l2_inner second argument")
    terms = [
        atom.weight * complex(np.vdot(gb, fb))
        for atom, fb, gb in zip(space.atoms, f.blocks, g.blocks)
    ]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def l2_norm(f: BlockVector, space: DiscreteMeasureSpace) -> float:
    """Norm induced by :func:`l2_inner`; always real and nonnegative."""
    value = l2_inner(f, f, space).real
    return float(np.sqrt(max(value, 0.0)))


def validate(space: DiscreteMeasureSpace) -> list[str]:
    """Report structural violations without raising.

    Checks weight positivity, atom-id uniqueness, and nonzero fiber dims.
    An empty list means the space is well formed.
    """
    diagnostics: list[str] = []
    seen: set[str] = set()
    for k, atom in enumerate(space.atoms):
        if not atom.weight > 0:
            diagnostics.append(f"atom {k} ({atom.atom_id!r}): weight {atom.weight} is not positive")
        if atom.fiber_dim < 1:
            diagnostics.append(f"atom {k} ({atom.atom_id!r}): fiber_dim {atom.fiber_dim} is zero")
        if atom.atom_id in seen:
            diagnostics.append(f"atom {k}: duplicate atom_id {atom.atom_id!r}")
        seen.add(atom.atom_id)
    return diagnostics


def refine_space(space: DiscreteMeasureSpace, parts: int) -> DiscreteMeasureSpace:
    """Split every atom into ``parts`` equal-weight sub-atoms.

    Refinement preserves all integrals: each sub-atom keeps the parent's
    fiber dimension and partition tag and carries ``weight / parts``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    atoms = []
    for atom in space.atoms:
        for j in range(parts):
            atoms.append(
                Atom(
                    atom_id=f"{atom.atom_id}/{j}",
                    weight=atom.weight / parts,
                    fiber_dim=atom.fiber_dim,
                    partition=atom.partition,
                )
            )
    return DiscreteMeasureSpace(atoms)
