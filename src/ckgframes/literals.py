"""Literal (JSON-friendly) encodings shared by config files and reports.

A matrix literal is a list of rows, each entry a 2-element list ``[re, im]``.
A space literal is a list of ``{"id", "weight", "fiber_dim"}`` objects.
A family literal is ``{"ambient_dim", "space", "ops"}``.
Infinite bounds are encoded as the string ``"inf"`` (strict JSON has no
Infinity literal).  Literals read from a config follow the JSON-number rule of
the rest of the config: entries, weights and dimensions must be JSON numbers,
and booleans and numeric strings raise :class:`InvalidConfig`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .frames import FrameBounds, FrameReport, OperatorFamily, _rows
from .linalg import as_matrix
from .measure import Atom, DiscreteMeasureSpace, validate

__all__ = [
    "matrix_to_literal",
    "matrix_from_literal",
    "space_to_literal",
    "space_from_literal",
    "family_to_literal",
    "family_from_literal",
    "bound_to_literal",
    "bounds_to_literal",
    "report_to_literal",
]


def _real(value, what: str) -> float:
    """A JSON number as float; booleans, strings and anything else raise InvalidConfig."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise InvalidConfig(f"{what} must be a number, got {value!r}")


def _integer(value, what: str) -> int:
    """An integral number as int; bools, strings and fractions raise InvalidConfig."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise InvalidConfig(f"{what} must be an integer, got {value!r}")


def _pairs(m: np.ndarray) -> list:
    """``[re, im]`` pairs over the last axis of ``m``; ``tolist`` yields the
    same Python floats as ``float(entry.real)``, ``-0.0`` included."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_to_literal(m) -> list[list[list[float]]]:
    return _pairs(as_matrix(m))


def matrix_from_literal(literal) -> np.ndarray:
    if not isinstance(literal, list) or not literal:
        raise InvalidConfig("matrix literal must be a non-empty list of rows")
    width = None
    for row in literal:
        if not isinstance(row, list):
            raise InvalidConfig("matrix literal rows must be lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InvalidConfig("matrix literal rows have unequal lengths")
        for entry in row:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise InvalidConfig("matrix entries must be [re, im] pairs")
            for value in entry:
                # JSON gives float or int; only other types take _real's slower test
                if type(value) not in (float, int):
                    _real(value, "matrix literal entry")
    try:
        return as_matrix([[complex(float(re), float(im)) for re, im in row] for row in literal])
    except (TypeError, ValueError) as bad:
        raise InvalidConfig(f"matrix literal entries must be finite numbers: {bad}") from None


def space_to_literal(space: DiscreteMeasureSpace) -> list[dict]:
    literal = []
    for atom in space.atoms:
        item = {
            "id": atom.atom_id,
            "weight": float(atom.weight),
            "fiber_dim": int(atom.fiber_dim),
        }
        if atom.partition is not None:
            item["partition"] = atom.partition
        literal.append(item)
    return literal


def space_from_literal(literal) -> DiscreteMeasureSpace:
    if not isinstance(literal, list):
        raise InvalidConfig("space literal must be a list of atom objects")
    atoms = []
    for item in literal:
        if not isinstance(item, dict):
            raise InvalidConfig("space literal entries must be objects")
        try:
            atoms.append(
                Atom(
                    atom_id=str(item["id"]),
                    weight=_real(item["weight"], 'atom "weight"'),
                    fiber_dim=_integer(item["fiber_dim"], 'atom "fiber_dim"'),
                    partition=item.get("partition"),
                )
            )
        except KeyError as missing:
            raise InvalidConfig(f"atom object missing key {missing}") from None
        except (TypeError, ValueError) as bad:
            raise InvalidConfig(f"malformed atom object {item!r}: {bad}") from None
    return DiscreteMeasureSpace(atoms)


def family_to_literal(fam: OperatorFamily) -> dict:
    """The family's ops were validated when it was built, so they are encoded
    as one stacked array and split at the fiber offsets."""
    rows = _pairs(_rows(fam))
    ends = np.cumsum(fam.space.fiber_dims, dtype=int).tolist()
    starts = [0] + ends[:-1]
    return {
        "ambient_dim": int(fam.ambient_dim),
        "space": space_to_literal(fam.space),
        "ops": [rows[start:end] for start, end in zip(starts, ends)],
    }


def family_from_literal(literal) -> OperatorFamily:
    if not isinstance(literal, dict):
        raise InvalidConfig("family literal must be an object")
    for key in ("ambient_dim", "space", "ops"):
        if key not in literal:
            raise InvalidConfig(f"family literal missing key {key!r}")
    space = space_from_literal(literal["space"])
    problems = validate(space)
    if problems:
        raise InvalidConfig(f"family literal: {problems[0]}")
    if not isinstance(literal["ops"], list):
        raise InvalidConfig('family literal "ops" must be a list of matrix literals')
    ops = [matrix_from_literal(op) for op in literal["ops"]]
    try:
        ambient_dim = _integer(literal["ambient_dim"], 'family literal "ambient_dim"')
        return OperatorFamily(space=space, ops=ops, ambient_dim=ambient_dim)
    except (TypeError, ValueError, DimensionMismatch) as bad:
        raise InvalidConfig(f"malformed family literal: {bad}") from None


def bound_to_literal(value: float):
    if math.isinf(value):
        return "inf"
    return float(value)


def bounds_to_literal(bounds: FrameBounds) -> dict:
    return {"lower": bound_to_literal(bounds.lower), "upper": bound_to_literal(bounds.upper)}


def report_to_literal(report: FrameReport) -> dict:
    return {
        "bounds": bounds_to_literal(report.bounds),
        "is_bessel": report.is_bessel,
        "is_ckg_frame": report.is_ckg_frame,
        "is_tight": report.is_tight,
        "is_parseval": report.is_parseval,
        "diagnostics": list(report.diagnostics),
    }
