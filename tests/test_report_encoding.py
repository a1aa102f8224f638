"""Report layout of the CLI writer and the literal encoders it serializes.

The writer puts each dict entry on a line of its own and every other value
on one line; its output must parse to the same object as the fully indented
``json.dumps``.  The literal encoders must produce the same Python floats as
the per-entry formula ``[float(entry.real), float(entry.imag)]``.
"""

import json
import re
import struct

import numpy as np
import pytest
from conftest import complex_randn

from ckgframes.cli import _emit
from ckgframes.frames import OperatorFamily, scale_family
from ckgframes.linalg import as_matrix
from ckgframes.literals import family_from_literal, family_to_literal, matrix_to_literal
from ckgframes.measure import Atom, DiscreteMeasureSpace
from ckgframes.scenarios import REQUEST_KINDS, run_config

ZERO_K = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
EXPLICIT_FAMILY = {
    "ambient_dim": 2,
    "space": [
        {"id": "a", "weight": 1.0, "fiber_dim": 1},
        {"id": "b", "weight": 0.5, "fiber_dim": 2, "partition": "cell1"},
    ],
    "ops": [
        [[[1.0, 0.0], [0.0, -0.0]]],
        [[[0.0, 0.0], [1.0, 0.5]], [[-0.0, 0.0], [2.0, -1.0]]],
    ],
}

CONFIGS = {
    "every_request": {
        "scenario": {"kind": "random", "dim": 3, "n_atoms": 5, "fiber_dims": [1, 2, 1, 3, 1], "seed": 4},
        "requests": list(REQUEST_KINDS),
        "claimed": [0.01, 100.0],
        "perturb": {"delta": 0.05},
        "refine": {"values": [2, 3]},
        "samples": 8,
        "seed": 2,
    },
    "errors_and_inf_bound": {
        "scenario": {"kind": "random", "dim": 2, "n_atoms": 4, "seed": 1, "K": ZERO_K},
        "requests": ["bounds", "verify", "dual"],
    },
    "refine_rows": {
        "scenario": {"kind": "continuous_fourier", "dim": 2, "n_atoms": 8},
        "requests": ["refine"],
        "refine": {"values": [4, 8, 16]},
    },
    "bessel_only": {
        "scenario": {"kind": "paper_example", "m": 2},
        "requests": ["verify"],
        "claimed": [0.5, 4.0],
        "bessel_only": True,
    },
    "explicit_family": {
        "scenario": {"kind": "explicit", "family": EXPLICIT_FAMILY},
        "requests": ["bounds", "dual"],
        "tolerances": {},
    },
}

WALL_CLOCK_LINE = re.compile(r'^ *"wall_clock_seconds": [-+.0-9eE]+,?$')


def emitted(report, path) -> str:
    _emit(report, str(path))
    return path.read_text()


def assert_sorted_keys(text):
    def check(pairs):
        keys = [key for key, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    json.loads(text, object_pairs_hook=check)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_emitted_report_contract(tmp_path, name):
    report = run_config(CONFIGS[name])
    text = emitted(report, tmp_path / "a.json")
    assert json.loads(text) == json.loads(json.dumps(report, indent=2, sort_keys=True))
    assert emitted(report, tmp_path / "b.json") == text
    clock_lines = [line for line in text.splitlines() if "wall_clock_seconds" in line]
    assert len(clock_lines) == 1 and WALL_CLOCK_LINE.match(clock_lines[0])
    assert_sorted_keys(text)


def test_report_cases_are_covered():
    reports = {name: run_config(cfg) for name, cfg in CONFIGS.items()}
    assert set(reports["every_request"]["results"]) == set(REQUEST_KINDS)
    assert reports["errors_and_inf_bound"]["errors"]
    assert reports["errors_and_inf_bound"]["results"]["bounds"]["lower"] == "inf"
    assert len(reports["refine_rows"]["results"]["refine"]) == 3
    assert reports["bessel_only"]["results"]["verify"]["is_bessel"] is True
    assert not reports["explicit_family"]["errors"]


def test_dicts_indent_and_everything_else_is_one_line(tmp_path):
    report = run_config(CONFIGS["explicit_family"])
    lines = emitted(report, tmp_path / "r.json").splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert '  "errors": {},' in lines
    assert '    "tolerances": {}' in lines
    family_line = next(line for line in lines if line.startswith('        "ops": '))
    assert json.loads(family_line.split(": ", 1)[1].rstrip(",")) == EXPLICIT_FAMILY["ops"]
    assert '    "bounds": {' in lines


def test_empty_report_values(tmp_path):
    assert emitted({}, tmp_path / "empty.json") == "{}\n"
    assert emitted({"b": [], "a": {}}, tmp_path / "r.json") == '{\n  "a": {},\n  "b": []\n}\n'


def old_matrix_literal(m):
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in as_matrix(m)]


def float_bits(literal):
    """The nested lists with every float replaced by its IEEE-754 bytes."""
    if isinstance(literal, list):
        return [float_bits(item) for item in literal]
    assert type(literal) is float
    return struct.pack("<d", literal)


def mixed_family():
    rng = np.random.default_rng(707)
    dims, weights = (1, 3, 2), (0.25, 1.0, 3.5)
    space = DiscreteMeasureSpace(
        Atom(atom_id=f"a{k}", weight=w, fiber_dim=d) for k, (w, d) in enumerate(zip(weights, dims))
    )
    ops = [complex_randn(rng, d, 4) for d in dims]
    ops[1][0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    for op in ops:
        op.setflags(write=False)
    return OperatorFamily(space=space, ops=ops, ambient_dim=4)


def test_matrix_literal_matches_per_entry_formula():
    rng = np.random.default_rng(708)
    m = complex_randn(rng, 3, 5)
    m[1, 2] = complex(-0.0, -0.0)
    m.setflags(write=False)
    for matrix in (m, m.real, -m, [[1, -0.0], [2.5, 3]]):
        assert float_bits(matrix_to_literal(matrix)) == float_bits(old_matrix_literal(matrix))


def test_family_literal_matches_per_op_formula():
    fam = mixed_family()
    for family in (fam, scale_family(fam, -0.6 + 0.8j)):
        literal = family_to_literal(family)
        assert float_bits(literal["ops"]) == float_bits([old_matrix_literal(op) for op in family.ops])
        assert [len(op) for op in literal["ops"]] == [1, 3, 2]
        back = family_from_literal(literal)
        assert back.space == family.space
        assert [(op.shape, op.tobytes()) for op in back.ops] == [
            (op.shape, op.tobytes()) for op in family.ops
        ]
