"""Families built from stacked rows, and the batched frame operator.

The per-atom loops below are the reference: the stacked constructions and
the batched ``S`` must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest
from conftest import complex_randn

from ckgframes import cli, frames, scenarios
from ckgframes.duality import pullback_by
from ckgframes.errors import DimensionMismatch
from ckgframes.frames import OperatorFamily, frame_operator, refine_family, scale_family
from ckgframes.measure import Atom, DiscreteMeasureSpace
from ckgframes.scenarios import (
    build_continuous_fourier,
    build_paper_example,
    build_random_frame,
    run_config,
)


def loop_frame_operator(fam):
    """The frame operator as one atom at a time, in atom order."""
    n = fam.ambient_dim
    s = np.zeros((n, n), dtype=np.complex128)
    for atom, op in zip(fam.space.atoms, fam.ops):
        s += atom.weight * (op.conj().T @ op)
    return (s + s.conj().T) / 2.0


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def family_with_dims(dims, n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, len(dims))
    space = DiscreteMeasureSpace(
        Atom(f"a{k}", float(w), d) for k, (w, d) in enumerate(zip(weights, dims))
    )
    return OperatorFamily(space=space, ops=[complex_randn(rng, d, n) for d in dims], ambient_dim=n)


def zoo():
    rng = np.random.default_rng(2024)
    for n in (1, 8, 16, 64):
        for atoms in (1, 7, 300):
            yield f"fourier n={n} atoms={atoms}", build_continuous_fourier(n, atoms)[0]
    for m in (1, 4, 16):
        for per_cell in (1, 3, 9, 40):
            measures = rng.uniform(0.25, 4.0, m).tolist()
            yield f"paper m={m} per_cell={per_cell}", build_paper_example(m, measures, per_cell)[0]
    for d in (1, 2, 3, 4):
        for n in (8, 16, 32, 64, 128):
            yield f"random d={d} n={n}", build_random_frame(n, 40, d, seed=10 * d + n)
    yield "mixed dims", build_random_frame(5, 30, [1, 3, 2] * 10, seed=7)
    yield "mixed runs", family_with_dims([2] * 20 + [1] * 9 + [3] + [1] * 12, 6, seed=8)
    yield "zero-dim run", family_with_dims([1] * 3 + [0] * 10 + [2] * 9, 4, seed=9)
    yield "single atom", family_with_dims([3], 4, seed=10)
    # n = 8 holds 128 atoms per batch and n = 32 holds 8: around those
    # lengths the last batch is full, short, or too short to batch
    for atoms in (7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137):
        for n in (8, 32):
            yield f"boundary n={n} atoms={atoms}", family_with_dims([1] * atoms, n, seed=atoms + n)


ZOO = list(zoo())


@pytest.mark.parametrize("name,fam", ZOO, ids=[name for name, _ in ZOO])
def test_frame_operator_is_bitwise_the_atom_loop(name, fam):
    assert_bitwise(frame_operator(fam), loop_frame_operator(fam))


@pytest.mark.parametrize("name,fam", ZOO, ids=[name for name, _ in ZOO])
def test_stacked_products_are_bitwise_the_atom_loop(name, fam):
    rng = np.random.default_rng(5)
    n = fam.ambient_dim
    for m in (complex_randn(rng, n, n), complex_randn(rng, n, n + 2)):
        want = np.vstack([op @ m for op in fam.ops])
        assert_bitwise(frames._times(fam, m), want)
    t = complex_randn(rng, n, n)
    for got, op in zip(pullback_by(fam, t).ops, fam.ops):
        assert_bitwise(got, op @ t.conj().T)
    for got, op in zip(scale_family(fam, 0.3 - 1.1j).ops, fam.ops):
        assert_bitwise(got, (0.3 - 1.1j) * op)


def test_empty_family():
    fam = OperatorFamily.from_rows(DiscreteMeasureSpace([]), np.zeros((0, 3)), 3)
    assert fam.ops == ()
    assert_bitwise(frame_operator(fam), np.zeros((3, 3), dtype=complex))
    assert_bitwise(frames._times(fam, np.eye(3, dtype=complex)), np.zeros((0, 3), dtype=complex))
    assert pullback_by(fam, np.eye(3)).ops == scale_family(fam, 2.0).ops == ()


def test_from_rows_splits_rows_in_atom_order_as_read_only_views():
    rng = np.random.default_rng(1)
    rows = complex_randn(rng, 6, 3)
    space = DiscreteMeasureSpace([Atom("a", 1.0, 1), Atom("b", 2.0, 3), Atom("c", 0.5, 2)])
    fam = OperatorFamily.from_rows(space, rows, 3)
    for op, want in zip(fam.ops, (rows[0:1], rows[1:4], rows[4:6])):
        np.testing.assert_array_equal(op, want)
        assert np.shares_memory(op, rows)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    assert rows.flags.writeable
    assert_bitwise(frame_operator(fam), loop_frame_operator(fam))


def test_from_rows_repeated_starts_share_rows():
    rows = complex_randn(np.random.default_rng(2), 3, 2)
    space = DiscreteMeasureSpace(Atom(f"a{k}", 1.0, 1) for k in range(4))
    for starts in ([2, 0, 2, 1], np.array([2, 0, 2, 1], dtype=np.uint64)):
        fam = OperatorFamily.from_rows(space, rows, 2, starts=starts)
        assert np.shares_memory(fam.ops[0], fam.ops[2])
        np.testing.assert_array_equal(np.vstack(fam.ops), rows[[2, 0, 2, 1]])


def test_from_rows_rejects_bad_input():
    space = DiscreteMeasureSpace([Atom("a", 1.0, 1), Atom("b", 1.0, 2)])
    good = np.ones((3, 2), dtype=complex)

    bad = good.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError) as err:
        OperatorFamily.from_rows(space, bad, 2)
    assert not isinstance(err.value, DimensionMismatch)
    assert "\n" not in str(err.value)

    for rows, n, starts in (
        (good, 3, None),  # wrong width
        (good[:2], 2, None),  # too few rows for the fiber dims
        (np.ones((4, 2)), 2, None),  # rows left over
        (np.ones(6), 2, None),  # not a matrix
        (good, 2, [0, 2]),  # atom b runs past the last row
        (good, 2, [-1, 0]),  # negative start
        (good, 2, np.array([0, 2], dtype=np.uint64)),  # unsigned, past the last row
        (good, 2, np.array([0, 2**64 - 1], dtype=np.uint64)),  # past any row index
        (good, 2, [0]),  # one start for two atoms
        (good, 2, [0.0, 1.0]),  # starts that are not integers
        (good, 0, None),  # no ambient dimension
    ):
        with pytest.raises(DimensionMismatch):
            OperatorFamily.from_rows(space, rows, n, starts=starts)


def test_paper_cell_ops_share_memory():
    fam, _ = build_paper_example(3, [1.0, 2.0, 0.5], atoms_per_cell=4)
    cell0 = fam.ops[:4]
    assert all(np.shares_memory(cell0[0], op) for op in cell0[1:])
    assert not np.shares_memory(fam.ops[0], fam.ops[4])
    # every atom of cell 1 (measure 2) carries <f, e2 + e3> / sqrt(2)
    np.testing.assert_array_equal(fam.ops[5], np.array([[0, 0, 1, 1, 0, 0]]) / math.sqrt(2.0))


def test_refined_ops_share_the_parents():
    for parent in (build_random_frame(4, 6, [1, 2, 1, 3, 1, 2], seed=3), build_paper_example(2)[0]):
        refined = refine_family(parent, 3)
        assert len(refined.ops) == 3 * len(parent.ops)
        for k, op in enumerate(refined.ops):
            assert np.shares_memory(op, parent.ops[k // 3])
            assert not op.flags.writeable


def old_random_ops(n, dims, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / math.sqrt(2.0)
        for d in dims
    ]


@pytest.mark.parametrize(
    "n,dims",
    [
        (6, [1] * 5),
        (6, [3] * 5),
        (6, [1, 3, 2, 1, 4]),
        (1, [2, 1, 1, 3]),
        (33, [4, 1, 1, 2, 5, 1, 3]),
        (128, [1] * 40 + [2] * 3),
    ],
)
def test_random_frame_draws_match_per_atom_draws(n, dims):
    seed = 91 + n
    # equal dims go in as one int, as a config gives them
    fiber_dims = dims[0] if len(set(dims)) == 1 else dims
    fam = build_random_frame(n, len(dims), fiber_dims, seed=seed)
    for got, want in zip(fam.ops, old_random_ops(n, dims, seed), strict=True):
        assert_bitwise(got, want)


def test_space_weights_and_dims_are_built_once():
    atoms = [Atom("a", 0.5, 1), Atom("b", 2.0, 3)]
    space = DiscreteMeasureSpace(atoms)
    assert space.weights is space.weights
    assert space.fiber_dims is space.fiber_dims
    assert space.fiber_dims == (1, 3)
    np.testing.assert_array_equal(space.weights, [0.5, 2.0])
    with pytest.raises(ValueError):
        space.weights[0] = 1.0
    twin = DiscreteMeasureSpace(atoms)
    assert space == twin and hash(space) == hash(twin)
    assert space != DiscreteMeasureSpace(atoms[::-1])


def test_cli_builds_its_parser_once(monkeypatch, tmp_path):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        for k in range(2):
            assert cli.main(["paper-example", "--out", str(tmp_path / f"r{k}.json")]) == 0
        assert len(built) == 1
        with pytest.raises(SystemExit) as exit_:
            cli.main(["bounds"])  # --config is required
        assert exit_.value.code == 2
    finally:
        cli._parser.cache_clear()


def test_dual_and_theta_share_one_douglas_factor(monkeypatch):
    cfg = {
        "scenario": {"kind": "random", "dim": 4, "n_atoms": 9, "seed": 3},
        "requests": ["theta", "dual"],
        "samples": 8,
    }
    alone = run_config({**cfg, "requests": ["theta"]})["results"]["theta"]

    calls = []
    factor = scenarios.douglas_gamma
    monkeypatch.setattr(
        scenarios, "douglas_gamma", lambda *args: calls.append(args) or factor(*args)
    )
    thetas = []
    theta_dual = scenarios.theta_dual
    monkeypatch.setattr(
        scenarios, "theta_dual", lambda pair, tol: thetas.append(pair) or theta_dual(pair, tol)
    )
    report = run_config(cfg)
    assert len(calls) == 1
    assert len(thetas) == 1
    assert report["results"]["theta"] == alone
    assert report["success"]
