"""Scenario builders, config parsing, and the config-driven runner."""

import json
import math

import numpy as np
import pytest
from conftest import complex_randn

from ckgframes import duality, scenarios
from ckgframes.errors import InvalidConfig, ParseError
from ckgframes.frames import (
    FrameBounds,
    analysis,
    frame_operator,
    optimal_bounds,
    scale_family,
    verify_frame,
)
from ckgframes.linalg import operator_norm
from ckgframes.literals import (
    family_from_literal,
    family_to_literal,
    matrix_from_literal,
    matrix_to_literal,
)
from ckgframes.measure import l2_norm, validate
from ckgframes.scenarios import (
    build_continuous_fourier,
    build_paper_example,
    build_random_frame,
    load_config,
    parse_config,
    run_config,
)


def test_paper_example_m1_by_hand():
    fam, k_op = build_paper_example(1)
    # columns: K e1 = 0, K e2 = e1 + e2
    np.testing.assert_array_equal(k_op.real, [[0.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(frame_operator(fam).real, [[1.0, 1.0], [1.0, 1.0]])
    assert operator_norm(frame_operator(fam) - k_op @ k_op.conj().T) == 0.0


def test_paper_example_m8():
    fam, k_op = build_paper_example(8)
    assert verify_frame(fam, k_op, FrameBounds(1.0, 4.0)).is_ckg_frame
    bounds = optimal_bounds(fam, k_op)
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)
    assert bounds.upper == pytest.approx(2.0, abs=1e-9)
    assert operator_norm(frame_operator(fam) - k_op @ k_op.conj().T) <= 1e-12


def test_paper_example_energy_identity():
    # integral of the analysis energy equals the plain sum of pair coefficients
    fam, _ = build_paper_example(8, partition_measures=[1.5] * 8, atoms_per_cell=3)
    rng = np.random.default_rng(211)
    for _ in range(50):
        f = complex_randn(rng, 16)
        energy = l2_norm(analysis(fam, f), fam.space) ** 2
        direct = sum(
            abs(f[2 * k] + f[2 * k + 1]) ** 2 for k in range(8)
        )  # <f, f_k> with real pair vectors
        assert abs(energy - direct) <= 1e-12 * np.linalg.norm(f) ** 2


def test_paper_example_invalid_configs():
    with pytest.raises(InvalidConfig):
        build_paper_example(0)
    with pytest.raises(InvalidConfig):
        build_paper_example(2, partition_measures=[1.0])
    with pytest.raises(InvalidConfig):
        build_paper_example(2, partition_measures=[1.0, 0.0])
    with pytest.raises(InvalidConfig):
        build_paper_example(2, atoms_per_cell=0)


def test_builders_produce_valid_spaces():
    fam_a, _ = build_paper_example(3, atoms_per_cell=2)
    fam_b, _ = build_continuous_fourier(3, 11)
    fam_c = build_random_frame(3, 5, 2, seed=5)
    for fam in (fam_a, fam_b, fam_c):
        assert validate(fam.space) == []


def test_continuous_fourier_exactness():
    fam1, _ = build_continuous_fourier(1, 5)
    assert operator_norm(frame_operator(fam1) - np.eye(1)) == 0.0

    fam, k_op = build_continuous_fourier(4, 64)
    assert operator_norm(frame_operator(fam) - np.eye(4)) <= 1e-12
    np.testing.assert_array_equal(k_op, np.eye(4))

    probe, _ = build_continuous_fourier(4, 7)
    error = operator_norm(frame_operator(probe) - np.eye(4))
    assert error <= 1e-12  # aliasing makes the midpoint rule exact for N >= n

    with pytest.raises(InvalidConfig):
        build_continuous_fourier(4, 0)


@pytest.mark.parametrize("n, n_atoms", [(1, 5), (4, 7), (6, 64), (9, 4)])
def test_continuous_fourier_matches_per_atom_formula(n, n_atoms):
    fam, _ = build_continuous_fourier(n, n_atoms)
    freqs = np.arange(n)
    assert len(fam.ops) == n_atoms
    for j, op in enumerate(fam.ops):
        theta = 2.0 * math.pi * (j + 0.5) / n_atoms
        wave = np.exp(1j * freqs * theta) / math.sqrt(2.0 * math.pi)
        expected = wave.conj()[np.newaxis, :]
        assert op.shape == expected.shape
        assert op.tobytes() == expected.tobytes()  # bit for bit
        assert fam.space.atoms[j].weight == 2.0 * math.pi / n_atoms


def test_random_frame_determinism_and_rank():
    fam_a = build_random_frame(4, 6, 1, seed=42)
    fam_b = build_random_frame(4, 6, 1, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(fam_a.ops, fam_b.ops))
    assert optimal_bounds(fam_a, np.eye(4)).lower > 0.0

    with pytest.raises(InvalidConfig):
        build_random_frame(4, 0, 1, seed=1)
    with pytest.raises(InvalidConfig):
        build_random_frame(4, 2, [1, 1, 1], seed=1)


def test_refinement_leaves_everything_unchanged():
    base, k_op = build_paper_example(4, partition_measures=[2.0, 1.0, 0.5, 3.0])
    s_base = frame_operator(base)
    b_base = optimal_bounds(base, k_op)
    for parts in (2, 5):
        refined, _ = build_paper_example(
            4, partition_measures=[2.0, 1.0, 0.5, 3.0], atoms_per_cell=parts
        )
        assert operator_norm(frame_operator(refined) - s_base) <= 1e-12
        b = optimal_bounds(refined, k_op)
        assert b.lower == pytest.approx(b_base.lower, abs=1e-12)
        assert b.upper == pytest.approx(b_base.upper, abs=1e-12)


def test_literal_roundtrips():
    rng = np.random.default_rng(301)
    m = complex_randn(rng, 3, 2)
    np.testing.assert_array_equal(matrix_from_literal(matrix_to_literal(m)), m)

    fam, _ = build_paper_example(2, partition_measures=[2.0, 3.0], atoms_per_cell=2)
    back = family_from_literal(family_to_literal(fam))
    assert back.ambient_dim == fam.ambient_dim
    assert back.space.weights.tolist() == fam.space.weights.tolist()
    assert all(np.array_equal(x, y) for x, y in zip(back.ops, fam.ops))
    assert back.space.atoms[0].partition == "cell0"

    with pytest.raises(InvalidConfig):
        matrix_from_literal([[1.0, 2.0]])  # entries must be [re, im] pairs


def test_parse_config_validation():
    with pytest.raises(InvalidConfig):
        parse_config({"scenario": {"kind": "nope"}})
    with pytest.raises(InvalidConfig):
        parse_config({"scenario": {"kind": "random"}, "requests": ["fly"]})
    with pytest.raises(InvalidConfig):
        parse_config({"scenario": {"kind": "random"}, "claimed": [1.0]})
    with pytest.raises(InvalidConfig):
        parse_config([])

    cfg = parse_config({"scenario": {"kind": "paper_example", "m": 2}})
    assert cfg.requests == ("bounds",)
    assert cfg.seed == 0 and cfg.samples == 64


@pytest.mark.parametrize(
    "field",
    [
        {"seed": "abc"},
        {"seed": "5"},
        {"seed": -1},
        {"seed": 3.7},
        {"samples": -3},
        {"samples": [4]},
        {"samples": True},
        {"claimed": ["x", 1]},
        {"claimed": [None, 1]},
        {"tolerances": {"psd_slack": [1e-10]}},
        {"refine": {"values": ["abc"]}},
        {"refine": {"values": [9.5]}},
        {"refine": {"values": 9}},
    ],
)
def test_parse_config_rejects_bad_values(field):
    with pytest.raises(InvalidConfig):
        parse_config({"scenario": {"kind": "paper_example", "m": 2}, **field})


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(
        {"scenario": {"kind": "paper_example", "m": 2}, "seed": 3.0, "samples": 8.0,
         "refine": {"values": [9.0, 18]}}
    )
    assert (cfg.seed, cfg.samples, cfg.refine_values) == (3, 8, (9, 18))
    assert all(type(v) is int for v in (cfg.seed, cfg.samples, *cfg.refine_values))


def test_theta_needs_a_tested_vector():
    base = {"scenario": {"kind": "paper_example", "m": 2}, "requests": ["theta"], "seed": 4}
    report = run_config({**base, "samples": 8})
    assert report["results"]["theta"]["samples"] > 0
    assert report["results"]["theta"]["passed"]

    vacuous = run_config({**base, "samples": 0})
    assert vacuous["results"]["theta"]["samples"] == 0
    assert not vacuous["results"]["theta"]["passed"]
    assert not vacuous["success"]


def test_theta_pass_threshold_is_residual_tol(monkeypatch):
    # a theta family off by the factor 1 + 1e-6 reconstructs with relative
    # residual 1e-6: rejected at the default 1e-9, accepted at 1e-5
    def skewed_theta(pair, tol):
        return scale_family(duality.theta_dual(pair, tol), 1.0 + 1e-6)

    monkeypatch.setattr(scenarios, "theta_dual", skewed_theta)
    base = {"scenario": {"kind": "paper_example", "m": 2}, "requests": ["theta"], "samples": 8}
    default = run_config(base)["results"]["theta"]
    assert default["max_relative_residual"] == pytest.approx(1e-6, rel=1e-3)
    assert not default["passed"]
    loose = run_config({**base, "tolerances": {"residual_tol": 1e-5}})["results"]["theta"]
    assert loose["passed"]


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(bad)


def test_run_config_paper_example():
    report = run_config(
        {
            "scenario": {"kind": "paper_example", "m": 8},
            "requests": ["bounds", "verify"],
            "claimed": [1.0, 4.0],
        }
    )
    assert report["success"]
    assert report["errors"] == {}
    assert report["results"]["bounds"]["lower"] == pytest.approx(1.0, abs=1e-9)
    assert report["results"]["bounds"]["upper"] == pytest.approx(2.0, abs=1e-9)
    assert report["results"]["verify"]["is_ckg_frame"] is True


def test_run_config_failed_verification():
    report = run_config(
        {
            "scenario": {"kind": "paper_example", "m": 8},
            "requests": ["verify"],
            "claimed": [1.5, 4.0],
        }
    )
    assert not report["success"]
    assert report["results"]["verify"]["is_ckg_frame"] is False


def test_run_config_records_errors_without_aborting():
    report = run_config(
        {
            "scenario": {"kind": "paper_example", "m": 2},
            "requests": ["verify", "bounds"],  # verify lacks "claimed"
        }
    )
    assert "verify" in report["errors"]
    assert "bounds" in report["results"]
    assert not report["success"]


def test_run_config_full_pipeline_on_explicit_family():
    rng = np.random.default_rng(33)
    m = complex_randn(rng, 3, 3)
    fam = build_random_frame(3, 6, 1, seed=3)
    config = {
        "scenario": {
            "kind": "explicit",
            "family": family_to_literal(fam),
            "K": matrix_to_literal(m),
        },
        "requests": ["bounds", "dual", "theta", "perturb"],
        "perturb": {"delta": 0.1},
        "samples": 32,
        "seed": 9,
    }
    report = run_config(config)
    assert report["errors"] == {}
    assert report["success"]
    dual = report["results"]["dual"]
    assert dual["residual"] <= 1e-10
    assert dual["lower_bound_from_dual"] <= report["results"]["bounds"]["lower"] + 1e-9
    assert report["results"]["theta"]["passed"]
    assert report["results"]["perturb"]["success"]


def test_run_config_refine_fourier(tmp_path):
    csv_path = tmp_path / "curve.csv"
    report = run_config(
        {
            "scenario": {"kind": "continuous_fourier", "dim": 4, "n_atoms": 64},
            "requests": ["refine"],
            "refine": {"values": [9, 18, 36, 72]},
        },
        csv_path=csv_path,
    )
    rows = report["results"]["refine"]
    assert [r["value"] for r in rows] == [9, 18, 36, 72]
    errors = [r["frame_operator_error"] for r in rows]
    assert all(e <= 1e-12 for e in errors)
    text = csv_path.read_text().splitlines()
    assert text[0] == "n_atoms,frame_operator_error,lower,upper"
    assert len(text) == 5


def test_run_config_kill_range_perturbation_fails():
    report = run_config(
        {
            "scenario": {"kind": "paper_example", "m": 4},
            "requests": ["perturb"],
            "perturb": {"lambda1": 0.1, "lambda2": 0.0, "gamma": 0.05, "kill_range": True},
            "samples": 16,
        }
    )
    assert not report["success"]
    assert report["results"]["perturb"]["slack"] > 0.0
