"""Perturbation bounds, admissibility, and the sampled condition check."""

import numpy as np
import pytest
from conftest import complex_randn, random_family
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgframes.errors import DimensionMismatch, InadmissibleParams, InvalidDelta, NotAFrame
from ckgframes.frames import OperatorFamily, optimal_bounds, scale_family
from ckgframes.measure import Atom, DiscreteMeasureSpace
from ckgframes.perturbation import (
    SLACK_ROUNDOFF,
    PerturbationParams,
    _condition_slack,
    _sample_pairs,
    predicted_bounds,
    project_out_range,
    sample_condition,
    scalar_perturbation_params,
    verify_perturbation,
)
from ckgframes.scenarios import build_paper_example


def test_scalar_perturbation_params():
    zero = scalar_perturbation_params(0.0)
    assert (zero.lambda1, zero.lambda2, zero.gamma) == (0.0, 0.0, 0.0)
    # 1 - (1 - 0.1)^2 = 0.19, 1 - (1 - 0.5)^2 = 0.75
    assert scalar_perturbation_params(0.1).lambda1 == pytest.approx(0.19, abs=1e-12)
    assert scalar_perturbation_params(0.5).lambda1 == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(InvalidDelta):
        scalar_perturbation_params(1.0)
    with pytest.raises(InvalidDelta):
        scalar_perturbation_params(-0.1)


def test_params_validation_and_admissibility():
    with pytest.raises(InadmissibleParams):
        PerturbationParams(-0.1, 0.0, 0.0)
    p = PerturbationParams(0.5, 0.5, 0.25)
    assert p.admissible(1.0)  # max(0.5, 0.25 + 0.5) = 0.75 < 1
    assert not p.admissible(0.5)  # 0.25/0.5 + 0.5 = 1.0


def test_predicted_bounds_examples():
    eye = np.eye(2)
    unperturbed = predicted_bounds(1.0, 1.0, eye, PerturbationParams(0.0, 0.0, 0.0))
    assert (unperturbed.lower, unperturbed.upper) == (1.0, 1.0)

    # ((1-0.19)*1)/1 = 0.81 and ((1+0.19)*2 + 0)/1 = 2.38
    b = predicted_bounds(1.0, 2.0, eye, PerturbationParams(0.19, 0.0, 0.0))
    assert b.lower == pytest.approx(0.81, abs=1e-12)
    assert b.upper == pytest.approx(2.38, abs=1e-12)

    # ((1-0.5)*1 - 0.25)/1.5 = 1/6 and ((1.5)*4 + 0.25*4)/0.5 = 14
    k2 = np.diag([2.0, 2.0])
    c = predicted_bounds(1.0, 4.0, k2, PerturbationParams(0.5, 0.5, 0.25))
    assert c.lower == pytest.approx(0.25 / 1.5, abs=1e-12)
    assert c.upper == pytest.approx(14.0, abs=1e-12)


def test_predicted_bounds_needs_lower_times_norm_squared_at_most_upper():
    eye = np.eye(2)
    with pytest.raises(InadmissibleParams, match="exceeds upper bound"):
        predicted_bounds(10.0, 1.0, eye, PerturbationParams(0.0, 0.0, 0.0))
    with pytest.raises(InadmissibleParams):
        predicted_bounds(1.0, 1.0, 2.0 * eye, PerturbationParams(0.0, 0.0, 0.0))
    # the vacuous lower bound of a zero K passes, as verify_perturbation sends it
    vacuous = predicted_bounds(np.inf, 1.0, np.zeros((2, 2)), PerturbationParams(0.1, 0.0, 0.0))
    assert vacuous.lower == np.inf and vacuous.upper == pytest.approx(1.1)
    # a pair from optimal_bounds never fails by one ulp, even where ||K||^2
    # rounds up: K = sqrt(2) I gives ||K||^2 = 2.0000000000000004
    fam = OperatorFamily(
        space=DiscreteMeasureSpace([Atom("a", 2.0, 2)]), ops=[np.eye(2)], ambient_dim=2
    )
    k_sqrt2 = np.sqrt(2.0) * eye
    bounds = optimal_bounds(fam, k_sqrt2)
    b = predicted_bounds(bounds.lower, bounds.upper, k_sqrt2, PerturbationParams(0.19, 0.0, 0.0))
    assert b.lower == pytest.approx(0.81, abs=1e-12)


def test_predicted_bounds_gate():
    eye = np.eye(2)
    with pytest.raises(InadmissibleParams):
        predicted_bounds(1.0, 2.0, eye, PerturbationParams(0.0, 1.0, 0.0))
    with pytest.raises(InadmissibleParams):
        predicted_bounds(1.0, 2.0, eye, PerturbationParams(0.6, 0.0, 0.5))
    with pytest.raises(InadmissibleParams):
        predicted_bounds(0.0, 2.0, eye, PerturbationParams(0.0, 0.0, 0.0))
    # admissible parameters always give a positive lower bound
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = float(rng.uniform(0.1, 3.0))
        l1, l2, g = rng.uniform(0, 1.2, 3)
        params = PerturbationParams(l1, l2, g)
        if not params.admissible(a):
            continue
        bounds = predicted_bounds(a, a + rng.uniform(0, 2), np.eye(2), params)
        assert bounds.lower > 0.0


def test_verify_perturbation_when_lower_bound_exceeds_upper():
    # ||K|| < 1: one identity atom on C^2 with K = I/2 has optimal bounds (4, 1)
    fam = OperatorFamily(
        space=DiscreteMeasureSpace([Atom("a", 1.0, 2)]), ops=[np.eye(2)], ambient_dim=2
    )
    half = 0.5 * np.eye(2)
    base = optimal_bounds(fam, half)
    assert (base.lower, base.upper) == (4.0, 1.0)
    params = scalar_perturbation_params(0.1)
    report = verify_perturbation(fam, scale_family(fam, 0.9), half, params, 8, seed=0)
    # ((1 - 0.19) 4, (1 + 0.19) 1) against the shrunk family's own 0.81 (4, 1)
    assert report.predicted.lower == pytest.approx(3.24, abs=1e-12)
    assert report.predicted.upper == pytest.approx(1.19, abs=1e-12)
    assert report.empirical.lower == pytest.approx(3.24, abs=1e-12)
    assert report.empirical.upper == pytest.approx(0.81, abs=1e-12)
    assert report.success


def test_predicted_bounds_monotonicity():
    eye = np.diag([0.5, 1.0])
    base = predicted_bounds(1.0, 2.0, eye, PerturbationParams(0.1, 0.1, 0.1))
    for bumped in (
        PerturbationParams(0.2, 0.1, 0.1),
        PerturbationParams(0.1, 0.2, 0.1),
        PerturbationParams(0.1, 0.1, 0.2),
    ):
        b = predicted_bounds(1.0, 2.0, eye, bumped)
        assert b.lower <= base.lower + 1e-15
        assert b.upper >= base.upper - 1e-15


def test_sample_condition_cases():
    fam, k_op = build_paper_example(8)
    zero = sample_condition(fam, fam, k_op, PerturbationParams(0, 0, 0), 32, seed=1)
    assert zero <= 0.0 + 1e-15

    shrunk = scale_family(fam, 0.9)
    exact = sample_condition(fam, shrunk, k_op, scalar_perturbation_params(0.1), 32, seed=1)
    assert exact <= 1e-12  # algebraic equality case

    unsound = sample_condition(fam, shrunk, k_op, PerturbationParams(0.10, 0, 0), 32, seed=1)
    assert unsound > 0.0  # deficit 0.19 - 0.10 witnessed by an eigenvector pair


def test_sample_condition_deterministic():
    fam, k_op = build_paper_example(4)
    gam = scale_family(fam, 0.95)
    params = scalar_perturbation_params(0.05)
    first = sample_condition(fam, gam, k_op, params, 64, seed=7)
    second = sample_condition(fam, gam, k_op, params, 64, seed=7)
    assert first == second


def test_verify_perturbation_identity():
    fam, k_op = build_paper_example(4)
    report = verify_perturbation(
        fam, fam, k_op, PerturbationParams(0, 0, 0), n_samples=32, seed=3
    )
    assert report.success
    assert report.predicted.lower == pytest.approx(report.empirical.lower, abs=1e-9)
    assert report.predicted.upper == pytest.approx(report.empirical.upper, abs=1e-9)


def test_verify_perturbation_scalar_paper_example():
    fam, k_op = build_paper_example(8)
    report = verify_perturbation(
        fam,
        scale_family(fam, 0.9),
        k_op,
        scalar_perturbation_params(0.1),
        n_samples=64,
        seed=11,
    )
    assert report.success
    assert report.predicted.lower == pytest.approx(0.81, abs=1e-9)
    assert report.predicted.upper == pytest.approx(2.38, abs=1e-9)
    assert report.empirical.lower == pytest.approx(0.81, abs=1e-9)
    assert report.empirical.upper == pytest.approx(1.62, abs=1e-9)


def test_verify_perturbation_scalar_soundness_random():
    rng = np.random.default_rng(13)
    for delta in (0.05, 0.1, 0.2):
        fam = random_family(rng, 4)
        report = verify_perturbation(
            fam,
            scale_family(fam, 1.0 - delta),
            np.eye(4),
            scalar_perturbation_params(delta),
            n_samples=64,
            seed=17,
        )
        assert report.success
        assert report.max_condition_slack <= 1e-12


def test_verify_perturbation_detects_range_killer():
    fam, k_op = build_paper_example(4)
    broken = project_out_range(fam, k_op)
    report = verify_perturbation(
        fam,
        broken,
        k_op,
        PerturbationParams(0.1, 0.0, 0.05),
        n_samples=32,
        seed=19,
    )
    assert not report.success
    assert report.empirical.lower == 0.0
    assert report.max_condition_slack > 0.0


def test_verify_perturbation_reports_deterministic():
    fam, k_op = build_paper_example(4)
    gam = scale_family(fam, 0.9)
    params = scalar_perturbation_params(0.1)
    a = verify_perturbation(fam, gam, k_op, params, n_samples=48, seed=23)
    b = verify_perturbation(fam, gam, k_op, params, n_samples=48, seed=23)
    assert a == b  # bit-for-bit identical dataclasses


def test_verify_perturbation_preconditions():
    fam, k_op = build_paper_example(4)
    with pytest.raises(InadmissibleParams):
        verify_perturbation(
            fam, fam, k_op, PerturbationParams(0.9, 0.0, 0.2), n_samples=8, seed=1
        )
    broken = project_out_range(fam, k_op)
    with pytest.raises(NotAFrame):
        verify_perturbation(
            broken, fam, k_op, PerturbationParams(0, 0, 0), n_samples=8, seed=1
        )


def _family_on(space, n, rng):
    ops = [complex_randn(rng, d, n) for d in space.fiber_dims]
    return OperatorFamily(space=space, ops=ops, ambient_dim=n)


def _gram_reference_slack(lam, gam, k, params, fs, gs):
    """Per-atom Gram form of the condition, as in its definition."""
    lhs = np.zeros(fs.shape[1])
    lam_term = np.zeros(fs.shape[1])
    gam_term = np.zeros(fs.shape[1])
    for atom, lop, gop in zip(lam.space.atoms, lam.ops, gam.ops):
        lam_gram = lop.conj().T @ lop
        gam_gram = gop.conj().T @ gop
        for s in range(fs.shape[1]):
            f, g = fs[:, s], gs[:, s]
            lhs[s] += atom.weight * abs(np.vdot(g, (lam_gram - gam_gram) @ f))
            lam_term[s] += atom.weight * abs(np.vdot(g, lam_gram @ f))
            gam_term[s] += atom.weight * abs(np.vdot(g, gam_gram @ f))
    energy = np.linalg.norm(k.conj().T @ fs, axis=0) ** 2
    rhs = params.lambda1 * lam_term + params.lambda2 * gam_term + params.gamma * energy
    return lhs - rhs, lhs + rhs


@pytest.mark.parametrize("fiber_dims", [(2, 1, 0, 3, 1, 2), (1, 1, 1, 1, 1)])
def test_condition_slack_matches_per_atom_gram_reference(fiber_dims):
    rng = np.random.default_rng(29)
    n = 4
    space = DiscreteMeasureSpace(
        Atom(atom_id=f"a{j}", weight=float(w), fiber_dim=d)
        for j, (w, d) in enumerate(zip(rng.uniform(0.2, 3.0, len(fiber_dims)), fiber_dims))
    )
    lam = _family_on(space, n, rng)
    gam = _family_on(space, n, rng)
    k = complex_randn(rng, n, n - 1)
    params = PerturbationParams(0.3, 0.2, 0.7)
    fs, gs = _sample_pairs(n, 12, seed=3)

    got = _condition_slack(
        np.vstack(lam.ops), np.vstack(gam.ops), space, k, params, fs, gs
    )
    want, scale = _gram_reference_slack(lam, gam, k, params, fs, gs)
    # relative to the size of the compared terms: the slack itself may cancel
    assert np.max(np.abs(got - want) / scale) <= 1e-12


def test_sample_condition_rejects_bad_inputs():
    fam, k_op = build_paper_example(2)
    params = PerturbationParams(0, 0, 0)
    with pytest.raises(ValueError, match="n_samples"):
        sample_condition(fam, fam, k_op, params, -3, seed=1)
    with pytest.raises(DimensionMismatch, match="reference operator"):
        sample_condition(fam, fam, np.eye(3), params, 4, seed=1)
    with pytest.raises(DimensionMismatch, match="reference operator"):
        project_out_range(fam, np.eye(3))
    other, _ = build_paper_example(3)
    with pytest.raises(DimensionMismatch):
        sample_condition(fam, other, k_op, params, 4, seed=1)
    # zero samples still checks the eigenvector pairs
    assert sample_condition(fam, fam, k_op, params, 0, seed=1) <= 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    family_seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    delta=st.floats(0.0, 0.9),
    n_samples=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 2),
)
def test_scalar_shrink_property(family_seed, n, delta, n_samples, seed):
    fam = random_family(np.random.default_rng(family_seed), n)
    k = np.eye(n)
    params = scalar_perturbation_params(delta)
    shrunk = scale_family(fam, 1.0 - delta)

    slack = sample_condition(fam, shrunk, k, params, n_samples, seed)
    upper = optimal_bounds(fam, k).upper
    assert slack <= SLACK_ROUNDOFF * max(1.0, upper)
    assert sample_condition(fam, shrunk, k, params, n_samples, seed) == slack

    # f- and g-streams of neighbouring seeds share no sample (up to phase)
    streams = [*_sample_pairs(n, n_samples, seed), *_sample_pairs(n, n_samples, seed + 1)]
    for i, a in enumerate(streams):
        for b in streams[i + 1 :]:
            assert np.max(np.abs(a.conj().T @ b)) < 1.0 - 1e-9
