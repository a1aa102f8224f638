"""Per-family cache of the frame operator and its spectrum, and read-only ops."""

import numpy as np
import pytest
from conftest import complex_randn, random_family

from ckgframes import frames
from ckgframes.duality import bessel_constant, canonical_dual, douglas_gamma, pullback_by
from ckgframes.frames import (
    FrameBounds,
    OperatorFamily,
    frame_operator,
    optimal_bounds,
    refine_family,
    scale_family,
    verify_frame,
)
from ckgframes.measure import Atom, DiscreteMeasureSpace
from ckgframes.perturbation import PerturbationParams, sample_condition
from ckgframes.scenarios import run_config


@pytest.fixture
def builds(monkeypatch):
    """Count the calls of ``frames.frame_operator``, the one way to build S."""
    calls = []
    original = frames.frame_operator

    def counting(fam):
        calls.append(fam)
        return original(fam)

    monkeypatch.setattr(frames, "frame_operator", counting)
    return calls


def family_and_k(seed, n=4):
    rng = np.random.default_rng(seed)
    return random_family(rng, n), complex_randn(rng, n, n)


def test_every_decision_reads_one_build(builds):
    fam, k = family_and_k(0)
    bounds = optimal_bounds(fam, k)
    verify_frame(fam, k, bounds)
    verify_frame(fam, None, bounds)
    canonical_dual(fam)
    bessel_constant(fam)
    sample_condition(fam, fam, k, PerturbationParams(0.0, 0.0, 0.0), 8, seed=1)
    assert builds == [fam]


def test_derived_families_build_their_own_frame_operator(builds):
    fam, k = family_and_k(1)
    s = fam._frame[0]
    assert len(builds) == 1

    scaled = scale_family(fam, 0.5 - 2.0j)
    optimal_bounds(scaled, k)
    assert builds[-1] is scaled
    np.testing.assert_allclose(scaled._frame[0], abs(0.5 - 2.0j) ** 2 * s, rtol=1e-13, atol=1e-13)

    refined = refine_family(fam, 3)
    optimal_bounds(refined, k)
    bessel_constant(refined)
    assert builds[-1] is refined

    derived = [canonical_dual(fam), pullback_by(fam, k), douglas_gamma(fam, k).dual_family]
    for other in derived:
        bessel_constant(other)
    assert builds[-3:] == derived
    assert len(builds) == 6


def test_frame_operator_result_is_writable_and_detached():
    fam, k = family_and_k(2)
    twin = OperatorFamily(space=fam.space, ops=fam.ops, ambient_dim=fam.ambient_dim)

    before = frame_operator(fam)
    assert before.flags.writeable
    before[...] = 0.0
    bounds = optimal_bounds(fam, k)
    assert bounds == optimal_bounds(twin, k)

    after = frame_operator(fam)
    assert after.flags.writeable
    assert not np.shares_memory(after, fam._frame[0])
    after += 1.0
    assert optimal_bounds(fam, k) == bounds
    with pytest.raises(ValueError):
        fam._frame[0][0, 0] = 1.0


def test_ops_are_read_only_views_of_the_input():
    base = complex_randn(np.random.default_rng(3), 2, 3)
    fam = OperatorFamily(
        space=DiscreteMeasureSpace([Atom("a0", 1.0, 2)]), ops=[base], ambient_dim=3
    )
    with pytest.raises(ValueError):
        fam.ops[0][0, 0] = 1.0
    assert base.flags.writeable
    assert np.shares_memory(fam.ops[0], base)


def test_results_do_not_depend_on_what_warmed_the_cache():
    seed = 4
    fresh_bounds = optimal_bounds(*family_and_k(seed))
    claimed = FrameBounds(lower=0.5 * fresh_bounds.lower, upper=2.0 * fresh_bounds.upper)

    fam, k = family_and_k(seed)
    fresh_report = verify_frame(fam, k, claimed)
    fresh_bessel = verify_frame(family_and_k(seed)[0], None, claimed)

    by_bounds, k = family_and_k(seed)
    assert optimal_bounds(by_bounds, k) == fresh_bounds
    assert verify_frame(by_bounds, k, claimed) == fresh_report
    assert verify_frame(by_bounds, None, claimed) == fresh_bessel

    by_verify, k = family_and_k(seed)
    assert verify_frame(by_verify, k, claimed) == fresh_report
    assert verify_frame(by_verify, None, claimed) == fresh_bessel
    assert optimal_bounds(by_verify, k) == fresh_bounds

    by_bessel_only, k = family_and_k(seed)
    assert verify_frame(by_bessel_only, None, claimed) == fresh_bessel
    assert optimal_bounds(by_bessel_only, k) == fresh_bounds
    assert verify_frame(by_bessel_only, k, claimed) == fresh_report


def test_theta_request_decomposes_k_once(monkeypatch):
    k = np.diag([1.0, 2.0, 0.0]).astype(complex)
    literal = [[[x.real, x.imag] for x in row] for row in k]
    cfg = {
        "scenario": {"kind": "random", "dim": 3, "n_atoms": 7, "seed": 5, "K": literal},
        "requests": ["theta"],
        "samples": 16,
    }
    decompositions = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if np.array_equal(a, k):
            decompositions.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = run_config(cfg)
    assert report["results"]["theta"]["passed"]
    assert report["results"]["theta"]["samples"] == 16
    assert len(decompositions) == 1
