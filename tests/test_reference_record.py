"""One record per reference operator: K K*, its spectrum and pinv(K) formed
once, and the same results whether a function gets a plain K or a record."""

import numpy as np
import pytest
from conftest import complex_randn, random_family

from ckgframes.duality import douglas_gamma, k_power_family, pullback_by, theta_dual
from ckgframes.frames import (
    FrameBounds,
    check_synthesis_range,
    optimal_bounds,
    scale_family,
    verify_frame,
)
from ckgframes.linalg import DEFAULT_TOL, _Decomposed, pseudo_inverse
from ckgframes.perturbation import (
    PerturbationParams,
    predicted_bounds,
    project_out_range,
    sample_condition,
    verify_perturbation,
)
from ckgframes.scenarios import run_config


def test_one_run_decomposes_k_k_star_once(monkeypatch):
    rng = np.random.default_rng(3)
    k = complex_randn(rng, 3, 2) @ complex_randn(rng, 2, 3)
    kk = k @ k.conj().T
    kk = (kk + kk.conj().T) / 2.0
    cfg = {
        "scenario": {
            "kind": "random", "dim": 3, "n_atoms": 9, "seed": 4,
            "K": [[[z.real, z.imag] for z in row] for row in k],
        },
        "requests": ["bounds", "verify", "refine", "perturb"],
        "claimed": [1e-3, 1e3],
        "refine": {"values": [2, 3]},
        "perturb": {"delta": 0.1},
        "samples": 8,
    }
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            if np.array_equal(a, kk):
                calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    report = run_config(cfg)
    assert report["errors"] == {} and report["success"]
    # bounds, verify, two refine rows and the perturb request's two
    # optimal_bounds and predicted_bounds all read one eigvalsh; only
    # sample_condition needs the eigenvectors
    assert calls == {"eigvalsh": 1, "eigh": 1}


def _bits(value):
    """Every array and float of ``value``, for a bitwise comparison."""
    if hasattr(value, "ops"):  # a family
        return [_bits(op) for op in value.ops]
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if hasattr(value, "__dataclass_fields__"):
        return [_bits(getattr(value, name)) for name in value.__dataclass_fields__]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _calls(fam, k):
    """Every public function of a reference operator, on one family and K."""
    tol = DEFAULT_TOL
    params = PerturbationParams(0.19, 0.0, 0.0)
    bounds = optimal_bounds(fam, k, tol)
    gam = scale_family(fam, 0.9)
    pair = douglas_gamma(fam, k, tol)
    return {
        "optimal_bounds": bounds,
        "verify_frame": verify_frame(fam, k, FrameBounds(bounds.lower / 2, 2 * bounds.upper), tol),
        "check_synthesis_range": check_synthesis_range(fam, k, tol),
        "douglas_gamma": (pair.dual_family, pair.reproduced_operator, pair.residual),
        "theta_dual": theta_dual(pair, tol),
        "pullback_by": pullback_by(fam, k),
        "k_power_family": k_power_family(fam, k, 2, tol),
        "predicted_bounds": predicted_bounds(bounds.lower, bounds.upper, k, params),
        "sample_condition": sample_condition(fam, gam, k, params, 8, seed=2),
        "verify_perturbation": verify_perturbation(fam, gam, k, params, 8, seed=2),
        "project_out_range": project_out_range(fam, k, tol),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain_k_and_record_give_bitwise_equal_results(seed):
    rng = np.random.default_rng(seed)
    n = 4
    fam = random_family(rng, n)
    k = complex_randn(rng, n, n)
    if seed == 1:
        k[:, :2] = 0.0  # rank deficient
    plain = _calls(fam, k)
    fresh = _calls(fam, _Decomposed(k))
    warm = _Decomposed(k)
    _calls(fam, warm)  # every cache of the record is filled before the run below
    warmed = _calls(fam, warm)
    for name, result in plain.items():
        assert _bits(fresh[name]) == _bits(result), name
        assert _bits(warmed[name]) == _bits(result), name


def test_record_matches_the_plain_computations():
    rng = np.random.default_rng(8)
    k = complex_randn(rng, 4, 6)
    record = _Decomposed(k)
    kk = k @ k.conj().T
    assert np.array_equal(record.gram, (kk + kk.conj().T) / 2.0)
    assert np.array_equal(record.gram, record.gram.conj().T)
    assert np.array_equal(record.gram_w, np.linalg.eigvalsh(record.gram))
    assert np.array_equal(record.pinv(DEFAULT_TOL), pseudo_inverse(k))
    assert np.array_equal(record.matrix, k) and not record.matrix.flags.writeable
    zero = _Decomposed(np.zeros((2, 3)))
    assert zero.svd is None
    assert np.array_equal(zero.pinv(DEFAULT_TOL), np.zeros((3, 2)))
