"""Property tests over random families, reference operators and configs."""

import json

import numpy as np
import pytest
from conftest import complex_randn, random_family
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ckgframes.cli import main
from ckgframes.frames import optimal_bounds, refine_family, verify_frame
from ckgframes.linalg import operator_norm

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def family_and_reference(draw, norms=(1e-3, 0.3, 1.0, 7.0)):
    """A random family with a reference K that may be rectangular, rank
    deficient, or of norm below one (``||K||`` is drawn from ``norms``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    fam = random_family(rng, n)
    cols = draw(st.integers(1, 5))
    rank = draw(st.integers(1, min(n, cols)))
    k = complex_randn(rng, n, rank) @ complex_randn(rng, rank, cols)
    k *= draw(st.sampled_from(norms)) / operator_norm(k)
    return fam, k


@PROPERTY
# K = 0 and K = 1e-20 K' are numerically zero: the lower bound is a vacuous +inf
@given(drawn=family_and_reference(norms=(0.0, 1e-20, 1e-3, 0.3, 1.0, 7.0)))
def test_optimal_bounds_round_trip_through_verify_frame(drawn):
    fam, k = drawn
    bounds = optimal_bounds(fam, k)
    report = verify_frame(fam, k, bounds)
    assert report.is_bessel and report.is_ckg_frame
    # the flag chain parseval => tight => frame => bessel
    assert report.is_ckg_frame <= report.is_bessel
    assert report.is_tight <= report.is_ckg_frame
    assert report.is_parseval <= report.is_tight


@PROPERTY
@given(drawn=family_and_reference())
def test_lower_times_norm_squared_never_exceeds_upper(drawn):
    fam, k = drawn
    bounds = optimal_bounds(fam, k)
    # up to the roundoff of computing ||K||^2 here and inside optimal_bounds
    assert bounds.lower * operator_norm(k @ k.conj().T) <= bounds.upper * (1 + 1e-14)


@PROPERTY
@given(drawn=family_and_reference(), parts=st.integers(2, 4))
def test_refinement_leaves_both_bounds_unchanged(drawn, parts):
    fam, k = drawn
    before = optimal_bounds(fam, k)
    after = optimal_bounds(refine_family(fam, parts), k)
    assert after.lower == pytest.approx(before.lower, rel=1e-12)
    assert after.upper == pytest.approx(before.upper, rel=1e-12)


# small sizes only: a config may legitimately ask for as much work as it likes
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-2.0, 6.0)
    | st.sampled_from(["", "inf", "x", "1", "bounds", "random", "explicit"])
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_entry = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
_matrix = st.lists(st.lists(_entry, min_size=1, max_size=3), min_size=1, max_size=3)
_atom = st.fixed_dictionaries(
    {"id": st.sampled_from(["a", "b"]), "weight": st.floats(-1.0, 2.0), "fiber_dim": st.integers(0, 2)}
)
_family = st.fixed_dictionaries(
    {
        "ambient_dim": st.integers(0, 3),
        "space": st.lists(_atom, max_size=3),
        "ops": st.lists(_matrix, max_size=3),
    }
)
_value = _json | _matrix | _family
_scenarios = [
    {"kind": "paper_example", "m": 2},
    {"kind": "continuous_fourier", "dim": 2, "n_atoms": 5},
    {"kind": "random", "dim": 2, "n_atoms": 4, "fiber_dims": 2},
    {
        "kind": "explicit",
        "family": {
            "ambient_dim": 1,
            "space": [{"id": "a", "weight": 1.0, "fiber_dim": 1}],
            "ops": [[[[1.0, 0.0]]]],
        },
    },
]
# every key the config schema reads; a mutation replaces one of them
_paths = [
    (key,)
    for key in ("scenario", "requests", "claimed", "bessel_only", "tolerances",
                "refine", "perturb", "seed", "samples")
] + [
    ("scenario", key)
    for key in ("kind", "m", "dim", "n_atoms", "atoms_per_cell", "partition_measures",
                "fiber_dims", "seed", "family", "K")
] + [
    ("perturb", key)
    for key in ("delta", "lambda1", "lambda2", "gamma", "scale", "kill_range", "family")
] + [("tolerances", "psd_slack"), ("tolerances", "residual_tol"), ("refine", "values")]


@st.composite
def configs(draw):
    """A valid small config with one to three fields replaced by junk, or
    any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_json)
    config = {
        "scenario": dict(draw(st.sampled_from(_scenarios))),
        "requests": ["bounds", "verify", "dual", "theta", "perturb", "refine"],
        "claimed": [0.01, 100.0],
        "perturb": dict(draw(st.sampled_from([{"delta": 0.1}, {"lambda1": 0.1}]))),
        "refine": {"values": [1, 2]},
        "tolerances": {},
        "samples": 4,
    }
    for path in draw(st.lists(st.sampled_from(_paths), min_size=1, max_size=3, unique=True)):
        node = config
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = draw(_value)
    return config


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(config=configs())
def test_cli_run_exits_with_a_code_for_any_json(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")])
    assert code in (0, 1, 2)
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
