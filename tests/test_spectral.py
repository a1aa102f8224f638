"""Each decision reads one spectrum: the same decisions as SVD norms, fewer
LAPACK calls.

The oracle below is the earlier implementation, which took every norm with
an SVD and decomposed each Hermitian matrix once per test.  The library must
reach the same flags and the same values to roundoff.
"""

import numpy as np
import pytest
from conftest import complex_randn, random_family, random_psd

from ckgframes.duality import canonical_dual, douglas_gamma
from ckgframes.errors import NotAFrame, NotHermitian
from ckgframes.frames import (
    FrameBounds,
    OperatorFamily,
    frame_operator,
    optimal_bounds,
    synthesis_matrix,
    verify_frame,
)
from ckgframes.linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    hermitian_eigen,
    is_psd,
    loewner_gap,
    pseudo_inverse,
    range_inclusion,
)
from ckgframes.measure import Atom, DiscreteMeasureSpace
from ckgframes.scenarios import build_continuous_fourier, build_paper_example

REL = 1e-13


# ----------------------------------------------------------------------------
# oracle: every norm an SVD, every Hermitian test a pair of SVD norms


def svd_norm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def oracle_symmetrize(h, tol):
    if svd_norm(h - h.conj().T) > tol.residual_tol * svd_norm(h):
        raise NotHermitian("oracle")
    return (h + h.conj().T) / 2.0


def oracle_is_psd(h, tol):
    sym = oracle_symmetrize(h, tol)
    w = np.linalg.eigvalsh(sym)
    return bool(w[0] >= -tol.psd_slack * max(1.0, float(np.max(np.abs(w)))))


def oracle_gap(s, m, tol):
    s = oracle_symmetrize(s, tol)
    m = oracle_symmetrize(m, tol)
    assert oracle_is_psd(s, tol) and oracle_is_psd(m, tol)
    s_norm, m_norm = svd_norm(s), svd_norm(m)
    if m_norm <= tol.rel_rank_cutoff * max(1.0, s_norm):
        return float("inf")
    d, v = np.linalg.eigh(s)
    keep = d > tol.rel_rank_cutoff * max(d[-1], 0.0)
    if not keep.all():
        v0 = v[:, ~keep]
        if svd_norm(v0.conj().T @ m @ v0) > tol.residual_tol * max(1.0, m_norm):
            return 0.0
    if not keep.any():
        return float("inf")
    vr = v[:, keep] / np.sqrt(d[keep])
    g = vr.conj().T @ m @ vr
    top = float(np.linalg.eigvalsh((g + g.conj().T) / 2.0)[-1])
    return float("inf") if top <= 0.0 else 1.0 / top


def oracle_bounds(fam, k, tol=DEFAULT_TOL):
    s = frame_operator(fam)
    upper = max(float(np.linalg.eigvalsh(s)[-1]), 0.0)
    kk = k @ k.conj().T
    lower = oracle_gap(s, kk, tol)
    k_norm_sq = float(np.linalg.eigvalsh(kk)[-1])
    if np.isfinite(lower) and k_norm_sq > 0.0:
        lower = min(lower, upper / k_norm_sq)
    return lower, upper


def oracle_verify(fam, k, claimed, tol=DEFAULT_TOL):
    """(bessel, frame, tight, parseval)."""
    s = frame_operator(fam)
    kk = k @ k.conj().T
    k_norm_sq = float(np.linalg.eigvalsh(kk)[-1])
    if not 0 < claimed.lower < np.inf:
        raise ValueError("oracle")
    if k_norm_sq > 0.0 and claimed.lower > claimed.upper / k_norm_sq:
        raise ValueError("oracle")
    bessel = float(np.linalg.eigvalsh(s)[-1]) <= claimed.upper + tol.psd_slack * max(
        1.0, claimed.upper
    )
    frame = bessel and oracle_is_psd(s - claimed.lower * kk, tol)
    gap = oracle_gap(s, kk, tol)
    tight = (
        np.isfinite(gap)
        and frame
        and svd_norm(s - gap * kk) <= tol.residual_tol * max(1.0, svd_norm(s))
    )
    return bessel, frame, bool(tight), bool(tight and abs(gap - 1.0) <= tol.residual_tol)


def oracle_canonical(fam, tol=DEFAULT_TOL):
    s = frame_operator(fam)
    if not oracle_gap(s, np.eye(fam.ambient_dim), tol) > 0.0:
        raise NotAFrame("oracle")
    w, v = np.linalg.eigh(s)
    return np.vstack([op @ ((v / w) @ v.conj().T) for op in fam.ops])


def oracle_douglas(lam, k, tol=DEFAULT_TOL):
    """The weight-packed factor pinv(T) K: range test, then residual test."""
    t = synthesis_matrix(lam)
    if not range_inclusion(k, t, tol):
        raise NotAFrame("oracle")
    packed = pseudo_inverse(t, tol) @ k
    if svd_norm(t @ packed - k) > tol.residual_tol * max(1.0, svd_norm(k)):
        raise NotAFrame("oracle")
    return packed


# ----------------------------------------------------------------------------
# families: random, rank deficient, range leak, tight


def _family(ops):
    space = DiscreteMeasureSpace(
        Atom(atom_id=f"a{j}", weight=1.0, fiber_dim=op.shape[0]) for j, op in enumerate(ops)
    )
    return OperatorFamily(space=space, ops=ops, ambient_dim=ops[0].shape[1])


def _cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n in (3, 6, 9):
        fam = random_family(rng, n)
        cases.append((f"random-n{n}", fam, complex_randn(rng, n, n)))
        # rank-deficient reference operator
        cases.append((f"lowrank-K-n{n}", fam, complex_randn(rng, n, 1) @ complex_randn(rng, 1, n)))
        # rank-deficient family (S singular) with K inside and outside range(S)
        basis = complex_randn(rng, n, n - 1)
        thin = _family([complex_randn(rng, 2, n - 1) @ basis.conj().T for _ in range(n)])
        cases.append((f"singular-S-inside-n{n}", thin, basis @ complex_randn(rng, n - 1, n)))
        cases.append((f"singular-S-leak-n{n}", thin, complex_randn(rng, n, n)))
        # family that kills one direction of range(K): range leak
        u = complex_randn(rng, n, 1)
        u /= np.linalg.norm(u)
        kill = np.eye(n) - u @ u.conj().T
        cases.append((f"killed-direction-n{n}", _family([op @ kill for op in fam.ops]), np.eye(n)))
    fam, k = build_paper_example(4)
    cases.append(("paper-example", fam, k))
    fam, k = build_continuous_fourier(5, 11)
    cases.append(("fourier", fam, k))
    return cases


CASES = _cases()


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (NotAFrame, ValueError) as err:
        return "raises", type(err).__name__


def assert_close(a, b):
    if np.isinf(a) or np.isinf(b) or a == 0.0 or b == 0.0:
        assert a == b
    else:
        assert abs(a - b) <= REL * max(abs(a), abs(b))


def assert_matrix_close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= REL * max(1.0, np.max(np.abs(b), initial=0.0))


@pytest.mark.parametrize("name,fam,k", CASES, ids=[c[0] for c in CASES])
def test_decisions_match_svd_norm_oracle(name, fam, k):
    s = frame_operator(fam)
    for m in (k @ k.conj().T, np.eye(fam.ambient_dim)):
        assert_close(loewner_gap(s, m), oracle_gap(s, m, DEFAULT_TOL))

    bounds = optimal_bounds(fam, k)
    lower, upper = oracle_bounds(fam, k)
    assert_close(bounds.lower, lower)
    assert_close(bounds.upper, upper)

    # claims away from the one-ulp edge of the A ||K||^2 <= B rule
    finite_lower = bounds.lower if 0.0 < bounds.lower < np.inf else 1.0
    for claim in (
        FrameBounds(0.5 * finite_lower, 2.0 * bounds.upper + 1.0),
        FrameBounds(0.5 * finite_lower, 0.5 * bounds.upper + 1e-3),
        FrameBounds(1e-6, bounds.upper),
        FrameBounds(4.0 * finite_lower, 2.0 * bounds.upper + 1.0),
    ):
        got = outcome(verify_frame, fam, k, claim)
        if got[0] == "ok":
            r = got[1]
            got = ("ok", (r.is_bessel, r.is_ckg_frame, r.is_tight, r.is_parseval))
        assert got == outcome(oracle_verify, fam, k, claim), claim

    got = outcome(canonical_dual, fam)
    want = outcome(oracle_canonical, fam)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert_matrix_close(np.vstack(got[1].ops), want[1])
    else:
        assert got[1] == want[1]

    got = outcome(douglas_gamma, fam, k)
    want = outcome(oracle_douglas, fam, k)
    assert got[0] == want[0]
    if got[0] == "ok":
        row_w = np.repeat(fam.space.weights, fam.space.fiber_dims)
        assert_matrix_close(np.vstack(got[1].dual_family.ops) * np.sqrt(row_w)[:, None], want[1])


def test_cases_cover_every_outcome():
    """The families above reach tight, Parseval, zero-gap and NotAFrame paths."""
    seen = set()
    for _, fam, k in CASES:
        bounds = optimal_bounds(fam, k)
        seen.add("zero-gap" if bounds.lower == 0.0 else "positive-gap")
        if bounds.lower > 0.0:
            r = verify_frame(fam, k, FrameBounds(0.5 * bounds.lower, 2.0 * bounds.upper))
            seen.add("parseval" if r.is_parseval else "tight" if r.is_tight else "frame")
        seen.add("douglas-" + outcome(douglas_gamma, fam, k)[0])
        seen.add("canonical-" + outcome(canonical_dual, fam)[0])
    assert seen >= {
        "zero-gap", "positive-gap", "parseval", "frame",
        "douglas-ok", "douglas-raises", "canonical-ok", "canonical-raises",
    }


@pytest.mark.parametrize("name,fam,k", CASES, ids=[c[0] for c in CASES])
def test_canonical_invertibility_rule_matches_the_identity_gap(name, fam, k):
    """canonical_dual reads invertibility from eigh(S); on these families that
    is the verdict of the Loewner gap of S against the identity."""
    gap = loewner_gap(frame_operator(fam), np.eye(fam.ambient_dim))
    assert outcome(canonical_dual, fam)[0] == ("ok" if gap > 0.0 else "raises")


def test_canonical_dual_rejects_a_singular_frame_operator_of_large_norm():
    # S = diag(1e13, 0): next to ||S|| the identity is "negligible", so the
    # gap against it was +inf and the inverse divided by the zero eigenvalue
    fam = OperatorFamily(
        space=DiscreteMeasureSpace([Atom(atom_id="a0", weight=1e13, fiber_dim=1)]),
        ops=[np.array([[1.0, 0.0]])],
        ambient_dim=2,
    )
    assert np.linalg.norm(frame_operator(fam), 2) >= 1e12
    with pytest.raises(NotAFrame, match="singular"):
        canonical_dual(fam)


def test_douglas_gamma_raises_once_with_residual_and_allowed_value():
    fam = _family([np.array([[1.0, 0.0]])])
    with pytest.raises(NotAFrame, match=r"range\(K\).*factorization residual .* allowed "):
        douglas_gamma(fam, np.eye(2))


# ----------------------------------------------------------------------------
# the Hermitian test on inputs that are not exactly Hermitian


def _skew(rng, n):
    """A random skew-Hermitian matrix with spectral norm 1."""
    e = complex_randn(rng, n, n)
    e = e - e.conj().T
    return e / svd_norm(e)


def _near_hermitian(rng, n, ratio, tol):
    """``H = A + t E`` whose deviation ``||H - H*|| = 2t`` is ``ratio`` times
    the allowed ``residual_tol * ||H||``."""
    a = random_psd(rng, n)
    e = _skew(rng, n)
    t = ratio * tol.residual_tol * svd_norm(a) / 2.0
    for _ in range(3):  # ||H|| moves with t only at second order
        t = ratio * tol.residual_tol * svd_norm(a + t * e) / 2.0
    h = a + t * e
    assert not np.array_equal(h, h.conj().T)
    deviation = svd_norm(h - h.conj().T) / (tol.residual_tol * svd_norm(h))
    assert deviation == pytest.approx(ratio, rel=1e-6)
    return h


DECISIONS = {
    "hermitian_eigen": lambda h, tol: hermitian_eigen(h, tol),
    "is_psd": lambda h, tol: is_psd(h, tol),
    "loewner_gap S": lambda h, tol: loewner_gap(h, np.eye(h.shape[0]), tol),
    "loewner_gap M": lambda h, tol: loewner_gap(np.eye(h.shape[0]), h, tol),
}


@pytest.mark.parametrize("residual_tol", [DEFAULT_TOL.residual_tol, 1e-6])
@pytest.mark.parametrize("decision", sorted(DECISIONS))
def test_not_hermitian_fires_at_twice_not_at_half_the_threshold(decision, residual_tol):
    tol = TolerancePolicy(residual_tol=residual_tol)
    rng = np.random.default_rng(6)
    with pytest.raises(NotHermitian):
        DECISIONS[decision](_near_hermitian(rng, 6, 2.0, tol), tol)
    DECISIONS[decision](_near_hermitian(rng, 6, 0.5, tol), tol)
    with pytest.raises(NotHermitian):
        oracle_symmetrize(_near_hermitian(rng, 6, 2.0, tol), tol)
    oracle_symmetrize(_near_hermitian(rng, 6, 0.5, tol), tol)


def test_exactly_hermitian_input_takes_no_norm(monkeypatch):
    calls = []
    real = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    h = random_psd(np.random.default_rng(3), 5)
    assert np.array_equal(h, h.conj().T)
    assert is_psd(h)
    hermitian_eigen(h)
    loewner_gap(h, h)
    assert calls == []


# ----------------------------------------------------------------------------
# LAPACK budget of one bounds -> verify -> douglas -> canonical sequence


def test_lapack_call_budget(monkeypatch):
    rng = np.random.default_rng(16)
    n = 16
    fam = random_family(rng, n, n_atoms=12)
    k = complex_randn(rng, n, n // 2) @ complex_randn(rng, n // 2, n)
    counts = dict.fromkeys(("svd", "eigh", "eigvalsh", "norm"), 0)
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    bounds = optimal_bounds(fam, k)
    report = verify_frame(fam, k, FrameBounds(0.5 * bounds.lower, 2.0 * bounds.upper))
    douglas_gamma(fam, k)
    canonical_dual(fam)
    monkeypatch.undo()

    assert report.is_ckg_frame
    # one eigh of S, cached by the family; eigvalsh: K K* and the reduced gap
    # in bounds and verify (4), the frame test and the tightness residual in
    # verify (2); canonical reads the spectrum of S only; douglas takes the
    # SVD of K for ||K|| and a norm for its residual, and no SVD of T
    assert counts["eigh"] <= 1
    assert counts["eigvalsh"] <= 6
    assert counts["svd"] <= 1
    assert counts["norm"] <= 1
