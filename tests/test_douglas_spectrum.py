"""The Douglas factor from the family's cached spectrum decides like pinv(T).

The oracle is the earlier implementation: ``Gamma = pinv(T) K`` from an SVD
of the synthesis matrix T, accepted when ``||T Gamma - K|| <= residual_tol *
max(1, ||K||)`` with SVD norms.  The library first forms ``T* inv(S) K`` from
the cached ``eigh(S)``, which squares the condition number of T, and takes
the SVD of T only when that form is ineligible or its residual misses.

The band families put six rank-one atoms on a three-dimensional subspace of
C^4 and lift the rank with a component ``10^-e`` in the fourth direction, so
``cond(S)`` runs from about 1e4 (e = 2) to past ``1/eps`` (e = 10).  Two
families set the singular values of T: one near the edge of the short form's
``cond(S)`` test, where its residual misses, and one, with ``rel_rank_cutoff
= 1e-3``, whose smallest singular value ``pinv(T)`` cuts while ``cond(S)``
alone would admit the short form.
"""

import numpy as np
import pytest
from conftest import complex_randn

from ckgframes.duality import douglas_gamma, lower_bound_from_dual
from ckgframes.errors import DegenerateDual, NotAFrame
from ckgframes.frames import OperatorFamily, synthesis_matrix
from ckgframes.linalg import DEFAULT_TOL, TolerancePolicy, pseudo_inverse
from ckgframes.measure import Atom, DiscreteMeasureSpace

REL = 1e-13
N_DIM = 4


def svd_norm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def oracle_douglas(t, k, tol=DEFAULT_TOL):
    """The weight-packed factor ``pinv(T) K`` and its verdict."""
    packed = pseudo_inverse(t, tol) @ k
    residual = svd_norm(t @ packed - k)
    return packed, residual <= tol.residual_tol * max(1.0, svd_norm(k))


def short_form(fam, k, tol=DEFAULT_TOL):
    """``"taken"``, ``"missed"`` or ``"ineligible"``: the fate of ``T* inv(S) K``,
    read from the same cached spectrum the library reads."""
    w, v = fam._frame[1].eigenvalues, fam._frame[1].eigenvectors
    eps = np.finfo(np.float64).eps
    if not (w[0] > tol.rel_rank_cutoff * w[-1] and eps * w[-1] <= tol.residual_tol * w[0]):
        return "ineligible"
    t = synthesis_matrix(fam)
    packed = t.conj().T @ ((v / w) @ (v.conj().T @ k))
    passed = svd_norm(t @ packed - k) <= tol.residual_tol * max(1.0, svd_norm(k))
    return "taken" if passed else "missed"


def _family(rows, weights):
    space = DiscreteMeasureSpace(Atom(f"a{j}", float(w), 1) for j, w in enumerate(weights))
    return OperatorFamily(space=space, ops=[r[None, :] for r in rows], ambient_dim=rows.shape[1])


def _cases():
    rng = np.random.default_rng(5)
    q = np.linalg.qr(complex_randn(rng, N_DIM, N_DIM))[0]
    strong, weak = q[:, :3], q[:, 3]
    cases = []
    for e in (*range(2, 11), None):  # None: the rank stays 3
        rows = complex_randn(rng, 6, 3) @ strong.conj().T
        if e is not None:
            rows[0] += 10.0**-e * weak.conj()
        fam = _family(rows, rng.uniform(0.5, 1.5, 6))
        tag = "rank3" if e is None else f"e{e}"
        cases += [
            (f"{tag}-identity", fam, np.eye(N_DIM), DEFAULT_TOL),
            (f"{tag}-random", fam, complex_randn(rng, N_DIM, N_DIM), DEFAULT_TOL),
            (f"{tag}-strong", fam, strong @ complex_randn(rng, 3, N_DIM), DEFAULT_TOL),
            (f"{tag}-weak", fam, np.outer(weak, complex_randn(rng, N_DIM)), DEFAULT_TOL),
            (f"{tag}-lowrank", fam, complex_randn(rng, N_DIM, 2) @ complex_randn(rng, 2, N_DIM),
             DEFAULT_TOL),
        ]
    zero = np.zeros((N_DIM, N_DIM))
    full = _family(complex_randn(rng, 6, N_DIM), rng.uniform(0.5, 1.5, 6))
    cases += [
        ("rank3-zero-K", cases[-1][1], zero, DEFAULT_TOL),
        ("full-zero-K", full, zero, DEFAULT_TOL),
        ("full-random", full, complex_randn(rng, N_DIM, N_DIM), DEFAULT_TOL),
    ]
    # T = W diag(sigma) Q*: with sigma_min = 5e-4, cond(S) = 4e6 is just
    # within residual_tol / eps; with 7e-4 it is too, but pinv(T) cuts 7e-4
    # at rel_rank_cutoff = 1e-3
    w = np.linalg.qr(complex_randn(rng, 6, N_DIM))[0]
    edge = _family(w @ np.diag([1.0, 0.8, 0.5, 5e-4]) @ q.conj().T, np.ones(6))
    coarse = TolerancePolicy(rel_rank_cutoff=1e-3)
    cut = _family(w @ np.diag([1.0, 0.8, 0.5, 7e-4]) @ q.conj().T, np.ones(6))
    cases += [
        ("edge-identity", edge, np.eye(N_DIM), DEFAULT_TOL),
        ("edge-weak", edge, np.outer(weak, complex_randn(rng, N_DIM)), DEFAULT_TOL),
        ("edge-random", edge, complex_randn(rng, N_DIM, N_DIM), DEFAULT_TOL),
        ("cut-identity", cut, np.eye(N_DIM), coarse),
        ("cut-strong", cut, strong @ complex_randn(rng, 3, N_DIM), coarse),
    ]
    return cases


CASES = _cases()


def _lower(pair_or_packed):
    try:
        if isinstance(pair_or_packed, np.ndarray):
            b = svd_norm(pair_or_packed) ** 2
            if b <= 0.0:
                raise DegenerateDual("oracle")
            return 1.0 / b
        return lower_bound_from_dual(pair_or_packed)
    except DegenerateDual:
        return None


@pytest.mark.parametrize("name,fam,k,tol", CASES, ids=[c[0] for c in CASES])
def test_douglas_matches_the_pinv_oracle(name, fam, k, tol, monkeypatch):
    t = synthesis_matrix(fam)
    want, want_ok = oracle_douglas(t, k, tol)
    short = short_form(fam, k, tol) == "taken"

    t_svds = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.shape(a) == t.shape:
            t_svds.append(1)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    try:
        pair = douglas_gamma(fam, k, tol)
    except NotAFrame:
        pair = None
    monkeypatch.undo()

    assert (pair is not None) == want_ok
    # the SVD of T runs exactly when the short form is ineligible or missed
    assert len(t_svds) == (0 if short else 1)
    if pair is None:
        return
    assert pair.residual <= tol.residual_tol * max(1.0, svd_norm(k))
    got = np.vstack(pair.dual_family.ops) * np.sqrt(fam.space.weights)[:, None]
    # the short form is taken only where its forward error, eps * cond(S),
    # is within residual_tol; tests/test_spectral.py holds it to REL on
    # well-conditioned families
    rel = tol.residual_tol if short else REL
    assert np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))
    got_lower, want_lower = _lower(pair), _lower(want)
    if want_lower is None:
        assert got_lower is None
    else:
        assert abs(got_lower - want_lower) <= rel * want_lower


def test_band_reaches_both_paths_and_both_verdicts():
    """The families are a real test: the short form is taken on some, missed
    on others, and ineligible on families the SVD path accepts and rejects."""
    seen = set()
    for _, fam, k, tol in CASES:
        verdict = oracle_douglas(synthesis_matrix(fam), k, tol)[1]
        seen.add((short_form(fam, k, tol), verdict))
    assert seen == {("taken", True), ("missed", True), ("ineligible", True), ("ineligible", False)}
