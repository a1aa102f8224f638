"""Frame machinery: analysis/synthesis, frame operator, bounds, classification."""

import numpy as np
import pytest
from conftest import complex_randn, random_family, random_unit

from ckgframes.errors import DimensionMismatch
from ckgframes.frames import (
    FrameBounds,
    OperatorFamily,
    analysis,
    check_synthesis_range,
    frame_operator,
    optimal_bounds,
    refine_family,
    scale_family,
    synthesis,
    synthesis_matrix,
    verify_frame,
)
from ckgframes.linalg import is_psd, loewner_gap, operator_norm
from ckgframes.measure import Atom, BlockVector, DiscreteMeasureSpace, l2_inner, l2_norm
from ckgframes.scenarios import build_paper_example


def single_atom_family(op, weight=1.0):
    op = np.atleast_2d(np.asarray(op, dtype=complex))
    space = DiscreteMeasureSpace([Atom("a0", weight, op.shape[0])])
    return OperatorFamily(space=space, ops=[op], ambient_dim=op.shape[1])


def rows_family(rows, weights=None):
    rows = [np.atleast_2d(np.asarray(r, dtype=complex)) for r in rows]
    weights = weights or [1.0] * len(rows)
    space = DiscreteMeasureSpace(
        Atom(f"a{k}", w, r.shape[0]) for k, (w, r) in enumerate(zip(weights, rows))
    )
    return OperatorFamily(space=space, ops=rows, ambient_dim=rows[0].shape[1])


def test_analysis_examples():
    fam = single_atom_family(np.eye(3))
    f = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(analysis(fam, f).blocks[0], f)

    zero = single_atom_family(np.zeros((2, 3)))
    assert not analysis(zero, f).blocks[0].any()

    with pytest.raises(DimensionMismatch):
        analysis(fam, [1.0, 2.0])


def test_analysis_paper_example_single_block():
    # f = e1 + e2 pairs only with the first cell: coefficient 2 / sqrt(measure)
    for measure in (1.0, 4.0):
        fam, _ = build_paper_example(3, partition_measures=[measure, 1.0, 1.0])
        f = np.zeros(6)
        f[0] = f[1] = 1.0
        blocks = analysis(fam, f).blocks
        assert blocks[0][0] == pytest.approx(2.0 / np.sqrt(measure))
        assert all(not b.any() for b in blocks[1:])


def test_synthesis_examples():
    fam = single_atom_family(np.eye(2), weight=1.0)
    coeffs = BlockVector([[1.0, -2.0]])
    np.testing.assert_allclose(synthesis(fam, coeffs), [1.0, -2.0])

    fam3 = single_atom_family(np.eye(2), weight=3.0)
    f = np.array([0.5, 1.0 + 1.0j])
    np.testing.assert_allclose(synthesis(fam3, analysis(fam3, f)), 3.0 * f)


def test_synthesis_is_adjoint_of_analysis():
    rng = np.random.default_rng(41)
    for _ in range(15):
        fam = random_family(rng, 4, n_atoms=3)
        coeffs = BlockVector(tuple(complex_randn(rng, d) for d in fam.space.fiber_dims))
        g = complex_randn(rng, 4)
        lhs = np.vdot(g, synthesis(fam, coeffs))
        rhs = l2_inner(coeffs, analysis(fam, g), fam.space)
        assert abs(lhs - rhs) <= 1e-11


def test_frame_operator_examples():
    fam = single_atom_family(np.eye(2))
    np.testing.assert_allclose(frame_operator(fam), np.eye(2))

    fam2 = rows_family([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(frame_operator(fam2), np.eye(2))


def test_frame_operator_paper_example_equals_kkstar():
    fam, k_op = build_paper_example(8)
    # direct construction: S f = sum <f, f_n> f_n, i.e. S = sum f_n f_n*
    direct = np.zeros((16, 16), dtype=complex)
    for n in range(8):
        f_n = np.zeros(16, dtype=complex)
        f_n[2 * n] = f_n[2 * n + 1] = 1.0
        direct += np.outer(f_n, f_n.conj())
    np.testing.assert_allclose(direct, k_op @ k_op.conj().T, atol=1e-15)
    assert operator_norm(frame_operator(fam) - k_op @ k_op.conj().T) <= 1e-12


def test_frame_operator_equals_synthesis_compose_analysis():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        fam = random_family(rng, n)
        s = frame_operator(fam)
        composed = np.column_stack(
            [synthesis(fam, analysis(fam, e)) for e in np.eye(n)]
        )
        assert operator_norm(s - composed) <= 1e-11
        assert is_psd(s)


def test_synthesis_matrix_examples():
    fam4 = single_atom_family(np.eye(2), weight=4.0)
    np.testing.assert_allclose(synthesis_matrix(fam4), 2.0 * np.eye(2))
    fam1 = single_atom_family(np.eye(2), weight=1.0)
    np.testing.assert_allclose(synthesis_matrix(fam1), np.eye(2))


def test_synthesis_matrix_gram_identity():
    rng = np.random.default_rng(47)
    for _ in range(10):
        fam = random_family(rng, int(rng.integers(2, 6)))
        t = synthesis_matrix(fam)
        assert operator_norm(t @ t.conj().T - frame_operator(fam)) <= 1e-11


def test_synthesis_norm_attains_sqrt_upper_bound():
    rng = np.random.default_rng(53)
    for _ in range(10):
        fam = random_family(rng, 4)
        bounds = optimal_bounds(fam, np.eye(4))
        t_norm = operator_norm(synthesis_matrix(fam))
        assert t_norm <= np.sqrt(bounds.upper) + 1e-9
        assert t_norm == pytest.approx(np.sqrt(bounds.upper), abs=1e-9)


def test_optimal_bounds_examples():
    fam = single_atom_family(np.eye(2))
    b = optimal_bounds(fam, np.eye(2))
    assert (b.lower, b.upper) == (pytest.approx(1.0), pytest.approx(1.0))

    pe, k_op = build_paper_example(8)
    pb = optimal_bounds(pe, k_op)
    assert pb.lower == pytest.approx(1.0, abs=1e-9)
    assert pb.upper == pytest.approx(2.0, abs=1e-9)

    fam2 = rows_family([[1.0, 0.0], [0.0, 1.0]])
    b2 = optimal_bounds(fam2, np.diag([1.0, 0.0]))
    assert b2.lower == pytest.approx(1.0, abs=1e-10)
    assert b2.upper == pytest.approx(1.0, abs=1e-10)


def test_optimal_bounds_accepts_rectangular_reference():
    rng = np.random.default_rng(79)
    fam = random_family(rng, 4)
    k_wide = complex_randn(rng, 4, 6)
    k_tall = complex_randn(rng, 4, 2)
    for k_op in (k_wide, k_tall):
        b = optimal_bounds(fam, k_op)
        assert 0.0 < b.lower < np.inf
        s = frame_operator(fam)
        assert is_psd(s - b.lower * (k_op @ k_op.conj().T))
    with pytest.raises(DimensionMismatch):
        optimal_bounds(fam, complex_randn(rng, 3, 3))


def test_optimal_bounds_edge_cases():
    fam = single_atom_family(np.eye(2))
    vacuous = optimal_bounds(fam, np.zeros((2, 2)))
    assert vacuous.lower == np.inf  # zero reference: constraint vacuous

    zero_fam = single_atom_family(np.zeros((2, 2)))
    zb = optimal_bounds(zero_fam, np.eye(2))
    assert zb.lower == 0.0 and zb.upper == 0.0
    zb0 = optimal_bounds(zero_fam, np.zeros((2, 2)))
    assert zb0.lower == np.inf and zb0.upper == 0.0


def test_verify_frame_paper_example():
    fam, k_op = build_paper_example(8)
    ok = verify_frame(fam, k_op, FrameBounds(1.0, 4.0))
    assert ok.is_bessel and ok.is_ckg_frame

    too_high = verify_frame(fam, k_op, FrameBounds(1.5, 4.0))
    assert too_high.is_bessel and not too_high.is_ckg_frame


def test_verify_frame_parseval_and_chain():
    fam = single_atom_family(np.eye(2))
    report = verify_frame(fam, np.eye(2), FrameBounds(1.0, 1.0))
    assert report.is_parseval and report.is_tight and report.is_ckg_frame and report.is_bessel


def test_verify_frame_bessel_only():
    fam = single_atom_family(np.eye(2), weight=2.0)
    report = verify_frame(fam, None, FrameBounds(0.0, 2.0))
    assert report.is_bessel
    assert not report.is_ckg_frame and not report.is_tight and not report.is_parseval
    assert not verify_frame(fam, None, FrameBounds(0.0, 1.0)).is_bessel


def test_verify_frame_zero_family():
    zero_fam = single_atom_family(np.zeros((2, 2)))
    # any positive claimed lower is rejected against a nonzero reference
    rejected = verify_frame(zero_fam, np.eye(2), FrameBounds(0.5, 1.0))
    assert rejected.is_bessel and not rejected.is_ckg_frame
    # ... but is vacuously valid when the reference operator is zero
    vacuous = verify_frame(zero_fam, np.zeros((2, 2)), FrameBounds(0.5, 1.0))
    assert vacuous.is_ckg_frame


def test_verify_frame_rejects_bad_claims():
    fam = single_atom_family(np.eye(2))
    with pytest.raises(ValueError):
        verify_frame(fam, np.eye(2), FrameBounds(0.0, 1.0))
    with pytest.raises(ValueError):
        verify_frame(fam, np.eye(2), FrameBounds(1.0, np.inf))
    with pytest.raises(ValueError):
        verify_frame(fam, np.eye(2), FrameBounds(2.0, 1.0))
    # +inf is the vacuous lower bound of a numerically zero K, and only there
    assert verify_frame(fam, np.zeros((2, 2)), FrameBounds(np.inf, 1.0)).is_ckg_frame


@pytest.mark.parametrize("scale", [0.0, 1e-20])
def test_vacuous_lower_bound_round_trips(scale):
    fam = single_atom_family(np.eye(2), weight=2.0)
    k = scale * np.eye(2)
    bounds = optimal_bounds(fam, k)
    # with K = 1e-20 I the cap upper / ||K||^2 = 2e40 is finite: it must not apply
    assert bounds.lower == np.inf and bounds.upper == 2.0
    report = verify_frame(fam, k, bounds)
    assert report.is_bessel and report.is_ckg_frame and not report.is_tight
    # frame follows bessel alone
    failed = verify_frame(fam, k, FrameBounds(np.inf, 1.0))
    assert not failed.is_bessel and not failed.is_ckg_frame


def test_infinite_lower_claim_needs_a_numerically_zero_k():
    fam = single_atom_family(np.eye(2), weight=2.0)
    for k in (1e-3 * np.eye(2), np.diag([1.0, 0.0]), np.eye(2)):
        with pytest.raises(ValueError, match="positive and finite"):
            verify_frame(fam, k, FrameBounds(np.inf, 2.0))


def test_optimal_bounds_round_trip_edge_cases():
    # roundoff used to put the lower constant one ulp above the upper one
    twins = rows_family([[1.0], [1.0]])
    b = optimal_bounds(twins, np.eye(1))
    assert b.lower <= b.upper == 2.0
    assert verify_frame(twins, np.eye(1), b).is_ckg_frame

    # ||K|| < 1 legitimately gives A > B: the constraint is A ||K||^2 <= B
    fam = single_atom_family(np.eye(2))
    half = 0.5 * np.eye(2)
    b = optimal_bounds(fam, half)
    assert (b.lower, b.upper) == (4.0, 1.0)
    assert verify_frame(fam, half, b).is_tight
    with pytest.raises(ValueError):
        verify_frame(fam, half, FrameBounds(4.5, 1.0))


def test_check_synthesis_range_examples():
    pe, k_op = build_paper_example(4)
    assert check_synthesis_range(pe, k_op)

    fam = rows_family([[1.0, 0.0]])  # supported on e1 only
    assert not check_synthesis_range(fam, np.diag([0.0, 1.0]))
    assert check_synthesis_range(fam, np.zeros((2, 2)))


def test_lower_inequality_matches_psd_test():
    # sampled A ||K* f||^2 <= <S f, f> agrees with the eigenvalue test,
    # with the minimal-eigenvector direction included among the samples
    rng = np.random.default_rng(59)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        fam = random_family(rng, n)
        k_op = complex_randn(rng, n, n)
        s = frame_operator(fam)
        kk = k_op @ k_op.conj().T
        gap = loewner_gap(s, kk)
        a = gap * (0.5 if rng.random() < 0.5 else 1.5)
        if a <= 0 or abs(np.linalg.eigvalsh(s - a * kk)[0]) <= 1e-9:
            continue
        diff = s - a * kk
        eig_ok = is_psd(diff)
        w, v = np.linalg.eigh((diff + diff.conj().T) / 2)
        samples = [random_unit(rng, n) for _ in range(100)] + [v[:, 0]]
        sampled_ok = all(np.vdot(f, diff @ f).real >= -1e-9 for f in samples)
        assert sampled_ok == eig_ok


def test_positive_lower_bound_iff_range_included():
    rng = np.random.default_rng(61)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        if trial % 2 == 0:
            fam = random_family(rng, n)  # full range generically
            k_op = complex_randn(rng, n, n)
        else:
            proj = np.zeros((n, n), dtype=complex)
            proj[0, 0] = 1.0  # family sees only the first coordinate
            base = random_family(rng, n)
            fam = OperatorFamily(
                space=base.space,
                ops=[op @ proj for op in base.ops],
                ambient_dim=n,
            )
            k_op = complex_randn(rng, n, n)
        included = check_synthesis_range(fam, k_op)
        lower = optimal_bounds(fam, k_op).lower
        assert included == (lower > 1e-8)


def test_cg_frame_sandwich():
    rng = np.random.default_rng(67)
    for _ in range(10):
        fam = random_family(rng, 4)
        b = optimal_bounds(fam, np.eye(4))
        s = frame_operator(fam)
        assert is_psd(s - b.lower * np.eye(4))
        assert is_psd(b.upper * np.eye(4) - s)


def test_tightness_detection():
    fam, k_op = build_paper_example(4)
    report = verify_frame(fam, k_op, FrameBounds(1.0, 2.0))
    assert report.is_tight  # S equals K K* exactly

    rng = np.random.default_rng(71)
    generic = random_family(rng, 3)
    loose = verify_frame(generic, np.eye(3), FrameBounds(
        optimal_bounds(generic, np.eye(3)).lower, optimal_bounds(generic, np.eye(3)).upper
    ))
    assert loose.is_ckg_frame and not loose.is_tight


def test_scale_and_refine_family():
    rng = np.random.default_rng(73)
    fam = random_family(rng, 3)
    doubled = scale_family(fam, 2.0)
    assert operator_norm(frame_operator(doubled) - 4.0 * frame_operator(fam)) <= 1e-12

    for parts in (2, 3):
        refined = refine_family(fam, parts)
        assert operator_norm(frame_operator(refined) - frame_operator(fam)) <= 1e-12
        f = complex_randn(rng, 3)
        assert l2_norm(analysis(refined, f), refined.space) == pytest.approx(
            l2_norm(analysis(fam, f), fam.space), abs=1e-12
        )


def test_operator_family_validates_shapes():
    space = DiscreteMeasureSpace([Atom("a", 1.0, 2)])
    with pytest.raises(DimensionMismatch):
        OperatorFamily(space=space, ops=[np.eye(3)], ambient_dim=3)
    with pytest.raises(DimensionMismatch):
        OperatorFamily(space=space, ops=[], ambient_dim=2)
