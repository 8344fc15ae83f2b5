"""Tests for feature maps: quadrature Fourier, Nystrom, linear, polynomial."""

import numpy as np
import pytest

from rkhs_oed.features import (FeatureMap, PriorOperator,
                               evaluate_design_matrix, linear_map,
                               nystrom_features, polynomial_map,
                               qff_squared_exponential, se_kernel,
                               se_kernel_grad)


# ---------------------------------------------------------------------------
# squared-exponential kernel
# ---------------------------------------------------------------------------

def test_se_kernel_values():
    k = se_kernel(0.5)
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.3, 0.4]])
    # |a-b|^2 = 0.25, l^2 = 0.25 -> exp(-0.5)
    assert k(a, b)[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-14)
    assert k(a, a)[0, 0] == pytest.approx(1.0)


def test_se_kernel_rejects_bad_lengthscale():
    with pytest.raises(ValueError):
        se_kernel(0.0)


# ---------------------------------------------------------------------------
# quadrature Fourier features
# ---------------------------------------------------------------------------

def test_qff_unit_norm_at_origin():
    fm = qff_squared_exponential(0.5, 128, [[-1, 1], [-1, 1]])
    phi = fm(np.zeros(2))
    assert phi @ phi == pytest.approx(1.0, abs=1e-3)


def test_qff_gram_is_symmetric_and_shift_invariant():
    fm = qff_squared_exponential(0.5, 64, [[-1, 1]])
    x, y = np.array([0.2]), np.array([-0.4])
    dxy = fm(x) @ fm(y)
    assert dxy == pytest.approx(fm(y) @ fm(x), abs=1e-14)
    # SE features depend on x - y only
    s = np.array([0.3])
    assert fm(x + s) @ fm(y + s) == pytest.approx(dxy, abs=1e-12)


def test_qff_gram_error_below_1e3_on_grid():
    fm = qff_squared_exponential(0.5, 128, [[-1, 1]])
    grid = np.linspace(-1, 1, 21)[:, None]
    P = np.stack([fm(x) for x in grid])
    K = se_kernel(0.5)(grid, grid)
    assert np.abs(P @ P.T - K).max() < 1e-3


def test_qff_error_monotone_in_m_doubling():
    grid = np.linspace(-1, 1, 21)[:, None]
    K = se_kernel(0.5)(grid, grid)
    errs = []
    for m in (8, 16, 32, 64, 128):
        fm = qff_squared_exponential(0.5, m, [[-1, 1]])
        P = np.stack([fm(x) for x in grid])
        errs.append(np.abs(P @ P.T - K).max())
    for lo, hi in zip(errs[1:], errs[:-1]):
        # 10% slack plus a floating-point floor once machine precision is hit
        assert lo <= 1.1 * hi + 1e-12


def test_qff_rejects_bad_args():
    with pytest.raises(ValueError):
        qff_squared_exponential(0.5, 15, [[-1, 1]])  # odd m
    with pytest.raises(ValueError):
        qff_squared_exponential(-1.0, 16, [[-1, 1]])
    with pytest.raises(ValueError):
        qff_squared_exponential(0.5, 16, [[-np.inf, 1]])


def test_qff_jacobian_matches_finite_differences():
    fm = qff_squared_exponential(0.3, 64, [[-1, 1], [-1, 1]])
    rng = np.random.default_rng(0)
    step = 1e-6
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, size=2)
        jac = fm.jacobian(x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (fm(x + e) - fm(x - e)) / (2 * step)
            assert np.abs(jac[i] - fd).max() <= 1e-4


def test_qff_exposes_frequencies():
    fm = qff_squared_exponential(0.5, 32, [[-1, 1]])
    # one frequency row per column
    assert fm.omega.shape == (fm.dim, 1)
    # second derivative of each Fourier column is -omega^2 times itself
    x = np.array([0.37])
    step = 1e-4
    dd_fd = (fm(x + step) - 2 * fm(x) + fm(x - step)) / step ** 2
    assert np.abs(dd_fd + fm.omega[:, 0] ** 2 * fm(x)).max() < 1e-3


# ---------------------------------------------------------------------------
# Nystrom features
# ---------------------------------------------------------------------------

def test_nystrom_single_landmark_reproduces_unit_self_similarity():
    k = se_kernel(0.5)
    z = np.array([[0.3, -0.2]])
    fm = nystrom_features(k, z)
    phi = fm(z[0])
    assert phi @ phi == pytest.approx(1.0, abs=1e-12)


def test_nystrom_reproduces_gram_at_landmarks():
    k = se_kernel(0.4)
    z = np.linspace(-1, 1, 5)[:, None]
    fm = nystrom_features(k, z)
    P = np.stack([fm(x) for x in z])
    assert np.abs(P @ P.T - k(z, z)).max() < 1e-8


def test_nystrom_50_random_landmarks_2d():
    rng = np.random.default_rng(1)
    z = rng.uniform(-1.5, 1.5, size=(50, 2))
    k = se_kernel(0.25)
    fm = nystrom_features(k, z)
    P = np.stack([fm(x) for x in z])
    assert np.abs(P @ P.T - k(z, z)).max() < 1e-6


def test_nystrom_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    z = rng.uniform(-1, 1, size=(20, 2))
    fm = nystrom_features(se_kernel(0.3), z, kernel_grad=se_kernel_grad(0.3))
    step = 1e-6
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, size=2)
        jac = fm.jacobian(x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (fm(x + e) - fm(x - e)) / (2 * step)
            assert np.abs(jac[i] - fd).max() <= 1e-4


def test_nystrom_rejects_non_psd_gram():
    def bad_kernel(a, b):
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        out = -np.ones((a.shape[0], b.shape[0]))
        np.fill_diagonal(out[:min(a.shape[0], b.shape[0])], 0.0)
        return out

    with pytest.raises(ValueError):
        nystrom_features(bad_kernel, np.array([[0.0], [1.0]]))


# ---------------------------------------------------------------------------
# linear / polynomial maps, design matrices
# ---------------------------------------------------------------------------

def test_linear_map_identity_jacobian():
    fm = linear_map(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(fm(x), x)
    assert np.array_equal(fm.jacobian(x), np.eye(3))


def test_polynomial_map_values_and_jacobian():
    fm = polynomial_map(2)
    x = np.array([2.0])
    assert np.allclose(fm(x), [1.0, 2.0, 4.0])
    assert np.allclose(fm.jacobian(x), [[0.0, 1.0, 4.0]])
    fm2 = polynomial_map(2, include_constant=False)
    assert np.allclose(fm2(x), [2.0, 4.0])


def test_feature_map_shape_validation():
    fm = linear_map(2)
    with pytest.raises(ValueError):
        fm(np.zeros(3))


def test_jacobian_requires_jacobian_fn():
    fm = FeatureMap(2, 1, lambda X: np.concatenate([X, X ** 2], axis=1))
    assert np.array_equal(fm(np.array([3.0])), [3.0, 9.0])
    with pytest.raises(ValueError, match="jacobian_fn"):
        fm.jacobian(np.array([3.0]))


def test_evaluate_design_matrix_empty_and_duplicates():
    fm = linear_map(2)
    X = evaluate_design_matrix(fm, [])
    assert X.shape == (0, 2)
    pts = [np.array([1.0, 2.0]), np.array([1.0, 2.0])]
    X = evaluate_design_matrix(fm, pts)
    assert np.array_equal(X[0], X[1])
    eye = evaluate_design_matrix(fm, [np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0])])
    assert np.array_equal(eye, np.eye(2))


# ---------------------------------------------------------------------------
# prior operator
# ---------------------------------------------------------------------------

def test_prior_operator_roots_and_inverse():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    V0 = PriorOperator(a @ a.T + np.eye(3))
    assert np.allclose(V0.inv() @ V0.matrix, np.eye(3), atol=1e-10)
    assert np.allclose(V0.sqrt() @ V0.sqrt(), V0.matrix, atol=1e-10)
    assert np.allclose(V0.isqrt() @ V0.sqrt(), np.eye(3), atol=1e-10)


def test_prior_operator_identity_shortcut():
    V0 = PriorOperator(dim=4)
    assert V0.is_identity
    assert np.array_equal(V0.matrix, np.eye(4))


def test_prior_operator_rejects_non_spd():
    with pytest.raises(ValueError):
        PriorOperator(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        PriorOperator()
