"""Tests for the interpolation/ridge estimators and information matrices."""

import warnings

import numpy as np
import pytest

from rkhs_oed.estimators import (ADAPTIVE_OMEGA, Dataset, InfoMatrix,
                                 info_matrix_adaptive, info_matrix_interp,
                                 info_matrix_ridge, interpolate,
                                 residual_covariance_bound, ridge,
                                 weighted_info_matrix)
from rkhs_oed.features import (PriorOperator, evaluate_design_matrix,
                               qff_squared_exponential)
from rkhs_oed.functionals import (LinearFunctional, ProjectedData,
                                  gradient_functional, project_data,
                                  relative_bias)
from rkhs_oed.linalg import IllConditionedWarning, min_eig


import contextlib


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        yield


# ---------------------------------------------------------------------------
# Dataset / InfoMatrix types
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.eye(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        Dataset(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Dataset(np.eye(2), np.zeros(2), 1.0, lam=-1.0)


def test_dataset_prior_ball_check():
    theta = np.array([2.0, 0.0])  # norm^2 = 4 > 1/lam = 2
    with pytest.raises(ValueError):
        Dataset(np.eye(2), np.zeros(2), 1.0, lam=0.5, theta_true=theta)
    Dataset(np.eye(2), np.zeros(2), 1.0, lam=0.25, theta_true=theta)


def test_info_matrix_kind_validation():
    with pytest.raises(ValueError):
        InfoMatrix(np.eye(2), "bogus")
    W = InfoMatrix(np.eye(3), ADAPTIVE_OMEGA)
    assert W.p == 3


# ---------------------------------------------------------------------------
# interpolation estimator
# ---------------------------------------------------------------------------

def test_interpolate_identity_design_recovers_theta():
    theta = np.array([1.5, -2.0])
    ds = Dataset(np.eye(2), theta, 1.0)
    est = interpolate(ds, LinearFunctional(np.eye(2)))
    assert np.allclose(est, theta, atol=1e-12)


def test_interpolate_averages_duplicate_rows():
    x = np.array([0.3, -0.7])
    X = np.stack([x] * 4 + [np.array([1.0, 1.0])])
    y = np.array([1.0, 2.0, 3.0, 2.0, 5.0])
    C = LinearFunctional(np.eye(2))
    est = interpolate(Dataset(X, y, 1.0), C)
    single = interpolate(
        Dataset(np.stack([x, np.array([1.0, 1.0])]),
                np.array([2.0, 5.0]), 1.0), C)
    assert np.allclose(est, single, atol=1e-12)


def test_interpolate_gradient_bias_within_certificate():
    fm = qff_squared_exponential(0.1, 128, [[-1, 1]])
    C = gradient_functional(fm, np.zeros(1))
    X = evaluate_design_matrix(fm, [np.array([0.05]), np.array([-0.05])])
    V0 = PriorOperator(dim=fm.dim)
    lam = 1.0
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(fm.dim)
    theta *= 0.9 / np.linalg.norm(theta)
    ds = Dataset(X, X @ theta, 1e-12, lam=lam, theta_true=theta)
    est = interpolate(ds, C)
    nu = relative_bias(C, X, V0)
    W = info_matrix_interp(X, C, V0)
    bound = nu / np.sqrt(lam) / np.sqrt(min_eig(W.matrix))
    assert abs(est[0] - C(theta)[0]) <= bound


def test_interpolate_errors():
    C = LinearFunctional(np.eye(2))
    with pytest.raises(ValueError):
        interpolate(Dataset(np.zeros((0, 2)), np.zeros(0), 1.0), C)
    X = np.array([[1.0, 0.0], [2.0, 0.0]])  # dependent rows
    with pytest.raises(ValueError):
        interpolate(Dataset(X, np.zeros(2), 1.0), C)


# ---------------------------------------------------------------------------
# ridge estimator
# ---------------------------------------------------------------------------

def test_ridge_zero_response_and_total_shrinkage():
    C = LinearFunctional(np.eye(2))
    ds = Dataset(np.eye(2), np.zeros(2), 1.0, lam=1.0)
    assert np.allclose(ridge(ds, C), 0.0)
    ds_big = Dataset(np.eye(2), np.array([3.0, -1.0]), 1.0, lam=1e12)
    assert np.abs(ridge(ds_big, C)).max() <= 1e-9


def test_ridge_two_by_two_closed_form():
    ds = Dataset(np.eye(2), np.array([2.0, 0.0]), 1.0, lam=1.0)
    est = ridge(ds, LinearFunctional([[1.0, 0.0]]))
    assert est[0] == pytest.approx(1.0, abs=1e-12)


def test_ridge_requires_lam():
    ds = Dataset(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        ridge(ds, LinearFunctional(np.eye(2)))


def test_ridge_converges_to_interpolation():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 6))
    y = rng.standard_normal(4)
    C = LinearFunctional(rng.standard_normal((2, 6)))
    ds = Dataset(X, y, 1.0, lam=1e-10)
    r = ridge(ds, C)
    i = interpolate(ds, C)
    assert np.linalg.norm(r - i) <= 1e-6 * np.linalg.norm(i)


def test_estimator_linearity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 5))
    y1, y2 = rng.standard_normal(3), rng.standard_normal(3)
    C = LinearFunctional(rng.standard_normal((2, 5)))
    a, b = 0.7, -1.3
    for est in (interpolate, ridge):
        e1 = est(Dataset(X, y1, 1.0, lam=0.5), C)
        e2 = est(Dataset(X, y2, 1.0, lam=0.5), C)
        e12 = est(Dataset(X, a * y1 + b * y2, 1.0, lam=0.5), C)
        assert np.abs(e12 - (a * e1 + b * e2)).max() <= 1e-10


# ---------------------------------------------------------------------------
# information matrices
# ---------------------------------------------------------------------------

def test_info_matrix_interp_identity_and_scaling():
    V0 = PriorOperator(dim=3)
    C = LinearFunctional(np.eye(3))
    W = info_matrix_interp(np.eye(3), C, V0)
    assert np.allclose(W.matrix, np.eye(3), atol=1e-10)
    W2 = info_matrix_interp(2.5 * np.eye(3), C, V0)
    assert np.allclose(W2.matrix, 2.5 ** 2 * np.eye(3), atol=1e-8)
    assert W.kind == "interp_dagger"


def test_info_matrix_interp_matches_whitened_pseudo_inverse():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 6))
    Cm = rng.standard_normal((2, 6))
    a = rng.standard_normal((6, 6))
    V0 = PriorOperator(a @ a.T + np.eye(6))
    W = info_matrix_interp(X, LinearFunctional(Cm), V0)
    isq = V0.isqrt()
    Xt = X @ isq
    Ct = Cm @ isq
    brute = np.linalg.inv(Ct @ np.linalg.pinv(Xt.T @ Xt) @ Ct.T)
    assert np.abs(W.matrix - brute).max() <= 1e-8


def test_info_matrix_interp_unidentifiable_errors():
    V0 = PriorOperator(dim=2)
    # one design row cannot identify a 2-dimensional functional
    with pytest.raises(ValueError):
        info_matrix_interp(np.array([[1.0, 0.0]]),
                           LinearFunctional(np.eye(2)), V0)


def test_info_matrix_ridge_prior_only_and_closed_form():
    V0 = PriorOperator(dim=2)
    C = LinearFunctional(np.eye(2))
    W = info_matrix_ridge(np.zeros((0, 2)), C, V0, lam=3.0, sigma=0.7)
    assert np.allclose(W.matrix, 3.0 * np.eye(2), atol=1e-12)
    W2 = info_matrix_ridge(np.eye(2), C, V0, lam=1.0, sigma=1.0)
    assert np.allclose(W2.matrix, 2.0 * np.eye(2), atol=1e-12)
    assert W2.kind == "ridge_lambda"


def test_info_matrix_ridge_always_spd():
    rng = np.random.default_rng(4)
    for _ in range(10):
        X = rng.standard_normal((rng.integers(0, 6), 4))
        C = LinearFunctional(rng.standard_normal((2, 4)))
        W = info_matrix_ridge(X, C, PriorOperator(dim=4), 0.5, 0.7)
        assert min_eig(W.matrix) > 0


def test_info_matrix_adaptive_empty_and_rank_one():
    S = np.array([[2.0, 0.3], [0.3, 1.0]])
    pd = ProjectedData(np.zeros((0, 2)), np.zeros((0, 1)), S)
    W = info_matrix_adaptive(pd, lam=0.5, sigma=1.0)
    assert np.allclose(W.matrix, 0.5 * S)
    z = np.array([[1.0, 2.0]])
    pd1 = ProjectedData(z, np.zeros((1, 1)), S)
    W1 = info_matrix_adaptive(pd1, lam=1e-14, sigma=1.0)
    assert np.allclose(W1.matrix, z.T @ z, atol=1e-10)
    assert W1.kind == "adaptive_omega"


def test_info_matrix_adaptive_additive_in_data():
    rng = np.random.default_rng(5)
    S = np.eye(2)
    Z1, Z2 = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
    lam, sigma = 0.7, 0.4
    om = lambda Z: info_matrix_adaptive(
        ProjectedData(Z, np.zeros((Z.shape[0], 1)), S), lam, sigma).matrix
    lhs = om(np.vstack([Z1, Z2]))
    rhs = om(Z1) + om(Z2) - lam * S
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_ordering_omega_dominates_w_lambda():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, m, p = 6, 5, 2
        X = rng.standard_normal((n, m))
        C = LinearFunctional(rng.standard_normal((p, m)))
        V0 = PriorOperator(dim=m)
        lam, sigma = 0.5, 0.7
        pd = project_data(X, C, V0)
        Om = info_matrix_adaptive(pd, lam, sigma)
        Wl = info_matrix_ridge(X, C, V0, lam, sigma)
        assert min_eig(Om.matrix - Wl.matrix) >= -1e-8


def test_w_lambda_monotone_in_rows():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 5))
    C = LinearFunctional(rng.standard_normal((2, 5)))
    V0 = PriorOperator(dim=5)
    W1 = info_matrix_ridge(X, C, V0, 0.5, 0.7)
    W2 = info_matrix_ridge(np.vstack([X, rng.standard_normal(5)]),
                           C, V0, 0.5, 0.7)
    assert min_eig(W2.matrix - W1.matrix) >= -1e-9


# ---------------------------------------------------------------------------
# weighted information matrices
# ---------------------------------------------------------------------------

def test_weighted_info_matrix_repetition_invariance_ridge():
    # splitting a point's weight across duplicates leaves the weighted
    # second-moment matrix, hence the ridge information, unchanged
    rng = np.random.default_rng(11)
    x = np.array([0.4, -1.1, 0.2])
    z = rng.standard_normal(3)
    X = np.vstack([np.stack([x] * 4), z])
    eta = np.array([0.15, 0.15, 0.15, 0.15, 0.4])
    C = LinearFunctional([[1.0, 1.0, 0.0]])
    V0 = PriorOperator(dim=3)
    W_rep = weighted_info_matrix(X, eta, C, V0, "ridge", lam=0.5, sigma=0.7)
    W_one = weighted_info_matrix(np.vstack([x, z]), np.array([0.6, 0.4]),
                                 C, V0, "ridge", lam=0.5, sigma=0.7)
    assert np.abs(W_rep.matrix - W_one.matrix).max() <= 1e-8


def test_weighted_info_matrix_indicator_equals_single_row():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 6))
    C = LinearFunctional(rng.standard_normal((1, 6)))
    V0 = PriorOperator(dim=6)
    eta = np.array([0.0, 1.0, 0.0, 0.0])
    W = weighted_info_matrix(X, eta, C, V0, "interp")
    W_single = info_matrix_interp(X[1][None, :], C, V0)
    assert np.abs(W.matrix - W_single.matrix).max() <= 1e-8


def test_weighted_info_matrix_reference_allocation_beats_uniform():
    # the published 5-point gradient allocation against the uniform weights,
    # under the ridge objective that produced it
    fm = qff_squared_exponential(0.1, 256, [[-1, 1], [-1, 1]])
    x0 = np.zeros(2)
    e1, e2 = np.eye(2)
    h = 0.02
    pts = [x0, x0 + h * e1, x0 + 2 * h * e1, x0 - h * e1, x0 - h * e2]
    X = evaluate_design_matrix(fm, pts)
    C = gradient_functional(fm, x0)
    V0 = PriorOperator(dim=fm.dim)
    eta = np.array([0.37, 0.09, 0.08, 0.09, 0.38])
    eta = eta / eta.sum()
    Ws = weighted_info_matrix(X, eta, C, V0, "ridge", lam=0.01, sigma=0.01)
    Wu = weighted_info_matrix(X, np.full(5, 0.2), C, V0, "ridge",
                              lam=0.01, sigma=0.01)
    assert np.isfinite(min_eig(Ws.matrix))
    assert min_eig(Ws.matrix) >= min_eig(Wu.matrix)


def test_weighted_info_matrix_rejects_off_simplex():
    X = np.eye(2)
    C = LinearFunctional(np.eye(2))
    V0 = PriorOperator(dim=2)
    with pytest.raises(ValueError):
        weighted_info_matrix(X, np.array([0.7, 0.7]), C, V0, "ridge",
                             lam=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        weighted_info_matrix(X, np.array([-0.2, 1.2]), C, V0, "ridge",
                             lam=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        weighted_info_matrix(X, np.array([0.5, 0.5]), C, V0, "bogus")


# ---------------------------------------------------------------------------
# residual covariance bounds
# ---------------------------------------------------------------------------

def test_residual_bound_estimable_design_has_no_bias():
    C = LinearFunctional(np.eye(2))
    V0 = PriorOperator(dim=2)
    B = residual_covariance_bound(np.eye(2), C, V0, lam=1.0, sigma=0.0,
                                  kind="interp")
    assert min_eig(B) >= -1e-12
    assert np.abs(B).max() <= 1e-8


def test_residual_bound_sigma_zero_is_bias_only():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 4))
    Cm = rng.standard_normal((1, 4))
    C = LinearFunctional(Cm)
    V0 = PriorOperator(dim=4)
    lam = 0.5
    B0 = residual_covariance_bound(X, C, V0, lam=lam, sigma=0.0, kind="interp")
    # independent bias computation: projection residual in the whitened space
    P = X.T @ np.linalg.solve(X @ X.T, X)
    bias = Cm @ (np.eye(4) - P) @ Cm.T / lam
    assert np.abs(B0 - bias).max() <= 1e-10


def test_residual_bound_ridge_is_inverse_information():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((5, 4))
    C = LinearFunctional(rng.standard_normal((2, 4)))
    V0 = PriorOperator(dim=4)
    B = residual_covariance_bound(X, C, V0, lam=0.5, sigma=0.7, kind="ridge")
    W = info_matrix_ridge(X, C, V0, 0.5, 0.7)
    assert np.abs(B @ W.matrix - np.eye(2)).max() <= 1e-8


def test_residual_bound_u_shaped_in_step_size():
    fm = qff_squared_exponential(0.1, 256, [[-1, 1], [-1, 1]])
    x0 = np.zeros(2)
    e1, e2 = np.eye(2)
    C = gradient_functional(fm, x0)
    V0 = PriorOperator(dim=fm.dim)
    vals = []
    with _quiet():
        for h in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5):
            pts = [x0, x0 + h * e1, x0 + 2 * h * e1, x0 - h * e1, x0 - h * e2]
            X = evaluate_design_matrix(fm, pts)
            B = residual_covariance_bound(X, C, V0, lam=1.0, sigma=0.01,
                                          kind="interp")
            vals.append(np.linalg.eigvalsh(B).max())
    idx = int(np.argmin(vals))
    assert 0 < idx < len(vals) - 1          # interior minimum
    # the left arm (bias-dominated) decreases into the minimum, and the
    # bound grows well past it on the variance side
    assert all(a >= b for a, b in zip(vals[:idx], vals[1:idx + 1]))
    assert max(vals[idx + 1:]) > 5 * vals[idx]


def test_residual_bound_interp_rejects_dependent_rows():
    C = LinearFunctional(np.eye(2))
    V0 = PriorOperator(dim=2)
    X = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        residual_covariance_bound(X, C, V0, lam=1.0, sigma=0.5, kind="interp")


def test_residual_bound_unknown_kind():
    with pytest.raises(ValueError):
        residual_covariance_bound(np.eye(2), LinearFunctional(np.eye(2)),
                                  PriorOperator(dim=2), 1.0, 1.0, "bogus")
