"""Tests for allocation objectives, solvers, rounding, and budget balancing."""

import warnings

import numpy as np
import pytest

from rkhs_oed import design
from rkhs_oed.design import (Allocation, DesignObjective,
                             balance_bias_variance, evaluate_objective,
                             gradient_design_geometry_check, greedy_design,
                             grid_search_design, mirror_descent_design,
                             objective_gradient, query_complexity,
                             round_allocation, _fd_gradient)
from rkhs_oed.estimators import weighted_info_matrix
from rkhs_oed.features import (PriorOperator, evaluate_design_matrix,
                               polynomial_map, qff_squared_exponential)
from rkhs_oed.functionals import (FunctionalFamily, LinearFunctional,
                                  gradient_functional)
from rkhs_oed.linalg import IllConditionedWarning, pinv
from rkhs_oed.scenarios.contamination import contamination_features


def _ridge_obj(kind="E", C=None, lam=1.0, sigma=1.0):
    return DesignObjective(kind, "ridge", C or LinearFunctional(np.eye(2)),
                           lam=lam, sigma=sigma)


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------

def test_design_objective_validation():
    C = LinearFunctional(np.eye(2))
    with pytest.raises(ValueError):
        DesignObjective("D", "ridge", C, lam=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        DesignObjective("A", "ridge", C, lam=1.0, sigma=1.0)  # trace is "T"
    with pytest.raises(ValueError):
        DesignObjective("E", "lasso", C)
    with pytest.raises(ValueError):
        DesignObjective("E", "ridge", C)  # missing lam/sigma


def test_allocation_rejects_off_simplex():
    with pytest.raises(ValueError):
        Allocation([0, 1], np.eye(2), [0.6, 0.6])


def test_evaluate_objective_identity_closed_form():
    # uniform weights on the standard basis: W = (I + 0.5 I)^{-1 inv} = 1.5 I
    obj = _ridge_obj("E")
    val = evaluate_objective(obj, np.eye(2), np.array([0.5, 0.5]))
    assert val == pytest.approx(1.5, abs=1e-12)
    obj_a = _ridge_obj("T")
    assert evaluate_objective(obj_a, np.eye(2), np.array([0.5, 0.5])) == \
        pytest.approx(3.0, abs=1e-12)


def test_evaluate_objective_permutation_invariance():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3))
    eta = np.array([0.1, 0.2, 0.3, 0.4])
    obj = DesignObjective("T", "ridge", LinearFunctional(np.eye(3)),
                          lam=0.5, sigma=0.7)
    perm = np.array([2, 0, 3, 1])
    v1 = evaluate_objective(obj, X, eta)
    v2 = evaluate_objective(obj, X[perm], eta[perm])
    assert v1 == pytest.approx(v2, abs=1e-10)


def test_evaluate_objective_unidentifiable_interp_is_minus_inf():
    obj = DesignObjective("E", "interp", LinearFunctional(np.eye(2)))
    val = evaluate_objective(obj, np.array([[1.0, 0.0]]), np.array([1.0]))
    assert val == -np.inf


def test_robust_objective_is_min_over_family():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 3))
    eta = np.full(3, 1 / 3)
    mats = {g: rng.standard_normal((1, 3)) for g in range(4)}
    fam = FunctionalFamily(lambda g: LinearFunctional(mats[g]), list(mats))
    obj = DesignObjective("E", "ridge", fam, lam=0.5, sigma=0.7)
    robust = evaluate_objective(obj, X, eta)
    singles = [evaluate_objective(DesignObjective("E", "ridge", C,
                                                  lam=0.5, sigma=0.7), X, eta)
               for C in fam.functionals()]
    assert robust == pytest.approx(min(singles), abs=1e-12)
    assert all(robust <= s + 1e-12 for s in singles)


def test_objective_concavity_spot_check():
    rng = np.random.default_rng(2)
    n, m = 5, 4
    X = rng.standard_normal((n, m))
    cases = [
        DesignObjective("E", "ridge", LinearFunctional(
            rng.standard_normal((2, m))), lam=0.5, sigma=0.7),
        DesignObjective("T", "ridge", LinearFunctional(
            rng.standard_normal((2, m))), lam=0.5, sigma=0.7),
    ]
    # interpolation concavity needs identifiable sub-designs: use p = n rows
    Xsq = rng.standard_normal((m, m))
    cases += [DesignObjective(k, "interp", LinearFunctional(np.eye(m)))
              for k in ("E", "T")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for obj in cases:
            Xc = Xsq if obj.estimator_kind == "interp" else X
            k = Xc.shape[0]
            for _ in range(100):
                e1 = rng.dirichlet(np.ones(k))
                e2 = rng.dirichlet(np.ones(k))
                mid = evaluate_objective(obj, Xc, 0.5 * (e1 + e2))
                avg = 0.5 * (evaluate_objective(obj, Xc, e1)
                             + evaluate_objective(obj, Xc, e2))
                assert mid >= avg - 1e-9 * max(1.0, abs(avg))


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 4))
    eta = rng.dirichlet(np.ones(4))
    C1, C2, C3 = (LinearFunctional(rng.standard_normal((2, 4)))
                  for _ in range(3))
    family = FunctionalFamily([C2, C3].__getitem__, [0, 1])
    ridge = dict(lam=0.5, sigma=0.7)
    objs = [DesignObjective("T", "ridge", C1, **ridge),
            DesignObjective("E", "interp", LinearFunctional(np.eye(4))),
            DesignObjective("E", "ridge", C1, **ridge),
            DesignObjective("T", "interp", C1)]
    objs += [DesignObjective(k, e, family, **(ridge if e == "ridge" else {}))
             for k in ("E", "T") for e in ("ridge", "interp")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for obj in objs:
            # FD is a reference only away from kinks: a wide bottom gap for
            # E and a strict worst member for the family
            vals = design._member_values(obj, X, eta)
            if len(vals) > 1:
                assert abs(vals[0] - vals[1]) > 1e-2 * max(np.abs(vals))
            Ws = [weighted_info_matrix(X, eta, C, PriorOperator(dim=4),
                                       obj.estimator_kind, **ridge).matrix
                  for C in obj._functionals()]
            w = np.linalg.eigvalsh(Ws[int(np.argmin(vals))])
            assert w[1] - w[0] > 1e-2 * w[-1]
            g = objective_gradient(obj, X, eta)
            fd = _fd_gradient(obj, X, eta)
            assert np.abs(g - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_solver_never_differentiates_numerically(monkeypatch):
    # contamination-shaped ridge instance: C = I_m with fewer support rows
    # than m, so the bottom eigenvalue of W_lambda repeats m - n times
    def no_fd(*args, **kwargs):
        raise AssertionError("finite-difference gradient in the solver")

    monkeypatch.setattr(design, "_fd_gradient", no_fd)
    fm = contamination_features(3)
    pts = np.linspace(-1.0, 1.0, 6)[:, None]
    obj = DesignObjective("E", "ridge", LinearFunctional(np.eye(fm.dim)),
                          lam=0.1, sigma=0.1)
    alloc = mirror_descent_design(obj, list(pts), X_S=fm(pts), iters=30)
    assert np.isfinite(alloc.objective_value)


# ---------------------------------------------------------------------------
# greedy solver
# ---------------------------------------------------------------------------

def test_greedy_single_candidate():
    obj = _ridge_obj("E", C=LinearFunctional([[1.0, 0.0]]))
    alloc = greedy_design(obj, [np.array([1.0, 0.0])], budget=5,
                          X_cand=np.array([[1.0, 0.0]]))
    assert np.allclose(alloc.eta, [1.0])
    assert np.array_equal(alloc.counts, [5])


def test_greedy_standard_basis_counts_and_trace():
    obj = _ridge_obj("E")
    alloc = greedy_design(obj, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                          budget=6, X_cand=np.eye(2))
    assert np.allclose(alloc.eta, [0.5, 0.5])
    assert np.array_equal(alloc.counts, [3, 3])
    # accumulated-information objective: lambda_min(I + diag(counts))
    assert np.allclose(alloc.trace, [2.0, 2.0, 3.0, 3.0, 4.0], atol=1e-10)
    assert alloc.objective_value == pytest.approx(4.0, abs=1e-10)


def test_greedy_trace_is_nondecreasing():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((8, 3))
    obj = DesignObjective("T", "ridge",
                          LinearFunctional(rng.standard_normal((2, 3))),
                          lam=0.5, sigma=0.7)
    alloc = greedy_design(obj, list(range(8)), budget=20, X_cand=X)
    t = np.array(alloc.trace)
    assert np.all(np.diff(t) >= -1e-9)
    assert alloc.counts.sum() == 20


def test_greedy_rejects_interp_and_small_budget():
    obj = DesignObjective("E", "interp", LinearFunctional(np.eye(2)))
    with pytest.raises(ValueError):
        greedy_design(obj, [0, 1], budget=5, X_cand=np.eye(2))
    robj = _ridge_obj("E")
    with pytest.raises(ValueError):
        greedy_design(robj, [0, 1], budget=1, X_cand=np.eye(2))


# ---------------------------------------------------------------------------
# mirror descent
# ---------------------------------------------------------------------------

def test_mirror_descent_symmetric_instance():
    obj = _ridge_obj("E")
    alloc = mirror_descent_design(obj, [0, 1], X_S=np.eye(2), iters=200,
                                  eta0=np.array([0.3, 0.7]))
    assert np.abs(alloc.eta - 0.5).max() <= 1e-3
    assert abs(alloc.eta.sum() - 1.0) <= 1e-12
    assert alloc.objective_value == pytest.approx(1.5, abs=1e-6)


def test_mirror_descent_constant_objective_keeps_uniform():
    # identical rows: every allocation gives the same information
    X = np.array([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]])
    obj = _ridge_obj("T", C=LinearFunctional([[1.0, 0.0]]))
    alloc = mirror_descent_design(obj, [0, 1, 2], X_S=X, iters=50)
    assert np.abs(alloc.eta - 1 / 3).max() <= 1e-10
    assert max(alloc.trace) - min(alloc.trace) <= 1e-12


def test_mirror_descent_infeasible_start_raises():
    obj = DesignObjective("E", "interp", LinearFunctional(np.eye(2)))
    X = np.array([[1.0, 0.0], [2.0, 0.0]])  # dependent rows, uniform start
    with pytest.raises(ValueError):
        mirror_descent_design(obj, [0, 1], X_S=X, iters=10)


def test_mirror_descent_trace_best_iterate():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 3))
    obj = DesignObjective("T", "ridge",
                          LinearFunctional(rng.standard_normal((2, 3))),
                          lam=0.5, sigma=0.7)
    alloc = mirror_descent_design(obj, list(range(5)), X_S=X, iters=100)
    assert alloc.objective_value == pytest.approx(max(alloc.trace), abs=1e-12)
    assert alloc.objective_value >= alloc.trace[0]
    recomputed = evaluate_objective(obj, X, alloc.eta)
    assert recomputed == pytest.approx(alloc.objective_value, abs=1e-10)


# ---------------------------------------------------------------------------
# grid-search oracle and the optimizer-vs-oracle property
# ---------------------------------------------------------------------------

def test_grid_search_resolution_one_picks_best_vertex():
    X = np.array([[1.0, 0.0], [3.0, 0.0]])
    obj = _ridge_obj("E", C=LinearFunctional([[1.0, 0.0]]))
    alloc = grid_search_design(obj, [0, 1], resolution=1, X_S=X)
    assert np.allclose(alloc.eta, [0.0, 1.0])


def test_grid_search_symmetric_and_size_limit():
    obj = _ridge_obj("E")
    alloc = grid_search_design(obj, [0, 1], resolution=100, X_S=np.eye(2))
    assert np.allclose(alloc.eta, [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        grid_search_design(obj, list(range(5)), resolution=10, X_S=np.eye(5))


def test_mirror_descent_within_two_percent_of_grid_oracle():
    rng = np.random.default_rng(11)
    instances = []
    for kind in ("E", "T"):
        X = rng.standard_normal((3, 3))
        C = LinearFunctional(rng.standard_normal((2, 3)))
        instances.append((DesignObjective(kind, "ridge", C, lam=0.5,
                                          sigma=0.7), X))
    for kind in ("E", "T"):
        X = rng.standard_normal((3, 3))
        instances.append((DesignObjective(kind, "interp",
                                          LinearFunctional(np.eye(3))), X))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for obj, X in instances:
            oracle = grid_search_design(obj, list(range(X.shape[0])),
                                        resolution=200, X_S=X)
            md = mirror_descent_design(obj, list(range(X.shape[0])),
                                       X_S=X, iters=300)
            rel = (md.objective_value - oracle.objective_value) \
                / abs(oracle.objective_value)
            assert rel >= -0.02


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def test_round_allocation_examples():
    a1 = Allocation([0, 1], np.eye(2), [1.0, 0.0])
    r1 = round_allocation(a1, 10)
    assert np.array_equal(r1.counts, [10, 0])
    a2 = Allocation([0, 1], np.eye(2), [0.5, 0.5])
    r2 = round_allocation(a2, 3)
    assert np.array_equal(r2.counts, [2, 2])
    assert r2.counts.sum() >= 3
    eta = np.array([0.37, 0.09, 0.08, 0.09, 0.38])
    a3 = Allocation(list(range(5)), np.eye(5), eta / eta.sum())
    r3 = round_allocation(a3, 100)
    assert np.array_equal(r3.counts, [37, 9, 8, 9, 38])
    with pytest.raises(ValueError):
        round_allocation(a1, 0)


# ---------------------------------------------------------------------------
# bias/variance balancing and query complexity
# ---------------------------------------------------------------------------

def test_balance_bias_only_picks_smallest_bias():
    C = LinearFunctional(np.eye(2))
    family = lambda h: (np.eye(2), h)   # bias proportional to h
    h_grid = [0.05, 0.1, 0.2, 0.3, 0.5]
    with pytest.warns(UserWarning, match="monotone"):
        res = balance_bias_variance(family, h_grid, C, sigma=0.0, lam=1.0,
                                    delta=0.1)
    assert res.h_star == 0.05
    assert res.boundary


def test_balance_variance_only_maximizes_min_eigenvalue():
    C = LinearFunctional(np.eye(2))
    # unbiased family whose information peaks at h = 0.2
    family = lambda h: (np.diag([h * (0.4 - h), 1.0]), 0.0)
    res = balance_bias_variance(family, [0.05, 0.1, 0.2, 0.3, 0.35], C,
                                sigma=0.1, lam=1.0, delta=0.1)
    assert res.h_star == 0.2
    assert not res.boundary
    assert all(row[2] == 0.0 for row in res.table)


def test_balance_reports_crossing():
    C = LinearFunctional(np.eye(2))
    # variance term is constant sigma*sqrt(xi); bias term is h
    sigma = 0.1
    family = lambda h: (np.eye(2), h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = balance_bias_variance(family, [0.05, 0.1, 0.25, 0.5, 1.0], C,
                                    sigma=sigma, lam=1.0, delta=0.1)
    var_term = sigma * np.sqrt(6.291926)   # ~0.2508: closest grid h is 0.25
    assert res.crossing == 0.25
    assert res.table[2][1] == pytest.approx(var_term, abs=1e-5)


def test_query_complexity_frozen_and_scaling():
    assert query_complexity(1.0, 1, 1.0, 1.0, 0.0, 1.0, 0.1) == 5
    t1 = query_complexity(0.2, 1, 1.0, 1.0, 0.0, 1.0, 0.1)
    t4 = query_complexity(0.2, 1, 0.25, 1.0, 0.0, 1.0, 0.1)
    assert (t1, t4) == (101, 404)
    with pytest.raises(ValueError):
        query_complexity(0.01, 1, 1.0, 1.0, 0.5, 1.0, 0.1)  # bias floor
    with pytest.raises(ValueError):
        query_complexity(0.0, 1, 1.0, 1.0, 0.0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# finite-difference design geometry
# ---------------------------------------------------------------------------

def test_geometry_check_polynomial_closed_form():
    # features (x, x^2), gradient at 0: equal weights on {±h} give
    # lambda_min(W)^{-1} = 1/h^2 exactly
    fm = polynomial_map(2, include_constant=False)
    out = gradient_design_geometry_check(fm, np.array([0.0]),
                                         [0.01, 0.02, 0.05, 0.1])
    assert out["d"] == 1
    for h, val in out["table"]:
        assert val == pytest.approx(1.0 / h ** 2, rel=1e-9)


def test_geometry_check_independent_reference():
    fm = polynomial_map(2, include_constant=False)
    h = 0.05
    X = np.array([fm(np.array([h])), fm(np.array([-h]))])
    Cm = fm.jacobian(np.array([0.0]))
    M = 0.5 * X.T @ X
    ref = (Cm @ pinv(M) @ Cm.T).item()   # 1/lambda_min of the 1x1 W
    out = gradient_design_geometry_check(fm, np.array([0.0]), [h])
    assert out["table"][0][1] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_geometry_bound_holds_for_se_features(dim):
    fm = qff_squared_exponential(0.5, 64, [[-1, 1]] * dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        out = gradient_design_geometry_check(
            fm, np.zeros(dim), np.geomspace(1e-3, 1e-1, 7))
    assert out["d"] == dim
    assert out["bound_holds"]
    assert all(v > 0 for _, v in out["table"])
