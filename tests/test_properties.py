"""Property tests of invariants the estimators and objectives must keep.

Matrices are drawn from a numpy generator seeded by hypothesis, with shapes
and conditioning bounded so that the invariants hold to a tolerance fixed
in advance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_oed.design import DesignObjective, evaluate_objective
from rkhs_oed.estimators import (Dataset, info_matrix_interp,
                                 info_matrix_ridge, interpolate,
                                 residual_covariance_bound, ridge,
                                 weighted_info_matrix)
from rkhs_oed.features import PriorOperator
from rkhs_oed.functionals import FunctionalFamily, LinearFunctional

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
LAM, SIGMA = 0.5, 0.7


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _problem(seed, n, p, extra):
    """Design X (n x m), functional C (p x m) and a random SPD prior, with
    m = n + extra so that the design rows are independent and p <= n so
    that C is identifiable from them."""
    rng = np.random.default_rng(seed)
    m, p = n + extra, min(p, n)
    X = rng.standard_normal((n, m))
    C = LinearFunctional(rng.standard_normal((p, m)))
    U = _orthogonal(rng, m)
    V0 = PriorOperator((U * rng.uniform(0.5, 2.0, m)) @ U.T)
    return rng, X, C, V0


def _close(a, b, rtol=1e-8):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= rtol * max(1.0, np.abs(b).max())


problems = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
                     st.integers(1, 3), st.integers(2, 5))


@SETTINGS
@given(problems)
def test_info_matrix_covariant_under_functional_reparametrization(args):
    # W(QC) = Q^{-T} W(C) Q^{-1} for every invertible Q
    seed, n, p, extra = args
    rng, X, C, V0 = _problem(seed, n, p, extra)
    p = C.p
    Q = (_orthogonal(rng, p) * rng.uniform(0.5, 2.0, p)) @ _orthogonal(rng, p)
    QC = LinearFunctional(Q @ C.matrix)
    Qinv = np.linalg.inv(Q)
    for info in (info_matrix_interp,
                 lambda X, C, V0: info_matrix_ridge(X, C, V0, LAM, SIGMA)):
        W, WQ = info(X, C, V0).matrix, info(X, QC, V0).matrix
        assert _close(WQ, Qinv.T @ W @ Qinv, rtol=1e-7)


@SETTINGS
@given(problems)
def test_estimates_invariant_under_row_permutation(args):
    seed, n, p, extra = args
    rng, X, C, V0 = _problem(seed, n, p, extra)
    y = rng.standard_normal(n)
    perm = rng.permutation(n)
    ds = Dataset(X, y, SIGMA, V0=V0, lam=LAM)
    dsp = Dataset(X[perm], y[perm], SIGMA, V0=V0, lam=LAM)
    assert _close(ridge(dsp, C), ridge(ds, C))
    assert _close(interpolate(dsp, C), interpolate(ds, C))
    assert _close(info_matrix_ridge(X[perm], C, V0, LAM, SIGMA).matrix,
                  info_matrix_ridge(X, C, V0, LAM, SIGMA).matrix)
    for kind in ("interp", "ridge"):
        assert _close(
            residual_covariance_bound(X[perm], C, V0, LAM, SIGMA, kind),
            residual_covariance_bound(X, C, V0, LAM, SIGMA, kind))
    assert _close(info_matrix_interp(X[perm], C, V0).matrix,
                  info_matrix_interp(X, C, V0).matrix, rtol=1e-7)


@SETTINGS
@given(problems)
def test_interpolation_invariant_under_row_duplication(args):
    seed, n, p, extra = args
    rng, X, C, V0 = _problem(seed, n, p, extra)
    y = rng.standard_normal(n)
    dup = np.concatenate([np.arange(n), rng.integers(0, n, size=3)])
    ds = Dataset(X, y, SIGMA, V0=V0)
    dsd = Dataset(X[dup], y[dup], SIGMA, V0=V0)
    assert _close(interpolate(dsd, C), interpolate(ds, C))
    assert _close(residual_covariance_bound(X[dup], C, V0, LAM, SIGMA,
                                            "interp"),
                  residual_covariance_bound(X, C, V0, LAM, SIGMA, "interp"))
    assert _close(info_matrix_interp(X[dup], C, V0).matrix,
                  info_matrix_interp(X, C, V0).matrix, rtol=1e-7)


def _scalarize(kind, W):
    return np.linalg.eigvalsh(W).min() if kind == "E" else np.trace(W)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 3),
       st.integers(1, 4), st.sampled_from(["E", "A"]),
       st.sampled_from(["ridge", "interp"]))
def test_family_objective_is_min_over_members(seed, n, p, size, kind,
                                              estimator):
    rng = np.random.default_rng(seed)
    m = n + 2
    X = rng.standard_normal((n, m))
    p = min(p, n)          # interp members must be identifiable
    mats = [rng.standard_normal((p, m)) for _ in range(size)]
    family = FunctionalFamily(lambda g: LinearFunctional(mats[g]),
                              range(size))
    V0 = PriorOperator(dim=m)
    eta = rng.dirichlet(np.ones(n))
    obj = DesignObjective(kind, estimator, family, lam=LAM, sigma=SIGMA)
    members = [_scalarize(kind, weighted_info_matrix(
        X, eta, C, V0, estimator, lam=LAM, sigma=SIGMA).matrix)
        for C in family.functionals()]
    val = evaluate_objective(obj, X, eta)
    assert abs(val - min(members)) <= 1e-10 * abs(min(members))
