"""Property tests of invariants the feature maps, estimators and objectives
must keep.

Matrices are drawn from a numpy generator seeded by hypothesis, with shapes
and conditioning bounded so that the invariants hold to a tolerance fixed
in advance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_oed.design import (DesignObjective, evaluate_objective,
                             objective_gradient)
from rkhs_oed.estimators import (Dataset, info_matrix_interp,
                                 info_matrix_ridge, interpolate,
                                 residual_covariance_bound, ridge,
                                 weighted_info_matrix)
from rkhs_oed.features import (PriorOperator, linear_map, nystrom_features,
                               polynomial_map, qff_squared_exponential,
                               se_kernel, se_kernel_grad)
from rkhs_oed.functionals import FunctionalFamily, LinearFunctional
from rkhs_oed.scenarios.contamination import contamination_features

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
       st.integers(1, 4), st.sampled_from(["E", "T"]),
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


def _weights(rng, n, size=None):
    """Positive weights within a factor 4 of each other, on the simplex."""
    w = rng.uniform(0.5, 2.0, (n,) if size is None else (size, n))
    return w / w.sum(axis=-1, keepdims=True)


def _supergradient_problem(rng, n, p, size, estimator, tied):
    """Design X (n x m, m = n + 2), functional or family and weights eta.

    Untied: orthogonal rows of lengths in [0.5, 2] and members C = [B, N] Q
    in the same rotation Q, with B's singular values in [0.5, 2], so that
    W is well conditioned.  Tied: the bottom eigenvalue of W repeats.  Under
    ridge, C = I_m with n < m rows gives W_lambda = lam I + X^T D X / sigma^2
    the eigenvalue lam m - n times; under interp, rows and C from one
    orthogonal Q give W = diag(eta_0, eta_1), and eta_1 is set to eta_0.
    """
    m = n + 2
    eta = _weights(rng, n)
    if tied and estimator == "ridge":
        return rng.standard_normal((n, m)), LinearFunctional(np.eye(m)), eta
    Q = _orthogonal(rng, m)
    if tied:
        eta[1] = eta[0]
        return Q[:n], LinearFunctional(Q[:2]), eta / eta.sum()
    X = rng.uniform(0.5, 2.0, n)[:, None] * Q[:n]
    p = min(p, n)          # interp members must be identifiable
    mats = [np.hstack([_orthogonal(rng, n)[:p] * rng.uniform(0.5, 2.0, n),
                       rng.standard_normal((p, 2))]) @ Q
            for _ in range(size)]
    return X, FunctionalFamily(lambda g: LinearFunctional(mats[g]),
                               range(size)), eta


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from(["E", "T"]),
       st.sampled_from(["ridge", "interp"]), st.booleans())
def test_gradient_is_a_supergradient(seed, n, p, size, kind, estimator,
                                     tied):
    # on a fixed positive support f is concave in eta, so its gradient, or
    # at a repeated bottom eigenvalue of W its E-supergradient, bounds it
    # from above: f(eta') <= f(eta) + g . (eta' - eta)
    rng = np.random.default_rng(seed)
    X, functional, eta = _supergradient_problem(rng, n, p, size, estimator,
                                                tied)
    obj = DesignObjective(kind, estimator, functional, lam=LAM, sigma=SIGMA)
    f = evaluate_objective(obj, X, eta)
    g = objective_gradient(obj, X, eta)
    for eta2 in _weights(rng, n, size=5):
        assert evaluate_objective(obj, X, eta2) <= \
            f + g @ (eta2 - eta) + 1e-12 * max(1.0, abs(f))


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------

def _feature_map(kind, rng):
    """A map of the given kind with inputs in [-1, 1]^d."""
    if kind in ("qff1", "qff2"):
        d = int(kind[-1])
        return qff_squared_exponential(rng.uniform(0.05, 1.0),
                                       2 * int(rng.integers(1, 201)),
                                       [[-1.0, 1.0]] * d)
    if kind == "nystrom":
        # landmarks near a grid, lengthscale below the spacing: a
        # well-conditioned landmark gram, so that Lambda^{-1/2} does not
        # amplify the roundoff of the matrix products
        d, k = int(rng.integers(1, 3)), int(rng.integers(2, 6))
        ax = np.linspace(-1.0, 1.0, k)
        h = ax[1] - ax[0]
        marks = np.stack(np.meshgrid(*([ax] * d), indexing="ij"),
                         -1).reshape(-1, d)
        marks += rng.uniform(-0.1 * h, 0.1 * h, size=marks.shape)
        ls = rng.uniform(0.25, 0.5) * h
        return nystrom_features(se_kernel(ls), marks, se_kernel_grad(ls))
    if kind == "linear":
        return linear_map(int(rng.integers(1, 5)))
    if kind == "polynomial":
        return polynomial_map(int(rng.integers(1, 7)),
                              include_constant=bool(rng.integers(2)))
    return contamination_features(int(rng.integers(1, 6)))


MAP_KINDS = ["qff1", "qff2", "nystrom", "linear", "polynomial",
             "contamination"]


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(MAP_KINDS),
       st.integers(1, 8))
def test_feature_batch_rows_equal_single_points(seed, kind, n):
    rng = np.random.default_rng(seed)
    fm = _feature_map(kind, rng)
    X = rng.uniform(-1.0, 1.0, size=(n, fm.input_dim))
    Phi, J = fm(X), fm.jacobian(X)
    assert Phi.shape == (n, fm.dim)
    assert J.shape == (n, fm.input_dim, fm.dim)
    for i in range(n):
        assert _close(fm(X[i]), Phi[i], rtol=1e-14)
        assert _close(fm.jacobian(X[i]), J[i], rtol=1e-14)


def _unfolded_qff(lengthscale, m, d):
    """Values and Jacobians of the tensor-grid QFF map with every
    Gauss-Hermite node as a cosine/sine pair: 2 q^d columns."""
    q = int(np.floor((m // 2) ** (1.0 / d) + 1e-9))
    nodes, weights = np.polynomial.hermite.hermgauss(q)
    grid = np.meshgrid(*([nodes] * d), indexing="ij")
    pgrid = np.meshgrid(*([weights / np.sqrt(np.pi)] * d), indexing="ij")
    omega = np.sqrt(2.0) / lengthscale * np.stack(
        [g.ravel() for g in grid], axis=1)
    amp = np.sqrt(np.prod(np.stack([g.ravel() for g in pgrid], 1), 1))

    def values(X):
        wx = X @ omega.T
        return np.concatenate([amp * np.cos(wx), amp * np.sin(wx)], axis=1)

    def jacobian(X):
        wx = X @ omega.T
        slope = np.concatenate([-amp * np.sin(wx), amp * np.cos(wx)], axis=1)
        return slope[:, None, :] * np.concatenate([omega, omega]).T

    return values, jacobian


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2),
       st.floats(0.05, 1.0), st.integers(1, 200), st.integers(1, 12))
def test_folded_qff_keeps_value_and_derivative_grams(seed, d, lengthscale,
                                                     half_m, n):
    rng = np.random.default_rng(seed)
    fm = qff_squared_exponential(lengthscale, 2 * half_m, [[-1.0, 1.0]] * d)
    values, jacobian = _unfolded_qff(lengthscale, 2 * half_m, d)
    assert fm.dim <= values(np.zeros((1, d))).shape[1] // 2
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    Phi, ref = fm(X), values(X)
    assert _close(Phi @ Phi.T, ref @ ref.T, rtol=1e-14)
    J, Jref = fm.jacobian(X).reshape(n * d, -1), jacobian(X).reshape(n * d, -1)
    assert _close(J @ J.T, Jref @ Jref.T, rtol=1e-14)
