"""Linear functionals C of RKHS coefficients and the bias/projection
quantities that govern how well a design can estimate them."""

import numpy as np

from .features import evaluate_design_matrix
from .linalg import dedupe_rows, pinv, solve_spd_checked, sym

RANK_TOL = 1e-10
NULLSPACE_TOL = 1e-8


class LinearFunctional:
    """p x m matrix C acting on RKHS coefficients; Ctheta is the target."""

    def __init__(self, matrix, label=""):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        s = np.linalg.svd(matrix, compute_uv=False)
        if s.size == 0 or s[0] == 0 or s[-1] / s[0] <= RANK_TOL:
            raise ValueError(
                f"functional matrix is rank deficient ({label or 'unlabeled'}): "
                f"singular value ratio {0 if s.size == 0 or s[0] == 0 else s[-1]/s[0]:.3e}")
        self.matrix = matrix
        self.p = matrix.shape[0]
        self.m = matrix.shape[1]
        self.label = label

    def __call__(self, theta):
        return self.matrix @ np.asarray(theta, dtype=float)


class FunctionalFamily:
    """Family of functionals C_gamma indexed by a finite parameter grid."""

    def __init__(self, generator, gamma_grid, label=""):
        self.generator = generator
        self.gamma_grid = list(gamma_grid)
        self.label = label
        if not self.gamma_grid:
            raise ValueError("gamma grid must be non-empty")

    def functionals(self):
        return [self.generator(g) for g in self.gamma_grid]


class ProjectedData:
    """Decomposition X V0^{-1/2} = Z C V0^{-1/2} + J with C V0^{-1/2} J^T = 0."""

    def __init__(self, Z, J, S):
        self.Z = Z
        self.J = J
        self.S = S


def evaluation_functional(feature_map, targets):
    """Rows Phi(target_j)^T: the functional evaluating theta at the targets."""
    targets = list(targets)
    rows = evaluate_design_matrix(feature_map, targets)
    try:
        return LinearFunctional(rows, label=f"evaluation at {len(targets)} points")
    except ValueError as exc:
        raise ValueError(
            f"evaluation targets are rank deficient (targets={targets}): {exc}"
        ) from exc


def gradient_functional(feature_map, x):
    """C = grad_x Phi(x) (d x m), so C theta = grad of theta^T Phi at x."""
    jac = feature_map.jacobian(np.asarray(x, dtype=float))
    return LinearFunctional(jac, label=f"gradient at {np.asarray(x).tolist()}")


def integral_functional(feature_map, density, nodes, weights):
    """Quadrature approximation of the 1 x m functional int q(x) Phi(x)^T dx."""
    Phi = evaluate_design_matrix(feature_map, nodes)
    # density is a function of one point
    q = np.array([float(density(np.atleast_1d(t))) for t in nodes])
    row = (np.asarray(weights, dtype=float) * q) @ Phi
    return LinearFunctional(row[None, :], label="integral functional")


def ode_nullspace_functional(diff_op, source=None, tol=NULLSPACE_TOL,
                             null_dim=None, basis_values=None):
    """Span of the numerical null space of a discretized operator T.

    diff_op is the (n_grid x m) matrix applying the operator to the feature
    expansion on a time grid.  Rows of the returned functional are the right
    singular vectors with sigma_i <= tol * sigma_1 (or exactly the null_dim
    smallest when null_dim is given); particular solves T u = source in the
    least-squares sense.

    Without basis_values the null space is taken in coefficient space, where
    coefficient directions that no feature resolves on the grid count as
    solutions.  basis_values, the (n_grid x m) feature values on the same
    grid, takes it in function space instead: with basis_values = U S V^T
    truncated at RANK_TOL, theta = V_r S_r^{-1} z has grid values U_r z of
    norm |z|, and the rows are the coefficient vectors of the smallest right
    singular vectors z of T V_r S_r^{-1}.  There every requested direction
    must have sigma_i <= tol * sigma_1, else ValueError: the features do not
    contain that many solutions.
    """
    T = np.atleast_2d(np.asarray(diff_op, dtype=float))
    basis = np.eye(T.shape[1])
    if basis_values is not None:
        _, S, Vt = np.linalg.svd(np.atleast_2d(np.asarray(
            basis_values, dtype=float)), full_matrices=False)
        r = int(np.sum(S > RANK_TOL * S[0]))
        basis = Vt[:r].T / S[:r]          # m x r: grid-orthonormal functions
    Tb = T @ basis
    _, s, vt = np.linalg.svd(Tb, full_matrices=True)
    s = np.concatenate([s, np.zeros(Tb.shape[1] - s.size)])
    if null_dim is None:
        p = int(np.sum(s <= tol * s[0]))
    else:
        p = int(null_dim)
    if p < 1:
        raise ValueError("equation over-determines the space: empty null space")
    if basis_values is not None and (p > s.size or s[-p] > tol * s[0]):
        raise ValueError(
            f"features resolve fewer than {p} null directions: the {p} "
            f"smallest relative singular values are "
            f"{(s[::-1][:p] / s[0]).tolist()}, tol {tol:.1e}")
    C = vt[-p:][::-1] @ basis.T
    if source is None:
        particular = np.zeros(T.shape[1])
    else:
        particular = basis @ (pinv(Tb) @ np.asarray(source, dtype=float))
    return LinearFunctional(C, label=f"ode null space (p={p})"), particular


def lyapunov_functional(Sigma, x, x_ref, feature_map):
    """Row functional C_x = vec(Sigma (x - x_ref) phi(x)^T)^T on theta = vec(A)."""
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    x = np.asarray(x, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    z = Sigma @ (x - x_ref)
    phi = feature_map(x)
    row = np.outer(z, phi).ravel()
    if not np.any(row):
        raise ValueError("x equals the reference point: zero functional")
    return LinearFunctional(row[None, :], label="lyapunov derivative functional")


def contamination_selector(keep, m):
    """Row-selector functional keeping the given coefficient indices."""
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("selector indices must be distinct")
    C = np.zeros((len(keep), m))
    for r, i in enumerate(keep):
        if not 0 <= i < m:
            raise ValueError(f"selector index {i} out of range [0, {m})")
        C[r, i] = 1.0
    return LinearFunctional(C, label=f"selector {keep}")


def interpolation_weights(C, X, V0):
    """Minimum-norm estimator weights L = C V0^{-1} X^T K^{-1} (deduped X).

    Every interpolation quantity derives from L: the estimate L ybar, the
    information matrix (L L^T)^{-1} and the residual covariance bound.
    """
    Cm = C.matrix if isinstance(C, LinearFunctional) else np.atleast_2d(C)
    Xu, _ = dedupe_rows(np.atleast_2d(X))
    B = Xu @ V0.inv()            # n x m
    L = solve_spd_checked(sym(B @ Xu.T), B @ Cm.T,
                          "K = X V0^{-1} X^T singular: design rows dependent")
    return L.T, Xu


def relative_bias(C, X, V0):
    """Relative nu-bias of a design: ||(C - L X) V0^{-1/2}||_F / ||L||_F."""
    Cm = C.matrix if isinstance(C, LinearFunctional) else np.atleast_2d(C)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("design must have at least one row")
    L, Xu = interpolation_weights(C, X, V0)
    resid = (Cm - L @ Xu) @ V0.isqrt()
    denom = np.linalg.norm(L)
    return float(np.linalg.norm(resid) / denom)


def project_data(X, C, V0):
    """Project design rows onto the functional: Z, residual J, and S."""
    Cm = C.matrix if isinstance(C, LinearFunctional) else np.atleast_2d(C)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V0inv = V0.inv()
    G = Cm @ V0inv @ Cm.T
    S = sym(solve_spd_checked(G, np.eye(G.shape[0]),
                              "C V0^{-1} C^T is singular"))
    Z = X @ V0inv @ Cm.T @ S
    isq = V0.isqrt()
    J = X @ isq - Z @ (Cm @ isq)
    return ProjectedData(Z, J, S)


def mmd_bias(density, quad_nodes, quad_weights, nodes, weights, kernel):
    """MMD between the weighted empirical measure on nodes and density q.

    The q-integrals are evaluated with the supplied quadrature rule, so the
    value matches the featurized ||C - L X|| computation up to
    feature/quadrature approximation error.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    qn = np.atleast_2d(np.asarray(quad_nodes, dtype=float))
    qw = np.asarray(quad_weights, dtype=float) * np.array(
        [float(density(t)) for t in qn])
    k_nn = kernel(nodes, nodes)
    k_nq = kernel(nodes, qn)
    k_qq = kernel(qn, qn)
    val = (weights @ k_nn @ weights
           - 2.0 * weights @ k_nq @ qw
           + qw @ k_qq @ qw)
    return float(np.sqrt(max(val, 0.0)))
