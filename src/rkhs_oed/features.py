"""Finite-dimensional feature maps: quadrature Fourier features for the
squared-exponential kernel, Nystrom features, and raw linear/polynomial maps.

Every map is deterministic, so repeated evaluation is bit-identical and no
feature seed has to travel with experiment configs.
"""

import numpy as np

from .linalg import sym

NYSTROM_EIG_FLOOR = -1e-8
NYSTROM_TRUNCATION = 1e-10


class FeatureMap:
    """Explicit feature map x -> Phi(x) in R^m with Jacobian access.

    eval_fn maps a d-vector to an m-vector; jacobian_fn maps a d-vector to
    the d x m matrix of partial derivatives (row i = dPhi/dx_i).
    """

    def __init__(self, dim, input_dim, eval_fn, jacobian_fn=None, meta=None):
        self.dim = int(dim)
        self.input_dim = int(input_dim)
        self._eval = eval_fn
        self._jac = jacobian_fn
        self.meta = dict(meta or {})

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.input_dim,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.input_dim},)")
        phi = np.asarray(self._eval(x), dtype=float)
        return phi.reshape(self.dim)

    def jacobian(self, x):
        """d x m matrix of partial derivatives at x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float).reshape(
                self.input_dim, self.dim)
        return self._fd_jacobian(x)

    def _fd_jacobian(self, x, step=1e-6):
        rows = []
        for i in range(self.input_dim):
            e = np.zeros(self.input_dim)
            e[i] = step
            rows.append((self(x + e) - self(x - e)) / (2 * step))
        return np.stack(rows)


class PriorOperator:
    """Symmetric positive definite prior operator V0 with cached roots."""

    def __init__(self, matrix=None, dim=None):
        if matrix is None:
            if dim is None:
                raise ValueError("need matrix or dim")
            # the identity's eigenpairs are known; eigh returns exactly these
            matrix = np.eye(int(dim))
            w, u = np.ones(int(dim)), np.eye(int(dim))
        else:
            matrix = sym(np.asarray(matrix, dtype=float))
            w, u = np.linalg.eigh(matrix)
        if w.min() <= 0:
            raise ValueError(
                f"prior operator must be positive definite, min eig {w.min():.3e}")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.is_identity = bool(np.array_equal(matrix, np.eye(self.dim)))
        self._w = w
        self._u = u

    def inv(self):
        return (self._u / self._w) @ self._u.T

    def isqrt(self):
        """V0^{-1/2}."""
        return (self._u / np.sqrt(self._w)) @ self._u.T

    def sqrt(self):
        return (self._u * np.sqrt(self._w)) @ self._u.T


def se_kernel(lengthscale):
    """Squared-exponential kernel exp(-|x-x'|^2 / (2 l^2)) on stacked points."""
    if lengthscale <= 0:
        raise ValueError("lengthscale must be positive")

    def k(a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return np.exp(-0.5 * d2 / lengthscale ** 2)

    k.lengthscale = float(lengthscale)
    return k


def qff_squared_exponential(lengthscale, m, domain):
    """Deterministic quadrature Fourier features for the SE kernel.

    Frequencies are tensorized Gauss-Hermite nodes scaled by sqrt(2)/lengthscale;
    each node contributes a weighted cosine/sine pair, so the returned dim is
    2 * q^d <= m with q nodes per axis.

    The map reproduces the kernel only for |x - y| up to a range that grows
    like lengthscale * sqrt(q): the nodes near zero are about pi / sqrt(2q)
    apart, so the feature kernel aliases, returning towards 1 near
    |x - y| = 2 * lengthscale * sqrt(q).  Measured in 1-d at lengthscale
    0.05: with q = 64 (m = 128) the kernel error exceeds 1e-3 from
    |x - y| = 0.62 on and reaches 1.0 at 0.80, and the best fit of e^{-5t}
    on a 200-point grid of [0, 1] is off by 0.64; with q = 192 (m = 384)
    the kernel error stays below 4e-15 on [0, 1] and that fit is exact to
    3e-14.  Choose m so that the domain diameter lies well inside that range.
    """
    if m % 2 != 0 or m <= 0:
        raise ValueError("m must be a positive even integer")
    if lengthscale <= 0:
        raise ValueError("lengthscale must be positive")
    domain = np.atleast_2d(np.asarray(domain, dtype=float))
    d = domain.shape[0]
    if not np.all(np.isfinite(domain)):
        raise ValueError("domain must be a bounded box")
    q = int(np.floor((m // 2) ** (1.0 / d) + 1e-9))
    if q < 1:
        raise ValueError("m too small for the requested input dimension")
    nodes, weights = np.polynomial.hermite.hermgauss(q)
    probs = weights / np.sqrt(np.pi)
    # tensorize over axes
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    pgrids = np.meshgrid(*([probs] * d), indexing="ij")
    omega = np.sqrt(2.0) / lengthscale * np.stack(
        [g.ravel() for g in grids], axis=1)          # (q^d, d)
    p = np.prod(np.stack([g.ravel() for g in pgrids], axis=1), axis=1)
    amp = np.sqrt(p)                                  # (q^d,)
    dim = 2 * omega.shape[0]

    def eval_fn(x):
        wx = omega @ x
        return np.concatenate([amp * np.cos(wx), amp * np.sin(wx)])

    def jac_fn(x):
        wx = omega @ x
        dcos = -(amp * np.sin(wx))[None, :] * omega.T   # d x q^d
        dsin = (amp * np.cos(wx))[None, :] * omega.T
        return np.concatenate([dcos, dsin], axis=1)

    meta = {"kind": "qff_se", "lengthscale": float(lengthscale),
            "m": int(m), "domain": domain.tolist()}
    fm = FeatureMap(dim, d, eval_fn, jac_fn, meta)
    # expose frequencies/amplitudes: higher derivatives of Fourier features
    # are diagonal in omega (e.g. the 1-d second derivative is -omega^2 Phi)
    fm.omega = omega
    fm.amp = amp
    return fm


def nystrom_features(kernel, landmarks, kernel_grad=None):
    """Nystrom features Phi(x) = Lambda^{-1/2} U^T k(landmarks, x).

    Eigenvalues of the landmark gram below 1e-10 * lambda_max are dropped
    (they would amplify noise through Lambda^{-1/2}); eigenvalues below
    -1e-8 raise an error.
    """
    landmarks = np.atleast_2d(np.asarray(landmarks, dtype=float))
    n, d = landmarks.shape
    gram = sym(kernel(landmarks, landmarks))
    w, u = np.linalg.eigh(gram)
    if w.min() < NYSTROM_EIG_FLOOR:
        raise ValueError(
            f"landmark gram is not PSD (min eigenvalue {w.min():.3e})")
    keep = w > NYSTROM_TRUNCATION * w.max()
    w = w[keep]
    u = u[:, keep]
    proj = u / np.sqrt(w)        # n x dim, Phi(x) = proj.T @ k(landmarks, x)
    dim = w.size

    def eval_fn(x):
        kv = kernel(landmarks, x[None, :]).reshape(n)
        return proj.T @ kv

    jac_fn = None
    if kernel_grad is not None:
        def jac_fn(x):
            # kernel_grad returns d x n: gradient of k(landmark_j, x) wrt x
            return (kernel_grad(landmarks, x) @ proj)

    meta = {"kind": "nystrom", "landmarks": landmarks.tolist()}
    return FeatureMap(dim, d, eval_fn, jac_fn, meta)


def se_kernel_grad(lengthscale):
    """Gradient (wrt x) of the SE kernel k(z_j, x): returns d x n."""
    ls2 = float(lengthscale) ** 2
    k = se_kernel(lengthscale)

    def grad(landmarks, x):
        landmarks = np.atleast_2d(landmarks)
        kv = k(landmarks, x[None, :]).reshape(-1)
        return ((landmarks - x[None, :]) / ls2 * kv[:, None]).T

    return grad


def linear_map(d):
    """Raw linear map Phi(x) = x, for tests with exact estimability."""
    return FeatureMap(d, d, lambda x: x.copy(),
                      lambda x: np.eye(d), {"kind": "linear", "d": d})


def polynomial_map(degree, include_constant=True):
    """1-d polynomial map Phi(x) = (1, x, ..., x^degree) or (x, ..., x^degree)."""
    lo = 0 if include_constant else 1
    powers = np.arange(lo, degree + 1)

    def eval_fn(x):
        return x[0] ** powers

    def jac_fn(x):
        dp = np.where(powers > 0, powers * x[0] ** np.maximum(powers - 1, 0), 0.0)
        return dp[None, :]

    return FeatureMap(powers.size, 1, eval_fn, jac_fn,
                      {"kind": "polynomial", "degree": degree,
                       "include_constant": include_constant})


def evaluate_design_matrix(feature_map, points):
    """Stack Phi(x_i)^T for each point into an n x m design matrix."""
    points = list(points)
    if not points:
        return np.zeros((0, feature_map.dim))
    return np.stack([feature_map(p) for p in points])
