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
    """Explicit feature map x -> Phi(x) in R^m with exact Jacobians.

    eval_fn maps an (n, d) batch of points to the (n, m) feature rows;
    jacobian_fn maps it to the (n, d, m) partial derivatives (entry [k, i]
    is dPhi/dx_i at point k).  A map built without jacobian_fn has no
    Jacobian.  Calls take one point of shape (d,) or a batch of shape (n, d)
    and return one result or a stacked batch to match.
    """

    def __init__(self, dim, input_dim, eval_fn, jacobian_fn=None):
        self.dim = int(dim)
        self.input_dim = int(input_dim)
        self._eval = eval_fn
        self._jac = jacobian_fn

    def _points(self, x):
        """(n, d) batch of x, and whether x was one point."""
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(
                f"points have shape {x.shape}, expected ({self.input_dim},) "
                f"or (n, {self.input_dim})")
        return X, x.ndim < 2

    def __call__(self, x):
        X, single = self._points(x)
        phi = self._eval(X)
        return phi[0] if single else phi

    def jacobian(self, x):
        """d x m partial derivatives at a point, (n, d, m) on a batch."""
        if self._jac is None:
            raise ValueError("feature map was built without a jacobian_fn")
        X, single = self._points(x)
        jac = self._jac(X)
        return jac[0] if single else jac


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
        self._inv = None

    def inv(self):
        """V0^{-1}, formed on the first call and cached.

        Every call returns the same read-only array; copy it before
        writing to it.
        """
        if self._inv is None:
            self._inv = (self._u / self._w) @ self._u.T
            self._inv.flags.writeable = False
        return self._inv

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

    Frequencies are tensorized Gauss-Hermite nodes scaled by sqrt(2)/lengthscale,
    q = floor((m/2)^(1/d)) per axis.  The grid is symmetric, so each +-omega
    pair is folded onto the node whose first nonzero coordinate is positive,
    with twice the weight, as a cosine/sine pair (the origin: one cosine).
    Nodes of amplitude <= eps times the largest add < eps^2 to k(x, x) = 1
    and are dropped.  So dim <= q^d <= m/2, with the kernel of the unfolded
    2 q^d-column map; at the pharma default (0.05, m = 384, 51 live nodes)
    dim is 102 instead of 384.  fm.omega has one row per column: (dim, d).

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
    # hermgauss returns exactly symmetric nodes, so -omega is on the grid
    first = omega[np.arange(len(omega)), np.argmax(omega != 0, axis=1)]
    origin = first == 0
    amp = np.sqrt(np.where(origin, p, 2.0 * p))
    keep = (first >= 0) & (amp > np.finfo(float).eps * amp.max())
    sine = keep & ~origin
    n_cos = int(keep.sum())
    omega = np.concatenate([omega[keep], omega[sine]])    # (dim, d)
    amp = np.concatenate([amp[keep], amp[sine]])

    def eval_fn(X):
        wx = X @ omega.T
        return amp * np.concatenate(
            [np.cos(wx[:, :n_cos]), np.sin(wx[:, n_cos:])], axis=1)

    def jac_fn(X):
        wx = X @ omega.T
        slope = amp * np.concatenate(
            [-np.sin(wx[:, :n_cos]), np.cos(wx[:, n_cos:])], axis=1)
        return slope[:, None, :] * omega.T

    fm = FeatureMap(len(omega), d, eval_fn, jac_fn)
    # higher derivatives of Fourier features are diagonal in omega (e.g. the
    # 1-d second derivative is -omega[:, 0]**2 * Phi)
    fm.omega = omega
    return fm


def nystrom_features(kernel, landmarks, kernel_grad=None):
    """Nystrom features Phi(x) = Lambda^{-1/2} U^T k(landmarks, x).

    Eigenvalues of the landmark gram below 1e-10 * lambda_max are dropped
    (they would amplify noise through Lambda^{-1/2}); eigenvalues below
    -1e-8 raise an error.  kernel_grad(landmarks, X), when given, returns
    the (n, d, n_landmarks) gradients of k(landmark_j, x) at the n points X.
    """
    landmarks = np.atleast_2d(np.asarray(landmarks, dtype=float))
    gram = sym(kernel(landmarks, landmarks))
    w, u = np.linalg.eigh(gram)
    if w.min() < NYSTROM_EIG_FLOOR:
        raise ValueError(
            f"landmark gram is not PSD (min eigenvalue {w.min():.3e})")
    keep = w > NYSTROM_TRUNCATION * w.max()
    w = w[keep]
    u = u[:, keep]
    proj = u / np.sqrt(w)        # n_landmarks x dim: Phi = k(X, landmarks) proj

    def eval_fn(X):
        return kernel(X, landmarks) @ proj

    jac_fn = None
    if kernel_grad is not None:
        def jac_fn(X):
            return kernel_grad(landmarks, X) @ proj

    return FeatureMap(w.size, landmarks.shape[1], eval_fn, jac_fn)


def se_kernel_grad(lengthscale):
    """Gradient (wrt x) of the SE kernel k(z_j, x) at n points x: (n, d, n_z)."""
    ls2 = float(lengthscale) ** 2
    k = se_kernel(lengthscale)

    def grad(landmarks, X):
        landmarks = np.atleast_2d(landmarks)
        X = np.atleast_2d(X)
        kv = k(X, landmarks)                           # n x n_z
        diff = landmarks[None, :, :] - X[:, None, :]   # n x n_z x d
        return np.swapaxes(diff / ls2 * kv[:, :, None], 1, 2)

    return grad


def linear_map(d):
    """Raw linear map Phi(x) = x, for tests with exact estimability."""
    return FeatureMap(d, d, lambda X: X.copy(),
                      lambda X: np.tile(np.eye(d), (len(X), 1, 1)))


def polynomial_map(degree, include_constant=True):
    """1-d polynomial map Phi(x) = (1, x, ..., x^degree) or (x, ..., x^degree)."""
    lo = 0 if include_constant else 1
    powers = np.arange(lo, degree + 1)

    def eval_fn(X):
        return X ** powers

    def jac_fn(X):
        dp = np.where(powers > 0, powers * X ** np.maximum(powers - 1, 0), 0.0)
        return dp[:, None, :]

    return FeatureMap(powers.size, 1, eval_fn, jac_fn)


def evaluate_design_matrix(feature_map, points):
    """n x m matrix of rows Phi(x_i)^T; points is a list of d-vectors, an
    (n, d) array, an empty list or, when d = 1, a 1-d array of scalars."""
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        return np.zeros((0, feature_map.dim))
    return feature_map(X[:, None] if X.ndim == 1 else X)
