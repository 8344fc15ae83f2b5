"""Shared linear-algebra helpers: guarded pseudo-inverses and SPD solves.

Every SPD solve, inverse, log-determinant and rank check of the library goes
through cho_spd: one LAPACK Cholesky factorization (dpotrf, in numpy) and
LAPACK's O(n^2) estimate of its reciprocal condition (dpocon); solves
(dpptrs), log-dets and quadratic forms reuse the factor.  numpy and scipy load
separate OpenBLAS copies; with two BLAS threads, alternating threaded calls
between them made scenarios several times slower, so scipy only runs level-2
work, which OpenBLAS does not thread.
"""

import warnings

import numpy as np
from scipy.linalg import lapack

# relative singular-value cutoff used by every pseudo-inverse in the package
PINV_CUTOFF = 1e-12
# estimated reciprocal condition number at or below which rank checks raise
RCOND_MIN = 1e-12
# estimated condition number above which SPD solves emit a warning
COND_WARN = 1e12


class IllConditionedWarning(UserWarning):
    """Emitted when a solve touches a matrix with estimated condition
    number > 1e12."""


def sym(a):
    """Symmetrize a square matrix (cheap guard against roundoff drift)."""
    return 0.5 * (a + a.T)


def pinv(a):
    """Pseudo-inverse via SVD with a relative cutoff of 1e-12 * sigma_1."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(a.T.shape)
    keep = s > PINV_CUTOFF * s[0]
    return (vt[keep].T / s[keep]) @ u[:, keep].T


def cho_spd(a):
    """Lower Cholesky factor of sym(a) and its estimated reciprocal condition.

    rcond is LAPACK's 1-norm estimate of 1 / (||a||_1 ||a^{-1}||_1).
    Returns (None, 0.0) when a is not numerically positive definite.
    """
    a = sym(np.asarray(a, dtype=float))
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None, 0.0
    rcond, _ = lapack.dpocon(c, np.abs(a).sum(axis=0).max(initial=0.0),
                             uplo="L")
    return c, rcond


def spd_factor(a):
    """Lower Cholesky factor of SPD a; IllConditionedWarning when the
    estimated condition number exceeds 1e12, LinAlgError when a is not
    numerically positive definite."""
    c, rcond = cho_spd(a)
    if rcond * COND_WARN < 1.0:
        cond = np.inf if rcond == 0.0 else 1.0 / rcond
        warnings.warn(f"solving system with condition number {cond:.3e}",
                      IllConditionedWarning, stacklevel=2)
    if c is None:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return c


def cho_solve(c, b):
    """Solve (c c^T) x = b for the lower Cholesky factor c."""
    n = c.shape[0]
    packed = c.T[np.tri(n, dtype=bool).T]       # lower triangle by columns
    x, _ = lapack.dpptrs(n, packed, b[:, None] if b.ndim == 1 else b, lower=1)
    return x.reshape(b.shape)


def cho_logdet(c):
    """log det(c c^T) = 2 sum log diag c for the lower Cholesky factor c."""
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def cho_quad_rows(c, x):
    """Row-wise quadratic forms x_i^T (c c^T)^{-1} x_i = |c^{-1} x_i|^2,
    from one inverse of c and one matrix product, both in numpy's BLAS."""
    y = x @ np.linalg.inv(c).T
    return np.einsum("ij,ij->i", y, y)


def solve_spd(a, b):
    """Solve a @ x = b for symmetric positive definite a.

    Uses spd_factor, so an estimated condition number beyond 1e12 produces
    a warning, never an error; falls back to an SVD pseudo-solve when the
    factorization fails.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    try:
        return cho_solve(spd_factor(a), b)
    except np.linalg.LinAlgError:
        return pinv(sym(np.asarray(a, dtype=float))) @ b


def solve_spd_checked(a, b, message):
    """Solve a @ x = b for SPD a; ValueError(message) when a is singular.

    Singular means the Cholesky factorization fails or the estimated
    reciprocal condition number is at most RCOND_MIN.
    """
    c, rcond = cho_spd(a)
    if rcond <= RCOND_MIN:
        raise ValueError(message)
    return cho_solve(c, np.asarray(b, dtype=float))


def inv_spd(a):
    """Inverse of a symmetric positive definite matrix (Cholesky-backed)."""
    a = np.asarray(a, dtype=float)
    return sym(solve_spd(a, np.eye(a.shape[0])))


def min_eig(a):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(sym(np.asarray(a, dtype=float))).min())


def dedupe_rows(x, y=None):
    """Collapse byte-identical rows of x; y values of duplicates are averaged.

    Returns (x_unique, y_avg) preserving first-appearance order; y_avg is
    None when y is None.  Rows compare by their bytes, so -0.0 and 0.0
    differ.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=float))
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)             # unique rows by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = rank[inverse]
    xu = x[first[order]]
    if y is None:
        return xu, None
    y = np.asarray(y, dtype=float)
    return xu, np.bincount(group, weights=y) / np.bincount(group)
