"""Interpolation and ridge estimators of C theta with their information
matrices (W_dagger, W_lambda, Omega_lambda) and residual covariance bounds."""

import numpy as np

from .features import PriorOperator
from .functionals import (LinearFunctional, ProjectedData,
                          interpolation_weights, project_data)
from .linalg import dedupe_rows, inv_spd, solve_spd, solve_spd_checked, sym

INTERP_DAGGER = "interp_dagger"
RIDGE_LAMBDA = "ridge_lambda"
ADAPTIVE_OMEGA = "adaptive_omega"


class Dataset:
    """Design X (rows Phi(x_i)^T), responses y, and problem constants."""

    def __init__(self, X, y, sigma, V0=None, lam=None, theta_true=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ValueError("length of y must match rows of X")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if lam is not None and lam <= 0:
            raise ValueError("lam must be positive when present")
        if V0 is None:
            V0 = PriorOperator(dim=X.shape[1])
        if theta_true is not None:
            theta_true = np.asarray(theta_true, dtype=float)
            if lam is not None:
                q = float(theta_true @ V0.matrix @ theta_true)
                if q > 1.0 / lam + 1e-9:
                    raise ValueError(
                        f"theta violates the prior norm bound: "
                        f"theta^T V0 theta = {q:.6g} > 1/lam = {1.0/lam:.6g}")
        self.X = X
        self.y = y
        self.sigma = float(sigma)
        self.V0 = V0
        self.lam = None if lam is None else float(lam)
        self.theta_true = theta_true

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def m(self):
        return self.X.shape[1]


class InfoMatrix:
    """p x p information matrix with its kind tag."""

    def __init__(self, matrix, kind):
        if kind not in (INTERP_DAGGER, RIDGE_LAMBDA, ADAPTIVE_OMEGA):
            raise ValueError(f"unknown info matrix kind {kind!r}")
        self.matrix = sym(np.atleast_2d(np.asarray(matrix, dtype=float)))
        self.kind = kind

    @property
    def p(self):
        return self.matrix.shape[0]


def _cmat(C):
    return C.matrix if isinstance(C, LinearFunctional) else np.atleast_2d(C)


def interpolate(ds, C):
    """Minimum-norm interpolation estimate C V0^{-1} X^T K^{-1} y.

    Byte-identical design rows are collapsed and their responses averaged
    (K would be exactly singular otherwise).
    """
    if ds.n == 0:
        raise ValueError("empty dataset")
    Xu, yu = dedupe_rows(ds.X, ds.y)
    L, _ = interpolation_weights(C, Xu, ds.V0)
    return L @ yu


def ridge(ds, C):
    """Regularized estimate C V0^{-1} X^T (lam sigma^2 I + K)^{-1} y."""
    if ds.lam is None:
        raise ValueError("ridge estimator needs lam in the dataset")
    Cm = _cmat(C)
    if ds.n == 0:
        return np.zeros(Cm.shape[0])
    B = ds.X @ ds.V0.inv()
    K = sym(B @ ds.X.T)
    A = K + ds.lam * ds.sigma ** 2 * np.eye(ds.n)
    return Cm @ B.T @ solve_spd(A, ds.y)


def _info_from_weights(L):
    """W_dagger = (L L^T)^{-1} from interpolation weights L."""
    return InfoMatrix(solve_spd_checked(
        L @ L.T, np.eye(L.shape[0]), "functional not identifiable from design"),
        INTERP_DAGGER)


def info_matrix_interp(X, C, V0):
    """W_dagger = (C V0^{-1} X^T K^{-2} X V0^{-1} C^T)^{-1} = (L L^T)^{-1}."""
    return _info_from_weights(interpolation_weights(C, X, V0)[0])


def _ridge_solves(X, Cms, V0, lam, sigma):
    """A^{-1} C^T for each functional matrix C in Cms, where
    A = sigma^2 lam V0 + X^T X is factorized once."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        X = np.zeros((0, V0.dim))
    A = sym(sigma ** 2 * lam * V0.matrix + X.T @ X)
    return np.split(solve_spd(A, np.vstack(Cms).T), _offsets(Cms), axis=1)


def _ridge_info_matrices(X, Cms, V0, lam, sigma):
    """W_lambda for each functional matrix in Cms, sharing one factor of A."""
    return [InfoMatrix(inv_spd(sym(Cm @ AinvCt)) / sigma ** 2, RIDGE_LAMBDA)
            for Cm, AinvCt in zip(Cms, _ridge_solves(X, Cms, V0, lam, sigma))]


def _offsets(Cms):
    return np.cumsum([Cm.shape[0] for Cm in Cms])[:-1]


def info_matrix_ridge(X, C, V0, lam, sigma):
    """W_lambda = sigma^{-2} (C (sigma^2 lam V0 + X^T X)^{-1} C^T)^{-1}."""
    return _ridge_info_matrices(X, [_cmat(C)], V0, lam, sigma)[0]


def info_matrix_adaptive(pd, lam, sigma):
    """Omega = Z^T Z / sigma^2 + lam S from projected data."""
    Z = np.atleast_2d(pd.Z)
    if Z.shape[0] == 0:
        Z = np.zeros((0, pd.S.shape[0]))
    return InfoMatrix(Z.T @ Z / sigma ** 2 + lam * pd.S, ADAPTIVE_OMEGA)


def weighted_info_matrix(X_S, eta, C, V0, kind, lam=None, sigma=None):
    """Information matrix of the fractionally weighted design D(eta)^{1/2} X_S.

    For the interpolation kind the computation restricts to the sub-support
    eta_i > 0 (the pseudo-inverse of the weighted gram lives there).
    """
    eta = np.asarray(eta, dtype=float).reshape(-1)
    X_S = np.atleast_2d(np.asarray(X_S, dtype=float))
    if eta.shape[0] != X_S.shape[0]:
        raise ValueError("eta length must match support size")
    if np.any(eta < -1e-12) or abs(eta.sum() - 1.0) > 1e-10:
        raise ValueError("eta must lie on the probability simplex")
    return _weighted_info_matrices(X_S, eta, [_cmat(C)], V0, kind, lam,
                                   sigma)[0]


def _weighted_info_matrices(X_S, eta, Cms, V0, kind, lam=None, sigma=None):
    """weighted_info_matrix for each functional matrix in Cms, sharing one
    factorization; eta is clipped at 0 and not checked against the simplex."""
    eta = np.clip(eta, 0.0, None)
    if kind == "interp":
        keep = eta > 0
        Xw = np.sqrt(eta[keep])[:, None] * X_S[keep]
        L, _ = interpolation_weights(np.vstack(Cms), Xw, V0)
        return [_info_from_weights(Lg) for Lg in np.split(L, _offsets(Cms))]
    if kind == "ridge":
        if lam is None or sigma is None:
            raise ValueError("ridge kind needs lam and sigma")
        Xw = np.sqrt(eta)[:, None] * X_S
        return _ridge_info_matrices(Xw, Cms, V0, lam, sigma)
    raise ValueError(f"unknown kind {kind!r}")


def residual_covariance_bound(X, C, V0, lam, sigma, kind):
    """Upper bound on the residual covariance E(L) of the estimator.

    interp: sigma^2 * C V0^{-1} X^T K^{-2} X V0^{-1} C^T (variance)
            + (1/lam) * C V0^{-1/2} (I - P) V0^{-1/2} C^T (bias), with P the
            projection onto the whitened design row span.
    ridge:  worst case over the prior ball, which collapses to W_lambda^{-1}
            = sigma^2 C (sigma^2 lam V0 + X^T X)^{-1} C^T.
    """
    Cm = _cmat(C)
    if kind == "ridge":
        (AinvCt,) = _ridge_solves(X, [Cm], V0, lam, sigma)
        return sym(sigma ** 2 * (Cm @ AinvCt))
    if kind != "interp":
        raise ValueError(f"unknown kind {kind!r}")
    L, Xu = interpolation_weights(Cm, X, V0)
    CV = Cm @ V0.inv()
    # bias: C V0^{-1/2}(I - P)V0^{-1/2} C^T = C V0^{-1} C^T - L X V0^{-1} C^T
    return sym(sigma ** 2 * (L @ L.T) + (CV @ Cm.T - L @ Xu @ CV.T) / lam)


__all__ = [
    "Dataset", "InfoMatrix", "interpolate", "ridge", "info_matrix_interp",
    "info_matrix_ridge", "info_matrix_adaptive", "weighted_info_matrix",
    "residual_covariance_bound", "project_data", "ProjectedData",
    "INTERP_DAGGER", "RIDGE_LAMBDA", "ADAPTIVE_OMEGA",
]
