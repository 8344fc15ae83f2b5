"""Fixed-design and adaptive (anytime) confidence ellipsoids for C theta."""

import numpy as np

from .estimators import (ADAPTIVE_OMEGA, INTERP_DAGGER, RIDGE_LAMBDA,
                         InfoMatrix, info_matrix_adaptive)
from .linalg import cho_logdet, solve_spd, solve_spd_checked, spd_factor, sym

FIXED_INTERP = "fixed_interp"
FIXED_RIDGE = "fixed_ridge"
ADAPTIVE = "adaptive"


class ConfidenceEllipsoid:
    """Set {v : ||v - center||_M <= radius} with M the information matrix."""

    def __init__(self, center, metric, radius, delta, kind):
        if kind not in (FIXED_INTERP, FIXED_RIDGE, ADAPTIVE):
            raise ValueError(f"unknown ellipsoid kind {kind!r}")
        if not isinstance(metric, InfoMatrix):
            raise TypeError("metric must be an InfoMatrix")
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.metric = metric
        self.radius = float(radius)
        self.delta = float(delta)
        self.kind = kind

    def mahalanobis(self, v):
        d = np.asarray(v, dtype=float).reshape(-1) - self.center
        return float(np.sqrt(max(d @ self.metric.matrix @ d, 0.0)))

    def contains(self, v):
        return self.mahalanobis(v) <= self.radius


def xi(delta, p):
    """Chi-squared concentration constant p + 2 sqrt(p ln(1/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if p < 1:
        raise ValueError("p must be a positive integer")
    return p + 2.0 * np.sqrt(p * np.log(1.0 / delta))


def fixed_interp_ellipsoid(estimate, W_dagger, nu, lam, sigma, reps, delta):
    """Fixed-design set for the interpolation estimator.

    radius = (sigma / sqrt(T)) sqrt(xi(delta)) + nu / sqrt(lam) for T full
    repetitions of the base design; metric W_dagger.
    """
    if W_dagger.kind != INTERP_DAGGER:
        raise ValueError("metric must be an interp_dagger info matrix")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    radius = (sigma / np.sqrt(reps)) * np.sqrt(xi(delta, W_dagger.p)) \
        + nu / np.sqrt(lam)
    return ConfidenceEllipsoid(estimate, W_dagger, radius, delta, FIXED_INTERP)


def fixed_ridge_ellipsoid(estimate, W_lambda, delta):
    """Fixed-design set for the ridge estimator: radius sqrt(xi)+1, metric W_lambda."""
    if W_lambda.kind != RIDGE_LAMBDA:
        raise ValueError("metric must be a ridge_lambda info matrix")
    radius = np.sqrt(xi(delta, W_lambda.p)) + 1.0
    return ConfidenceEllipsoid(estimate, W_lambda, radius, delta, FIXED_RIDGE)


def anytime_radius(logdet_ratio, delta):
    """sqrt(2 (log(1/delta) + logdet_ratio / 2)) + 1 for logdet_ratio =
    log det(Omega)/det(lam S), scalar or array; ratios in [-1e-9, 0) are
    roundoff and clip to 0, lower ones raise ValueError."""
    ratio = np.asarray(logdet_ratio, dtype=float)
    if np.any(ratio < -1e-9):
        raise ValueError(
            f"det(Omega)/det(lam S) = exp({ratio.min():.3e}) < 1: "
            "Omega is not dominated below by lam S")
    return np.sqrt(2.0 * (np.log(1.0 / delta)
                          + 0.5 * np.maximum(ratio, 0.0))) + 1.0


def adaptive_radius(Omega, S, lam, delta):
    """anytime_radius of Omega against lam S."""
    return anytime_radius(cho_logdet(spd_factor(Omega.matrix))
                          - cho_logdet(spd_factor(lam * np.asarray(S))), delta)


def adaptive_ellipsoid(estimate, Omega, S, lam, delta):
    """Anytime set: radius sqrt(2 log((1/delta) det(Omega)^1/2 / det(lam S)^1/2)) + 1.

    Valid simultaneously for all t; callers recompute per step as data
    accumulates.
    """
    if Omega.kind != ADAPTIVE_OMEGA:
        raise ValueError("metric must be an adaptive_omega info matrix")
    radius = adaptive_radius(Omega, S, lam, delta)
    return ConfidenceEllipsoid(estimate, Omega, radius, delta, ADAPTIVE)


def adaptive_radius_closed_form(p, t, L, lam, delta):
    """Closed-form bound sqrt(p log(t L^2/(p lam) + 1) + 2 log(1/delta)).

    Upper-bounds the det-based adaptive radius minus 1 when all projected
    rows satisfy ||z_i|| <= L.
    """
    if t < 0 or L < 0:
        raise ValueError("t and L must be nonnegative")
    return np.sqrt(p * np.log(t * L ** 2 / (p * lam) + 1.0)
                   + 2.0 * np.log(1.0 / delta))


def l2_error_bound(e, allow_singular=False):
    """Worst-axis error lambda_min(metric)^{-1/2} * radius."""
    w = np.linalg.eigvalsh(sym(e.metric.matrix))
    pos = w[w > 1e-12 * max(w.max(), 1e-300)]
    if pos.size < w.size and not allow_singular:
        raise ValueError(
            "metric has a numerically zero eigenvalue; pass allow_singular "
            "to bound the identifiable subspace only")
    return e.radius / np.sqrt(pos.min())


def projected_biased_adaptive(pd, y, theta_bound, lam, sigma, delta):
    """Biased regression on projected data only, with a bias-inflated radius.

    estimate = (Z^T Z / sigma^2 + lam S)^{-1} Z^T y / sigma^2; the radius adds
    the accumulated residual bias sum_i ||j_i|| * theta_bound on top of the
    anytime radius.  Comparison baseline only.
    """
    Z = np.atleast_2d(pd.Z)
    y = np.asarray(y, dtype=float).reshape(-1)
    Omega = info_matrix_adaptive(pd, lam, sigma)
    estimate = solve_spd(Omega.matrix, Z.T @ y / sigma ** 2)
    bias = float(np.linalg.norm(pd.J, axis=1).sum()) * theta_bound
    radius = adaptive_radius(Omega, pd.S, lam, delta) + bias
    return estimate, ConfidenceEllipsoid(estimate, Omega, radius, delta, ADAPTIVE)


def interval(e, direction):
    """Projection of the ellipsoid onto a direction: (lo, hi)."""
    u = np.asarray(direction, dtype=float).reshape(-1)
    if not np.any(u):
        raise ValueError("direction must be nonzero")
    Minv_u = solve_spd_checked(e.metric.matrix, u,
                               "singular metric: interval unbounded")
    half = e.radius * float(np.sqrt(u @ Minv_u))
    mid = float(u @ e.center)
    return mid - half, mid + half
