"""Monte Carlo coverage studies for the fixed-design and anytime sets."""

import os

import numpy as np

from ..confidence import anytime_radius, xi
from ..estimators import _info_from_weights, _ridge_solves, info_matrix_ridge
from ..features import PriorOperator
from ..functionals import LinearFunctional, interpolation_weights, \
    relative_bias
from .common import ensure_dir, timer, write_csv, write_meta

CSV_HEADER = ("set_kind", "replica", "deviation", "radius", "covered")


def _random_ball_thetas(rng, n, m, radius):
    """n points drawn inside the m-ball of the given radius."""
    g = rng.standard_normal((n, m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    scale = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / m)
    return g * scale[:, None]


def _coverage_fixed(cfg, kind, rng):
    p = cfg.params
    n, m, pdim = p["n"], p["m"], p["p"]
    R = p["replicas"]
    X = rng.standard_normal((n, m))
    Cm = rng.standard_normal((pdim, m))
    C = LinearFunctional(Cm)
    V0 = PriorOperator(dim=m)
    sigma, lam, delta = cfg.sigma, cfg.lam, cfg.delta

    thetas = _random_ball_thetas(rng, R, m, 1.0 / np.sqrt(lam))  # R x m
    targets = thetas @ Cm.T                                      # R x p
    noise = sigma * rng.standard_normal((R, n))
    Y = thetas @ X.T + noise                                     # R x n

    if kind == "fixed_interp":
        L, Xu = interpolation_weights(C, X, V0)
        ests = Y @ L.T
        W = _info_from_weights(L)
        nu = relative_bias(C, X, V0)
        radius = sigma * np.sqrt(xi(delta, pdim)) + nu / np.sqrt(lam)
    elif kind == "fixed_ridge":
        (AinvCt,) = _ridge_solves(X, [Cm], V0, lam, sigma)
        ests = Y @ (X @ AinvCt)
        W = info_matrix_ridge(X, C, V0, lam, sigma)
        radius = np.sqrt(xi(delta, pdim)) + 1.0
    else:
        raise ValueError(f"unknown fixed kind {kind!r}")

    diff = ests - targets
    dev = np.sqrt(np.maximum(
        np.einsum("ri,ij,rj->r", diff, W.matrix, diff), 0.0))
    covered = dev <= radius
    rows = [(kind, i, float(dev[i]), float(radius), int(covered[i]))
            for i in range(R)]
    return rows, float(covered.mean())


def _coverage_adaptive(cfg, rng):
    """Anytime set on a 1-d projected target with a response-dependent query
    rule; a run is covered only if every step's set contains the target."""
    p = cfg.params
    R = p["adaptive_runs"]
    steps = p["adaptive_steps"]
    sigma, lam, delta = cfg.sigma, cfg.lam, cfg.delta
    # theta in the 2-ball of radius 1/sqrt(lam); target is the 1st coordinate
    thetas = _random_ball_thetas(rng, R, 2, 1.0 / np.sqrt(lam))
    target = thetas[:, 0]
    j_amp = p["adaptive_j_amp"]                      # off-target feature scale

    omega = np.full(R, lam)                          # Omega_t, scalar (S = 1)
    num = np.zeros(R)                                # Z^T y / sigma^2
    ok = np.ones(R, dtype=bool)
    max_ratio = np.zeros(R)                          # max_t deviation/radius
    ybar = np.zeros(R)
    for t in range(1, steps + 1):
        # response-adaptive query: amplitude depends on the running mean
        z = np.where(ybar > 0, 1.0, 0.5)
        x2 = j_amp * np.where(ybar > 0, -1.0, 1.0)
        y = z * target + x2 * thetas[:, 1] \
            + sigma * rng.standard_normal(R)
        ybar += (y - ybar) / t
        omega += z ** 2 / sigma ** 2
        num += z * y / sigma ** 2
        est = num / omega
        radius = anytime_radius(np.log(omega / lam), delta)
        dev = np.abs(est - target) * np.sqrt(omega)
        ratio = dev / radius
        max_ratio = np.maximum(max_ratio, ratio)
        ok &= ratio <= 1.0
    rows = [("adaptive", i, float(max_ratio[i]), 1.0, int(ok[i]))
            for i in range(R)]
    return rows, float(ok.mean())


def run_coverage_study(cfg, out_dir=None):
    out_dir = ensure_dir(out_dir or cfg.output_dir or ".")
    p = cfg.params
    with timer() as tm:
        rng = np.random.default_rng(cfg.seed)
        all_rows = []
        summary = {}
        for kind in p["kinds"]:
            if kind in ("fixed_interp", "fixed_ridge"):
                rows, cov = _coverage_fixed(cfg, kind, rng)
            elif kind == "adaptive":
                rows, cov = _coverage_adaptive(cfg, rng)
            else:
                raise ValueError(f"unknown coverage kind {kind!r}")
            all_rows.extend(rows)
            summary[kind] = cov
        csv_path = write_csv(os.path.join(out_dir, "coverage.csv"),
                             CSV_HEADER, all_rows)
    write_meta(out_dir, cfg, tm.seconds, {"coverage": summary})
    return {"csv": csv_path, "rows": all_rows, "coverage": summary}
