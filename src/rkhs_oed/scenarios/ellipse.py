"""Two-dimensional demo: direct confidence intervals for a single coordinate
versus classical full-space sets projected onto that coordinate."""

import os

import numpy as np

from ..confidence import adaptive_ellipsoid, fixed_ridge_ellipsoid, interval
from ..estimators import Dataset, info_matrix_adaptive, info_matrix_ridge, \
    ridge
from ..features import PriorOperator
from ..functionals import LinearFunctional, project_data
from ..linalg import solve_spd
from .common import ensure_dir, spawn_rngs, timer, write_csv, write_meta

CSV_HEADER = ("set_kind", "design_kind", "interval_lo", "interval_hi")


def run_ellipse_demo(cfg, out_dir=None):
    out_dir = ensure_dir(out_dir or cfg.output_dir or ".")
    p = cfg.params
    with timer() as tm:
        rng = spawn_rngs(cfg.seed, 1)[0]
        n = p["n_points"]
        X = rng.standard_normal((n, 2))
        theta = np.zeros(2)
        y = X @ theta + cfg.sigma * rng.standard_normal(n)
        V0 = PriorOperator(dim=2)
        C1 = LinearFunctional(np.array([[1.0, 0.0]]), label="first coordinate")
        C2 = LinearFunctional(np.eye(2), label="full vector")
        ds = Dataset(X, y, cfg.sigma, lam=cfg.lam)

        rows = []
        # fixed-design ridge sets
        for label, C, u in (("ours", C1, np.array([1.0])),
                            ("projected", C2, np.array([1.0, 0.0]))):
            est = ridge(ds, C)
            W = info_matrix_ridge(X, C, V0, cfg.lam, cfg.sigma)
            e = fixed_ridge_ellipsoid(est, W, cfg.delta)
            lo, hi = interval(e, u)
            rows.append(("fixed", label, lo, hi))

        # adaptive (anytime) sets on the same data
        for label, C, u in (("ours", C1, np.array([1.0])),
                            ("projected", C2, np.array([1.0, 0.0]))):
            pd = project_data(X, C, V0)
            Omega = info_matrix_adaptive(pd, cfg.lam, cfg.sigma)
            center = solve_spd(Omega.matrix, pd.Z.T @ y / cfg.sigma ** 2)
            e = adaptive_ellipsoid(center, Omega, pd.S, cfg.lam, cfg.delta)
            lo, hi = interval(e, u)
            rows.append(("adaptive", label, lo, hi))

        csv_path = write_csv(os.path.join(out_dir, "ellipse.csv"),
                             CSV_HEADER, rows)
    write_meta(out_dir, cfg, tm.seconds)
    return {"csv": csv_path, "rows": rows}
