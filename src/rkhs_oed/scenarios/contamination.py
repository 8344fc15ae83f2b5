"""Contaminated-trend scenario: estimate the linear slope of a signal
containing an oscillatory contamination, comparing a target-aware design
against a full-function design and random sampling."""

import os

import numpy as np

from ..design import DesignObjective, greedy_design, mirror_descent_design
from ..estimators import Dataset, ridge
from ..features import FeatureMap, PriorOperator
from ..functionals import LinearFunctional, contamination_selector
from .common import ensure_dir, exact_counts, spawn_rngs, timer, write_csv, \
    write_meta

CSV_HEADER = ("budget", "design_kind", "mse")


def contamination_features(n_freq):
    """1-d map: linear trend plus 1/l^2-damped oscillations at pi*l and pi*e*l.

    Feature 0 is x itself (its coefficient is the slope target); each
    frequency contributes a cosine/sine pair scaled by 1/l^2, so an isotropic
    prior ball matches the damped-coefficient model.
    """
    freqs = []
    amps = []
    for l in range(1, n_freq + 1):
        for base in (np.pi, np.pi * np.e):
            freqs.append(base * l)
            amps.append(1.0 / l ** 2)
    freqs = np.array(freqs)
    amps = np.array(amps)
    dim = 1 + 2 * freqs.size

    def eval_fn(X):
        wx = freqs * X
        return np.concatenate([X, amps * np.cos(wx), amps * np.sin(wx)],
                              axis=1)

    def jac_fn(X):
        wx = freqs * X
        return np.concatenate([np.ones_like(X), -amps * freqs * np.sin(wx),
                               amps * freqs * np.cos(wx)], axis=1)[:, None, :]

    return FeatureMap(dim, 1, eval_fn, jac_fn)


def _pipeline_design(obj, cand_pts, X_cand, greedy_budget, greedy_seeds,
                     mirror_iters):
    """Greedy support selection followed by mirror-descent weight refinement.

    Also returns the smallest relative spread of greedy's candidate scores
    over its steps (None without a step): near roundoff, the objective did
    not tell the candidates apart.
    """
    n = X_cand.shape[0]
    seeds = np.unique(np.linspace(0, n - 1, greedy_seeds).round().astype(int))
    g = greedy_design(obj, cand_pts, greedy_budget, X_cand=X_cand,
                      seed_indices=seeds)
    keep = np.flatnonzero(g.counts > 0)
    sub_pts = [cand_pts[i] for i in keep]
    alloc = mirror_descent_design(obj, sub_pts, X_S=X_cand[keep],
                                  iters=mirror_iters)
    eta_full = np.zeros(n)
    eta_full[keep] = alloc.eta
    return alloc, eta_full, g.min_spread


def run_contamination_scenario(cfg, out_dir=None):
    out_dir = ensure_dir(out_dir or cfg.output_dir or ".")
    p = cfg.params
    with timer() as tm:
        fm = contamination_features(p["n_freq"])
        m = fm.dim
        V0 = PriorOperator(dim=m)
        cand = np.linspace(-1.0, 1.0, p["n_candidates"])[:, None]
        cand_pts = list(cand)
        X_cand = fm(cand)

        C_target = contamination_selector([0], m)
        C_full = LinearFunctional(np.eye(m), label="full coefficient vector")
        designs = {}
        etas = {}
        spreads = {}
        for name, C in (("aware", C_target), ("full", C_full)):
            obj = DesignObjective("E", "ridge", C, V0=V0, lam=cfg.lam,
                                  sigma=cfg.sigma)
            designs[name], etas[name], spreads[name] = _pipeline_design(
                obj, cand_pts, X_cand, p["greedy_budget"], p["greedy_seeds"],
                p["mirror_iters"])

        rngs = spawn_rngs(cfg.seed, p["n_seeds"])
        budgets = [int(b) for b in p["budgets"]]
        sq_err = {(b, k): [] for b in budgets
                  for k in ("aware", "full", "random")}
        for rng in rngs:
            theta = np.zeros(m)
            theta[0] = p["alpha_true"]
            if p["contamination_norm"] > 0:
                c = rng.standard_normal(m - 1)
                theta[1:] = c / np.linalg.norm(c) * p["contamination_norm"]
            for b in budgets:
                for kind in ("aware", "full", "random"):
                    if kind == "random":
                        idx = rng.integers(0, len(cand_pts), size=b)
                    else:
                        counts = exact_counts(etas[kind], b)
                        idx = np.repeat(np.flatnonzero(counts > 0),
                                        counts[counts > 0])
                    X = X_cand[idx]
                    y = X @ theta + cfg.sigma * rng.standard_normal(len(idx))
                    ds = Dataset(X, y, cfg.sigma, V0=V0, lam=cfg.lam)
                    alpha_hat = float(ridge(ds, C_target)[0])
                    sq_err[(b, kind)].append(
                        (alpha_hat - p["alpha_true"]) ** 2)

        rows = [(b, kind, float(np.mean(sq_err[(b, kind)])))
                for b in budgets for kind in ("aware", "full", "random")]
        csv_path = write_csv(os.path.join(out_dir, "contamination.csv"),
                             CSV_HEADER, rows)
    extra = {"designs": {k: {"eta": a.eta.tolist(),
                             "support": [pt.tolist()
                                         for pt in a.support_points],
                             "greedy_min_spread": spreads[k]}
                         for k, a in designs.items()}}
    write_meta(out_dir, cfg, tm.seconds, extra)
    return {"csv": csv_path, "rows": rows, "designs": designs}
