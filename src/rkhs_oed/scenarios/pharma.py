"""Two-compartment pharmacokinetics: robust T-optimal measurement times for
the blood-concentration curve versus equal spacing, scored by the MSE of the
maximum-likelihood parameter recovery."""

import json
import os

import numpy as np
from scipy.optimize import minimize

from ..design import DesignObjective, evaluate_objective, greedy_design
from ..features import evaluate_design_matrix, qff_squared_exponential
from ..functionals import FunctionalFamily, ode_nullspace_functional
from .common import ensure_dir, spawn_rngs, timer, write_csv, write_meta

CSV_HEADER = ("n_samples", "design_kind", "gamma_mse")


def rk4_trajectory(rhs, y0, t_span, steps):
    """Fixed-step RK4: returns (times, states) with states[i] at times[i]."""
    t0, t1 = t_span
    hs = (t1 - t0) / steps
    times = t0 + hs * np.arange(steps + 1)
    y = np.asarray(y0, dtype=float)
    out = np.empty((steps + 1, y.size))
    out[0] = y
    for i in range(steps):
        t = times[i]
        k1 = rhs(t, y)
        k2 = rhs(t + hs / 2, y + hs / 2 * k1)
        k3 = rhs(t + hs / 2, y + hs / 2 * k2)
        k4 = rhs(t + hs, y + hs * k3)
        y = y + hs / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return times, out


def two_compartment_rhs(gamma):
    """Stomach/blood compartments: c_s' = -a c_s, c_b' = b c_s - d c_b."""
    a, b, d = gamma

    def rhs(t, y):
        return np.array([-a * y[0], b * y[0] - d * y[1]])

    return rhs


def blood_curve(gamma, c_dose, t_max, steps):
    """Blood concentration trajectory from a unit stomach dose."""
    rhs = two_compartment_rhs(gamma)
    times, states = rk4_trajectory(rhs, [c_dose, 0.0], (0.0, t_max), steps)
    return times, states[:, 1]


def operator_matrix(fm, grid, a, d):
    """Discretized blood-compartment operator c'' + (a+d)c' + ad c on features.

    Fourier features make the second derivative diagonal: phi_k'' = -w_k^2 phi_k.
    """
    pts = np.asarray(grid, dtype=float)[:, None]
    Phi = fm(pts)
    dPhi = fm.jacobian(pts)[:, 0, :]
    return -Phi * fm.omega[:, 0] ** 2 + (a + d) * dPhi + a * d * Phi


def _mle(gamma0, box, times, ys, c_dose, t_max, steps):
    box = np.asarray(box, dtype=float)

    def loss(g):
        if np.any(g < box[:, 0]) or np.any(g > box[:, 1]):
            return 1e8 + float(np.sum(np.clip(box[:, 0] - g, 0, None)
                                      + np.clip(g - box[:, 1], 0, None)))
        tgrid, cb = blood_curve(g, c_dose, t_max, steps)
        pred = np.interp(times, tgrid, cb)
        return float(np.sum((ys - pred) ** 2))

    res = minimize(loss, np.asarray(gamma0, dtype=float),
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-16,
                            "maxiter": 2000, "maxfev": 2000})
    return res.x


def design_problem(cfg):
    """Feature map, candidate times, candidate rows, robust T-objective and
    greedy seed indices of the pharma design at cfg.

    The family holds the function-space null spaces of the blood operator
    over the (a, d) grid; it is generated once, not on every evaluation.
    """
    p = cfg.params
    t_max = p["t_max"]
    fm = qff_squared_exponential(p["lengthscale"], p["m"], [[0.0, t_max]])
    grid = np.linspace(0.0, t_max, p["operator_grid"])
    Phi_grid = evaluate_design_matrix(fm, grid)
    gammas = [(a, d) for a in p["a_grid"] for d in p["d_grid"]]
    nulls = {}
    for a, d in gammas:
        nulls[(a, d)], _ = ode_nullspace_functional(
            operator_matrix(fm, grid, a, d), null_dim=2,
            basis_values=Phi_grid)
    family = FunctionalFamily(nulls.__getitem__, gammas,
                              label="pharma null spaces")
    cand_times = np.linspace(t_max / p["n_candidates"], t_max,
                             p["n_candidates"])
    X_cand = evaluate_design_matrix(fm, cand_times)
    obj = DesignObjective("T", "ridge", family, lam=cfg.lam, sigma=cfg.sigma)
    seed_indices = np.unique(np.linspace(0, len(cand_times) - 1,
                                         3).astype(int))
    return fm, cand_times, X_cand, obj, seed_indices


def run_pharma_scenario(cfg, out_dir=None):
    out_dir = ensure_dir(out_dir or cfg.output_dir or ".")
    p = cfg.params
    with timer() as tm:
        t_max = p["t_max"]
        fm, cand_times, X_cand, obj, seed_indices = design_problem(cfg)

        designs = {}
        objectives = {}
        for n_s in p["sample_counts"]:
            g = greedy_design(obj, list(cand_times), int(n_s), X_cand=X_cand,
                              seed_indices=seed_indices)
            opt_times = np.repeat(cand_times[g.counts > 0],
                                  g.counts[g.counts > 0])
            eq_times = np.linspace(t_max / n_s, t_max, int(n_s))
            designs[int(n_s)] = {"optimized": np.sort(opt_times),
                                 "equal": eq_times}
            objectives[int(n_s)] = {
                kind: evaluate_objective(
                    obj, evaluate_design_matrix(fm, times),
                    np.full(len(times), 1.0 / len(times)))
                for kind, times in designs[int(n_s)].items()}

        gamma_true = np.asarray(p["gamma_true"], dtype=float)
        tgrid, cb_true = blood_curve(gamma_true, p["c_dose"], t_max,
                                     p["rk4_steps"])
        box = p["box"]
        center = np.array([(lo + hi) / 2 for lo, hi in box])

        rngs = spawn_rngs(cfg.seed, p["n_seeds"])
        sq_err = {n_s: {kind: [] for kind in kinds}
                  for n_s, kinds in designs.items()}
        for rng in rngs:
            for n_s, kinds in designs.items():
                for kind, times in kinds.items():
                    y_clean = np.interp(times, tgrid, cb_true)
                    ys = y_clean + cfg.sigma * rng.standard_normal(len(times))
                    g_hat = _mle(center, box, times, ys, p["c_dose"], t_max,
                                 p["mle_rk4_steps"])
                    sq_err[n_s][kind].append(
                        float(np.sum((g_hat - gamma_true) ** 2)))

        rows = [(n_s, kind, float(np.mean(sq_err[n_s][kind])))
                for n_s in sorted(designs) for kind in ("optimized", "equal")]
        csv_path = write_csv(os.path.join(out_dir, "pharma.csv"),
                             CSV_HEADER, rows)
        design_json = {str(n_s): {k: v.tolist() for k, v in kinds.items()}
                       for n_s, kinds in designs.items()}
        with open(os.path.join(out_dir, "design.json"), "w") as fh:
            json.dump(design_json, fh, indent=2, sort_keys=True)
            fh.write("\n")
    write_meta(out_dir, cfg, tm.seconds)
    return {"csv": csv_path, "rows": rows, "designs": design_json,
            "sq_err": sq_err, "objectives": objectives}
