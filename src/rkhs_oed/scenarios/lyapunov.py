"""Stability certification of a learned-dynamics tracking controller.

The unknown dynamics xdot = A phi(x) are estimated online; at each step every
query strategy checks whether the worst-case upper bound on dV/dt over a tube
around the reference orbit is negative, using (a) our adaptive set on the
tube-projected functionals and (b) a full-space self-normalized baseline set
projected through the same functionals.
"""

import os

import numpy as np

from ..confidence import anytime_radius
from ..features import nystrom_features, se_kernel
from ..linalg import (cho_logdet, cho_quad_rows, cho_solve, solve_spd,
                      spd_factor)
from .common import ensure_dir, spawn_rngs, timer, write_csv, write_meta

CSV_HEADER = ("seed", "step", "strategy", "set_kind", "sup_dV_bound",
              "certified")

SVD_TRUNC = 1e-8
# scores within this relative distance of the best count as tied; roundoff
# splits the exact ties of the symmetric tube and candidate grid by up to
# 9.6e-10 relative at the defaults
TIE_RTOL = 1e-9


def argmax_lowest(scores):
    """Lowest index among scores within a relative TIE_RTOL of the max, so
    that ties decided by roundoff go the same way at any BLAS thread count."""
    best = scores.max()
    return int(np.flatnonzero(scores >= best - TIE_RTOL * abs(best))[0])


def _grid(region, k):
    """k x k grid on [-region, region]^2, rows in meshgrid "ij" order."""
    ax = np.linspace(-region, region, k)
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)


def _true_dynamics_matrix(fm, region, fit_grid, a_norm):
    """Fit A so that A phi(x) tracks a damped-pendulum field, then normalize
    ||A||_F = a_norm so the isotropic prior ball at lam=1 contains vec(A).
    The normalized A *defines* the ground-truth dynamics."""
    pts = _grid(region, fit_grid)
    Phi = fm(pts)                                         # N x m
    F = np.stack([pts[:, 1], -np.sin(pts[:, 0]) - 0.5 * pts[:, 1]],
                 axis=1)                                  # N x 2
    G = Phi.T @ Phi + 1e-8 * np.eye(fm.dim)
    A = solve_spd(G, Phi.T @ F).T                         # 2 x m
    return A * (a_norm / np.linalg.norm(A))


def _tube_points(n_angles, width):
    """Tube discretization: angles x 3 radial offsets around the unit circle."""
    ang = 2 * np.pi * np.arange(n_angles) / n_angles
    ref = np.stack([np.sin(ang), np.cos(ang)], -1)        # n x 2 on the circle
    offsets = np.array([-width, width / 2, width])
    pts, zs = [], []
    for r in offsets:
        pts.append(ref * (1.0 + r))
        zs.append(ref * r)                                # z = x - x_ref
    return np.concatenate(pts), np.concatenate(zs)


def run_lyapunov_scenario(cfg, out_dir=None):
    out_dir = ensure_dir(out_dir or cfg.output_dir or ".")
    p = cfg.params
    with timer() as tm:
        region = p["region"]
        fm = nystrom_features(se_kernel(p["lengthscale"]),
                              _grid(region, p["landmarks_per_axis"]))
        m = fm.dim
        A_true = _true_dynamics_matrix(fm, region, p["fit_grid"], p["a_norm"])
        lam, sigma, delta, gain = cfg.lam, cfg.sigma, cfg.delta, p["gain"]

        tube_x, tube_z = _tube_points(p["n_angles"], p["tube_width"])
        Phi_tube = fm(tube_x)                              # nt x m
        # tube functionals C_x = 2 vec(z phi(x)^T): row blocks per component
        M_tube = 2.0 * np.concatenate(
            [tube_z[:, [0]] * Phi_tube, tube_z[:, [1]] * Phi_tube], axis=1)
        zz = np.sum(tube_z ** 2, axis=1)                   # ||z||^2 per point
        damp = 2.0 * gain * zz                             # 2K ||z||^2

        # reduced orthonormal basis for the tube functional span
        _, sv, vt = np.linalg.svd(M_tube, full_matrices=False)
        r = int(np.sum(sv > SVD_TRUNC * sv[0]))
        Ct = vt[:r]                                        # r x 2m, orthonormal
        G_tube = M_tube @ Ct.T                             # nt x r coordinates
        Ct_blocks = Ct.reshape(r, 2, m)

        # ground-truth sanity: perfect model, beta = 0
        gt_sup = float(np.max(-damp))

        cand = _grid(region, p["candidate_grid"])
        n_tube = len(tube_x)
        Phi_tube_cand = np.concatenate([Phi_tube, fm(cand)])

        rows = []
        cert_steps = {}
        rngs = spawn_rngs(cfg.seed, p["n_seeds"])
        for seed_i, rng in enumerate(rngs):
            for strategy in p["strategies"]:
                # per-arm state; quadratic forms under B^{-1} and Omega^{-1}
                # come from the latest factors, one of each per step
                B = lam * sigma ** 2 * np.eye(m)           # ridge gram block
                Omega = lam * np.eye(r)                    # our set (S = I_r)
                zy = np.zeros(r)
                Xty = np.zeros((m, 2))
                rows_B = Phi_tube_cand if strategy == "unc" else Phi_tube
                q_B = cho_quad_rows(spd_factor(B), rows_B)
                q_ours = cho_quad_rows(spd_factor(Omega), G_tube)
                cert = {"ours": None, "baseline": None}
                for step in range(1, p["max_steps"] + 1):
                    # pick query
                    if strategy == "random":
                        x = rng.uniform(-region, region, size=2)
                    elif strategy == "random-ref":
                        a = rng.uniform(0, 2 * np.pi)
                        rad = 1.0 + rng.uniform(-p["tube_width"],
                                                p["tube_width"])
                        x = rad * np.array([np.sin(a), np.cos(a)])
                    elif strategy == "unc":
                        x = cand[argmax_lowest(q_B[n_tube:])]
                    elif strategy == "unc-ref":
                        x = tube_x[argmax_lowest(q_ours)]
                    else:
                        raise ValueError(f"unknown strategy {strategy!r}")

                    phi = fm(x)
                    y = A_true @ phi + sigma * rng.standard_normal(2)
                    B += np.outer(phi, phi)
                    Xty += np.outer(phi, y)
                    zrows = Ct_blocks @ phi                # r x 2
                    Omega += (zrows @ zrows.T) / sigma ** 2
                    zy += zrows @ y / sigma ** 2
                    c_B, c_Omega = spd_factor(B), spd_factor(Omega)
                    q_B = cho_quad_rows(c_B, rows_B)
                    q_ours = cho_quad_rows(c_Omega, G_tube)

                    # full ridge estimate (controller model)
                    theta_full = cho_solve(c_B, Xty).T.ravel()

                    # ours: projected center + anytime radius
                    c_hat = cho_solve(c_Omega, zy)
                    beta_ours = anytime_radius(
                        cho_logdet(c_Omega) - r * np.log(lam), delta)
                    center_shift = G_tube @ (c_hat - Ct @ theta_full)
                    sup_ours = float(np.max(
                        center_shift + beta_ours * np.sqrt(q_ours) - damp))

                    # baseline: full-space self-normalized set through C_x;
                    # theta = vec(A) has two identical gram blocks, so the
                    # full-space log-det ratio is twice the block's
                    beta_base = anytime_radius(2.0 * (
                        cho_logdet(c_B) - m * np.log(lam * sigma ** 2)),
                        delta)
                    unc_base = 2.0 * sigma * np.sqrt(zz * q_B[:n_tube])
                    sup_base = float(np.max(beta_base * unc_base - damp))

                    for kind, sup in (("ours", sup_ours),
                                      ("baseline", sup_base)):
                        certified = sup < 0
                        if certified and cert[kind] is None:
                            cert[kind] = step
                        rows.append((seed_i, step, strategy, kind,
                                     sup, int(certified)))
                    if all(c is not None for c in cert.values()):
                        break
                cert_steps[(seed_i, strategy)] = dict(cert)

        csv_path = write_csv(os.path.join(out_dir, "lyapunov.csv"),
                             CSV_HEADER, rows)
    extra = {
        "ground_truth_sup": gt_sup,
        "reduced_rank": r,
        "certification_steps": {
            f"{s}/{strat}": cert_steps[(s, strat)]
            for (s, strat) in sorted(cert_steps)},
    }
    write_meta(out_dir, cfg, tm.seconds, extra)
    return {"csv": csv_path, "rows": rows, "cert_steps": cert_steps,
            "ground_truth_sup": gt_sup, "reduced_rank": r}
