"""The four benchmark workloads and their correctness checks.

Each workload has ``setup(seed, out_dir)`` (everything a user pays before
the call that yields a design, a fit or a certificate), ``call(state)``
(that call, output writing included: the timed region), ``check_setup``
and ``check`` (outside the timed region).  ``check`` returns the number of
operations the call attempted and one message per failed operation; an
operation is one design, one fit or one adaptive arm.

The program is reached through module attributes at call time
(``pharma.run_pharma_scenario``, not a name imported here), so the tracer's
wrappers see every call.  The checks compute their references with plain
numpy/scipy, apart from the program.
"""

import os

import numpy as np
import scipy.linalg

from rkhs_oed import design, features
from rkhs_oed.scenarios import common, config, contamination, lyapunov, pharma

# pharma-design: greedy steps per design after the three seed candidates
PHARMA_GREEDY_STEPS = 1
# pharma-design: the (a, d) grid centre moves by up to this much with --seed
PHARMA_GRID_SHIFT = 0.25
# pharma-mle: one sample count and the noise seeds of one call; at six
# seeds the greedy design is about a tenth of the call, and one call is
# longer than a run's 15 s, so a run makes one round
MLE_SAMPLE_COUNT = 4
MLE_SEEDS = 6
# contamination: scaled from the defaults (64, 80) so that one call fits a
# run; the design pipeline and the 750 ridge fits keep their shape
CONTAMINATION_GREEDY_BUDGET = 24
CONTAMINATION_MIRROR_ITERS = 32
# lyapunov: a reference-blind rule that runs to max_steps beside the
# reference-aware rule that certifies early
LYAPUNOV_STRATEGIES = ["unc", "unc-ref"]
LYAPUNOV_SEEDS = 1


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def ridge_inner(C_list, X, weights, lam, sigma):
    """C (sigma^2 lam I + X^T D X)^-1 C^T for each C, identity prior, by one
    Cholesky factorization.  W_lambda is its inverse over sigma^2."""
    A = sigma ** 2 * lam * np.eye(X.shape[1]) + X.T @ (weights[:, None] * X)
    cho = scipy.linalg.cho_factor(A, lower=True)
    return [C @ scipy.linalg.cho_solve(cho, C.T) for C in C_list]


class Workload:
    """Defaults: no set-up checks, no counts taken from the output."""

    def check_setup(self, s):
        return []

    def output_counts(self, out):
        return {}


# ---------------------------------------------------------------------------
# pharma-design: robust A-optimal greedy sampling times, no MLE
# ---------------------------------------------------------------------------

class PharmaDesign(Workload):
    """Robust greedy design over nine ODE null spaces at QFF m = 384.

    --seed moves the centre of the 3 x 3 (a, d) grid; the feature map, the
    40 candidates and the greedy seed candidates stay those of the scenario.
    """

    name = "pharma-design"

    def setup(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        a0, d0 = np.array([5.0, 10.0]) + rng.uniform(
            -PHARMA_GRID_SHIFT, PHARMA_GRID_SHIFT, size=2)
        cfg = config.ScenarioConfig("pharma", seed=seed, params={
            "a_grid": [a0 - 1.0, a0, a0 + 1.0],
            "d_grid": [d0 - 1.0, d0, d0 + 1.0]})
        fm, cand_times, X_cand, obj, seed_idx = pharma.design_problem(cfg)
        return {"cfg": cfg, "fm": fm, "cand_times": cand_times,
                "X_cand": X_cand, "obj": obj, "seed_idx": seed_idx,
                "budget": len(seed_idx) + PHARMA_GREEDY_STEPS,
                "out": os.path.join(out_dir, "design.csv")}

    def call(self, s):
        g = design.greedy_design(s["obj"], list(s["cand_times"]), s["budget"],
                                 X_cand=s["X_cand"],
                                 seed_indices=s["seed_idx"])
        common.write_csv(s["out"], ("time", "count"),
                         [(t, c) for t, c in zip(s["cand_times"], g.counts)
                          if c > 0])
        return g

    def check_setup(self, s):
        """Null-space rows on the operator grid span {e^-at, e^-dt}."""
        p = s["cfg"].params
        grid = np.linspace(0.0, p["t_max"], p["operator_grid"])
        Phi = features.evaluate_design_matrix(s["fm"], grid)
        family = s["obj"].functional
        bad = []
        for (a, d), C in zip(family.gamma_grid, family.functionals()):
            exact = np.stack([np.exp(-a * grid), np.exp(-d * grid)], axis=1)
            sine = float(np.sin(scipy.linalg.subspace_angles(
                Phi @ C.matrix.T, exact).max()))
            if not sine <= 1e-6:
                bad.append(f"null space at (a, d) = ({a:.3f}, {d:.3f}) "
                           f"has subspace-angle sine {sine:.2e} > 1e-6")
        return bad

    def _robust_trace(self, s, X, weights):
        obj = s["obj"]
        Cs = [C.matrix for C in obj.functional.functionals()]
        return min(np.trace(np.linalg.inv(M)) / obj.sigma ** 2
                   for M in ridge_inner(Cs, X, weights, obj.lam, obj.sigma))

    def check(self, s, g):
        X, times = s["X_cand"], s["cand_times"]
        seed_counts = np.zeros(len(times))
        seed_counts[s["seed_idx"]] += 1
        msgs = []
        expected = self._robust_trace(s, X, g.counts.astype(float))
        if not _rel(g.objective_value, expected) <= 1e-8:
            msgs.append(f"objective_value {g.objective_value!r} != "
                        f"recomputed {expected!r}")
        # the last (only) greedy step: the chosen candidate maximizes the
        # robust objective of the normalized allocation
        added = np.flatnonzero(g.counts - seed_counts)
        t = seed_counts.sum()
        scores = []
        for j in range(len(times)):
            w = seed_counts.copy()
            w[j] += 1.0
            scores.append(self._robust_trace(s, X, w / (t + 1)))
        scores = np.array(scores)
        if (added.size != 1 or scores[added[0]]
                < scores.max() - 1e-9 * abs(scores.max())):
            msgs.append(f"greedy added {added.tolist()}, best candidate "
                        f"{int(np.argmax(scores))}")
        n = int(g.counts.sum())
        t_max = s["cfg"].params["t_max"]
        opt = np.repeat(times, g.counts)
        eq = np.linspace(t_max / n, t_max, n)
        uniform = np.full(n, 1.0 / n)
        f_opt = self._robust_trace(
            s, features.evaluate_design_matrix(s["fm"], opt), uniform)
        f_eq = self._robust_trace(
            s, features.evaluate_design_matrix(s["fm"], eq), uniform)
        if not f_opt > f_eq:
            msgs.append(f"optimized times score {f_opt:.4g} <= equal "
                        f"spacing {f_eq:.4g}")
        return 1, (["design: " + "; ".join(msgs)] if msgs else [])

    def ops(self, s):
        return 1


# ---------------------------------------------------------------------------
# pharma-mle: the scenario with a one-member family, MLE-dominated
# ---------------------------------------------------------------------------

class PharmaMLE(Workload):
    """run_pharma_scenario at (a, d) = (5, 10), n = 4, six noise seeds."""

    name = "pharma-mle"

    def setup(self, seed, out_dir):
        cfg = config.ScenarioConfig("pharma", seed=seed, params={
            "a_grid": [5.0], "d_grid": [10.0],
            "sample_counts": [MLE_SAMPLE_COUNT], "n_seeds": MLE_SEEDS})
        return {"cfg": cfg, "out_dir": out_dir, "recovered": {}}

    def call(self, s):
        return pharma.run_pharma_scenario(s["cfg"], out_dir=s["out_dir"])

    def check_setup(self, s):
        """blood_curve at both RK4 step counts against the closed form."""
        p = s["cfg"].params
        a, b, d = p["gamma_true"]
        bad = []
        for steps in (p["rk4_steps"], p["mle_rk4_steps"]):
            t, cb = pharma.blood_curve(p["gamma_true"], p["c_dose"],
                                       p["t_max"], steps)
            exact = (b * p["c_dose"] * (np.exp(-a * t) - np.exp(-d * t))
                     / (d - a))
            err = float(np.abs(cb - exact).max())
            if not err <= 1e-6:
                bad.append(f"blood_curve at {steps} RK4 steps is off the "
                           f"closed form by {err:.2e} > 1e-6")
        return bad

    def _recovery_error(self, s, times):
        """Largest parameter error of the MLE on noiseless samples, started
        off the truth, with data and fit on the MLE's discretization."""
        key = tuple(times)
        if key not in s["recovered"]:
            p = s["cfg"].params
            steps = p["mle_rk4_steps"]
            truth = np.asarray(p["gamma_true"], dtype=float)
            t, cb = pharma.blood_curve(truth, p["c_dose"], p["t_max"], steps)
            ys = np.interp(times, t, cb)
            g_hat = pharma._mle(truth + [-0.1, 0.1, -0.1], p["box"],
                                np.asarray(times), ys, p["c_dose"],
                                p["t_max"], steps)
            s["recovered"][key] = float(np.abs(g_hat - truth).max())
        return s["recovered"][key]

    def check(self, s, out):
        n = MLE_SAMPLE_COUNT
        msgs = []
        design_msgs = []
        for kind, times in out["designs"][str(n)].items():
            if len(times) != n:
                design_msgs.append(f"{kind} has {len(times)} times")
                continue
            err = self._recovery_error(s, times)
            if not err <= 1e-3:
                design_msgs.append(f"{kind} noiseless recovery error "
                                   f"{err:.2e} > 1e-3")
        if design_msgs:
            msgs.append("design: " + "; ".join(design_msgs))
        for kind, errs in out["sq_err"][n].items():
            if len(errs) != MLE_SEEDS:
                msgs += [f"{kind} fits: {len(errs)} of {MLE_SEEDS} "
                         f"returned"] * MLE_SEEDS
                continue
            msgs += [f"{kind} fit {i}: squared error {e!r}"
                     for i, e in enumerate(errs) if not np.isfinite(e)]
        return self.ops(s), msgs

    def ops(self, s):
        return 1 + 2 * MLE_SEEDS


# ---------------------------------------------------------------------------
# contamination: E-objective greedy + mirror descent, then ridge fits
# ---------------------------------------------------------------------------

class Contamination(Workload):
    """run_contamination_scenario with a smaller greedy budget and fewer
    mirror-descent iterations; Monte Carlo seeds from --seed."""

    name = "contamination"
    KINDS = ("aware", "full", "random")

    def setup(self, seed, out_dir):
        cfg = config.ScenarioConfig("contamination", seed=seed, params={
            "greedy_budget": CONTAMINATION_GREEDY_BUDGET,
            "mirror_iters": CONTAMINATION_MIRROR_ITERS})
        return {"cfg": cfg, "out_dir": out_dir}

    def call(self, s):
        return contamination.run_contamination_scenario(
            s["cfg"], out_dir=s["out_dir"])

    def ops(self, s):
        p = s["cfg"].params
        return 2 + len(p["budgets"]) * len(self.KINDS) * p["n_seeds"]

    def check(self, s, out):
        cfg = s["cfg"]
        p = cfg.params
        fm = contamination.contamination_features(p["n_freq"])
        m = fm.dim
        cand = np.linspace(-1.0, 1.0, p["n_candidates"])
        X_cand = np.stack([fm(np.array([x])) for x in cand])
        target = np.zeros((1, m))
        target[0, 0] = 1.0
        Cs = {"aware": target, "full": np.eye(m)}
        msgs = []
        etas = {}
        for kind, alloc in out["designs"].items():
            eta = alloc.eta
            bad = []
            if not (np.all(eta >= 0) and abs(eta.sum() - 1.0) <= 1e-10):
                bad.append("eta off the simplex")
            M, = ridge_inner([Cs[kind]], alloc.X, eta, cfg.lam, cfg.sigma)
            lam_min = float(np.linalg.eigvalsh(np.linalg.inv(M)).min()
                            / cfg.sigma ** 2)
            if not _rel(alloc.objective_value, lam_min) <= 1e-8:
                bad.append(f"objective {alloc.objective_value!r} != "
                           f"lambda_min {lam_min!r}")
            if bad:
                msgs.append(f"{kind} design: " + "; ".join(bad))
            idx = [int(np.flatnonzero(cand == pt[0])[0])
                   for pt in alloc.support_points]
            etas[kind] = np.zeros(cand.size)
            etas[kind][idx] = eta
        mse = {(b, k): v for b, k, v in out["rows"]}
        for b in p["budgets"]:
            for kind in self.KINDS:
                v = mse.get((b, kind), np.nan)
                bound = np.inf
                if kind != "random":
                    counts = common.exact_counts(etas[kind], b)
                    X = np.repeat(X_cand, counts, axis=0)
                    M, = ridge_inner([target], X, np.ones(len(X)), cfg.lam,
                                     cfg.sigma)
                    bound = cfg.sigma ** 2 * float(M[0, 0])
                if not (np.isfinite(v) and v <= bound):
                    msgs += [f"{kind} fits at T={b}: mse {v!r} above the "
                             f"worst-case bound {bound!r}"] * p["n_seeds"]
        return self.ops(s), msgs


# ---------------------------------------------------------------------------
# lyapunov: the adaptive certification loop
# ---------------------------------------------------------------------------

def tube_rank(p):
    """Rank of the tube functional matrix, from Nystrom features and the
    tube built here with numpy alone (same constants as the scenario)."""
    ls, region = p["lengthscale"], p["region"]

    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return np.exp(-0.5 * d2 / ls ** 2)

    ax = np.linspace(-region, region, p["landmarks_per_axis"])
    marks = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    w, u = np.linalg.eigh(k(marks, marks))
    keep = w > 1e-10 * w.max()
    proj = u[:, keep] / np.sqrt(w[keep])
    ang = 2 * np.pi * np.arange(p["n_angles"]) / p["n_angles"]
    ref = np.stack([np.sin(ang), np.cos(ang)], -1)
    width = p["tube_width"]
    offsets = [-width, width / 2, width]
    x = np.concatenate([ref * (1.0 + r) for r in offsets])
    z = np.concatenate([ref * r for r in offsets])
    Phi = k(x, marks) @ proj
    M = 2.0 * np.concatenate([z[:, [0]] * Phi, z[:, [1]] * Phi], axis=1)
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > lyapunov.SVD_TRUNC * sv[0]))


class Lyapunov(Workload):
    """run_lyapunov_scenario: "unc" beside "unc-ref", one seed."""

    name = "lyapunov"

    def setup(self, seed, out_dir):
        cfg = config.ScenarioConfig("lyapunov", seed=seed, params={
            "strategies": LYAPUNOV_STRATEGIES, "n_seeds": LYAPUNOV_SEEDS})
        return {"cfg": cfg, "out_dir": out_dir}

    def call(self, s):
        return lyapunov.run_lyapunov_scenario(s["cfg"], out_dir=s["out_dir"])

    def check_setup(self, s):
        s["rank"] = tube_rank(s["cfg"].params)
        return []

    def ops(self, s):
        return LYAPUNOV_SEEDS * len(LYAPUNOV_STRATEGIES)

    def output_counts(self, out):
        # two rows (ours, baseline) per step of every arm
        return {"lyapunov.steps": len(out["rows"]) // 2}

    def check(self, s, out):
        max_steps = s["cfg"].params["max_steps"]
        common_bad = []
        if not out["ground_truth_sup"] < 0:
            common_bad.append(f"ground-truth sup {out['ground_truth_sup']!r}"
                              f" >= 0")
        if out["reduced_rank"] != s["rank"]:
            common_bad.append(f"reduced rank {out['reduced_rank']} != "
                              f"{s['rank']} from an SVD made apart")
        msgs = []
        for seed_i in range(LYAPUNOV_SEEDS):
            for strategy in LYAPUNOV_STRATEGIES:
                bad = list(common_bad)
                rows = [r for r in out["rows"]
                        if r[0] == seed_i and r[2] == strategy]
                if not rows:
                    bad.append("no rows")
                if any(r[5] != int(r[4] < 0) for r in rows):
                    bad.append("a row's certified flag disagrees with its "
                               "bound")
                cert = out["cert_steps"].get((seed_i, strategy))
                if cert is None:
                    bad.append("no certification record")
                elif strategy == "unc-ref":
                    ours = cert["ours"]
                    base = cert["baseline"] or max_steps + 1
                    if ours is None or ours > max_steps or ours > base:
                        bad.append(f"ours certified at {ours}, baseline at "
                                   f"{cert['baseline']}")
                if bad:
                    msgs.append(f"arm {seed_i}/{strategy}: "
                                + "; ".join(bad))
        return self.ops(s), msgs


WORKLOADS = {w.name: w for w in (PharmaDesign(), PharmaMLE(), Contamination(),
                                 Lyapunov())}
