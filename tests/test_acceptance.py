"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL`` line directly
to the real stdout (bypassing pytest capture) before asserting, so the gate
summary is visible in the logged test output.
"""

import math
import sys
import time
import warnings

import numpy as np
import pytest

from rkhs_oed.confidence import (adaptive_radius, fixed_interp_ellipsoid,
                                 fixed_ridge_ellipsoid, xi)
from rkhs_oed.design import (DesignObjective, gradient_design_geometry_check,
                             greedy_design, grid_search_design,
                             mirror_descent_design)
from rkhs_oed.estimators import info_matrix_adaptive, info_matrix_ridge
from rkhs_oed.features import (PriorOperator, evaluate_design_matrix,
                               qff_squared_exponential)
from rkhs_oed.functionals import (LinearFunctional, gradient_functional,
                                  project_data)
from rkhs_oed.linalg import IllConditionedWarning, min_eig, pinv, sym
from rkhs_oed.scenarios.config import ScenarioConfig
from rkhs_oed.scenarios.contamination import run_contamination_scenario
from rkhs_oed.scenarios.coverage import run_coverage_study
from rkhs_oed.scenarios.ellipse import run_ellipse_demo
from rkhs_oed.scenarios.gradient import run_gradient_scenario, support_points
from rkhs_oed.scenarios.lyapunov import run_lyapunov_scenario
from rkhs_oed.scenarios.pharma import _mle, blood_curve


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, written past pytest's capture."""
    def _report(number, name, ok, detail=""):
        line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capfd.disabled():
            print(line, file=sys.__stdout__, flush=True)
        assert ok, line
    return _report


import contextlib


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        warnings.simplefilter("ignore", UserWarning)
        yield


# ---------------------------------------------------------------------------
# 1. gradient design allocation
# ---------------------------------------------------------------------------

def test_acceptance_01_gradient_allocation(report):
    reference = np.array([0.37, 0.09, 0.08, 0.09, 0.38])
    t0 = time.perf_counter()
    fm = qff_squared_exponential(0.1, 256, [[-1.0, 1.0]] * 2)
    pts = support_points(np.zeros(2), 0.02)
    C = gradient_functional(fm, np.zeros(2))
    obj = DesignObjective("E", "ridge", C, lam=0.01, sigma=0.01)
    alloc = mirror_descent_design(obj, pts, iters=4, feature_map=fm)
    elapsed = time.perf_counter() - t0
    dev = np.abs(alloc.eta - reference).max()
    report(1, "gradient-allocation", dev <= 0.03 and elapsed < 60.0,
           f"max dev {dev:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. xi and radius formula exactness
# ---------------------------------------------------------------------------

def test_acceptance_02_xi_and_radius_exactness(report):
    worst = 0.0
    for delta in (0.01, 0.05, 0.1, 0.25, 0.5):
        for p in (1, 2, 3, 5):
            ref = p + 2.0 * math.sqrt(p * math.log(1.0 / delta))
            worst = max(worst, abs(xi(delta, p) - ref))
    # radii against independent scalar implementations
    V0 = PriorOperator(dim=2)
    C = LinearFunctional(np.eye(2))
    from rkhs_oed.estimators import info_matrix_interp
    Wd = info_matrix_interp(np.eye(2), C, V0)
    Wr = info_matrix_ridge(np.eye(2), C, V0, 1.0, 1.0)
    for delta in (0.05, 0.1, 0.3):
        for sigma, nu, lam, T in ((0.01, 0.002, 1.0, 16), (0.5, 0.1, 4.0, 9)):
            e = fixed_interp_ellipsoid(np.zeros(2), Wd, nu, lam, sigma, T,
                                       delta)
            ref = (sigma / math.sqrt(T)) * math.sqrt(
                2 + 2 * math.sqrt(2 * math.log(1 / delta))) \
                + nu / math.sqrt(lam)
            worst = max(worst, abs(e.radius - ref))
        er = fixed_ridge_ellipsoid(np.zeros(2), Wr, delta)
        ref_r = math.sqrt(2 + 2 * math.sqrt(2 * math.log(1 / delta))) + 1.0
        worst = max(worst, abs(er.radius - ref_r))
    report(2, "xi-radius-exactness", worst <= 1e-12, f"worst dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Monte Carlo coverage of all three set constructions
# ---------------------------------------------------------------------------

def test_acceptance_03_coverage(tmp_path, report):
    delta = 0.1
    results = []
    ok = True
    for kind in ("fixed_interp", "fixed_ridge", "adaptive"):
        cfg = ScenarioConfig("coverage", seed=0, delta=delta,
                             params={"kinds": [kind], "replicas": 1500,
                                     "adaptive_runs": 1500})
        t0 = time.perf_counter()
        with _quiet():
            out = run_coverage_study(cfg, out_dir=str(tmp_path / kind))
        elapsed = time.perf_counter() - t0
        cov = out["coverage"][kind]
        results.append(f"{kind} {cov:.3f} in {elapsed:.0f}s")
        ok = ok and cov >= 1.0 - delta - 0.02 and elapsed < 180.0
    report(3, "coverage", ok, "; ".join(results))


# ---------------------------------------------------------------------------
# 4. ordering of the adaptive and fixed ridge information matrices
# ---------------------------------------------------------------------------

def test_acceptance_04_ordering_lemma(report):
    rng = np.random.default_rng(4)
    worst = np.inf
    with _quiet():
        for _ in range(100):
            m = int(rng.integers(2, 13))
            p = int(rng.integers(1, min(4, m) + 1))
            n = int(rng.integers(1, 31))
            X = rng.standard_normal((n, m))
            C = LinearFunctional(rng.standard_normal((p, m)))
            V0 = PriorOperator(dim=m)
            lam = float(rng.uniform(0.1, 2.0))
            sigma = float(rng.uniform(0.2, 1.5))
            Om = info_matrix_adaptive(project_data(X, C, V0), lam, sigma)
            Wl = info_matrix_ridge(X, C, V0, lam, sigma)
            worst = min(worst, min_eig(Om.matrix - Wl.matrix))
    report(4, "ordering-lemma", worst >= -1e-8, f"min eig {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. finite-difference gradient design geometry bound
# ---------------------------------------------------------------------------

def test_acceptance_05_geometry_bound(report):
    details = []
    ok = True
    with _quiet():
        for d in (1, 2):
            fm = qff_squared_exponential(0.5, 64, [[-1.0, 1.0]] * d)
            out = gradient_design_geometry_check(
                fm, np.zeros(d), np.geomspace(1e-3, 1e-1, 9))
            ok = ok and out["bound_holds"]
            details.append(f"d={d} c={out['c']:.3g} "
                           f"holds={out['bound_holds']}")
    report(5, "geometry-bound", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Loewner matrix inequality on random instances
# ---------------------------------------------------------------------------

def test_acceptance_06_matrix_inequality(report):
    rng = np.random.default_rng(6)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(n, 12))
        k = int(rng.integers(1, n + 1))
        X = rng.standard_normal((n, m))
        C = rng.standard_normal((k, m))
        A = C @ X.T @ np.linalg.inv(X @ X.T)    # least-squares solution
        a_norm = np.linalg.norm(A)
        if a_norm < 1e-9:
            continue
        # smallest delta satisfying ||C - A X||_F <= delta ||A||_F
        delta = np.linalg.norm(C - A @ X) / a_norm
        V_dag = pinv(X.T @ X)
        lhs = C.T @ np.linalg.solve(sym(C @ V_dag @ C.T), C)
        rhs = (1.0 + delta / np.linalg.norm(X)) * (X.T @ X) \
            + delta ** 2 * np.eye(m)
        worst = min(worst, min_eig(sym(rhs - lhs)))
    report(6, "matrix-inequality", worst >= -1e-8, f"min eig {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. bias/variance crossing trend over growing budgets
# ---------------------------------------------------------------------------

def test_acceptance_07_bias_variance_crossing(tmp_path, report):
    cfg = ScenarioConfig("gradient", seed=0,
                         params={"T_list": [100, 1000, 10000],
                                 "design_iters": 2})
    with _quiet():
        out = run_gradient_scenario(cfg, out_dir=str(tmp_path))
    h_stars = [out["h_star"][str(T)] for T in (100, 1000, 10000)]
    decreasing = all(a > b for a, b in zip(h_stars, h_stars[1:]))
    balanced = True
    for T, h in zip((100, 1000, 10000), h_stars):
        row = next(r for r in out["rows"] if r[0] == h and r[5] == T)
        var_term, bias_term = row[2], row[3]
        balanced = balanced and (abs(var_term - bias_term)
                                 <= 0.5 * max(var_term, bias_term))
    report(7, "bias-variance-crossing", decreasing and balanced,
           f"h* {h_stars}, balanced={balanced}")


# ---------------------------------------------------------------------------
# 8. contamination: target-aware design beats the full-vector design
# ---------------------------------------------------------------------------

def test_acceptance_08_contamination(tmp_path, report):
    cfg = ScenarioConfig("contamination", seed=0, params={"n_seeds": 50})
    with _quiet():
        out = run_contamination_scenario(cfg, out_dir=str(tmp_path))
    mse = {(b, k): v for b, k, v in out["rows"]}
    budgets = sorted({b for b, _, _ in out["rows"]})
    ok = all(mse[(b, "aware")] <= mse[(b, "full")] for b in budgets)
    detail = "; ".join(f"T={b} {mse[(b, 'aware')]:.2e}<="
                       f"{mse[(b, 'full')]:.2e}" for b in budgets)
    report(8, "contamination", ok, detail)


# ---------------------------------------------------------------------------
# 9. pharmacokinetics: the robust objective prefers the optimized times, the
#    optimized design is never significantly worse and somewhere significantly
#    better than equal spacing; noiseless recovery
# ---------------------------------------------------------------------------

def test_acceptance_09_pharma(tmp_path, report):
    cfg = ScenarioConfig("pharma", seed=0, params={"n_seeds": 20})
    with _quiet():
        out = run_pharma(cfg, tmp_path)
    counts = sorted(out["sq_err"])
    # the design objective must tell the two designs apart; this part is
    # deterministic
    objective = out["objectives"]
    ratios = [objective[n]["optimized"] / objective[n]["equal"]
              for n in counts]
    informative = all(objective[n]["optimized"] - objective[n]["equal"]
                      >= 1e-6 * abs(objective[n]["equal"]) for n in counts)
    # paired per-seed squared errors: at 20 seeds a strict comparison of
    # means decides near-ties (n = 12) by noise, so compare the mean paired
    # difference against two of its standard errors
    worse, better, zs = False, False, []
    for n in counts:
        diff = (np.asarray(out["sq_err"][n]["optimized"])
                - np.asarray(out["sq_err"][n]["equal"]))
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        worse = worse or diff.mean() > 2.0 * se
        better = better or diff.mean() < -2.0 * se
        zs.append(f"{n}: {diff.mean():+.2e}+-{se:.1e}")
    # noiseless identifiability: exact parameter recovery from clean samples
    gamma_true = np.array([5.0, 10.0, 10.0])
    tgrid, cb = blood_curve(gamma_true, 1.0, 1.0, 500)
    times = np.linspace(0.125, 1.0, 8)
    ys = np.interp(times, tgrid, cb)
    box = [[4.0, 6.0], [9.0, 11.0], [9.0, 11.0]]
    # fit with the same discretization the data came from, starting away
    # from the truth so the check exercises the optimizer
    g_hat = _mle([4.9, 10.1, 9.9], box, times, ys, 1.0, 1.0, 500)
    rec_err = np.abs(g_hat - gamma_true).max()
    report(9, "pharma",
           informative and not worse and better and rec_err <= 1e-3,
           f"objective ratios {[round(r, 3) for r in ratios]}, "
           f"paired mse diff {'; '.join(zs)}, recovery err {rec_err:.2e}")


def run_pharma(cfg, tmp_path):
    from rkhs_oed.scenarios.pharma import run_pharma_scenario
    return run_pharma_scenario(cfg, out_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# 10. Lyapunov certification: ours needs no more steps than the baseline
# ---------------------------------------------------------------------------

def test_acceptance_10_lyapunov(tmp_path, report):
    cfg = ScenarioConfig("lyapunov", seed=0,
                         params={"strategies": ["unc-ref"], "n_seeds": 10})
    with _quiet():
        out = run_lyapunov_scenario(cfg, out_dir=str(tmp_path))
    max_steps = cfg.params["max_steps"]
    ours, base = [], []
    for (_, strat), cert in out["cert_steps"].items():
        ours.append(cert["ours"] or max_steps + 1)
        base.append(cert["baseline"] or max_steps + 1)
    mean_ours, mean_base = np.mean(ours), np.mean(base)
    gt_ok = out["ground_truth_sup"] < 0    # perfect model certifies at once
    report(10, "lyapunov", mean_ours <= mean_base and gt_ok,
           f"ours {mean_ours:.1f} vs baseline {mean_base:.1f} steps, "
           f"ground-truth sup {out['ground_truth_sup']:.3f}")


# ---------------------------------------------------------------------------
# 11. optimizer versus the brute-force simplex oracle
# ---------------------------------------------------------------------------

def test_acceptance_11_optimizer_vs_oracle(report):
    rng = np.random.default_rng(11)
    instances = []
    for kind in ("E", "T"):
        X = rng.standard_normal((3, 3))
        C = LinearFunctional(rng.standard_normal((2, 3)))
        instances.append((DesignObjective(kind, "ridge", C, lam=0.5,
                                          sigma=0.7), X))
    for kind in ("E", "T"):
        X = rng.standard_normal((3, 3))
        instances.append((DesignObjective(kind, "interp",
                                          LinearFunctional(np.eye(3))), X))
    worst_rel = 0.0
    with _quiet():
        for obj, X in instances:
            n = X.shape[0]
            oracle = grid_search_design(obj, list(range(n)), 200, X_S=X)
            md = mirror_descent_design(obj, list(range(n)), X_S=X, iters=300)
            rel = (oracle.objective_value - md.objective_value) \
                / abs(oracle.objective_value)
            worst_rel = max(worst_rel, rel)
        # greedy trace monotonicity on a random ridge instance
        Xg = rng.standard_normal((8, 3))
        gobj = DesignObjective("T", "ridge",
                               LinearFunctional(rng.standard_normal((2, 3))),
                               lam=0.5, sigma=0.7)
        g = greedy_design(gobj, list(range(8)), 24, X_cand=Xg)
        monotone = bool(np.all(np.diff(g.trace) >= -1e-9))
    report(11, "optimizer-vs-oracle", worst_rel <= 0.02 and monotone,
           f"worst gap {worst_rel:.4f}, greedy monotone={monotone}")


# ---------------------------------------------------------------------------
# 12. targeted intervals sit inside the projected full-space intervals
# ---------------------------------------------------------------------------

def test_acceptance_12_interval_nesting(tmp_path, report):
    cfg = ScenarioConfig("ellipse", seed=0)
    with _quiet():
        out = run_ellipse_demo(cfg, out_dir=str(tmp_path))
    iv = {(set_kind, design_kind): (lo, hi)
          for set_kind, design_kind, lo, hi in out["rows"]}
    ok = True
    details = []
    for set_kind in ("fixed", "adaptive"):
        lo_o, hi_o = iv[(set_kind, "ours")]
        lo_p, hi_p = iv[(set_kind, "projected")]
        nested = lo_p <= lo_o and hi_o <= hi_p
        ok = ok and nested
        details.append(f"{set_kind}: [{lo_o:.3f},{hi_o:.3f}] in "
                       f"[{lo_p:.3f},{hi_p:.3f}]")
    report(12, "interval-nesting", ok, "; ".join(details))
