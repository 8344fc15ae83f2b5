"""Tests for scenario configuration and end-to-end scenario runs.

The runs here use deliberately tiny parameter settings: they exercise the
full pipelines (design, simulation, CSV/meta output, determinism) without the
statistical sample sizes used for the headline comparisons.
"""

import filecmp
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rkhs_oed.design import evaluate_objective
from rkhs_oed.linalg import IllConditionedWarning
from rkhs_oed.scenarios import RUNNERS
from rkhs_oed.scenarios.common import exact_counts, spawn_rngs, write_csv
from rkhs_oed.scenarios.config import (SCENARIOS, SCHEMA_VERSION,
                                       ScenarioConfig)
from rkhs_oed.scenarios.pharma import design_problem

TINY_PARAMS = {
    "gradient": {"h_grid": [0.02, 0.05], "T_list": [100], "m": 64,
                 "design_iters": 2},
    "contamination": {"n_freq": 4, "n_candidates": 12, "budgets": [10],
                      "n_seeds": 2, "greedy_budget": 8, "greedy_seeds": 3,
                      "mirror_iters": 10},
    "pharma": {"m": 384, "rk4_steps": 100, "mle_rk4_steps": 60,
               "operator_grid": 60, "n_candidates": 10, "sample_counts": [4],
               "n_seeds": 1, "a_grid": [5.0], "d_grid": [10.0]},
    "lyapunov": {"landmarks_per_axis": 5, "n_angles": 16, "max_steps": 4,
                 "n_seeds": 1, "strategies": ["random", "unc-ref"],
                 "fit_grid": 8, "candidate_grid": 5},
    "ellipse": {"n_points": 12},
    "coverage": {"replicas": 200, "adaptive_runs": 100, "adaptive_steps": 30},
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_and_roundtrip(tmp_path):
    for scenario in SCENARIOS:
        cfg = ScenarioConfig(scenario, seed=7)
        d = cfg.to_dict()
        assert d["schema"] == SCHEMA_VERSION
        cfg2 = ScenarioConfig.from_dict(d)
        assert cfg2.to_dict() == d
        path = tmp_path / f"{scenario}.json"
        cfg.to_json(path)
        cfg3 = ScenarioConfig.from_json(path)
        assert cfg3.to_dict() == d


def test_config_overrides_are_kept():
    cfg = ScenarioConfig("gradient", sigma=0.5, params={"m": 32})
    assert cfg.sigma == 0.5
    assert cfg.params["m"] == 32
    # untouched params keep their defaults
    assert cfg.params["design_h"] == 0.02


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig("nonexistent")
    with pytest.raises(ValueError, match="unknown params"):
        ScenarioConfig("gradient", params={"typo_key": 1})
    for key in ("bogus", "budget", "feature", "functional"):
        with pytest.raises(ValueError, match="unknown config keys"):
            ScenarioConfig.from_dict({"schema": SCHEMA_VERSION,
                                      "scenario": "ellipse", key: 1})
    with pytest.raises(ValueError, match="schema"):
        ScenarioConfig.from_dict({"schema": 99, "scenario": "ellipse"})
    with pytest.raises(ValueError, match="scenario"):
        ScenarioConfig.from_dict({"schema": SCHEMA_VERSION})


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def test_exact_counts_sums_to_budget():
    rng = np.random.default_rng(0)
    for _ in range(50):
        eta = rng.dirichlet(np.ones(rng.integers(2, 8)))
        T = int(rng.integers(1, 200))
        counts = exact_counts(eta, T)
        assert counts.sum() == T
        assert np.all(counts >= 0)
        assert np.abs(counts - eta * T).max() < 1.0 + 1e-9


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [(1, 0.1, "a"), (2, 0.25, "b")]
    p1 = write_csv(tmp_path / "a.csv", ("i", "x", "tag"), rows)
    p2 = write_csv(tmp_path / "b.csv", ("i", "x", "tag"), rows)
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    assert b1 == b"i,x,tag\n1,0.1,a\n2,0.25,b\n"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "c.csv", ("i",), [(1, 2)])


def test_spawn_rngs_deterministic_and_independent():
    a = [r.standard_normal(3) for r in spawn_rngs(123, 3)]
    b = [r.standard_normal(3) for r in spawn_rngs(123, 3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], a[1])
    c = [r.standard_normal(3) for r in spawn_rngs(124, 3)]
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# end-to-end smoke runs
# ---------------------------------------------------------------------------

def _run(scenario, out_dir, seed=0):
    cfg = ScenarioConfig(scenario, seed=seed, params=TINY_PARAMS[scenario])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        warnings.simplefilter("ignore", UserWarning)
        return RUNNERS[scenario](cfg, out_dir=str(out_dir))


def _check_outputs(out_dir, scenario, header):
    csv_path = os.path.join(out_dir, f"{scenario}.csv")
    assert os.path.exists(csv_path)
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(header)
    assert len(lines) > 1
    meta = json.load(open(os.path.join(out_dir, "meta.json")))
    assert meta["config"]["scenario"] == scenario
    assert meta["runtime_seconds"] >= 0
    return lines


def test_gradient_scenario_smoke(tmp_path):
    out = _run("gradient", tmp_path)
    lines = _check_outputs(tmp_path, "gradient",
                           ("h", "nu", "variance_term", "bias_term",
                            "total_error", "T", "flagged"))
    assert set(out["h_star"]) == {"100"}            # one entry per T
    assert out["h_star"]["100"] in (0.02, 0.05)
    assert len(out["rows"]) == 2  # one per (h, T) pair
    assert len(lines) == 3


def test_contamination_scenario_smoke(tmp_path):
    out = _run("contamination", tmp_path)
    _check_outputs(tmp_path, "contamination", ("budget", "design_kind", "mse"))
    kinds = {r[1] for r in out["rows"]}
    assert {"full", "aware"} <= kinds
    assert all(r[2] >= 0 for r in out["rows"])


def test_pharma_scenario_smoke(tmp_path):
    out = _run("pharma", tmp_path)
    _check_outputs(tmp_path, "pharma", ("n_samples", "design_kind",
                                        "gamma_mse"))
    kinds = {r[1] for r in out["rows"]}
    assert {"optimized", "equal"} <= kinds


def test_pharma_candidate_objectives_are_distinguishable():
    # at the first greedy step every candidate must get its own score; a
    # spread at roundoff level means the functional does not see the design
    cfg = ScenarioConfig("pharma")
    _, cand_times, X_cand, obj, seed_indices = design_problem(cfg)
    seed_counts = np.zeros(len(cand_times))
    seed_counts[seed_indices] += 1.0
    scores = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for j in range(len(cand_times)):
            counts = seed_counts.copy()
            counts[j] += 1.0
            scores.append(evaluate_objective(obj, X_cand,
                                             counts / counts.sum()))
    scores = np.array(scores)
    assert (scores.max() - scores.min()) / abs(scores.max()) > 1e-3


_PHARMA_GREEDY = """
import json, warnings
import numpy as np
from rkhs_oed.design import greedy_design
from rkhs_oed.scenarios.config import ScenarioConfig
from rkhs_oed.scenarios.pharma import design_problem
warnings.simplefilter("ignore")
_, cand_times, X_cand, obj, seeds = design_problem(ScenarioConfig("pharma"))
out = {}
for n in (4, 6):
    g = greedy_design(obj, list(cand_times), n, X_cand=X_cand,
                      seed_indices=seeds)
    out[n] = [g.counts.tolist(), g.objective_value]
print(json.dumps(out))
"""


def test_pharma_design_independent_of_blas_threads():
    # the default pharma design must not be decided by the roundoff of a
    # particular BLAS thread count
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _PHARMA_GREEDY],
                              env=env, capture_output=True, text=True,
                              timeout=600, check=True)
        results.append(json.loads(proc.stdout))
    one, two = results
    for n in ("4", "6"):
        assert one[n][0] == two[n][0]
        assert one[n][1] == pytest.approx(two[n][1], rel=1e-8)


_LYAPUNOV_UNC_REF = """
import json, sys, warnings
from rkhs_oed.scenarios.config import ScenarioConfig
from rkhs_oed.scenarios.lyapunov import run_lyapunov_scenario
warnings.simplefilter("ignore")
cfg = ScenarioConfig("lyapunov", seed=0,
                     params={"strategies": ["unc-ref"], "n_seeds": 1})
out = run_lyapunov_scenario(cfg, out_dir=sys.argv[1])
print(json.dumps([list(out["cert_steps"].values()), out["rows"]]))
"""


def test_lyapunov_queries_independent_of_blas_threads(tmp_path):
    # the "unc-ref" queries tie to roundoff on the symmetric tube; the
    # certification must not depend on which tied point a BLAS thread
    # count happens to rank first
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _LYAPUNOV_UNC_REF, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=600, check=True)
        results.append(json.loads(proc.stdout))
    (cert_one, rows_one), (cert_two, rows_two) = results
    assert cert_one == cert_two
    # same queries, so the same rows up to the roundoff of the bound
    assert [r[:4] + r[5:] for r in rows_one] == \
        [r[:4] + r[5:] for r in rows_two]
    assert np.allclose([r[4] for r in rows_one], [r[4] for r in rows_two],
                       rtol=0.0, atol=1e-9)


def test_lyapunov_scenario_smoke(tmp_path):
    out = _run("lyapunov", tmp_path)
    _check_outputs(tmp_path, "lyapunov",
                   ("seed", "step", "strategy", "set_kind", "sup_dV_bound",
                    "certified"))
    assert np.isfinite(out["ground_truth_sup"])
    strategies = {r[2] for r in out["rows"]}
    assert strategies <= {"random", "unc-ref"}


def test_ellipse_scenario_smoke(tmp_path):
    out = _run("ellipse", tmp_path)
    _check_outputs(tmp_path, "ellipse", ("set_kind", "design_kind",
                                         "interval_lo", "interval_hi"))
    for row in out["rows"]:
        assert row[2] <= row[3]


def test_coverage_scenario_smoke(tmp_path):
    out = _run("coverage", tmp_path)
    _check_outputs(tmp_path, "coverage",
                   ("set_kind", "replica", "deviation", "radius", "covered"))
    for kind, cov in out["coverage"].items():
        assert 0.0 <= cov <= 1.0


@pytest.mark.parametrize("scenario", ["ellipse", "gradient", "pharma"])
def test_scenario_output_is_bit_reproducible(tmp_path, scenario):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    _run(scenario, d1, seed=42)
    _run(scenario, d2, seed=42)
    f1 = d1 / f"{scenario}.csv"
    f2 = d2 / f"{scenario}.csv"
    assert filecmp.cmp(f1, f2, shallow=False)


def test_seed_changes_stochastic_output(tmp_path):
    r1 = _run("coverage", tmp_path / "a", seed=1)
    r2 = _run("coverage", tmp_path / "b", seed=2)
    assert r1["rows"] != r2["rows"]
