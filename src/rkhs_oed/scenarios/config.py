"""Strict, versioned scenario configuration.

A config is a plain JSON object with a small fixed set of top-level keys and
a scenario-specific ``params`` block.  Unknown keys anywhere are rejected, and
a resolved config round-trips losslessly through JSON.
"""

import copy
import json

SCHEMA_VERSION = 1

SCENARIOS = ("gradient", "contamination", "pharma", "lyapunov", "ellipse",
             "coverage")

TOP_LEVEL_KEYS = {"schema", "scenario", "seed", "sigma", "lam", "delta",
                  "params", "output_dir"}

# per-scenario defaults; every key a user may set must appear here
PARAM_DEFAULTS = {
    "gradient": {
        "lengthscale": 0.1,
        "m": 256,
        "input_dim": 2,
        "h_grid": [0.002, 0.0026, 0.0034, 0.0044, 0.0058, 0.0075, 0.0098,
                   0.0127, 0.0165, 0.0215, 0.028, 0.0364, 0.0473, 0.0616,
                   0.08, 0.104, 0.136],
        "T_list": [100, 1000, 10000],
        "design_h": 0.02,
        "design_iters": 4,
        "design_lam": 0.01,
    },
    "contamination": {
        "n_freq": 16,
        "n_candidates": 64,
        "budgets": [10, 20, 40, 80, 160],
        "n_seeds": 50,
        "alpha_true": 0.5,
        "contamination_norm": 0.8,
        "greedy_budget": 64,
        "greedy_seeds": 8,
        "mirror_iters": 80,
    },
    "pharma": {
        "gamma_true": [5.0, 10.0, 10.0],
        "box": [[4.0, 6.0], [9.0, 11.0], [9.0, 11.0]],
        "lengthscale": 0.05,
        "m": 384,
        "t_max": 1.0,
        "rk4_steps": 500,
        "mle_rk4_steps": 250,
        "operator_grid": 200,
        "c_dose": 1.0,
        "n_candidates": 40,
        "sample_counts": [4, 6, 8, 12],
        "n_seeds": 20,
        "a_grid": [4.0, 5.0, 6.0],
        "d_grid": [9.0, 10.0, 11.0],
    },
    "lyapunov": {
        "landmarks_per_axis": 12,
        "lengthscale": 0.25,
        "region": 1.5,
        "gain": 200.0,
        "tube_width": 0.01,
        "n_angles": 200,
        "max_steps": 200,
        "n_seeds": 10,
        "strategies": ["random", "random-ref", "unc", "unc-ref"],
        "fit_grid": 20,
        "a_norm": 0.9,
        "candidate_grid": 15,
    },
    "ellipse": {
        "n_points": 40,
    },
    "coverage": {
        "kinds": ["fixed_interp", "fixed_ridge", "adaptive"],
        "replicas": 2000,
        "adaptive_runs": 1000,
        "adaptive_steps": 200,
        "adaptive_j_amp": 0.1,
        "n": 8,
        "m": 12,
        "p": 2,
    },
}

# top-level defaults per scenario (sigma, lam, delta)
TOP_DEFAULTS = {
    "gradient": {"sigma": 0.01, "lam": 1.0, "delta": 0.1},
    "contamination": {"sigma": 0.5, "lam": 1.0, "delta": 0.1},
    "pharma": {"sigma": 0.001, "lam": 0.5, "delta": 0.1},
    "lyapunov": {"sigma": 0.05, "lam": 1.0, "delta": 0.1},
    "ellipse": {"sigma": 0.5, "lam": 1.0, "delta": 0.1},
    "coverage": {"sigma": 0.5, "lam": 1.0, "delta": 0.1},
}


class ScenarioConfig:
    """Resolved scenario configuration (defaults merged, everything explicit)."""

    def __init__(self, scenario, seed=0, sigma=None, lam=None, delta=None,
                 params=None, output_dir=None):
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; "
                             f"expected one of {SCENARIOS}")
        top = TOP_DEFAULTS[scenario]
        self.scenario = scenario
        self.seed = int(seed)
        self.sigma = float(top["sigma"] if sigma is None else sigma)
        self.lam = float(top["lam"] if lam is None else lam)
        self.delta = float(top["delta"] if delta is None else delta)
        self.output_dir = output_dir
        defaults = PARAM_DEFAULTS[scenario]
        params = dict(params or {})
        unknown = set(params) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown params for scenario {scenario!r}: {sorted(unknown)}; "
                f"allowed: {sorted(defaults)}")
        merged = copy.deepcopy(defaults)
        merged.update(copy.deepcopy(params))
        self.params = merged

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "sigma": self.sigma,
            "lam": self.lam,
            "delta": self.delta,
            "params": copy.deepcopy(self.params),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        unknown = set(d) - TOP_LEVEL_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}; "
                             f"allowed: {sorted(TOP_LEVEL_KEYS)}")
        schema = d.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        if "scenario" not in d:
            raise ValueError("config needs a 'scenario' key")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
