"""Per-layer tracing of rkhs_oed from outside the package.

The tracer replaces chosen functions with timing wrappers in every
``rkhs_oed`` module namespace that binds them (``solve_spd`` is imported by
name into four modules, for example), records one span per call with its
parent, and keeps counters at the same boundaries.  Spans stay in memory
until the run ends.  ``uninstall`` puts every original back, so traced and
untraced rounds can alternate in one process.
"""

import functools
import json
import sys
import time

import rkhs_oed.confidence
import rkhs_oed.design
import rkhs_oed.estimators
import rkhs_oed.features
import rkhs_oed.functionals
import rkhs_oed.linalg
import rkhs_oed.scenarios.common
import rkhs_oed.scenarios.contamination
import rkhs_oed.scenarios.lyapunov
import rkhs_oed.scenarios.pharma

# (owning module, attribute, span name).  A span name is
# "<layer>.<boundary>"; the layer is the part before the first dot.
FUNCTION_TARGETS = [
    (rkhs_oed.functionals, "ode_nullspace_functional",
     "functionals.nullspace"),
    (rkhs_oed.estimators, "info_matrix_ridge", "estimators.info_matrix"),
    (rkhs_oed.estimators, "info_matrix_interp", "estimators.info_matrix"),
    (rkhs_oed.estimators, "info_matrix_adaptive", "estimators.info_matrix"),
    (rkhs_oed.estimators, "weighted_info_matrix", "estimators.weighted"),
    (rkhs_oed.estimators, "ridge", "estimators.ridge"),
    (rkhs_oed.estimators, "interpolate", "estimators.interpolate"),
    (rkhs_oed.estimators, "residual_covariance_bound",
     "estimators.residual_bound"),
    (rkhs_oed.linalg, "solve_spd", "linalg.solve_spd"),
    (rkhs_oed.linalg, "inv_spd", "linalg.inv_spd"),
    (rkhs_oed.design, "evaluate_objective", "design.objective"),
    (rkhs_oed.design, "objective_gradient", "design.gradient"),
    # private, but it is the only boundary of the finite-difference path
    (rkhs_oed.design, "_fd_gradient", "design.fd_gradient"),
    (rkhs_oed.design, "greedy_design", "design.greedy"),
    (rkhs_oed.design, "mirror_descent_design", "design.mirror"),
    (rkhs_oed.confidence, "adaptive_radius", "confidence.radius"),
    (rkhs_oed.scenarios.pharma, "rk4_trajectory", "pharma.rk4"),
    # scipy's minimize as bound in pharma: the Nelder-Mead MLE
    (rkhs_oed.scenarios.pharma, "minimize", "pharma.mle"),
    (rkhs_oed.scenarios.pharma, "run_pharma_scenario", "pharma.scenario"),
    (rkhs_oed.scenarios.lyapunov, "run_lyapunov_scenario",
     "lyapunov.scenario"),
    (rkhs_oed.scenarios.contamination, "run_contamination_scenario",
     "contamination.scenario"),
    (rkhs_oed.scenarios.common, "write_csv", "scenarios.output"),
    (rkhs_oed.scenarios.common, "write_meta", "scenarios.output"),
]

METHOD_TARGETS = [
    (rkhs_oed.features.FeatureMap, "__call__", "features.eval"),
    (rkhs_oed.features.PriorOperator, "__init__", "features.prior"),
]


def spd_gflop(args, kwargs):
    """Computed flops of solve_spd(a, b): Cholesky n^3/3 plus two triangular
    solves 2 n^2 k, for a n x n and b with k columns.  inv_spd is counted
    through the solve_spd it makes."""
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    n = len(a)
    shape = getattr(b, "shape", None)
    k = 1 if not shape or len(shape) < 2 else shape[1]
    return (n ** 3 / 3.0 + 2.0 * n * n * k) / 1e9


COUNTERS = {"linalg.solve_spd": ("linalg.spd_gflop", spd_gflop)}

# per-layer metric -> (unit, kind, argument); kinds: "count" of spans,
# "time" of spans, "self" time of a layer, "counter" total
LAYER_METRICS = {
    "features.eval_calls": ("count", "count", "features.eval"),
    "features.eval_s": ("s", "time", "features.eval"),
    "features.prior_builds": ("count", "count", "features.prior"),
    "features.prior_s": ("s", "time", "features.prior"),
    "functionals.nullspace_s": ("s", "time", "functionals.nullspace"),
    "estimators.info_matrix_calls": ("count", "count",
                                     "estimators.info_matrix"),
    "estimators.self_s": ("s", "self", "estimators"),
    "estimators.ridge_fits": ("count", "count", "estimators.ridge"),
    "linalg.solve_spd_calls": ("count", "count", "linalg.solve_spd"),
    "linalg.solve_spd_s": ("s", "time", "linalg.solve_spd"),
    "linalg.spd_gflop": ("Gflop", "counter", "linalg.spd_gflop"),
    "design.objective_evals": ("count", "count", "design.objective"),
    "design.gradient_evals": ("count", "count", "design.gradient"),
    "design.fd_fallbacks": ("count", "count", "design.fd_gradient"),
    "design.greedy_s": ("s", "time", "design.greedy"),
    "design.mirror_s": ("s", "time", "design.mirror"),
    "design.self_s": ("s", "self", "design"),
    "confidence.radius_calls": ("count", "count", "confidence.radius"),
    "confidence.radius_s": ("s", "time", "confidence.radius"),
    "pharma.rk4_calls": ("count", "count", "pharma.rk4"),
    "pharma.rk4_s": ("s", "time", "pharma.rk4"),
    "pharma.mle_s": ("s", "time", "pharma.mle"),
    "lyapunov.steps": ("count", "counter", "lyapunov.steps"),
    "lyapunov.self_s": ("s", "self", "lyapunov"),
    "scenarios.output_s": ("s", "time", "scenarios.output"),
}


class Tracer:
    """Spans [name, parent, root, start, end] and counters, per root.

    A root is one phase of the benchmark: set-up, or one timed round.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.root = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.add(counter[0], counter[1](args, kwargs))
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.root,
                          time.perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = time.perf_counter()

        return traced

    def install(self):
        """Wrap every target in every rkhs_oed namespace that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "rkhs_oed" or k.startswith("rkhs_oed."))
                   and m is not None]
        for owner, attr, name in FUNCTION_TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for cls, attr, name in METHOD_TARGETS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved = []

    def add(self, counter, value):
        per_root = self.counters.setdefault(self.root, {})
        per_root[counter] = per_root.get(counter, 0) + value

    def layer_values(self, root):
        """Every per-layer metric over the spans and counters of one root."""
        child = {}
        for name, parent, r, t0, t1 in self.spans:
            if r == root and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        counts, times, selfs = {}, {}, {}
        for i, (name, parent, r, t0, t1) in enumerate(self.spans):
            if r != root:
                continue
            dur = t1 - t0
            counts[name] = counts.get(name, 0) + 1
            times[name] = times.get(name, 0.0) + dur
            layer = name.split(".", 1)[0]
            selfs[layer] = selfs.get(layer, 0.0) + dur - child.get(i, 0.0)
        counters = self.counters.get(root, {})
        source = {"count": counts, "time": times, "self": selfs,
                  "counter": counters}
        return {metric: source[kind].get(arg, 0)
                for metric, (_, kind, arg) in LAYER_METRICS.items()}

    def dump(self, path):
        """Write every span and counter as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "root", "start", "end"],
                       "spans": self.spans,
                       "counters": {str(k): v
                                    for k, v in self.counters.items()}},
                      fh, separators=(",", ":"))
            fh.write("\n")
