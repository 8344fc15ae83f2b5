"""Benchmark of rkhs_oed: four workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload pharma-design --seed 0 --seconds 15
    python3 perfbench/run.py --workload lyapunov --trace 1
    python3 perfbench/run.py --workload all

One run sets up the workload (in fresh processes, to time ``setup_s``),
then repeats the workload's call in whole rounds until the calls have taken
``--seconds``; every round gets the same inputs, made from ``--seed``.  Outputs
are checked after each round, outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  Scenario outputs and the trace go to
``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("pharma-design", "pharma-mle", "contamination", "lyapunov")
# fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


def _limit_blas_threads():
    """One BLAS/OpenMP thread unless the environment asks for more, and
    never more than the usable cores (set before numpy loads).

    Two spinning OpenBLAS threads on two cores shared with one other busy
    process made a pharma-design call ten times slower; with one thread the
    same competitor slowed a lyapunov call by about a third.
    """
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, 1))
        except ValueError:
            n = 1
        os.environ[var] = str(max(1, min(n, cores)))


def _import_program():
    """Import the package from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "rkhs_oed", "__init__.py")):
        sys.exit(f"error: no rkhs_oed package under {SRC}")
    sys.path.insert(0, SRC)
    import rkhs_oed
    if not os.path.abspath(rkhs_oed.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: rkhs_oed imported from {rkhs_oed.__file__}")
    # the program warns on ill-conditioned solves; the benchmark keeps its
    # output to the result
    import warnings
    from rkhs_oed.linalg import IllConditionedWarning
    warnings.simplefilter("ignore", IllConditionedWarning)


def _child_setup_seconds(workload, seed):
    """Wall time from starting a fresh process until its set-up is done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process for {workload} failed "
                           f"(exit {proc.returncode})")
    return elapsed


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_call(wl, state):
    """One call of the workload: (seconds, output or None, exception)."""
    t0 = time.perf_counter()
    try:
        out = wl.call(state)
    except Exception as exc:  # a failed call fails all its operations
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def run_workload(name, seed, seconds, trace):
    import workloads
    wl = workloads.WORKLOADS[name]
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    failures = []
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.root = "setup"
    else:
        setup_times = [_child_setup_seconds(name, seed)
                       for _ in range(SETUP_REPEATS)]
    state = wl.setup(seed, out_dir)
    if tracer:
        tracer.uninstall()
    failures += wl.check_setup(state)
    setup_failures = len(failures)

    # whole rounds until the timed calls have taken `seconds` (checks are
    # not counted); traced runs alternate traced and untraced rounds and
    # need at least one of each
    times = {True: [], False: []}
    traced_rounds = []
    attempted = 0
    i = 0
    while (sum(times[True]) + sum(times[False]) < seconds
           or (trace and not (times[True] and times[False]))):
        traced = bool(trace) and i % 2 == 0
        if traced:
            tracer.root = i
            traced_rounds.append(i)
            tracer.install()
        try:
            elapsed, out, exc = _timed_call(wl, state)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed)
        i += 1
        if exc is not None:
            n = wl.ops(state)
            failures += [f"call raised {type(exc).__name__}: {exc}"] * n
        else:
            n, msgs = wl.check(state, out)
            failures += msgs
            if traced:
                for key, value in wl.output_counts(out).items():
                    tracer.add(key, value)
        attempted += n

    failed = len(failures) - setup_failures
    print(f"round seconds: traced {times[True]}, untraced {times[False]}",
          file=sys.stderr)
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    if trace:
        metrics = _layer_metrics(tracer, traced_rounds)
        traced_s = statistics.median(times[True])
        untraced_s = statistics.median(times[False])
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s,
                                       "unit": "s"}
        tracer.dump(os.path.join(OUT, f"{name}-trace.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(times[False]), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _layer_metrics(tracer, rounds):
    """Set-up plus one timed call: set-up values plus, per metric, the
    median over traced rounds (counts repeat exactly across rounds)."""
    import tracing
    setup = tracer.layer_values("setup")
    per_round = [tracer.layer_values(r) for r in rounds]
    metrics = {}
    for key, (unit, _, _) in tracing.LAYER_METRICS.items():
        value = setup[key] + statistics.median(v[key] for v in per_round)
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def _print_table(name, result):
    print(f"{name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<30} {m['value']:>14.6g} {m['unit']}")


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        _print_table(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_only and args.workload == "all":
        ap.error("--setup-only needs one workload")
    _limit_blas_threads()
    _import_program()
    if args.setup_only:
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        wl.setup(args.seed, os.path.join(OUT, args.workload))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
