"""End-to-end benchmark of the SafeMem simulator.

Usage::

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--out PATH]

Runs the workloads of ``bench/recipes.py`` (default: all four) in
repetitions: each repetition runs every requested workload once,
round-robin, each in a fresh single-threaded child process, one child
at a time.  Repetitions continue until at least :data:`MIN_REPS` have
run and ``--seconds`` have passed.  ``req_per_s`` is the best
repetition's; the other end-to-end metrics are medians over the
repetitions.  Quartiles, extremes and every repetition's value are kept
in the result document as diagnostics.

``--trace`` adds one traced child per workload after the untraced
repetitions (per-layer host time, see ``bench/tracer.py``), writes it
to ``bench/results/trace-<workload>.json`` and checks that it
reproduces the untraced simulated statistics and verdicts exactly.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics under ``--trace``.  With
more than one workload the metric names are prefixed
``<workload>.``.  ``--out`` also writes the full result document that
``bench/compare.py`` reads.  The exit code is 0 only when every check
passed.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: where traced runs write ``trace-<workload>.json``.
RESULTS_DIR = BENCH_DIR / "results"

from recipes import WORKLOADS  # noqa: E402  (bench/ is the script dir)

SCHEMA = "bench.result/v1"
#: repetitions per workload in every invocation, whatever --seconds says.
MIN_REPS = 3
#: no new repetition starts after this many seconds per workload, so one
#: invocation ends well inside three minutes even on a slow host.
MAX_MEASURE_S = 60
#: a child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 100
#: iterations of the pure-Python calibration loop.
CALIBRATION_LOOPS = 1_000_000


class BenchError(Exception):
    """A child failed or the checkout cannot run the benchmark."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not path.is_file():
        raise BenchError(f"{ROOT} holds no src/repro package and "
                         f"BENCHMARK.json to benchmark")
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(spec):
    """Run one recipe in a fresh interpreter; return its report."""
    spec = dict(spec, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "recipes.py"),
             json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']}: child exceeded "
                         f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']}: child exited "
                         f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workloads, seed, seconds, trace, scale, work_dir):
    """Untraced repetitions, then the traced children if asked.

    A traced invocation reports per-layer metrics only, so it runs one
    untraced repetition: the reference the traced child must reproduce
    and the base of ``trace.overhead``.
    """
    min_reps = 1 if trace else MIN_REPS
    base = {"seed": seed, "scale": scale, "trace": False,
            "checkpoint_dir": str(work_dir)}
    for name in workloads:
        if WORKLOADS[name][4] is not None:
            # Input generation for the resume workload: record the run
            # and write its checkpoint.  Untimed.
            run_child(dict(base, workload=name, prepare=True))
    reps = {name: [] for name in workloads}
    started = time.monotonic()
    while True:
        for name in workloads:
            reps[name].append(run_child(dict(base, workload=name)))
        elapsed = time.monotonic() - started
        done = len(reps[workloads[0]])
        if (done >= min_reps and (trace or elapsed >= seconds)) \
                or elapsed >= MAX_MEASURE_S * len(workloads):
            break
    traced = {}
    if trace:
        for name in workloads:
            traced[name] = run_child(dict(base, workload=name, trace=True))
    return reps, traced


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check(workload, outcome):
    """Problems with one child's public results (empty = correct)."""
    problems = []
    if outcome["completed"] != outcome["requests"]:
        problems.append(f"completed {outcome['completed']} of "
                        f"{outcome['requests']} requests")
    if workload in ("gzip-safemem", "squid1-safemem"):
        if outcome.get("corruption_reports") != 0:
            problems.append(f"{outcome.get('corruption_reports')} "
                            f"corruption reports on normal input")
    if workload == "ypserv1-monitored":
        if not outcome.get("leak_reports"):
            problems.append("no leak report on the always-leak input")
        if outcome.get("false_reports") != 0:
            problems.append(f"{outcome.get('false_reports')} leak "
                            f"reports name objects that did not leak")
        if not outcome["alerts_fired"]:
            problems.append("no alert fired")
    if workload == "ypserv1-resume":
        if outcome["verified"] is not True:
            problems.append("resume did not verify against the "
                            "checkpoint")
        if outcome["total_completed"] != outcome["horizon"]:
            problems.append(f"resume completed "
                            f"{outcome['total_completed']} of "
                            f"{outcome['horizon']} requests")
    return problems


#: outcome fields that must repeat exactly across children.
SIMULATED = ("sim_cycles", "leak_reports", "corruption_reports",
             "false_reports", "alerts_fired", "verified", "counts")


def simulated(outcome):
    return {key: outcome.get(key) for key in SIMULATED}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def spread(values):
    """Median, quartiles and extremes of repeated values (kept in run
    order under ``reps``)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "reps": values}


def summarize(workload, reps, traced, spec):
    """One workload's metrics, checks and request accounting."""
    attempted = failed = 0
    problems = []
    reference = simulated(reps[0]["outcome"])
    for index, report in enumerate(reps + ([traced] if traced else [])):
        outcome = report["outcome"]
        issues = check(workload, outcome)
        label = "traced" if report is traced else f"rep {index}"
        if simulated(outcome) != reference:
            issues.append("simulated statistics differ from rep 0")
        attempted += outcome["requests"]
        failed += (outcome["requests"] if issues
                   else outcome["requests"] - outcome["completed"])
        problems.extend(f"{label}: {issue}" for issue in issues)

    values = {
        "req_per_s": spread([r["outcome"]["completed"] / r["wall_s"]
                             for r in reps]),
        "setup_s": spread([r["setup_s"] for r in reps]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in reps]),
        "sim_mcycles": spread([r["outcome"]["sim_cycles"] / 1e6
                               for r in reps]),
    }
    metrics = {}
    for entry in spec["end_to_end"]:
        name = entry["name"]
        # Host drift only ever slows the timed call, so its fastest
        # repetition is the steadiest estimate of the simulator's
        # speed.  Set-up, memory and simulated cycles report medians.
        value = values[name]["max" if name == "req_per_s" else "median"]
        metrics[name] = dict(values[name], value=value, unit=entry["unit"],
                             better=entry["better"])
    summary = {
        "requests": reps[0]["outcome"]["requests"],
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "sim_false_reports": reference["false_reports"],
        "problems": problems,
        "metrics": metrics,
        "outcome": reps[0]["outcome"],
    }
    if traced:
        layer_values = dict(traced["outcome"]["counts"])
        layer_values["core.false_reports"] = reference["false_reports"]
        layer_values["trace.overhead"] = traced["wall_s"] / \
            min(r["wall_s"] for r in reps) - 1
        for layer, stats in traced["trace"]["layers"].items():
            for key in ("self_s", "calls", "ns_per_call"):
                layer_values[f"{layer}.{key}"] = stats[key]
        summary["trace"] = dict(traced["trace"],
                                wall_s=traced["wall_s"])
        summary["layer_metrics"] = {
            entry["name"]: {"value": layer_values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in spec["per_layer"]}
    return summary


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def calibrate():
    """Best-of-3 seconds of a fixed pure-Python loop (host speed)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_LOOPS):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_benchmark(workloads, seed=0, seconds=0, trace=False, scale=1.0):
    """Measure, check and summarize; returns the result document."""
    spec = load_spec()
    stamp = environment()
    stamp["calibration_s_before"] = calibrate()
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=BENCH_DIR) as work_dir:
        reps, traced = measure(workloads, seed, seconds, trace, scale,
                               work_dir)
    stamp["calibration_s_after"] = calibrate()
    results = {name: summarize(name, reps[name], traced.get(name), spec)
               for name in workloads}
    for name, report in traced.items():
        path = RESULTS_DIR / f"trace-{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"workload": name, "seed": seed, "wall_s": report["wall_s"],
             **report["trace"], "per_request": report["per_request"]}))
    return {"schema": SCHEMA, "seed": seed, "seconds": seconds,
            "scale": scale, "trace": bool(trace), "environment": stamp,
            "workloads": results}


def result_line(document):
    """The one-line JSON result the last stdout line carries."""
    results = document["workloads"]
    key = "layer_metrics" if document["trace"] else "metrics"
    metrics = {}
    for name, summary in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, entry in summary[key].items():
            metrics[prefix + metric] = {"value": entry["value"],
                                        "unit": entry["unit"]}
    return {
        "correct": not any(s["problems"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=0,
                        help="keep repeating until this long has passed "
                             f"(at least {MIN_REPS} repetitions)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add a traced run for per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="write the full result document here")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the running child instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        document = run_benchmark(workloads, seed=args.seed,
                                 seconds=args.seconds,
                                 trace=bool(args.trace))
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    line = result_line(document)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    for name, summary in document["workloads"].items():
        for problem in summary["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
