"""The benchmark's four workloads, each run in its own child process.

``python3 bench/recipes.py SPEC_JSON`` runs one workload recipe in a
fresh interpreter and prints one JSON report as its last stdout line.
``bench/run.py`` spawns these children one at a time; nothing here is
imported by it except the :data:`WORKLOADS` table, and this module
imports ``repro`` only inside :func:`main`.

Every recipe goes through public entry points only: the monitor stack
is built with ``build_monitor_stack``, runs with ``run_workload``, and
the resume workload uses ``load_checkpoint`` + ``resume_checkpoint``.
The spec carries ``workload``, ``seed``, ``scale`` (multiplies request
counts and the checkpoint interval, for smoke tests), ``trace``,
``checkpoint_dir`` (where the resume checkpoint is written or read),
``prepare`` (write the resume checkpoint instead of timing) and
``spawned_at`` (the parent's ``time.monotonic()`` just before spawn;
``setup_s`` counts from it).
"""

import json
import pathlib
import resource
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: the production stack of the monitored and resume workloads.
MONITORED = {"sample_every": 100_000, "trend": "page-hinkley",
             "history": True}

#: name -> (application, buggy input, requests, stack settings,
#: checkpoint interval in cycles).  Why each one is here: bench/README.md.
WORKLOADS = {
    "gzip-safemem": ("gzip", False, 2000, {}, None),
    "squid1-safemem": ("squid1", False, 3000, {}, None),
    "ypserv1-monitored": ("ypserv1", True, 3000, MONITORED, None),
    # One checkpoint lands at request boundary 1890 of 3000.
    "ypserv1-resume": ("ypserv1", True, 3000, MONITORED, 1_200_000_000),
}


def scaled(value, scale):
    return max(1, round(value * scale))


def layer_counts(snapshot):
    """Per-layer counts and ratios from a public metrics snapshot."""
    get = snapshot.get

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits, misses = get("cache.l1.hit"), get("cache.l1.miss")
    tlb_hits, tlb_misses = get("mmu.tlb.hit"), get("mmu.tlb.miss")
    return {
        "cache.hit_ratio": ratio(hits, hits + misses),
        "mmu.tlb_hit_ratio": ratio(tlb_hits, tlb_hits + tlb_misses),
        "machine.batched_ops": (get("machine.load.batched")
                                + get("machine.store.batched")),
        "machine.fast_ops": (get("machine.load.fast")
                             + get("machine.store.fast")),
        "machine.slow_ops": (get("machine.load.slow")
                             + get("machine.store.slow")),
        "ecc.read_lines": get("ecc.read_lines"),
        "ecc.write_lines": get("ecc.write_lines"),
        "ecc.uncorrectable": get("ecc.uncorrectable"),
        "kernel.watch_syscalls": (get("kernel.syscall.WatchMemory")
                                  + get("kernel.syscall.DisableWatchMemory")),
        "kernel.ecc_traps": get("kernel.ecc_traps"),
        "heap.allocs": get("heap.allocs"),
        "heap.peak_live_bytes": get("heap.peak_live_bytes"),
        "core.leak_reports": get("safemem.leak.reports"),
        "core.leak_pruned_ratio": ratio(get("safemem.leak.pruned"),
                                        get("safemem.leak.suspects")),
        "obs.samples": get("sampler.samples"),
    }


def verdicts(truth, monitor):
    """Report counts scored against the workload's ground truth."""
    leaks = monitor.leak_reports
    corruptions = monitor.corruption_reports
    injected = truth.corruption[1] if truth.corruption else None
    false_reports = (
        sum(report.object_address not in truth.leaked_addresses
            for report in leaks)
        + sum(report.access_address != injected
              for report in corruptions))
    return {
        "leak_reports": len(leaks),
        "corruption_reports": len(corruptions),
        "false_reports": false_reports,
    }


class Recipe:
    """Set up, time and score one workload (one child)."""

    def __init__(self, spec):
        from repro.obs.stack import MonitorStackConfig

        app, buggy, requests, stack, every = WORKLOADS[spec["workload"]]
        self.resume = every is not None and not spec.get("prepare")
        self.app = app
        self.buggy = buggy
        self.requests = scaled(requests, spec["scale"])
        self.seed = spec["seed"]
        self.checkpoint_dir = pathlib.Path(spec["checkpoint_dir"])
        checkpoints = {}
        if spec.get("prepare"):
            checkpoints = {
                "checkpoint_every": scaled(every, spec["scale"]),
                "checkpoint_dir": str(self.checkpoint_dir)}
        self.config = MonitorStackConfig(**stack, **checkpoints)
        self.stack = self.document = None

    def setup(self):
        from repro.obs import checkpoint
        from repro.obs.stack import build_monitor_stack

        if self.resume:
            path, = sorted(self.checkpoint_dir.glob("*.ckpt.json"))
            self.document = checkpoint.load_checkpoint(path)
            return
        run_info = {"workload": self.app, "monitor": self.config.monitor,
                    "buggy": self.buggy, "requests": self.requests,
                    "seed": self.seed}
        self.stack = build_monitor_stack(self.config, run_info=run_info)
        self.stack.start()

    def timed(self):
        from repro.analysis.runner import run_workload
        from repro.obs import checkpoint

        if self.resume:
            return checkpoint.resume_checkpoint(self.document, verify=True)
        try:
            return run_workload(
                self.app, self.config.monitor, buggy=self.buggy,
                requests=self.requests, seed=self.seed,
                machine=self.stack.machine, monitor=self.stack.monitor,
                request_hook=self.stack.request_hook)
        finally:
            self.stack.stop()
            self.stack.close()

    def outcome(self, result):
        """Public results only: requests, verdicts, simulated stats."""
        if self.resume:
            done_before = self.document["progress"]["requests_completed"]
            horizon = self.document["run"]["requests"]
            snapshot = result.machine.metrics.snapshot()
            cycles = result.machine.clock.cycles
            completed = (result.truth.requests_completed
                         if result.truth is not None else 0)
            outcome = {"requests": horizon - done_before,
                       "completed": completed - done_before,
                       "horizon": horizon, "total_completed": completed,
                       "verified": result.verified}
        else:
            snapshot = result.metrics
            cycles = result.cycles
            outcome = {"requests": self.requests,
                       "completed": result.truth.requests_completed,
                       "verified": None}
        if result.truth is not None:
            outcome.update(verdicts(result.truth, result.monitor))
        outcome["alerts_fired"] = snapshot.get("alerts.fired")
        outcome["sim_cycles"] = cycles
        outcome["counts"] = layer_counts(snapshot)
        return outcome


def main(argv):
    spec = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (the import is part of set-up time)

    tracer = None
    if spec["trace"]:
        from tracer import LayerTracer
        tracer = LayerTracer().install()
    try:
        recipe = Recipe(spec)
        recipe.setup()
        started = time.monotonic()
        cpu_started = time.process_time()
        result = recipe.timed()
        wall_s = time.monotonic() - started
        cpu_s = time.process_time() - cpu_started
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "workload": spec["workload"],
        "setup_s": started - spec["spawned_at"],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcome": recipe.outcome(result),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["per_request"] = tracer.per_request()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
