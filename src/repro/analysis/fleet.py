"""The experiment driver: sharded validation and fleet scenarios.

Every SafeMem experiment is an independent simulated machine, so the
whole evaluation shards cleanly across worker processes (the same shape
that lets GWP-ASan spread sampled detection across a production fleet).
This module runs the experiments declared once in
:data:`repro.analysis.experiments.EXPERIMENTS`:

- :func:`enumerate_jobs` turns experiments into **jobs** --
  ``(kind, ident, params)`` tuples, one Table 3 row, one Figure 3
  series, one trend scenario ... each a self-contained simulation with
  declared parameters; :data:`JOB_KINDS` maps each kind to its unit
  function and row dataclass;
- :func:`run_jobs` runs jobs in-process (``jobs=1``) or fans them out
  over worker processes, collects their JSON-able payloads
  (``asdict`` of the row) and per-machine telemetry dumps, and merges
  the telemetry into one fleet-wide snapshot (:mod:`repro.obs.merge`);
- :class:`ResultCache` memoizes completed job payloads keyed by
  ``(job config, code digest)`` so a no-op re-run is near-instant;
- :func:`run_suite` runs experiments and assembles their rows into
  each experiment's result (:func:`assemble_context`), and
  :func:`run_validation` checks the claims against them; ``repro
  validate --jobs 1`` is the serial run, bit-identical to ``--jobs N``
  because every path calls the same unit functions and the simulation
  is deterministic per (workload, config, seed);
- :func:`run_fleet` is the fleet-scale scenario: M concurrent simulated
  machines of one workload, telemetry aggregated across the fleet.

Payloads cross the process boundary (and enter the cache) in a
JSON-able encoding; the in-process ``jobs=1`` path round-trips through
the same encoding so serial and parallel runs cannot diverge through
the codec.  Telemetry dumps are *not* cached: merged fleet telemetry
describes machines that actually ran, so a fully-cached validation
reports no telemetry rather than stale telemetry.
"""

import atexit
import functools
import hashlib
import json
import multiprocessing
import os
import pathlib
from dataclasses import dataclass, field

from repro.analysis.experiments import (
    EXPERIMENTS,
    JobKind,
    detection_succeeded,
)
from repro.analysis.runner import (
    add_boot_tap,
    add_run_tap,
    overhead_percent,
    remove_boot_tap,
    remove_run_tap,
)
from repro.common.digest import package_digest
from repro.common.errors import ConfigurationError, FleetError
from repro.obs.history import merge_history_documents
from repro.obs.merge import dump_registry, merge_dumps
from repro.obs.metrics import MetricsRegistry
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.workloads.registry import WORKLOADS

CACHE_SCHEMA = "repro.fleet-cache/v1"


# ----------------------------------------------------------------------
# Job model: (kind, ident, params) tuples -- picklable, cacheable
# ----------------------------------------------------------------------
@dataclass
class MachineReport:
    """Summary of one fleet machine's run (crosses processes as JSON)."""

    index: int
    seed: int
    cycles: int
    requests_completed: int
    requests: int
    detection: object
    leak_reports: int
    corruption_reports: int
    overhead_pct: object
    #: alert-engine totals; 0 unless the fleet ran with sampling on.
    alerts_fired: int = 0
    alerts_resolved: int = 0
    #: forensic bundle paths this machine wrote (dump mode only).
    bundles: list = field(default_factory=list)
    #: did this machine's monitor catch the workload's injected bug?
    #: (always False on normal input or under the native monitor)
    detected: bool = False
    #: this machine's ``repro.history/v1`` document (``--history`` only).
    history: object = None
    #: checkpoint paths this machine wrote (``--checkpoint-every`` only).
    checkpoints: list = field(default_factory=list)


def _machine_detected(workload, buggy, monitor_name, result):
    """Did this machine's monitor catch the workload's injected bug?"""
    bug = WORKLOADS[workload].bug
    return (buggy and monitor_name != "native" and bug is not None
            and detection_succeeded(result, bug))


def _run_fleet_machine(workload, monitor, buggy, requests, seed, index,
                       stack):
    """One fleet machine: run the workload, summarize the outcome.

    The machine runs under the monitoring stack ``stack`` (a
    :class:`~repro.obs.stack.MonitorStackConfig` dict) describes, bare
    when it asks for no monitoring, through
    :meth:`~repro.obs.stack.MonitorStack.run`: an allocation
    :class:`~repro.core.sampling.SamplingPolicy` puts the monitor in
    sampled production mode, ``sample_every`` adds the sampling
    profiler + alert engine, and the run tap's registry dump carries
    ``safemem.sampling.*`` / ``sampler.*`` / ``alerts.*`` metrics into
    the fleet merge (counters sum, giving fleet-wide totals).  With a
    dump dir the stack's forensic recorder writes this machine's
    bundles, and a panic it dumped becomes a report row linking them.
    """
    stack = build_monitor_stack(
        MonitorStackConfig.from_dict(stack), label=f"m{index}",
        run_info={"workload": workload, "monitor": monitor,
                  "buggy": buggy, "requests": requests, "seed": seed})
    try:
        result = stack.run()
    finally:
        stack.close()
    common = dict(
        index=index, seed=seed,
        leak_reports=len(getattr(stack.monitor, "leak_reports", ()) or ()),
        corruption_reports=len(
            getattr(stack.monitor, "corruption_reports", ()) or ()),
        alerts_fired=stack.alerts_fired,
        alerts_resolved=stack.alerts_resolved,
        bundles=[str(path) for path in stack.bundle_paths])
    if stack.panic is not None:
        # The recorder dumped the machine at the PANIC event; the crash
        # becomes a report row so the rest of the fleet still renders.
        return MachineReport(
            **common, cycles=stack.machine.clock.cycles,
            requests_completed=0, requests=requests or 0,
            detection=f"panic: {stack.panic}", overhead_pct=None)
    truth = result.truth
    overhead = None
    if monitor != "native" and truth.detection is None:
        overhead = overhead_percent(result.cycles,
                                    stack.native_twin().cycles)
    return MachineReport(
        **common, cycles=result.cycles,
        requests_completed=truth.requests_completed,
        requests=result.requests,
        detection=(str(truth.detection.report)
                   if truth.detection is not None else None),
        overhead_pct=overhead,
        detected=_machine_detected(workload, buggy, monitor, result),
        history=(stack.history.to_dict()
                 if stack.history is not None else None),
        checkpoints=[str(path) for path in stack.checkpoint_paths],
    )


#: job kind name -> :class:`~repro.analysis.experiments.JobKind`: every
#: declared experiment's, plus the fleet scenario's machines.
JOB_KINDS = {
    **{experiment.kind.name: experiment.kind
       for experiment in EXPERIMENTS.values()},
    "fleet-machine": JobKind("fleet-machine", _run_fleet_machine,
                             MachineReport),
}


def enumerate_jobs(experiments, requests=250):
    """The experiments' jobs in canonical order.

    ``requests`` goes to the experiments that scale with it (Tables 3
    and 4); the others run full length.
    """
    return [spec for experiment in experiments
            for spec in experiment.specs(
                requests if experiment.scales else None)]


def enumerate_validation_jobs(requests=250):
    """The validation run as independent jobs, in canonical order."""
    return enumerate_jobs(EXPERIMENTS.values(), requests)


# ----------------------------------------------------------------------
# Result cache: (job config, code digest) -> payload
# ----------------------------------------------------------------------
def default_cache_dir():
    """``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the CWD."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR",
                                       ".repro-cache"))


class ResultCache:
    """Experiment payloads keyed by job config + source digest.

    Any change to the job parameters or to any ``repro`` source file
    produces a new key, so stale hits are impossible as long as the
    simulation itself stays deterministic (it is: no wall-clock, no
    unseeded randomness).
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def key_for(self, spec, code_digest=None):
        kind, ident, params = spec
        material = json.dumps(
            {"kind": kind, "ident": ident, "params": params,
             "code": code_digest or package_digest()},
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def load(self, key):
        path = self.root / f"{key}.json"
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            return None
        return entry

    def store(self, key, spec, payload):
        kind, ident, params = spec
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "kind": kind, "ident": ident,
                 "params": params, "payload": payload}
        path = self.root / f"{key}.json"
        staging = path.with_suffix(".tmp")
        staging.write_text(json.dumps(entry, sort_keys=True) + "\n")
        staging.replace(path)


# ----------------------------------------------------------------------
# Execution: one job per task, in-process or over a worker pool
# ----------------------------------------------------------------------
#: The persistent warm pool.  Spawning a fresh Pool per run_jobs call
#: was costing more than the sharding won back (BENCH_fleet.json once
#: recorded --jobs 4 at 0.34x serial); workers are now spawned once and
#: reused for every subsequent fan-out of the same width.
_POOL = None
_POOL_WORKERS = 0


def _warm_pool(workers):
    """Return the shared pool, (re)creating it only on a width change."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        _POOL = multiprocessing.Pool(processes=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool():
    """Tear down the warm pool (atexit hook; also a test seam)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)
def _execute_job(spec, dump_dir=None, dump_on_alert=False):
    """Run one job; returns (ident, payload, dumps, bundles, error).

    Top-level so it pickles under any multiprocessing start method.  A
    run tap captures every machine the job runs (each ``run_workload``
    call builds a fresh machine, so absolute registry state is per-run
    state and the dumps never double count; a native overhead twin
    reaches no run tap, so it is not counted as a machine).

    With ``dump_dir`` set, a boot tap additionally attaches a
    :class:`~repro.obs.forensics.ForensicRecorder` to every machine the
    job boots: a kernel PANIC (and, with ``dump_on_alert``, any alert
    reaching ``firing``) auto-writes a ``repro.dump/v1`` bundle there,
    even when the job itself comes back as an error.  A run through
    :meth:`~repro.obs.stack.MonitorStack.run` hands the recorder the
    stack's recorded run, ``monitoring`` section included, so bundles
    of the trend and season scenarios replay under their stacks.
    """
    kind, ident, params = spec
    dumps = []
    recorders = []
    tap = add_run_tap(
        lambda result: dumps.append(dump_registry(result.machine.metrics))
    )
    boot_tap = None
    if dump_dir is not None:
        from repro.obs.forensics import ForensicRecorder
        label = ident.replace(":", "-")

        def _attach_recorder(machine, monitor, run_info):
            recorders.append(ForensicRecorder(
                machine, monitor=monitor, run_info=run_info,
                dump_dir=dump_dir, label=f"{label}-{len(recorders)}",
                on_alert=dump_on_alert,
            ))

        boot_tap = add_boot_tap(_attach_recorder)
    try:
        payload = JOB_KINDS[kind].unit(**params)
        return (ident, JOB_KINDS[kind].encode(payload), dumps,
                _collect_bundles(recorders), None)
    except Exception as error:
        return (ident, None, dumps, _collect_bundles(recorders),
                f"{type(error).__name__}: {error}")
    finally:
        remove_run_tap(tap)
        if boot_tap is not None:
            remove_boot_tap(boot_tap)
        for recorder in recorders:
            recorder.detach()


def _collect_bundles(recorders):
    return [str(path) for recorder in recorders
            for path in recorder.bundle_paths]


@dataclass
class FleetOutcome:
    """Everything a sharded run produced."""

    #: ident -> decoded payload object.
    payloads: dict
    #: merged fleet telemetry (a Snapshot), or None when nothing ran.
    metrics: object
    #: raw per-machine registry dumps (merge input; empty on cache hits).
    dumps: list = field(default_factory=list)
    #: forensic bundle paths the ``dump_dir`` boot tap's recorders
    #: wrote (fleet machines link theirs from their report rows).
    bundles: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1


def resolve_jobs(jobs):
    """``None`` means one worker per CPU (the fleet default)."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def run_jobs(specs, jobs=None, cache=None, dump_dir=None,
             dump_on_alert=False):
    """Run job specs (sharded over processes when ``jobs > 1``).

    Payloads come back decoded, keyed by ident.  Any job error raises
    :class:`FleetError` naming every failed shard, in-process or not.
    With ``dump_dir``, every booted machine carries a forensic
    recorder; bundle paths are aggregated into the outcome (and onto
    the raised ``FleetError.bundles``, so a crashed shard's dump is
    still reachable).
    """
    jobs = resolve_jobs(jobs)
    idents = [spec[1] for spec in specs]
    if len(set(idents)) != len(idents):
        raise ConfigurationError("duplicate job idents in fleet run")

    encoded = {}
    hits = misses = 0
    pending = []
    for spec in specs:
        if cache is not None:
            key = cache.key_for(spec)
            entry = cache.load(key)
            if entry is not None:
                encoded[spec[1]] = entry["payload"]
                hits += 1
                continue
            misses += 1
        pending.append(spec)

    dumps = []
    bundles = []
    failures = {}
    # Effective parallelism: never more workers than shards, and never
    # more than CPUs -- oversubscribing a small box just pays spawn and
    # scheduling cost to lose to serial.  A fan-out that degenerates to
    # one worker (or one shard, where a worker round-trip can't beat
    # the spawn cost) runs in-process instead; the payloads still
    # round-trip the codec, so the results cannot diverge.
    workers = min(jobs, len(pending), os.cpu_count() or 1) or 1
    execute = functools.partial(_execute_job, dump_dir=dump_dir,
                                dump_on_alert=dump_on_alert)
    if pending:
        if workers > 1 and len(pending) > 1:
            pool = _warm_pool(workers)
            # Job-size-aware dispatch: a few round trips per worker
            # amortizes IPC without starving the tail.
            chunksize = max(1, len(pending) // (workers * 4))
            outcomes = list(pool.imap_unordered(execute, pending,
                                                chunksize=chunksize))
        else:
            workers = 1
            outcomes = [execute(spec) for spec in pending]
        by_ident = {spec[1]: spec for spec in pending}
        for ident, payload, job_dumps, job_bundles, error in outcomes:
            dumps.extend(job_dumps)
            bundles.extend(job_bundles)
            if error is not None:
                failures[ident] = error
                continue
            encoded[ident] = payload
            if cache is not None:
                spec = by_ident[ident]
                cache.store(cache.key_for(spec), spec, payload)
    if failures:
        error = FleetError(failures)
        error.bundles = bundles
        raise error
    if cache is not None:
        cache.hits += hits
        cache.misses += misses

    kinds = {spec[1]: spec[0] for spec in specs}
    payloads = {ident: JOB_KINDS[kinds[ident]].decode(payload)
                for ident, payload in encoded.items()}
    return FleetOutcome(
        payloads=payloads,
        metrics=merge_dumps(dumps) if dumps else None,
        dumps=dumps,
        bundles=bundles,
        cache_hits=hits,
        cache_misses=misses,
        workers=workers,
    )


# ----------------------------------------------------------------------
# Validation assembly: rows -> each experiment's result
# ----------------------------------------------------------------------
def assemble_context(payloads, experiments=None):
    """Each experiment's result, keyed by name, from its jobs' rows.

    Row order is the experiment's canonical job order, whichever
    process ran each job, so rendered tables are byte-identical at any
    ``--jobs``.  ``experiments`` defaults to every declared one: the
    context the claims read.
    """
    if experiments is None:
        experiments = EXPERIMENTS.values()
    return {experiment.name: experiment.result(payloads)
            for experiment in experiments}


def run_suite(experiments, requests=250, jobs=1, cache=None,
              dump_dir=None, dump_on_alert=False):
    """Run ``experiments`` as one job list, as ``repro validate`` and
    ``repro report`` do: ``requests`` scales only the experiments
    declared to scale with it (:func:`enumerate_jobs`).

    Returns ``(context, outcome)``: each experiment's result keyed by
    name, and the :class:`FleetOutcome` of the run.
    """
    outcome = run_jobs(enumerate_jobs(experiments, requests), jobs=jobs,
                       cache=cache, dump_dir=dump_dir,
                       dump_on_alert=dump_on_alert)
    return assemble_context(outcome.payloads, experiments), outcome


@dataclass
class ValidationRun:
    """A full validation: claim results + context + fleet outcome."""

    results: list
    context: dict
    outcome: FleetOutcome

    @property
    def passed(self):
        return all(result.passed for result in self.results)

    def failed_idents(self):
        return [r.claim.ident for r in self.results if not r.passed]


def run_validation(requests=250, jobs=None, cache_dir=None,
                   use_cache=True, stack=None):
    """``repro validate``: run every experiment, check every claim.

    ``jobs=1`` is the serial run: every shard in-process (no pool) but
    still through the payload codec, so the only difference
    parallelism introduces is which process executed a shard.
    ``stack`` (a :class:`~repro.obs.stack.MonitorStackConfig`)
    supplies the forensic settings: with a dump dir, any shard machine
    that panics leaves a ``repro.dump/v1`` bundle there.  (The claim
    experiments pin their own monitor configs, so the stack's
    monitor/sampling fields do not alter the validated runs.)
    """
    from repro.analysis.claims import validate
    if stack is None:
        stack = MonitorStackConfig()
    stack.validate()
    cache = None
    if use_cache:
        cache = ResultCache(cache_dir if cache_dir is not None
                            else default_cache_dir())
    context, outcome = run_suite(
        EXPERIMENTS.values(), requests=requests, jobs=jobs, cache=cache,
        dump_dir=stack.resolved_dump_dir(),
        dump_on_alert=stack.dump_on_alert)
    return ValidationRun(results=validate(context), context=context,
                         outcome=outcome)


#: the experiments ``validate --write-results`` renders, by name.
RESULT_FILES = tuple(experiment.name
                     for experiment in EXPERIMENTS.values()
                     if experiment.result_file)


def write_result_artifacts(context, results_dir):
    """Render every experiment in :data:`RESULT_FILES` into
    ``results_dir/<name>.txt``: the one writer of ``results/``."""
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in RESULT_FILES:
        path = results_dir / f"{name}.txt"
        path.write_text(context[name].render() + "\n")
        written.append(path)
    return written


# ----------------------------------------------------------------------
# Fleet scenario: M concurrent machines of one workload
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Aggregated outcome of M machines running one workload."""

    workload: str
    monitor: str
    buggy: bool
    reports: list
    #: merged fleet telemetry Snapshot (see repro.obs.merge).
    metrics: object
    workers: int

    @property
    def total_faults(self):
        return self.metrics.get("kernel.ecc_traps", 0) \
            if self.metrics is not None else 0

    @property
    def total_leak_reports(self):
        return sum(report.leak_reports for report in self.reports)

    @property
    def total_corruption_reports(self):
        return sum(report.corruption_reports for report in self.reports)

    @property
    def total_alerts_fired(self):
        return sum(report.alerts_fired for report in self.reports)

    @property
    def total_alerts_resolved(self):
        return sum(report.alerts_resolved for report in self.reports)

    @property
    def sampled(self):
        """True when the fleet ran with the monitoring stack enabled."""
        return self.metrics is not None and \
            "sampler.samples" in self.metrics.values

    @property
    def history(self):
        """Fleet-merged ``repro.history/v1`` document, or None.

        Each machine's tiered history crosses the process boundary on
        its :class:`MachineReport`; the merge is the same associative
        fold :mod:`repro.obs.merge` applies to metric dumps.
        """
        documents = [report.history for report in self.reports
                     if report.history]
        if not documents:
            return None
        return merge_history_documents(documents)

    @property
    def allocation_sampled(self):
        """True when machines ran with an allocation sampling policy."""
        return self.metrics is not None and \
            "safemem.sampling.sampled" in self.metrics.values

    @property
    def machines_detected(self):
        """Fleet-wide detection tally, read from the merged telemetry."""
        if self.metrics is not None and \
                "fleet.machines.detected" in self.metrics.values:
            return self.metrics.get("fleet.machines.detected", 0)
        return sum(1 for report in self.reports if report.detected)

    @property
    def detection_probability(self):
        """Fraction of fleet machines whose monitor caught the bug."""
        if not self.reports:
            return 0.0
        return self.machines_detected / len(self.reports)

    def overhead_distribution(self):
        """(min, median, max) overhead across machines, or None."""
        overheads = sorted(report.overhead_pct for report in self.reports
                           if report.overhead_pct is not None)
        if not overheads:
            return None
        return (overheads[0], overheads[len(overheads) // 2],
                overheads[-1])

    def render(self):
        from repro.analysis.tables import fmt_percent, render_table
        rows = []
        for report in self.reports:
            rows.append((
                report.index,
                report.seed,
                f"{report.cycles:,}",
                f"{report.requests_completed}/{report.requests}",
                (fmt_percent(report.overhead_pct)
                 if report.overhead_pct is not None else "-"),
                report.leak_reports,
                report.corruption_reports,
                report.detection or "-",
            ))
        distribution = self.overhead_distribution()
        note = (f"fleet totals: {self.total_faults} ECC faults, "
                f"{self.total_leak_reports} leak reports, "
                f"{self.total_corruption_reports} corruption reports")
        if self.sampled:
            note += (f"; {self.metrics.get('sampler.samples', 0)} "
                     f"samples, {self.total_alerts_fired} alerts fired "
                     f"/ {self.total_alerts_resolved} resolved")
        if self.allocation_sampled:
            note += (f"; allocation sampling: "
                     f"{self.metrics.get('safemem.sampling.sampled', 0)}"
                     f" sampled / "
                     f"{self.metrics.get('safemem.sampling.skipped', 0)}"
                     f" skipped")
        if self.buggy:
            note += (f"; detection "
                     f"{self.machines_detected}/{len(self.reports)} "
                     f"machines")
        if distribution is not None:
            low, median, high = distribution
            note += (f"; overhead min/median/max "
                     f"{fmt_percent(low)}/{fmt_percent(median)}/"
                     f"{fmt_percent(high)}")
        dumped = [(report.index, path) for report in self.reports
                  for path in report.bundles]
        if dumped:
            note += "\nforensic dumps:"
            for index, path in dumped:
                note += f"\n  machine {index}: {path}"
        checkpoints = [(report.index, path) for report in self.reports
                       for path in report.checkpoints]
        if checkpoints:
            note += "\ncheckpoints:"
            for index, path in checkpoints:
                note += f"\n  machine {index}: {path}"
        return render_table(
            f"Fleet: {len(self.reports)} machines of {self.workload} "
            f"under {self.monitor} "
            f"({'buggy' if self.buggy else 'normal'} input)",
            ["machine", "seed", "cycles", "requests", "overhead",
             "leaks", "corruption", "detection"],
            rows,
            note=note,
        )


def machine_seed(base_seed, index):
    """Workload seed of fleet machine ``index``.

    Pinned contract: ``base_seed + index`` -- each machine sees its own
    traffic, and machine 0 of ``base_seed=S`` replays exactly the solo
    run seeded ``S``.  The *sampling* seed of a machine is derived
    separately (:func:`repro.core.sampling.machine_sample_seed`, via
    ``MonitorStackConfig.for_machine``) so the sampling schedule is not
    correlated with the workload's request stream.
    """
    return base_seed + index


def _coerce_fleet_stack(stack, monitor):
    """Normalize run_fleet's monitoring arguments to one stack config."""
    if stack is None:
        return MonitorStackConfig(
            monitor=monitor if monitor is not None else "safemem",
        ).validate()
    if monitor is not None and monitor != stack.monitor:
        raise ConfigurationError(
            f"run_fleet(monitor={monitor!r}) conflicts with "
            f"stack.monitor={stack.monitor!r}")
    return stack.validate()


def run_fleet(workload, machines=4, monitor=None, requests=None,
              buggy=False, jobs=None, base_seed=0, stack=None):
    """Run ``machines`` simulated machines of one workload concurrently.

    Each machine gets its own workload seed (:func:`machine_seed`) so
    the fleet sees naturally varied traffic, and its telemetry merges
    into one fleet snapshot -- total faults, total reports, detection
    tallies, and an overhead distribution instead of a single anecdote.

    ``stack`` (a :class:`~repro.obs.stack.MonitorStackConfig`) is the
    one description of the per-machine monitoring stack: the monitor
    choice, an allocation :class:`~repro.core.sampling.SamplingPolicy`
    (each machine samples under its own derived seed, GWP-ASan style),
    the sampling profiler + alert engine (``sample_every``/``rules``),
    telemetry streaming, and forensic dumps.  ``monitor`` without a
    stack is shorthand for ``MonitorStackConfig(monitor=...)``.
    """
    if machines < 1:
        raise ConfigurationError(
            f"--machines must be >= 1, got {machines}")
    stack = _coerce_fleet_stack(stack, monitor)
    specs = [
        ("fleet-machine", f"fleet:{workload}:{index}",
         {"workload": workload, "monitor": stack.monitor, "buggy": buggy,
          "requests": requests, "seed": machine_seed(base_seed, index),
          "index": index, "stack": stack.for_machine(index).to_dict()})
        for index in range(machines)
    ]
    outcome = run_jobs(specs, jobs=jobs, cache=None)
    reports = [outcome.payloads[f"fleet:{workload}:{index}"]
               for index in range(machines)]
    # Detection is aggregated through the same telemetry merge as every
    # other fleet-wide statistic: tally the per-machine outcomes into a
    # registry dump and fold it in with the machines' own dumps.
    tally = MetricsRegistry()
    detected = tally.counter(
        "fleet.machines.detected",
        "fleet machines whose monitor caught the injected bug")
    total = tally.counter("fleet.machines.total",
                          "fleet machines that ran to completion")
    for report in reports:
        total.inc()
        if report.detected:
            detected.inc()
    metrics = merge_dumps(outcome.dumps + [dump_registry(tally)])
    return FleetResult(workload=workload, monitor=stack.monitor,
                       buggy=buggy, reports=reports, metrics=metrics,
                       workers=outcome.workers)
