"""Sharded experiment fleet: parallel validation and fleet scenarios.

Every SafeMem experiment is an independent simulated machine, so the
whole evaluation shards cleanly across worker processes (the same shape
that lets GWP-ASan spread sampled detection across a production fleet).
This module provides the scheduler:

- :func:`enumerate_validation_jobs` breaks ``repro validate`` into
  per-workload **jobs** (one Table 3 row, one Table 4 row, ... each a
  self-contained simulation with declared parameters);
- :func:`run_jobs` fans jobs out over ``jobs`` worker processes
  (default ``os.cpu_count()``), collects their JSON-able payloads and
  per-machine telemetry dumps, and merges the telemetry into one
  fleet-wide snapshot (:mod:`repro.obs.merge`);
- :class:`ResultCache` memoizes completed job payloads keyed by
  ``(job config, code digest)`` so a no-op re-run is near-instant;
- :func:`run_validation` reassembles the shards into the *same* context
  dict, claim verdicts, and rendered tables the serial path produces --
  bit-identical, because both paths call the same per-workload unit
  functions in :mod:`repro.analysis.experiments` and the simulation is
  deterministic per (workload, config, seed);
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
from dataclasses import asdict, dataclass, field, replace

from repro.analysis.experiments import (
    FIGURE3_WORKLOADS,
    SEASON_SAMPLE_EVERY,
    SEASON_WORKLOADS,
    TREND_SAMPLE_EVERY,
    TREND_WORKLOADS,
    CodecMatrixResult,
    CodecTradeoffRow,
    Figure3Result,
    Figure3Series,
    SeasonHeadToHeadResult,
    SeasonScenarioRow,
    Table2Result,
    Table3Result,
    Table3Row,
    Table4Result,
    Table4Row,
    Table5Result,
    Table5Row,
    TrendHeadToHeadResult,
    TrendScenarioRow,
    codec_tradeoff_row,
    experiment_table2,
    figure3_series,
    season_scenario_row,
    table3_row,
    table4_row,
    table5_row,
    trend_scenario_row,
)
from repro.analysis.runner import (
    add_boot_tap,
    add_run_tap,
    overhead_percent,
    remove_boot_tap,
    remove_run_tap,
    run_workload,
)
from repro.common.digest import package_digest
from repro.common.errors import (
    ConfigurationError,
    FleetError,
    MachinePanic,
)
from repro.core.sampling import SamplingPolicy
from repro.ecc.profile import profile_names
from repro.obs.merge import (
    dump_registry,
    merge_dumps,
    merge_history_documents,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.workloads.registry import (
    LEAK_WORKLOADS,
    WORKLOADS,
    all_workload_names,
)

CACHE_SCHEMA = "repro.fleet-cache/v1"


# ----------------------------------------------------------------------
# Job model: (kind, ident, params) tuples -- picklable, cacheable
# ----------------------------------------------------------------------
def _encode_table2(result):
    return {"rows": [list(row) for row in result.rows]}


def _decode_table2(payload):
    return Table2Result(rows=[
        (name, measured, reference)
        for name, measured, reference in payload["rows"]
    ])


def _decode_figure3_series(payload):
    series = Figure3Series(
        workload=payload["workload"],
        points=[tuple(point) for point in payload["points"]],
        total_groups=payload["total_groups"],
    )
    return series, payload["run_seconds"]


@dataclass(frozen=True)
class _JobKind:
    run: object      # params dict -> payload object
    encode: object   # payload object -> JSON-able dict
    decode: object   # JSON-able dict -> payload object


def _machine_stack_config(params):
    """The machine's :class:`MonitorStackConfig`, new or legacy params.

    New-style fleet params carry a ``stack`` dict (the per-machine
    config, sampling seed already derived); legacy dicts carry loose
    ``sample_every``/``rules`` keys and are normalized here so cached
    or hand-built job specs keep working.
    """
    stack = params.get("stack")
    if stack is not None:
        return MonitorStackConfig.from_dict(stack)
    return MonitorStackConfig(
        monitor=params["monitor"],
        sample_every=params.get("sample_every"),
        rules=params.get("rules", "default"),
    ).validate()


def _machine_detected(workload, buggy, monitor_name, result):
    """Did this machine's monitor catch the workload's injected bug?

    Mirrors :func:`repro.analysis.experiments.detection_succeeded`, but
    tolerates monitors without report lists (profiler, native) so a
    mixed fleet still tallies.
    """
    if not buggy or monitor_name == "native":
        return False
    bug = WORKLOADS[workload].bug
    if bug is None:
        return False
    monitor = result.monitor
    if bug in ("overflow", "uaf"):
        return bool(getattr(monitor, "corruption_reports", ()) or ()) \
            and result.truth.corruption is not None
    reported = {report.object_address for report in
                getattr(monitor, "leak_reports", ()) or ()}
    return bool(reported & result.truth.leaked_addresses)


def _run_fleet_machine(params):
    """One fleet machine: run the workload, summarize the outcome.

    The machine's monitoring stack is described by ``params["stack"]``
    (a :class:`~repro.obs.stack.MonitorStackConfig` dict).  With an
    allocation :class:`~repro.core.sampling.SamplingPolicy` the monitor
    runs in sampled production mode; with ``sample_every`` the machine
    also runs the sampling profiler + alert engine.  Either way the run
    tap's registry dump carries ``safemem.sampling.*`` /
    ``sampler.*`` / ``alerts.*`` metrics into the fleet merge
    (counters sum, giving fleet-wide totals).
    """
    config = _machine_stack_config(params)
    stack = None
    machine = monitor = None
    run_info = None
    if config.wants_checkpoints:
        # The checkpoint scheduler records the run description in each
        # checkpoint document.  Forensic dumps in fleet mode are armed
        # by run_jobs' boot tap, not by the stack, so strip the dump
        # config here -- otherwise run_info would arm a second
        # recorder.
        run_info = {"workload": params["workload"],
                    "monitor": params["monitor"],
                    "buggy": params["buggy"],
                    "requests": params["requests"],
                    "seed": params["seed"]}
        config = replace(config, dump_dir=None, dump_on_alert=False)
    if config.sampling is not None or config.wants_profiler \
            or config.stream is not None or config.wants_checkpoints \
            or params.get("forensics"):
        # Pre-boot the full stack so the monitoring components (and, in
        # forensic mode, the panic handler below) can see the machine.
        stack = build_monitor_stack(config,
                                    label=f"m{params['index']}",
                                    run_info=run_info)
        machine, monitor = stack.machine, stack.monitor
        stack.start()
    try:
        result = run_workload(
            params["workload"], params["monitor"], buggy=params["buggy"],
            requests=params["requests"], seed=params["seed"],
            machine=machine, monitor=monitor, profile=config.profile,
            request_hook=(stack.request_hook
                          if stack is not None else None),
        )
        history_doc = (stack.history.to_dict()
                       if stack is not None and stack.history is not None
                       else None)
        checkpoint_paths = ([str(path) for path in stack.checkpoint_paths]
                            if stack is not None else [])
    except MachinePanic as error:
        if machine is None:
            raise
        # Forensic mode: the attached recorder already dumped the
        # machine at the PANIC event; turn the crash into a report row
        # so the rest of the fleet still renders (with the dump linked).
        return MachineReport(
            index=params["index"],
            seed=params["seed"],
            cycles=machine.clock.cycles,
            requests_completed=0,
            requests=params["requests"] or 0,
            detection=f"panic: {error}",
            leak_reports=len(getattr(monitor, "leak_reports", ()) or ()),
            corruption_reports=len(
                getattr(monitor, "corruption_reports", ()) or ()),
            overhead_pct=None,
            alerts_fired=stack.alerts_fired,
            alerts_resolved=stack.alerts_resolved,
        )
    finally:
        if stack is not None:
            stack.stop()
            stack.close()
    truth = result.truth
    overhead = None
    if params["monitor"] != "native" and truth.detection is None:
        native = run_workload(
            params["workload"], "native", buggy=params["buggy"],
            requests=params["requests"], seed=params["seed"],
        )
        overhead = overhead_percent(result.cycles, native.cycles)
    monitor = result.monitor
    return MachineReport(
        index=params["index"],
        seed=params["seed"],
        cycles=result.cycles,
        requests_completed=truth.requests_completed,
        requests=result.requests,
        detection=(str(truth.detection.report)
                   if truth.detection is not None else None),
        leak_reports=len(getattr(monitor, "leak_reports", ()) or ()),
        corruption_reports=len(
            getattr(monitor, "corruption_reports", ()) or ()),
        overhead_pct=overhead,
        alerts_fired=stack.alerts_fired if stack is not None else 0,
        alerts_resolved=(stack.alerts_resolved
                         if stack is not None else 0),
        detected=_machine_detected(params["workload"], params["buggy"],
                                   params["monitor"], result),
        history=history_doc,
        checkpoints=checkpoint_paths,
    )


JOB_KINDS = {
    "table2": _JobKind(
        run=lambda params: experiment_table2(),
        encode=_encode_table2,
        decode=_decode_table2,
    ),
    "table3-row": _JobKind(
        run=lambda params: table3_row(
            params["name"], requests=params["requests"],
            detection_requests=params["detection_requests"]),
        encode=asdict,
        decode=lambda payload: Table3Row(**payload),
    ),
    "table4-row": _JobKind(
        run=lambda params: table4_row(
            params["name"], requests=params["requests"]),
        encode=asdict,
        decode=lambda payload: Table4Row(**payload),
    ),
    "table5-row": _JobKind(
        run=lambda params: table5_row(
            params["name"], requests=params["requests"]),
        encode=asdict,
        decode=lambda payload: Table5Row(**payload),
    ),
    "figure3-series": _JobKind(
        run=lambda params: figure3_series(
            params["name"], requests=params["requests"]),
        encode=lambda payload: {**asdict(payload[0]),
                                "run_seconds": payload[1]},
        decode=_decode_figure3_series,
    ),
    "fleet-machine": _JobKind(
        run=_run_fleet_machine,
        encode=asdict,
        decode=lambda payload: MachineReport(**payload),
    ),
    "codec-row": _JobKind(
        run=lambda params: codec_tradeoff_row(params["profile"]),
        encode=asdict,
        decode=lambda payload: CodecTradeoffRow(**payload),
    ),
    "sampling-point": _JobKind(
        run=lambda params: sampling_curve_point(
            params["rate"], workload=params["workload"],
            machines=params["machines"], requests=params["requests"],
            base_seed=params["seed"]),
        encode=asdict,
        decode=lambda payload: SamplingPoint(**payload),
    ),
    "trend-scenario": _JobKind(
        run=lambda params: trend_scenario_row(
            params["name"], params["buggy"],
            requests=params["requests"],
            sample_every=params["sample_every"]),
        encode=asdict,
        decode=lambda payload: TrendScenarioRow(**payload),
    ),
    "season-scenario": _JobKind(
        run=lambda params: season_scenario_row(
            params["name"], params["buggy"],
            requests=params["requests"],
            sample_every=params["sample_every"]),
        encode=asdict,
        decode=lambda payload: SeasonScenarioRow(**payload),
    ),
}


def enumerate_validation_jobs(requests=250):
    """The validation run as independent jobs, in canonical order."""
    specs = [("table2", "table2", {})]
    for name in all_workload_names():
        specs.append(("table3-row", f"table3:{name}",
                      {"name": name, "requests": requests,
                       "detection_requests": None}))
    for name in all_workload_names():
        specs.append(("table4-row", f"table4:{name}",
                      {"name": name, "requests": requests}))
    for name in LEAK_WORKLOADS:
        specs.append(("table5-row", f"table5:{name}",
                      {"name": name, "requests": None}))
    for name in FIGURE3_WORKLOADS:
        specs.append(("figure3-series", f"figure3:{name}",
                      {"name": name, "requests": None}))
    for name in profile_names():
        specs.append(("codec-row", f"codec:{name}",
                      {"profile": name}))
    for rate in SAMPLING_CURVE_RATES:
        specs.append(("sampling-point", f"sampling:{rate:g}",
                      {"rate": rate,
                       "workload": SAMPLING_CURVE_WORKLOAD,
                       "machines": SAMPLING_CURVE_MACHINES,
                       "requests": None, "seed": 0}))
    for name in TREND_WORKLOADS:
        for buggy in (True, False):
            label = "buggy" if buggy else "clean"
            specs.append(("trend-scenario", f"trend:{name}:{label}",
                          {"name": name, "buggy": buggy,
                           "requests": None,
                           "sample_every": TREND_SAMPLE_EVERY}))
    for name in SEASON_WORKLOADS:
        for buggy in (True, False):
            label = "buggy" if buggy else "clean"
            specs.append(("season-scenario", f"season:{name}:{label}",
                          {"name": name, "buggy": buggy,
                           "requests": None,
                           "sample_every": SEASON_SAMPLE_EVERY}))
    return specs


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
    run tap captures every machine the job boots (each ``run_workload``
    call builds a fresh machine, so absolute registry state is per-run
    state and the dumps never double count).

    With ``dump_dir`` set, a boot tap additionally attaches a
    :class:`~repro.obs.forensics.ForensicRecorder` to every machine the
    job boots: a kernel PANIC (and, with ``dump_on_alert``, any alert
    reaching ``firing``) auto-writes a ``repro.dump/v1`` bundle there,
    even when the job itself comes back as an error.
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

        def _attach_recorder(machine, monitor, run_info):
            info = dict(run_info)
            stacked = (params.get("stack")
                       if isinstance(params, dict) else None)
            if stacked and stacked.get("monitor") == info.get("monitor"):
                # Record the monitoring stack so replay recreates it:
                # the alert engine's ALERT events and the allocation
                # sampler's heap routing are both part of the stream a
                # bit-exact replay must reproduce.  (The guard skips
                # the machine's native overhead twin.)
                monitoring = MonitorStackConfig.from_dict(
                    stacked).monitoring()
                if monitoring:
                    info["monitoring"] = monitoring
            label = ident.replace(":", "-")
            recorders.append(ForensicRecorder(
                machine, monitor=monitor, run_info=info,
                dump_dir=dump_dir, label=f"{label}-{len(recorders)}",
                on_alert=dump_on_alert,
            ))

        boot_tap = add_boot_tap(_attach_recorder)
    try:
        payload = JOB_KINDS[kind].run(params)
        encoded = JOB_KINDS[kind].encode(payload)
        bundles = _collect_bundles(recorders)
        if kind == "fleet-machine" and bundles:
            # Link the dumps from the row's own report (asdict keeps
            # the field, so the codec round-trips it).
            encoded["bundles"] = bundles
        return ident, encoded, dumps, bundles, None
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
    #: forensic bundle paths written by machines in this run.
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
    :class:`FleetError` naming every failed shard -- matching the
    serial path, which would have propagated the first exception.
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
# Validation assembly: shards -> the serial context, verbatim
# ----------------------------------------------------------------------
def assemble_context(payloads):
    """Rebuild the ``claims.gather_context`` dict from job payloads.

    Row order is the canonical workload order the serial loops use, so
    rendered tables match the serial output byte for byte.
    """
    series = []
    run_seconds = {}
    for name in FIGURE3_WORKLOADS:
        one, seconds = payloads[f"figure3:{name}"]
        series.append(one)
        run_seconds[name] = seconds
    return {
        "table2": payloads["table2"],
        "table3": Table3Result(rows=[
            payloads[f"table3:{name}"] for name in all_workload_names()
        ]),
        "table4": Table4Result(rows=[
            payloads[f"table4:{name}"] for name in all_workload_names()
        ]),
        "table5": Table5Result(rows=[
            payloads[f"table5:{name}"] for name in LEAK_WORKLOADS
        ]),
        "figure3": Figure3Result(series=series, run_seconds=run_seconds),
        "codecs": CodecMatrixResult(rows=[
            payloads[f"codec:{name}"] for name in profile_names()
        ]),
        "sampling": SamplingCurveResult(
            workload=SAMPLING_CURVE_WORKLOAD,
            machines=SAMPLING_CURVE_MACHINES,
            points=[payloads[f"sampling:{rate:g}"]
                    for rate in SAMPLING_CURVE_RATES],
        ),
        "trend": TrendHeadToHeadResult(
            sample_every=TREND_SAMPLE_EVERY,
            rows=[payloads[f"trend:{name}:{label}"]
                  for name in TREND_WORKLOADS
                  for label in ("buggy", "clean")],
        ),
        "season": SeasonHeadToHeadResult(
            sample_every=SEASON_SAMPLE_EVERY,
            rows=[payloads[f"season:{name}:{label}"]
                  for name in SEASON_WORKLOADS
                  for label in ("buggy", "clean")],
        ),
    }


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
    """Sharded ``repro validate``: enumerate, fan out, merge, check.

    ``jobs=1`` runs every shard in-process (no pool) but still through
    the payload codec, so the only difference parallelism introduces is
    which process executed a shard.  ``stack`` (a
    :class:`~repro.obs.stack.MonitorStackConfig`) supplies the
    forensic settings: with a dump dir, any shard machine that panics
    leaves a ``repro.dump/v1`` bundle there.  (The claim experiments
    pin their own monitor configs, so the stack's monitor/sampling
    fields do not alter the validated runs.)
    """
    from repro.analysis.claims import validate
    if stack is None:
        stack = MonitorStackConfig()
    stack.validate()
    cache = None
    if use_cache:
        cache = ResultCache(cache_dir if cache_dir is not None
                            else default_cache_dir())
    specs = enumerate_validation_jobs(requests=requests)
    outcome = run_jobs(specs, jobs=jobs, cache=cache,
                       dump_dir=stack.resolved_dump_dir(),
                       dump_on_alert=stack.dump_on_alert)
    context = assemble_context(outcome.payloads)
    return ValidationRun(results=validate(context=context),
                         context=context, outcome=outcome)


RESULT_FILES = ("table2", "table3", "table4", "table5", "figure3",
                "codecs", "trend", "season")


def write_result_artifacts(context, results_dir):
    """Render every experiment into ``results/`` (benchmark layout).

    Same file names and format as the benchmark suite's ``publish``
    helper, so serial benchmarks, serial validate, and sharded validate
    all converge on one artifact layout.
    """
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
    forensics = stack.wants_forensics
    specs = [
        ("fleet-machine", f"fleet:{workload}:{index}",
         {"workload": workload, "monitor": stack.monitor, "buggy": buggy,
          "requests": requests, "seed": machine_seed(base_seed, index),
          "index": index, "stack": stack.for_machine(index).to_dict(),
          "forensics": forensics})
        for index in range(machines)
    ]
    outcome = run_jobs(specs, jobs=jobs, cache=None,
                       dump_dir=stack.resolved_dump_dir(),
                       dump_on_alert=stack.dump_on_alert)
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


# ----------------------------------------------------------------------
# Sampling curve: detection probability vs overhead across a fleet
# ----------------------------------------------------------------------
#: the curve's workload: an SLeak bug, because per-object lifetime
#: outlier detection still works on the sampled subset of allocations.
#: (ALeak detection thresholds on a group's *live count*, so at low
#: sampling rates a growing group never looks big enough -- fleet
#: sampling trades that detector away, which Figure 4's caption notes.)
SAMPLING_CURVE_WORKLOAD = "ypserv2"
#: ascending sampling rates: off, sparse, moderate, heavy, always-on.
SAMPLING_CURVE_RATES = (0.0, 0.02, 0.1, 0.5, 1.0)
SAMPLING_CURVE_MACHINES = 8


@dataclass
class SamplingPoint:
    """One (rate, fleet) measurement on the Figure 4 curve."""

    rate: float
    machines: int
    detected: int
    detection_probability: float
    #: mean per-machine overhead vs the native twin (None if no
    #: machine produced an overhead -- e.g. every machine panicked).
    mean_overhead_pct: object
    #: fleet totals of the allocation sampler's admission counters
    #: (0 at rate 1.0, which short-circuits to classic always-on).
    sampled_allocs: int
    skipped_allocs: int


@dataclass
class SamplingCurveResult:
    """Figure 4: detection probability vs overhead, fleet-sampled."""

    workload: str
    machines: int
    points: list

    def point(self, rate):
        for point in self.points:
            if point.rate == rate:
                return point
        raise KeyError(f"no sampling point at rate {rate!r}")

    def render(self):
        from repro.analysis.tables import fmt_percent, render_table
        rows = []
        for point in self.points:
            always_on = point.rate >= 1.0
            rows.append((
                f"{point.rate:g}",
                f"{point.detected}/{point.machines}",
                f"{point.detection_probability:.2f}",
                (fmt_percent(point.mean_overhead_pct)
                 if point.mean_overhead_pct is not None else "-"),
                "-" if always_on else point.sampled_allocs,
                "-" if always_on else point.skipped_allocs,
            ))
        return render_table(
            f"Figure 4. Detection probability vs overhead: "
            f"{self.machines}-machine fleet of {self.workload} under "
            f"sampled SafeMem",
            ["rate", "detected", "probability", "mean overhead",
             "sampled", "skipped"],
            rows,
            note=("rate 1.0 short-circuits to classic always-on "
                  "monitoring (no sampler on the hot path); each "
                  "machine samples under its own derived seed"),
        )


def sampling_curve_point(rate, workload=SAMPLING_CURVE_WORKLOAD,
                         machines=SAMPLING_CURVE_MACHINES,
                         requests=None, base_seed=0):
    """Measure one sampling rate across a buggy fleet.

    Runs in-process (``jobs=1``): a curve point is itself a shardable
    validation job, and pool workers must not spawn children.
    """
    stack = MonitorStackConfig(monitor="safemem",
                               sampling=SamplingPolicy(rate=rate))
    fleet = run_fleet(workload, machines=machines, requests=requests,
                      buggy=True, jobs=1, base_seed=base_seed,
                      stack=stack)
    overheads = [report.overhead_pct for report in fleet.reports
                 if report.overhead_pct is not None]
    return SamplingPoint(
        rate=rate,
        machines=machines,
        detected=fleet.machines_detected,
        detection_probability=fleet.detection_probability,
        mean_overhead_pct=(sum(overheads) / len(overheads)
                           if overheads else None),
        sampled_allocs=fleet.metrics.get("safemem.sampling.sampled", 0),
        skipped_allocs=fleet.metrics.get("safemem.sampling.skipped", 0),
    )


def experiment_sampling_curve(requests=None, rates=SAMPLING_CURVE_RATES,
                              workload=SAMPLING_CURVE_WORKLOAD,
                              machines=SAMPLING_CURVE_MACHINES,
                              base_seed=0):
    """The full Figure 4 sweep (serial path; validation shards it)."""
    return SamplingCurveResult(
        workload=workload,
        machines=machines,
        points=[sampling_curve_point(rate, workload=workload,
                                     machines=machines,
                                     requests=requests,
                                     base_seed=base_seed)
                for rate in rates],
    )
