"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``table2`` / ``table3`` / ``table4`` / ``table5`` / ``figure3``
  regenerate one experiment and print the paper-style table;
- ``report``  runs everything and prints a combined report;
- ``validate`` re-verifies every reproduction claim (PASS/FAIL
  matrix); ``--jobs N`` shards the experiments over worker processes,
  a content-keyed result cache makes no-op re-runs near-instant
  (``--no-cache`` forces recomputation) -- see ``docs/VALIDATION.md``;
- ``fleet``   runs M concurrent simulated machines of one workload and
  aggregates their telemetry across the fleet (``--sample-every`` adds
  the sampling profiler + alert engine to every machine);
- ``monitor`` runs one workload under live production monitoring: a
  cycle-driven sampling profiler, declarative alert rules, a periodic
  top-style panel, and an optional rotating ``repro.events/v1`` JSONL
  stream (``--stream``);
- ``replay``  re-runs a forensic bundle's recorded workload
  deterministically to an optional breakpoint and differentially
  verifies the event stream against the recording;
- ``resume``  resumes a ``repro.checkpoint/v1`` run: restores its state
  image and verifies that it re-captures bit-exactly (or, without one,
  re-executes the recorded run from its seed and verifies every
  section bit-exactly at the recorded request boundary), and
  continues to the requested horizon (``--checkpoint-every`` writes
  the checkpoints);
- ``history`` renders -- and, given several files, merges -- tiered
  ``repro.history/v1`` metric history (``--history`` records it);
- ``inspect`` summarizes a ``repro.dump/v1`` bundle, a
  ``repro.metrics/v1`` snapshot, a ``repro.events/v1`` stream, a
  ``repro.checkpoint/v1`` document (deriving an image checkpoint's
  sections by restoring its image), or a ``repro.history/v1``
  document;
- ``diff``    compares two bundles / metrics snapshots (counter
  deltas, histogram shift, alerts appearing/disappearing);
- ``run``     runs one workload under one monitor and prints a summary;
- ``stats``   runs one workload and prints its metrics snapshot;
- ``list``    shows the available workloads, monitors, and chipset
  profiles.

``run``, ``monitor`` and ``fleet`` all mount the same
monitoring-stack argument group (one argparse parent, one
:class:`~repro.obs.stack.MonitorStackConfig` built by
``MonitorStackConfig.from_args``): ``--sample-rate``/``--sample-seed``/
``--guard-budget`` put the monitor in sampled production mode,
``--sample-every``/``--rules`` run the sampling profiler + alert
engine, ``--trend``/``--trend-window`` add streaming leak-trend
analytics (slope/changepoint detectors feeding ``trend``-kind alert
rules), ``--stream`` ships ``repro.events/v1`` records, and
``--dump-dir``/``--dump-on-alert`` arm forensic ``repro.dump/v1``
recording -- identically spelled everywhere (see
``docs/ARCHITECTURE.md``).  ``validate`` mounts only that forensic
pair, the one part of the stack its shard machines read.  ``run``,
``stats``, ``validate``, and ``fleet`` accept ``--emit-metrics PATH``
to write the run's (merged) registry snapshot as a
``repro.metrics/v1`` JSON document.
"""

import argparse
import pathlib
import sys

from repro.analysis.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.analysis.report import generate_report
from repro.analysis.runner import (
    MONITOR_FACTORIES,
    overhead_percent,
    run_workload,
    slowdown_factor,
)
from repro.common.errors import ReproError
from repro.obs.export import (
    render_metrics_table,
    render_span_tree,
    write_metrics_json,
)
from repro.obs.stack import (
    DEFAULT_SAMPLE_EVERY,
    MonitorStackConfig,
    add_forensic_arguments,
    add_monitoring_arguments,
    build_monitor_stack,
)
from repro.workloads.registry import WORKLOADS


def at_least(low):
    """An argparse ``type``: an integer of at least ``low``; a smaller
    one is a usage error (exit 2), not a silent default."""
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    return count


#: the type of every count flag: ``--requests``, ``--buckets``,
#: ``--limit``, ``--top``.
COUNT = at_least(1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SafeMem (HPCA 2005) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One monitoring flag set, shared verbatim by every command that
    # runs workloads under a stack; each command turns it into a
    # MonitorStackConfig (validate mounts only its forensic pair).
    monitoring = add_monitoring_arguments()

    for experiment in PAPER_EXPERIMENTS:
        table_parser = sub.add_parser(
            experiment.name,
            help=f"regenerate the paper's {experiment.name}",
        )
        if experiment.scales:
            table_parser.add_argument(
                "--requests", type=COUNT, default=250,
                help="requests per overhead run (default 250)",
            )

    report_parser = sub.add_parser(
        "report", help="run every experiment, print a combined report"
    )
    report_parser.add_argument("--requests", type=COUNT, default=250)

    validate_parser = sub.add_parser(
        "validate",
        help="re-verify every reproduction claim (PASS/FAIL matrix)",
        parents=[add_forensic_arguments()],
    )
    validate_parser.add_argument("--requests", type=COUNT, default=250)
    validate_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes to shard the experiments over "
             "(default: one per CPU)",
    )
    validate_parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every experiment, ignoring the result cache",
    )
    validate_parser.add_argument(
        "--cache-dir", default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or "
             "./.repro-cache)",
    )
    validate_parser.add_argument(
        "--write-results", action="store_true",
        help="also render every experiment into --results-dir, one "
             "<experiment>.txt each (the committed results/)",
    )
    validate_parser.add_argument("--results-dir", default="results")
    validate_parser.add_argument(
        "--write-experiments-md", action="store_true",
        help="rewrite the claim matrix block in EXPERIMENTS.md in "
             "place",
    )
    validate_parser.add_argument(
        "--experiments-md", default=None,
        help="path to EXPERIMENTS.md (default: the repo checkout's)",
    )
    validate_parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write the merged fleet telemetry as repro.metrics/v1 "
             "JSON (covers freshly-run experiments only)",
    )

    fleet_parser = sub.add_parser(
        "fleet",
        help="run M concurrent simulated machines of one workload and "
             "aggregate their telemetry",
        parents=[monitoring],
    )
    fleet_parser.add_argument("workload", choices=sorted(WORKLOADS))
    fleet_parser.add_argument(
        "--machines", type=int, default=4,
        help="simulated machines to run (default 4)",
    )
    fleet_parser.add_argument(
        "--monitor", default="safemem",
        choices=sorted(MONITOR_FACTORIES),
    )
    fleet_parser.add_argument("--buggy", action="store_true",
                              help="use the bug-triggering input")
    fleet_parser.add_argument("--requests", type=COUNT, default=None)
    fleet_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; machine i runs the workload with seed base+i "
             "(sampling seeds are derived separately per machine)",
    )
    fleet_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: one per CPU)",
    )
    fleet_parser.add_argument(
        "--rate-curve", metavar="R,R,...", default=None,
        help="sweep these allocation sampling rates over the fleet "
             "and print the detection-probability-vs-overhead curve "
             "(runs sampled SafeMem on the buggy input; Figure 4)",
    )
    fleet_parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write the merged fleet telemetry as repro.metrics/v1 "
             "JSON",
    )
    fleet_parser.add_argument(
        "--emit-history", metavar="PATH", default=None,
        help="write the fleet-merged tiered history as "
             "repro.history/v1 JSON (requires --history)",
    )

    monitor_parser = sub.add_parser(
        "monitor",
        help="run one workload under live production monitoring "
             "(sampling profiler + alerts + streaming)",
        # Same flag set, but the monitor command's whole point is the
        # profiler: its --sample-every defaults on instead of off.
        parents=[add_monitoring_arguments(
            sample_every_default=DEFAULT_SAMPLE_EVERY)],
    )
    monitor_parser.add_argument("workload", choices=sorted(WORKLOADS))
    monitor_parser.add_argument(
        "--monitor", default="safemem",
        choices=sorted(MONITOR_FACTORIES),
    )
    monitor_parser.add_argument("--buggy", action="store_true",
                                help="use the bug-triggering input")
    monitor_parser.add_argument("--requests", type=COUNT, default=None)
    monitor_parser.add_argument("--seed", type=int, default=0)
    monitor_parser.add_argument(
        "--report-every", type=at_least(0), default=0, metavar="N",
        help="print a live top-style panel every N samples "
             "(default: final panel only)",
    )
    monitor_parser.add_argument(
        "--top", type=COUNT, default=5,
        help="allocation groups shown per panel (default 5)",
    )
    monitor_parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write the run's metrics as repro.metrics/v1 JSON",
    )
    monitor_parser.add_argument(
        "--emit-history", metavar="PATH", default=None,
        help="write the run's tiered history as repro.history/v1 "
             "JSON (requires --history)",
    )

    replay_parser = sub.add_parser(
        "replay",
        help="re-run a forensic bundle's recorded workload "
             "deterministically, to an optional breakpoint",
    )
    replay_parser.add_argument(
        "bundle", help="repro.dump/v1 bundle path")
    replay_parser.add_argument(
        "--until-cycle", type=int, default=None, metavar="N",
        help="break once the simulated clock reaches cycle N",
    )
    replay_parser.add_argument(
        "--break-on", default=None, metavar="EVENT|ADDR",
        help="break at the first matching event kind (e.g. "
             "leak_report) or address (e.g. 0x401000)",
    )
    replay_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the differential check against the recorded event "
             "stream",
    )

    resume_parser = sub.add_parser(
        "resume",
        help="resume a checkpointed run: restore its state image (or "
             "re-execute from the seed), verify bit-exactness at the "
             "recorded boundary, continue",
    )
    resume_parser.add_argument(
        "checkpoint", help="repro.checkpoint/v1 document path")
    resume_parser.add_argument(
        "--requests", type=COUNT, default=None, metavar="N",
        help="run to N total requests (default: the recorded horizon)",
    )
    resume_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the bit-exact state comparison at the recorded "
             "request boundary",
    )

    history_parser = sub.add_parser(
        "history",
        help="render tiered metric history; several files merge "
             "fleet-style before rendering",
    )
    history_parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="repro.history/v1 files (more than one merges them)")
    history_parser.add_argument(
        "--series", default=None, metavar="NAME",
        help="show one series only (e.g. heap.live_bytes)")
    history_parser.add_argument(
        "--buckets", type=COUNT, default=8, metavar="N",
        help="newest buckets shown per tier (default 8)")
    history_parser.add_argument(
        "--emit", metavar="PATH", default=None,
        help="also write the (merged) document as repro.history/v1 "
             "JSON")

    inspect_parser = sub.add_parser(
        "inspect",
        help="summarize a forensic bundle, metrics snapshot, or "
             "events stream",
    )
    inspect_parser.add_argument(
        "path", help="a repro.dump/v1, repro.metrics/v1, "
                     "repro.events/v1, repro.checkpoint/v1, or "
                     "repro.history/v1 file")
    inspect_parser.add_argument(
        "--events", action="store_true",
        help="list the bundle's recorded event tail")
    inspect_parser.add_argument(
        "--kind", default=None, metavar="EVENT",
        help="filter the event tail by kind (implies --events)")
    inspect_parser.add_argument(
        "--since", type=int, default=None, metavar="CYCLE",
        help="filter the event tail to cycles >= CYCLE "
             "(implies --events)")
    inspect_parser.add_argument(
        "--spans", action="store_true",
        help="print the recorded span flight recorder")
    inspect_parser.add_argument(
        "--groups", action="store_true",
        help="print the leak-group lifetime table")
    inspect_parser.add_argument(
        "--heap", action="store_true",
        help="print the live heap map")
    inspect_parser.add_argument(
        "--trends", action="store_true",
        help="print the trend-analytics verdicts (per series and "
             "detector) recorded at capture")
    inspect_parser.add_argument(
        "--metrics", action="store_true",
        help="print the embedded metrics snapshot")
    inspect_parser.add_argument(
        "--prefix", default=None,
        help="metrics namespace filter for --metrics")
    inspect_parser.add_argument(
        "--limit", type=COUNT, default=20,
        help="rows shown per view (default 20)")

    diff_parser = sub.add_parser(
        "diff",
        help="compare two forensic bundles / metrics snapshots",
    )
    diff_parser.add_argument("a", metavar="A")
    diff_parser.add_argument("b", metavar="B")
    diff_parser.add_argument(
        "--limit", type=COUNT, default=20,
        help="rows shown per section (default 20)")

    run_parser = sub.add_parser(
        "run", help="run one workload under one monitor",
        parents=[monitoring],
    )
    run_parser.add_argument("workload", choices=sorted(WORKLOADS))
    run_parser.add_argument(
        "--monitor", default="safemem",
        choices=sorted(MONITOR_FACTORIES),
    )
    run_parser.add_argument("--buggy", action="store_true",
                            help="use the bug-triggering input")
    run_parser.add_argument("--requests", type=COUNT, default=None)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--groups", action="store_true",
        help="print SafeMem diagnostics (object groups, watches)",
    )
    run_parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write the run's metrics as repro.metrics/v1 JSON",
    )
    run_parser.add_argument(
        "--emit-history", metavar="PATH", default=None,
        help="write the run's tiered history as repro.history/v1 "
             "JSON (requires --history)",
    )

    stats_parser = sub.add_parser(
        "stats",
        help="run one workload and print its metrics snapshot",
    )
    stats_parser.add_argument("workload", choices=sorted(WORKLOADS))
    stats_parser.add_argument(
        "--monitor", default="safemem",
        choices=sorted(MONITOR_FACTORIES),
    )
    stats_parser.add_argument("--buggy", action="store_true",
                              help="use the bug-triggering input")
    stats_parser.add_argument("--requests", type=COUNT, default=None)
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument(
        "--prefix", default=None,
        help="only metrics in one namespace (e.g. mmu. or safemem.)",
    )
    stats_parser.add_argument(
        "--spans", action="store_true",
        help="also print the span flight recorder",
    )
    stats_parser.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="write the run's metrics as repro.metrics/v1 JSON",
    )

    sub.add_parser("list", help="list workloads and monitors")
    return parser


def _emit_metrics(path, result, out):
    """Write one run's delta snapshot through the exporter schema."""
    document = write_metrics_json(
        path,
        result.metrics,
        spans=result.machine.tracer.flight_record(),
        meta={
            "workload": result.workload,
            "monitor": result.monitor_name,
            "buggy": result.buggy,
            "requests": result.requests,
        },
    )
    out.write(f"metrics:   {path} "
              f"({len(document['metrics'])} metrics, "
              f"{len(document.get('spans', []))} spans)\n")


def _write_history(path, document, out):
    """Write one ``repro.history/v1`` document as indented JSON."""
    from repro.obs.snapshot import write_document
    path = write_document(document, path)
    out.write(f"history:   {path} "
              f"({len(document['series'])} series, "
              f"{document['observations']:,} observations)\n")


def _check_emit_history(args, config):
    """``--emit-history`` is meaningless without ``--history``."""
    if getattr(args, "emit_history", None) and not config.history:
        from repro.common.errors import ConfigurationError
        raise ConfigurationError(
            "--emit-history requires --history (nothing was recorded)")


def _write_stack_outputs(stack, args, out):
    """Post-run checkpoint/history output lines shared by run/monitor."""
    for path in stack.checkpoint_paths:
        out.write(f"checkpoint: {path}\n")
    if stack.scheduler is not None and stack.scheduler.checkpoints_skipped:
        out.write(f"checkpoint: {stack.scheduler.checkpoints_skipped} "
                  f"capture(s) skipped past the "
                  f"{stack.scheduler.max_checkpoints}-checkpoint cap\n")
    if getattr(args, "emit_history", None) and stack.history is not None:
        _write_history(args.emit_history, stack.history.to_dict(), out)


def _write_sampling(config, result, out):
    """The allocation tally of a run in sampled production mode."""
    if config.sampling is not None and not config.sampling.always_on:
        metrics = result.metrics
        out.write(f"sampling:  "
                  f"{metrics.get('safemem.sampling.sampled', 0)} sampled / "
                  f"{metrics.get('safemem.sampling.skipped', 0)} skipped "
                  f"allocations\n")


def _stack_run_info(args, config):
    """The run a command's stack runs; its bundles and checkpoints
    record it, so replay and resume can run it again."""
    return {
        "workload": args.workload,
        "monitor": config.monitor,
        "buggy": args.buggy,
        "requests": args.requests,
        "seed": args.seed,
    }


def command_run(args, out):
    config = MonitorStackConfig.from_args(args)
    _check_emit_history(args, config)
    # No label: a single-machine run streams to the exact path the user
    # gave; only fleet machines suffix their stream files.
    stack = build_monitor_stack(
        config, run_info=_stack_run_info(args, config))
    try:
        result = stack.run()
    finally:
        stack.close()
    if stack.panic is not None:
        out.write(f"PANIC: {stack.panic}\n")
        for path in stack.bundle_paths:
            out.write(f"dump:      {path}\n")
        return 1
    out.write(f"workload:  {args.workload} "
              f"({'buggy' if args.buggy else 'normal'} input)\n")
    out.write(f"monitor:   {args.monitor}\n")
    out.write(f"requests:  {result.truth.requests_completed}"
              f"/{result.requests}\n")
    out.write(f"CPU:       {result.cycles:,} cycles "
              f"({result.cpu_seconds:.4f} s simulated)\n")

    stopped_early = result.truth.detection is not None
    if args.monitor != "native" and not stopped_early:
        native = stack.native_twin()
        out.write(
            f"overhead:  +{overhead_percent(result.cycles, native.cycles):.2f}% "
            f"({slowdown_factor(result.cycles, native.cycles):.2f}x)\n"
        )
    _write_sampling(config, result, out)

    truth = result.truth
    if truth.leaked_addresses:
        out.write(f"ground truth: {len(truth.leaked_addresses)} objects "
                  "leaked\n")
    if truth.corruption:
        kind, address = truth.corruption
        out.write(f"ground truth: {kind} at {address:#x}\n")

    monitor = result.monitor
    if hasattr(monitor, "leak_reports") and monitor.leak_reports:
        out.write(f"leak reports: {len(monitor.leak_reports)}\n")
        for report in monitor.leak_reports[:5]:
            out.write(f"  {report}\n")
    if hasattr(monitor, "corruption_reports") and \
            monitor.corruption_reports:
        out.write(f"corruption reports: "
                  f"{len(monitor.corruption_reports)}\n")
        for report in monitor.corruption_reports[:5]:
            out.write(f"  {report}\n")
    if truth.detection is not None:
        out.write(f"stopped at detection: {truth.detection.report}\n")

    if getattr(args, "groups", False) and hasattr(monitor, "watcher"):
        from repro.core.diagnostics import render_safemem_diagnostics
        out.write("\n" + render_safemem_diagnostics(monitor) + "\n")
    if args.emit_metrics:
        _emit_metrics(args.emit_metrics, result, out)
    _write_stack_outputs(stack, args, out)
    return 0


def command_stats(args, out):
    result = run_workload(args.workload, args.monitor,
                          buggy=args.buggy, requests=args.requests,
                          seed=args.seed)
    title = (f"{args.workload}/{args.monitor} "
             f"({'buggy' if args.buggy else 'normal'} input)")
    out.write(render_metrics_table(result.metrics, title=title,
                                   prefix=args.prefix) + "\n")
    if args.spans:
        spans = result.machine.tracer.flight_record()
        out.write(f"\nrecent spans ({len(spans)}):\n")
        out.write(render_span_tree(spans) + "\n")
    if args.emit_metrics:
        _emit_metrics(args.emit_metrics, result, out)
    return 0


def default_experiments_md():
    """EXPERIMENTS.md of the repo this package was imported from."""
    import repro
    return pathlib.Path(repro.__file__).resolve().parents[2] / \
        "EXPERIMENTS.md"


def command_validate(args, out):
    from repro.analysis import fleet
    from repro.analysis.claims import (
        render_validation,
        write_experiments_block,
    )
    from repro.common.errors import FleetError
    try:
        run = fleet.run_validation(
            requests=args.requests,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            stack=MonitorStackConfig.from_args(args),
        )
    except FleetError as error:
        out.write(f"fleet error: {error}\n")
        for path in getattr(error, "bundles", []):
            out.write(f"dump:      {path}\n")
        return 1
    out.write(render_validation(run.results) + "\n")
    if not args.no_cache:
        outcome = run.outcome
        out.write(f"cache: {outcome.cache_hits} hit(s), "
                  f"{outcome.cache_misses} miss(es)\n")
    if args.write_results:
        for path in fleet.write_result_artifacts(run.context,
                                                 args.results_dir):
            out.write(f"wrote {path}\n")
    if args.write_experiments_md:
        path = write_experiments_block(
            run.results, args.experiments_md or default_experiments_md()
        )
        out.write(f"rewrote claim matrix in {path}\n")
    if args.emit_metrics and run.outcome.metrics is not None:
        document = write_metrics_json(
            args.emit_metrics, run.outcome.metrics,
            meta={"command": "validate", "requests": args.requests},
        )
        out.write(f"metrics:   {args.emit_metrics} "
                  f"({len(document['metrics'])} metrics)\n")
    if not run.passed:
        out.write("FAILED: " + ", ".join(run.failed_idents()) + "\n")
        return 1
    return 0


def command_fleet(args, out):
    from repro.analysis import experiments, fleet
    from repro.common.errors import FleetError
    if args.rate_curve:
        rates = [float(rate) for rate in args.rate_curve.split(",")
                 if rate.strip()]
        curve = experiments.SamplingCurveResult(
            workload=args.workload,
            machines=args.machines,
            points=[experiments.sampling_curve_point(
                rate, workload=args.workload, machines=args.machines,
                requests=args.requests, base_seed=args.seed)
                for rate in rates],
        )
        out.write(curve.render() + "\n")
        return 0
    config = MonitorStackConfig.from_args(args)
    _check_emit_history(args, config)
    try:
        result = fleet.run_fleet(
            args.workload,
            machines=args.machines,
            requests=args.requests,
            buggy=args.buggy,
            jobs=args.jobs,
            base_seed=args.seed,
            stack=config,
        )
    except FleetError as error:
        out.write(f"fleet error: {error}\n")
        return 1
    out.write(result.render() + "\n")
    if args.emit_metrics and result.metrics is not None:
        document = write_metrics_json(
            args.emit_metrics, result.metrics,
            meta={"command": "fleet", "workload": args.workload,
                  "machines": args.machines, "monitor": args.monitor,
                  "buggy": args.buggy},
        )
        out.write(f"metrics:   {args.emit_metrics} "
                  f"({len(document['metrics'])} metrics)\n")
    if args.emit_history and result.history is not None:
        _write_history(args.emit_history, result.history, out)
    return 0


def command_monitor(args, out):
    from repro.obs.sampler import render_top

    config = MonitorStackConfig.from_args(args)
    _check_emit_history(args, config)
    # No label: stream to the exact --stream path (fleet machines are
    # the only per-machine-suffixed writers).
    stack = build_monitor_stack(
        config, run_info=_stack_run_info(args, config))
    machine = stack.machine
    sampler, engine = stack.sampler, stack.engine
    if args.report_every:
        def live_panel(sample):
            if sample.index % args.report_every == 0:
                out.write(render_top(sample, alerts=engine.firing(),
                                     top=args.top) + "\n\n")
        sampler.add_listener(live_panel)
    try:
        if stack.stream is not None:
            stack.stream.mark(
                machine.clock.cycles, marker="start",
                workload=args.workload, monitor=config.monitor,
                buggy=args.buggy, seed=args.seed,
                sample_every=config.sample_every, rules=config.rules)
        result = stack.run()
        if stack.panic is not None:
            if stack.stream is not None:
                stack.stream.mark(machine.clock.cycles, marker="panic",
                                  reason=str(stack.panic))
            out.write(f"PANIC: {stack.panic}\n")
            for path in stack.bundle_paths:
                out.write(f"dump:      {path}\n")
            return 1
        final = sampler.sample_now()
        out.write(render_top(final, alerts=engine.firing(),
                             top=args.top,
                             title=f"final: {args.workload}/"
                                   f"{config.monitor}")
                  + "\n")
        out.write(f"requests:  {result.truth.requests_completed}"
                  f"/{result.requests}\n")
        out.write(f"samples:   {sampler.samples_taken}\n")
        _write_sampling(config, result, out)
        summary = stack.alert_summary()
        if summary:
            out.write("alerts:\n")
            for name, (fired, resolved, state) in summary.items():
                out.write(f"  {name:<26} fired {fired}  "
                          f"resolved {resolved}  state {state}\n")
        if stack.trend is not None:
            trend = stack.trend
            breaching = [v for v in trend.verdicts() if v.breached]
            out.write(f"trend:     {config.trend} over "
                      f"{len(trend.summary()['series'])} series "
                      f"(window {trend.window}), "
                      f"{trend.breach_onsets} breach onset(s), "
                      f"{len(breaching)} verdict(s) still breaching\n")
            for verdict in breaching[:args.top]:
                out.write(f"  {verdict.detector:<12} {verdict.series:<28}"
                          f" {verdict.value:,.1f}\n")
        if result.truth.detection is not None:
            out.write(f"stopped at detection: "
                      f"{result.truth.detection.report}\n")
        if stack.stream is not None:
            stack.stream.mark(machine.clock.cycles, marker="finish",
                              samples=sampler.samples_taken,
                              alerts_fired=stack.alerts_fired)
            stack.stream.close()
            sink = stack.sink
            out.write(f"stream:    {sink.records_written} records, "
                      f"{sink.rotations} rotation(s) -> "
                      + ", ".join(str(path) for path in sink.paths())
                      + "\n")
        if stack.bundle_paths:
            for path in stack.bundle_paths:
                out.write(f"dump:      {path}\n")
        if args.emit_metrics:
            _emit_metrics(args.emit_metrics, result, out)
        _write_stack_outputs(stack, args, out)
        return 0
    finally:
        # Exception-safe teardown: the stream always detaches and the
        # sink always flushes (close is idempotent), so a mid-run crash
        # still leaves a parseable repro.events/v1 file on disk.
        stack.close()


def command_replay(args, out):
    from repro.obs import forensics
    bundle = forensics.load_bundle(args.bundle)
    result = forensics.replay_bundle(bundle,
                                     until_cycle=args.until_cycle,
                                     break_on=args.break_on)
    run = bundle["run"]
    out.write(f"replayed:  {run['workload']}/{run['monitor']} seed "
              f"{run.get('seed', 0)} (bundle captured at cycle "
              f"{bundle['cycle']:,})\n")
    if result.broke:
        out.write(f"break:     cycle {result.break_cycle:,} "
                  f"({len(result.events)} events so far)\n")
        state = forensics.capture_bundle(
            result.machine, monitor=result.monitor, run_info=run,
            reason="replay-break")
        out.write(forensics.render_bundle_summary(state) + "\n")
        out.write(forensics.render_bundle_groups(state) + "\n")
    else:
        out.write(f"finished:  cycle {result.break_cycle:,} "
                  f"({len(result.events)} events)\n")
        if result.panic is not None:
            out.write(f"re-panicked: {result.panic}\n")
        elif result.truth is not None:
            out.write(f"requests:  "
                      f"{result.truth.requests_completed} completed\n")
    if args.no_verify:
        return 0
    ok, message = forensics.verify_replay(bundle, result)
    out.write(f"verify:    {'OK' if ok else 'DIVERGED'} -- {message}\n")
    return 0 if ok else 1


def command_resume(args, out):
    from repro.obs import checkpoint as ckpt
    document = ckpt.load_checkpoint(args.checkpoint)
    out.write(ckpt.render_checkpoint_summary(document) + "\n")
    result = ckpt.resume_checkpoint(document,
                                    requests=args.requests,
                                    verify=not args.no_verify)
    out.write("resumed:   " + ("restored from the state image"
                               if result.restored
                               else "replayed from the seed") + "\n")
    out.write(f"resumed:   to cycle {result.machine.clock.cycles:,} "
              f"(checkpoint was at cycle "
              f"{result.checkpoint_cycle:,})\n")
    if result.panic is not None:
        out.write(f"re-panicked: {result.panic}\n")
    elif result.truth is not None:
        out.write(f"requests:  "
                  f"{result.truth.requests_completed} completed\n")
        if result.truth.detection is not None:
            out.write(f"stopped at detection: "
                      f"{result.truth.detection.report}\n")
    if args.no_verify:
        out.write("verify:    skipped (--no-verify)\n")
        return 0
    ok = bool(result.verified)
    out.write(f"verify:    {'OK' if ok else 'DIVERGED'} -- "
              f"{result.verify_message}\n")
    return 0 if ok else 1


def command_history(args, out):
    from repro.obs import forensics
    from repro.obs.history import merge_history_documents, render_history
    documents = []
    for path in args.paths:
        kind, payload = forensics.load_document(path)
        if kind != "history":
            from repro.common.errors import ConfigurationError
            raise ConfigurationError(
                f"{path} is a {kind} document; `repro history` reads "
                f"repro.history/v1 files")
        documents.append(payload)
    document = (documents[0] if len(documents) == 1
                else merge_history_documents(documents))
    if len(documents) > 1:
        out.write(f"merged {len(documents)} documents\n")
    out.write(render_history(document, series=args.series,
                             buckets=args.buckets) + "\n")
    if args.emit:
        _write_history(args.emit, document, out)
    return 0


def command_inspect(args, out):
    from repro.obs import forensics
    from repro.obs.export import snapshot_from_document
    kind, payload = forensics.load_document(args.path)
    if kind == "stream":
        out.write(forensics.render_stream_summary(payload) + "\n")
        return 0
    if kind == "checkpoint":
        from repro.obs.checkpoint import (
            render_checkpoint_summary,
            with_sections,
        )
        out.write(render_checkpoint_summary(with_sections(payload)) + "\n")
        return 0
    if kind == "history":
        from repro.obs.history import render_history
        out.write(render_history(payload, buckets=args.limit) + "\n")
        return 0
    if kind == "metrics":
        out.write(render_metrics_table(
            snapshot_from_document(payload), title=str(args.path),
            prefix=args.prefix) + "\n")
        return 0
    bundle = payload
    if args.events or args.kind or args.since is not None:
        out.write(forensics.render_bundle_events(
            bundle, kind=args.kind, since_cycle=args.since,
            limit=args.limit) + "\n")
    elif args.spans:
        out.write(render_span_tree(bundle["spans"]["recent"],
                                   limit=args.limit) + "\n")
    elif args.groups:
        out.write(forensics.render_bundle_groups(bundle, top=args.limit)
                  + "\n")
    elif args.heap:
        out.write(forensics.render_bundle_heap(bundle, top=args.limit)
                  + "\n")
    elif args.trends:
        out.write(forensics.render_bundle_trends(bundle) + "\n")
    elif args.metrics:
        out.write(render_metrics_table(
            forensics.bundle_snapshot(bundle), title="bundle metrics",
            prefix=args.prefix) + "\n")
    else:
        out.write(forensics.render_bundle_summary(bundle) + "\n\n")
        out.write(forensics.render_bundle_groups(bundle) + "\n")
    return 0


def command_diff(args, out):
    from repro.common.errors import ConfigurationError
    from repro.obs import forensics
    documents = []
    for path in (args.a, args.b):
        kind, payload = forensics.load_document(path)
        if kind == "stream":
            raise ConfigurationError(
                f"{path} is an events stream; diff compares bundles "
                f"or metrics snapshots"
            )
        documents.append(payload)
    diff = forensics.diff_documents(*documents)
    out.write(forensics.render_diff(diff, limit=args.limit) + "\n")
    return 0


def command_list(out):
    out.write("workloads (paper Table 1):\n")
    for name, factory in WORKLOADS.items():
        out.write(f"  {name:<9} {factory.loc:>7,} LOC  "
                  f"{factory.description:<28} bug={factory.bug}\n")
    out.write("\nmonitors:\n")
    for name in sorted(MONITOR_FACTORIES):
        out.write(f"  {name}\n")
    out.write("\nchipset profiles (--profile; docs/HARDWARE.md):\n")
    from repro.ecc.profile import get_profile, profile_names
    for name in profile_names():
        profile = get_profile(name)
        out.write(f"  {name:<16} codec={profile.codec:<9} "
                  f"scrub={profile.scrub_interval_cycles:,} cycles\n")
    return 0


def main(argv=None, out=None):
    """Run one command; a :class:`ReproError` (a malformed input file,
    an impossible configuration) prints one ``repro: error:`` line on
    stderr and returns 2, as an argument error does."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out or sys.stdout)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args, out):
    """Run the parsed command; returns its exit code."""
    if args.command in {experiment.name
                        for experiment in PAPER_EXPERIMENTS}:
        result = run_experiment(args.command,
                                getattr(args, "requests", None))
        out.write(result.render() + "\n")
    elif args.command == "report":
        generate_report(requests=args.requests, stream=out)
    elif args.command == "validate":
        return command_validate(args, out)
    elif args.command == "fleet":
        return command_fleet(args, out)
    elif args.command == "monitor":
        return command_monitor(args, out)
    elif args.command == "replay":
        return command_replay(args, out)
    elif args.command == "resume":
        return command_resume(args, out)
    elif args.command == "history":
        return command_history(args, out)
    elif args.command == "inspect":
        return command_inspect(args, out)
    elif args.command == "diff":
        return command_diff(args, out)
    elif args.command == "run":
        return command_run(args, out)
    elif args.command == "stats":
        return command_stats(args, out)
    elif args.command == "list":
        return command_list(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
