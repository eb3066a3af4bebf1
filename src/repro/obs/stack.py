"""The monitor stack: one config, one factory, every front door.

Before this module, ``repro monitor``, ``repro fleet``, ``repro
validate``, and ``repro run`` each hand-copied a flag set and
hand-wired its own monitor / sampling-profiler / alert-engine /
stream / forensic-recorder combination.  Now there is exactly one
description of a production monitoring stack:

- :class:`MonitorStackConfig` -- a JSON-able dataclass carrying the
  monitor choice, the allocation :class:`~repro.core.sampling.
  SamplingPolicy`, and the sampler/alert/stream/dump settings;
- :func:`add_monitoring_arguments` -- the single argparse parent all
  four commands mount, so they accept *identical* monitoring flags;
- :meth:`MonitorStackConfig.from_args` -- flags to config, one way;
- :func:`build_monitor_stack` -- config to a live :class:`MonitorStack`
  (machine + monitor + profiler + alert engine + stream + recorder +
  checkpoint scheduler), bare when the config asks for no monitoring;
- :func:`assemble_monitor_stack` -- the one wiring of profiler, trend
  engine, alert engine and history store, from the normalised
  ``monitoring`` dict (:meth:`MonitorStackConfig.monitoring`) a run
  records.  ``build_monitor_stack``, forensic replay, checkpoint
  resume and the trend/season experiment scenarios all call it, so a
  recorded stack and a rebuilt one are wired identically;
- :meth:`MonitorStack.run` -- the one run path: ``repro run``,
  ``repro monitor``, fleet machines, replay/resume and the trend
  scenarios all run their workload through it.

The config crosses process boundaries (fleet workers) through
``to_dict``/``from_dict`` and derives per-machine sampling seeds with
:meth:`MonitorStackConfig.for_machine`.
"""

import argparse
import copy
import pathlib
from dataclasses import dataclass, replace

from repro.analysis import runner
from repro.common.errors import ConfigurationError, MachinePanic
from repro.common.schema import Field, Table
from repro.common.state import INT, LIST, NULL, OBJECT
from repro.core.sampling import SAMPLING, SamplingPolicy
from repro.ecc.profile import get_profile
from repro.obs.alerts import (
    RULE,
    AlertEngine,
    AlertRule,
    default_trend_rules,
    resolve_rules,
)
from repro.obs.sampler import SamplingProfiler, leak_group_source
from repro.obs.trend import (
    DEFAULT_SEASONAL_PHASES,
    DEFAULT_SEASONAL_WARMUP,
    DEFAULT_WINDOW,
    DETECTORS,
    MIN_SLOPE_POINTS,
    TrendEngine,
)

#: default profiler interval the ``repro monitor`` command uses.
DEFAULT_SAMPLE_EVERY = 100_000

#: a run's recorded ``monitoring`` dict (:meth:`MonitorStackConfig.
#: monitoring`): absent fields mean no profiler, no trend engine, no
#: history, and a missing trend parameter takes its default.
MONITORING = Table("monitoring", {
    "sampling": Field(OBJECT, required=False, table=SAMPLING),
    "sample_every": Field(INT | NULL, required=False, low=1),
    "rules": Field(LIST, required=False, items=RULE),
    "trend": Field(OBJECT | NULL, required=False),
    **{f"trend.{field}": Field(INT | NULL, required=False, low=1)
       for field in ("window", "seasonal_period", "seasonal_phases",
                     "seasonal_warmup")},
})


@dataclass(frozen=True)
class MonitorStackConfig:
    """Everything needed to stand up one production monitoring stack."""

    #: monitor short name (see ``repro.analysis.runner.MONITOR_FACTORIES``).
    monitor: str = "safemem"
    #: chipset profile name (codec, scrub cadence, fault noise) every
    #: machine in the stack boots with; see ``repro.ecc.profile``.
    profile: str = "e7500"
    #: allocation sampling policy; None = classic always-on monitoring.
    sampling: SamplingPolicy = None
    #: sampling-profiler interval in cycles; None = no profiler.
    sample_every: int = None
    #: alert rules spec: "default", "none", or a JSON rule file path.
    rules: str = "default"
    #: stream ``repro.events/v1`` records to this rotating JSONL path.
    stream: str = None
    #: rotation threshold for ``stream`` (None = sink default).
    stream_max_bytes: int = None
    #: write ``repro.dump/v1`` forensic bundles here on panic.
    dump_dir: str = None
    #: also dump when any alert reaches ``firing`` (defaults
    #: ``dump_dir`` to ./dumps).
    dump_on_alert: bool = False
    #: trend-analytics detector driving the default ``trend`` rules
    #: (``theil-sen``/``cusum``/``page-hinkley``); None = analytics off.
    trend: str = None
    #: samples per trend series window (None = engine default).
    trend_window: int = None
    #: fold trend series onto this period (cycles) and subtract a
    #: frozen per-phase median baseline before detection; None = flat
    #: calibration (requires --trend).
    seasonal_period: int = None
    #: keep bounded tiered metric history (``repro.history/v1``).
    history: bool = False
    #: write a ``repro.checkpoint/v1`` document every N cycles
    #: (evaluated at request boundaries); None = off.
    checkpoint_every: int = None
    #: directory checkpoint documents land in (default ./checkpoints).
    checkpoint_dir: str = None

    # ------------------------------------------------------------------
    # validation / derived views
    # ------------------------------------------------------------------
    def validate(self):
        get_profile(self.profile)
        if self.sample_every is not None and self.sample_every < 1:
            raise ConfigurationError(
                f"--sample-every must be >= 1 cycle, got "
                f"{self.sample_every}")
        if self.stream_max_bytes is not None \
                and self.stream_max_bytes < 1:
            raise ConfigurationError(
                f"--stream-max-bytes must be >= 1, got "
                f"{self.stream_max_bytes}")
        if self.sampling is not None:
            self.sampling.validate()
        if self.trend is not None:
            if self.trend not in DETECTORS:
                raise ConfigurationError(
                    f"--trend must be one of {', '.join(DETECTORS)}, "
                    f"got {self.trend!r}")
            if self.sample_every is None:
                raise ConfigurationError(
                    "--trend requires --sample-every (the trend engine "
                    "consumes profiler samples)")
        if self.trend_window is not None:
            if self.trend is None:
                raise ConfigurationError(
                    "--trend-window requires --trend")
            if self.trend_window < MIN_SLOPE_POINTS:
                raise ConfigurationError(
                    f"--trend-window must be >= {MIN_SLOPE_POINTS} "
                    f"samples, got {self.trend_window}")
        if self.seasonal_period is not None:
            if self.trend is None:
                raise ConfigurationError(
                    "--seasonal-period requires --trend (the baseline "
                    "feeds the trend detectors)")
            if self.seasonal_period < 1:
                raise ConfigurationError(
                    f"--seasonal-period must be >= 1 cycle, got "
                    f"{self.seasonal_period}")
        if self.history and self.sample_every is None:
            raise ConfigurationError(
                "--history requires --sample-every (the history store "
                "consumes profiler samples)")
        if self.checkpoint_every is not None \
                and self.checkpoint_every < 1:
            raise ConfigurationError(
                f"--checkpoint-every must be >= 1 cycle, got "
                f"{self.checkpoint_every}")
        if self.checkpoint_dir is not None \
                and self.checkpoint_every is None:
            raise ConfigurationError(
                "--checkpoint-dir requires --checkpoint-every")
        return self

    def resolved_dump_dir(self):
        """``--dump-on-alert`` without ``--dump-dir`` lands in ./dumps."""
        return self.dump_dir or ("dumps" if self.dump_on_alert
                                 else None)

    def resolved_checkpoint_dir(self):
        """``--checkpoint-every`` without a dir lands in ./checkpoints."""
        return self.checkpoint_dir or (
            "checkpoints" if self.checkpoint_every is not None else None)

    def monitoring(self):
        """The normalised ``monitoring`` dict this config describes.

        :func:`assemble_monitor_stack` wires a stack from it, and runs
        record it so replay and resume rebuild the same stack: the
        allocation ``sampling`` policy and, with the profiler on,
        ``sample_every``, the resolved rule dicts (the ``rules`` spec
        plus the trend detector's rules), trend engine parameters and
        ``history``.
        """
        monitoring = {}
        if self.sampling is not None:
            monitoring["sampling"] = self.sampling.to_dict()
        if self.sample_every is None:
            return monitoring
        rules = resolve_rules(self.rules)
        monitoring["sample_every"] = self.sample_every
        if self.trend is not None:
            rules = rules + default_trend_rules(self.trend)
            monitoring["trend"] = _trend_spec({
                "detector": self.trend, "window": self.trend_window,
                "seasonal_period": self.seasonal_period})
        monitoring["rules"] = [rule.to_dict() for rule in rules]
        if self.history:
            monitoring["history"] = True
        return monitoring

    def for_machine(self, index):
        """Per-fleet-machine config: distinct sampling seed stream."""
        if self.sampling is None:
            return self
        return replace(self, sampling=self.sampling.for_machine(index))

    # ------------------------------------------------------------------
    # codecs
    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "monitor": self.monitor,
            "profile": self.profile,
            "sampling": (self.sampling.to_dict()
                         if self.sampling is not None else None),
            "sample_every": self.sample_every,
            "rules": self.rules,
            "stream": self.stream,
            "stream_max_bytes": self.stream_max_bytes,
            "dump_dir": self.dump_dir,
            "dump_on_alert": self.dump_on_alert,
            "trend": self.trend,
            "trend_window": self.trend_window,
            "seasonal_period": self.seasonal_period,
            "history": self.history,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_dir": self.checkpoint_dir,
        }

    @classmethod
    def from_dict(cls, payload):
        payload = dict(payload)
        sampling = payload.get("sampling")
        if sampling is not None:
            payload["sampling"] = SamplingPolicy.from_dict(sampling)
        return cls(**payload).validate()

    @classmethod
    def from_args(cls, args, monitor=None):
        """Build the stack config from parsed monitoring arguments.

        Works for any command that mounted
        :func:`add_monitoring_arguments` or
        :func:`add_forensic_arguments`; flags a command does not
        expose fall back to their defaults.  ``monitor`` overrides the
        parsed ``--monitor`` (``validate`` has no monitor choice).
        """
        rate = getattr(args, "sample_rate", None)
        seed = getattr(args, "sample_seed", None)
        budget = getattr(args, "guard_budget", None)
        sampling = None
        if rate is not None or seed is not None or budget is not None:
            sampling = SamplingPolicy(
                rate=1.0 if rate is None else rate,
                seed=seed if seed is not None else 0,
                budget=budget,
            )
        return cls(
            monitor=(monitor if monitor is not None
                     else getattr(args, "monitor", "safemem")),
            profile=getattr(args, "profile", None) or "e7500",
            sampling=sampling,
            sample_every=getattr(args, "sample_every", None),
            rules=getattr(args, "rules", "default"),
            stream=getattr(args, "stream", None),
            stream_max_bytes=getattr(args, "stream_max_bytes", None),
            dump_dir=getattr(args, "dump_dir", None),
            dump_on_alert=getattr(args, "dump_on_alert", False),
            trend=getattr(args, "trend", None),
            trend_window=getattr(args, "trend_window", None),
            seasonal_period=getattr(args, "seasonal_period", None),
            history=getattr(args, "history", False),
            checkpoint_every=getattr(args, "checkpoint_every", None),
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
        ).validate()


def add_monitoring_arguments(parent=None, sample_every_default=None):
    """The shared monitoring flag set, as a reusable argparse parent.

    Every command that runs workloads under a stack mounts this parent
    (``monitor``, ``fleet``, ``run``), so the same ``--sample-rate`` /
    ``--sample-every`` / ``--rules`` / ``--stream`` / ``--dump-dir`` /
    ``--dump-on-alert`` spelling works everywhere and feeds one
    :meth:`MonitorStackConfig.from_args`.  It ends with the forensic
    pair of :func:`add_forensic_arguments`, the only part ``validate``
    reads.

    ``sample_every_default`` overrides the profiler interval default
    for commands whose whole point is the profiler (``repro monitor``
    defaults it to :data:`DEFAULT_SAMPLE_EVERY`).  It must be baked in
    here rather than via ``set_defaults`` on the mounting subparser:
    argparse parents share Action objects, so a post-hoc
    ``set_defaults`` would leak the default into every command.
    """
    parent = parent or argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("monitoring stack")
    group.add_argument(
        "--profile", default=None, metavar="NAME",
        help="chipset profile every machine boots with: ECC codec, "
             "scrub cadence, fault noise (default e7500, the paper's "
             "SEC-DED part; see docs/HARDWARE.md)",
    )
    group.add_argument(
        "--sample-rate", type=float, default=None, metavar="RATE",
        help="sample this fraction of allocations for monitoring "
             "(GWP-ASan-style production mode; default: monitor "
             "every allocation)",
    )
    group.add_argument(
        "--sample-seed", type=int, default=None, metavar="SEED",
        help="base seed of the allocation-sampling schedule "
             "(default 0; fleet machines derive per-machine seeds)",
    )
    group.add_argument(
        "--guard-budget", type=int, default=None, metavar="N",
        help="max concurrently guarded sampled allocations; when the "
             "pool saturates the sampling interval backs off "
             "adaptively (default: unbounded)",
    )
    group.add_argument(
        "--sample-every", type=int, default=sample_every_default,
        metavar="CYCLES",
        help="run the sampling profiler + alert engine at this "
             "cycle interval (default: "
             + (str(sample_every_default)
                if sample_every_default is not None else "off") + ")",
    )
    group.add_argument(
        "--trend", default=None, choices=DETECTORS, metavar="DETECTOR",
        help="run streaming leak-trend analytics over profiler "
             "samples and install its alert rules; pick the detector "
             "driving them: " + ", ".join(DETECTORS)
             + " (requires --sample-every)",
    )
    group.add_argument(
        "--trend-window", type=int, default=None, metavar="SAMPLES",
        help="samples per trend series window (default "
             + str(DEFAULT_WINDOW) + "; requires --trend)",
    )
    group.add_argument(
        "--seasonal-period", type=int, default=None, metavar="CYCLES",
        help="fold trend series onto this period and subtract a "
             "frozen per-phase median baseline before detection "
             "(diurnal traffic; requires --trend)",
    )
    group.add_argument(
        "--history", action="store_true",
        help="keep bounded tiered metric history (repro.history/v1; "
             "raw ring + widening min/max/mean/count buckets; "
             "requires --sample-every)",
    )
    group.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="CYCLES",
        help="write a repro.checkpoint/v1 document every N cycles, "
             "evaluated at request boundaries (resume with "
             "'repro resume')",
    )
    group.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory checkpoint documents land in "
             "(default ./checkpoints; requires --checkpoint-every)",
    )
    group.add_argument(
        "--rules", default="default", metavar="default|none|FILE",
        help="alert rules for --sample-every: the built-in "
             "production set, none, or a JSON rule file",
    )
    group.add_argument(
        "--stream", metavar="PATH", default=None,
        help="stream repro.events/v1 records to a rotating JSONL "
             "file (fleet/validate machines write per-machine "
             "suffixed files)",
    )
    group.add_argument(
        "--stream-max-bytes", type=int, default=None,
        help="rotation threshold for --stream (default 1 MiB)",
    )
    return add_forensic_arguments(parent)


def add_forensic_arguments(parent=None):
    """The forensic flag pair, ``--dump-dir`` and ``--dump-on-alert``,
    as an argparse parent.

    :func:`add_monitoring_arguments` includes it, and ``validate``
    mounts it alone: the claim experiments pin their own monitors and
    stacks, so a shard machine reads only where its bundles go.
    """
    parent = parent or argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("monitoring stack")
    group.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="write repro.dump/v1 forensic bundles here on kernel "
             "panic (and, with --dump-on-alert, on firing alerts)",
    )
    group.add_argument(
        "--dump-on-alert", action="store_true",
        help="also dump a bundle when any alert reaches firing "
             "(defaults --dump-dir to ./dumps)",
    )
    return parent


def _labelled_path(path, label):
    """Insert a per-machine label before the stream file suffix."""
    if label is None:
        return path
    pure = pathlib.PurePath(path)
    if pure.suffix:
        return str(pure.with_name(f"{pure.stem}.{label}{pure.suffix}"))
    return str(pure.with_name(f"{pure.name}.{label}"))


class MonitorStack:
    """One live monitoring stack around one machine and monitor.

    Built by :func:`assemble_monitor_stack` (through
    :func:`build_monitor_stack` for a config); :meth:`run` runs the
    recorded run under it, and the owner finishes with :meth:`close`
    (idempotent, exception-safe) so streams always flush and recorders
    always detach.
    """

    def __init__(self, machine, monitor, monitoring, sampler=None,
                 engine=None, trend=None, history=None, run_info=None):
        self.machine = machine
        self.monitor = monitor
        self._monitoring = monitoring
        self.sampler = sampler
        self.engine = engine
        self.trend = trend
        self.history = history
        #: the run :meth:`run` runs (workload, monitor, buggy,
        #: requests, seed, heap_size).
        self.run_info = run_info
        self.sink = self.stream = self.recorder = self.scheduler = None
        #: the panic the forensic recorder dumped, once :meth:`run`
        #: has kept one.
        self.panic = None
        self._closed = False

    def start(self):
        if self.sampler is not None:
            self.sampler.start()
        return self

    def stop(self):
        if self.sampler is not None:
            self.sampler.stop()

    def run(self, request_hook=None, restore=None, baseline=False):
        """Run :attr:`run_info` on this stack's machine; returns the
        :class:`~repro.analysis.runner.RunResult`, or None after a
        kept panic.

        The one place a workload runs under a monitoring stack: start
        the sampler (a no-op when it already runs), run the workload
        with the checkpoint scheduler's request hook, stop the sampler.
        Boot taps receive :meth:`recorded_run`.  ``request_hook``
        replaces the scheduler's (a rerun checks its boundary and
        records no checkpoints); ``restore`` continues a checkpointed
        run and ``baseline`` keeps a native twin's run from the run
        taps (see :func:`~repro.analysis.runner.run_workload`).  With a
        forensic recorder, which dumps the machine at the PANIC event,
        a panic is kept on :attr:`panic`; without one it propagates.
        """
        run = self.run_info
        self.start()
        try:
            return runner.run_workload(
                run["workload"], run["monitor"],
                buggy=run.get("buggy", False),
                requests=run.get("requests"), seed=run.get("seed", 0),
                heap_size=run.get("heap_size", runner.HEAP_SIZE),
                machine=self.machine, monitor=self.monitor,
                request_hook=request_hook or self.request_hook,
                restore=restore, run_info=self.recorded_run(),
                baseline=baseline)
        except MachinePanic as error:
            if self.recorder is None:
                raise
            self.panic = error
            return None
        finally:
            self.stop()

    def native_twin(self):
        """The same run with no monitor on a fresh experiment machine
        of this stack's chipset profile: the baseline a monitored
        run's ``overhead`` is measured against."""
        twin = MonitorStack(runner.boot_machine(self.machine.profile.name),
                            runner.make_monitor("native"), {},
                            run_info=dict(self.run_info, monitor="native"))
        return twin.run(baseline=True)

    def close(self):
        if self._closed:
            return
        self._closed = True
        if self.recorder is not None:
            self.recorder.detach()
        if self.stream is not None:
            self.stream.close()

    # -- summaries -----------------------------------------------------
    @property
    def alert_rules(self):
        return ([alert.rule for alert in self.engine.alerts.values()]
                if self.engine is not None else [])

    def alert_summary(self):
        return self.engine.summary() if self.engine is not None else {}

    @property
    def alerts_fired(self):
        return sum(fired for fired, _, _ in
                   self.alert_summary().values())

    @property
    def alerts_resolved(self):
        return sum(resolved for _, resolved, _ in
                   self.alert_summary().values())

    @property
    def bundle_paths(self):
        return (list(self.recorder.bundle_paths)
                if self.recorder is not None else [])

    @property
    def checkpoint_paths(self):
        return (list(self.scheduler.checkpoint_paths)
                if self.scheduler is not None else [])

    @property
    def request_hook(self):
        """Workload request-boundary hook, or None when unneeded.

        :meth:`run` passes it so the checkpoint scheduler sees every
        boundary; purely observational, so it never changes the run.
        """
        return (self.scheduler.on_request
                if self.scheduler is not None else None)

    def monitoring_info(self):
        """The ``monitoring`` dict bundles and checkpoints record;
        :func:`assemble_monitor_stack` rebuilds this stack from it."""
        return copy.deepcopy(self._monitoring)

    def recorded_run(self):
        """The run this stack's bundles and checkpoints record:
        :attr:`run_info` plus, when the stack monitors anything, its
        ``monitoring`` section."""
        info = dict(self.run_info)
        monitoring = self.monitoring_info()
        if monitoring:
            info["monitoring"] = monitoring
        return info


def assemble_monitor_stack(monitoring, machine, monitor, run_info=None):
    """Wire the monitoring stack a ``monitoring`` dict describes, for
    the run ``run_info`` describes (see :meth:`MonitorStack.run`).

    The one place the sampler's listener chain is built: trend engine,
    then alert engine, then history store, so trend rules judge the
    current sample's verdicts.  The alert engine exists whenever the
    profiler does, even with no rules.  ``monitoring`` is the dict
    :meth:`MonitorStack.monitoring_info` returns (``sample_every``,
    rule dicts, ``sampling``, trend engine parameters, ``history``);
    missing trend parameters take their defaults.  The stack records
    the normalised dict, so rebuilding from what a run recorded wires
    an identical stack.  ``monitoring`` is trusted: a recorded one
    was checked against :data:`MONITORING` where its document entered.
    """
    # Local: only a stack with ``history`` on needs it.
    from repro.obs.history import HistoryStore

    info = {}
    if monitoring.get("sampling") is not None:
        info["sampling"] = dict(monitoring["sampling"])
    if not monitoring.get("sample_every"):
        return MonitorStack(machine, monitor, info, run_info=run_info)
    sampler = SamplingProfiler(
        machine, interval_cycles=monitoring["sample_every"],
        group_source=leak_group_source(monitor))
    rules = [AlertRule(**spec) for spec in monitoring.get("rules", [])]
    info["sample_every"] = sampler.interval_cycles
    info["rules"] = [rule.to_dict() for rule in rules]
    trend = history = None
    if monitoring.get("trend") is not None:
        spec = _trend_spec(monitoring["trend"])
        trend = TrendEngine(
            machine, window=spec["window"],
            seasonal_period=spec["seasonal_period"],
            seasonal_phases=spec["seasonal_phases"],
            seasonal_warmup=spec["seasonal_warmup"])
        sampler.add_listener(trend.observe)
        info["trend"] = spec
    engine = AlertEngine(rules, events=machine.events,
                         metrics=machine.metrics, trend_source=trend)
    sampler.add_listener(engine.evaluate)
    if monitoring.get("history"):
        history = HistoryStore(metrics=machine.metrics)
        sampler.add_listener(history.observe)
        info["history"] = True
    return MonitorStack(machine, monitor, info, sampler=sampler,
                        engine=engine, trend=trend, history=history,
                        run_info=run_info)


def _trend_spec(spec):
    """Trend engine parameters with every default filled in."""
    return {
        "detector": spec.get("detector"),
        "window": spec.get("window") or DEFAULT_WINDOW,
        "seasonal_period": spec.get("seasonal_period"),
        "seasonal_phases": (spec.get("seasonal_phases")
                            or DEFAULT_SEASONAL_PHASES),
        "seasonal_warmup": (spec.get("seasonal_warmup")
                            or DEFAULT_SEASONAL_WARMUP),
    }


def build_monitor_stack(config, machine=None, monitor=None,
                        run_info=None, label=None):
    """Stand up a :class:`MonitorStack` from one config.

    ``machine``/``monitor`` reuse pre-built instances (the monitor must
    already match ``config.monitor``/``config.sampling``); when None
    they are created here (the machine by
    :func:`~repro.analysis.runner.boot_machine` on ``config.profile``),
    which is how every command boots its stack.  The monitoring
    components come from :func:`assemble_monitor_stack` fed
    :meth:`MonitorStackConfig.monitoring`.  ``run_info``
    (workload/monitor/buggy/requests/seed) is the run
    :meth:`MonitorStack.run` runs, and arms a forensic recorder and
    checkpoint scheduler when the config asks for them; ``label``
    suffixes per-machine stream files, dump bundles and checkpoints in
    fleet runs.
    """
    config.validate()
    monitoring = config.monitoring()
    if machine is None:
        machine = runner.boot_machine(config.profile)
    if monitor is None:
        monitor = runner.make_monitor(config.monitor,
                                      sampling=config.sampling)
    stack = assemble_monitor_stack(monitoring, machine, monitor,
                                   run_info=run_info)

    if config.stream is not None:
        # Local: only --stream needs it.
        from repro.obs.sink import (
            DEFAULT_MAX_BYTES,
            JsonlSink,
            TelemetryStream,
        )
        stack.sink = JsonlSink(_labelled_path(config.stream, label),
                               max_bytes=config.stream_max_bytes
                               or DEFAULT_MAX_BYTES)
        stack.stream = TelemetryStream(stack.sink, machine=machine,
                                       sampler=stack.sampler,
                                       engine=stack.engine)
    if run_info is None:
        return stack
    info = stack.recorded_run()
    label = label or info.get("workload", "run")
    if config.resolved_dump_dir() is not None:
        # Local: only --dump-dir needs it.
        from repro.obs.forensics import ForensicRecorder
        stack.recorder = ForensicRecorder(
            machine, monitor=monitor, run_info=info,
            dump_dir=config.resolved_dump_dir(), label=label,
            on_alert=config.dump_on_alert, trend=stack.trend,
        )
    if config.checkpoint_every is not None:
        # Local: obs.checkpoint imports this module through obs.snapshot.
        from repro.obs.checkpoint import CheckpointScheduler
        stack.scheduler = CheckpointScheduler(
            machine, config.checkpoint_every, monitor=monitor,
            run_info=info, sampler=stack.sampler, engine=stack.engine,
            trend=stack.trend, history=stack.history,
            checkpoint_dir=config.resolved_checkpoint_dir(), label=label,
        )
    return stack
