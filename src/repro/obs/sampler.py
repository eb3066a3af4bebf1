"""Sampling profiler: periodic low-overhead observation of a live run.

SafeMem's pitch is *production-run* detection, and production systems
are observed continuously, not reconstructed from end-of-run tables.
The :class:`SamplingProfiler` registers a periodic timer on the
machine's simulated clock (:meth:`~repro.common.clock.VirtualClock.every`)
and, every ``interval_cycles`` of CPU time, captures one
:class:`Sample`:

- every **scalar** metric in the registry (counters, gauges, probes)
  plus each histogram's O(1) ``.count``/``.sum`` -- percentiles are
  deliberately *not* computed per sample (that would sort every
  histogram at sampling frequency); exporters still provide them for
  end-of-run snapshots,
- the **active span stack** (what the machine was doing at the sampling
  instant -- the classic profiler view),
- **heap occupancy** and **armed-watch counts**,
- per-allocation-group **lifetime distributions** (a live Figure 3
  view) when a group source is attached,
- a derived **monitoring-overhead fraction**: cycles spent in watch
  syscalls and ECC fault handling over total CPU cycles -- the live
  version of the paper's Table 3 overhead number.

Each sample goes to the profiler's listeners (trend engine, alert
engine, history store, stream sink) and is not kept: the profiler
holds only its sample count and the newest sample's overhead fraction,
so its footprint does not grow with the run.  The ``--history`` store
and the ``--stream`` sink are the records of past samples.  Sampling
is **off by default**: a freshly booted machine registers no timers,
and the profiler only observes once :meth:`SamplingProfiler.start`
runs.
"""

from repro.common.state import integer, number

#: span histograms whose ``.sum`` is pure monitoring work -- the
#: numerator of the live overhead fraction.  ``ecc.fault`` covers the
#: whole delivery including the nested ``ecc.handler`` span, so the
#: handler is deliberately absent (it would double count).
MONITORING_SPAN_SUMS = (
    "span.syscall.WatchMemory.cycles",
    "span.syscall.DisableWatchMemory.cycles",
    "span.ecc.fault.cycles",
)

#: allocation groups included per sample (largest live_bytes first).
DEFAULT_GROUP_LIMIT = 8


class Sample:
    """One observation of the machine, stamped at a sampling instant."""

    __slots__ = ("index", "cycle", "metrics", "spans", "groups",
                 "overhead_fraction")

    def __init__(self, index, cycle, metrics, spans, groups,
                 overhead_fraction):
        self.index = index
        self.cycle = cycle
        #: flat scalar view: counters/gauges/probes by name, histograms
        #: as ``<name>.count`` / ``<name>.sum`` only.
        self.metrics = metrics
        #: active span paths, outermost first (may be empty).
        self.spans = spans
        #: live Figure 3 view: per-group lifetime statistics.
        self.groups = groups
        self.overhead_fraction = overhead_fraction

    def get(self, name, default=0):
        return self.metrics.get(name, default)

    def __contains__(self, name):
        return name in self.metrics

    @property
    def heap_live_bytes(self):
        return self.metrics.get("heap.live_bytes", 0)

    @property
    def armed_watches(self):
        return self.metrics.get("safemem.watch.armed", 0)

    def to_dict(self):
        return {
            "index": self.index,
            "cycle": self.cycle,
            "metrics": dict(self.metrics),
            "spans": list(self.spans),
            "groups": [dict(group) for group in self.groups],
            "overhead_fraction": self.overhead_fraction,
        }

    def __repr__(self):
        return (f"Sample(#{self.index} @ {self.cycle}, "
                f"{len(self.metrics)} metrics, "
                f"{len(self.spans)} open spans)")


def group_stats(groups, limit=DEFAULT_GROUP_LIMIT, now=0):
    """Flatten allocation groups into per-group lifetime statistics.

    ``groups`` is any iterable of
    :class:`~repro.core.groups.MemoryObjectGroup`; the ``limit``
    largest groups by live bytes are kept (a sample must stay bounded
    even when a workload allocates from thousands of sites).
    """
    rows = []
    for group in groups:
        rows.append({
            "size": group.size,
            "call_signature": group.call_signature,
            "live_count": group.live_count,
            "live_bytes": group.live_bytes,
            "total_allocated": group.total_allocated,
            "total_freed": group.total_freed,
            "max_lifetime": group.max_lifetime,
            "stable_time": group.stable_time,
            "oldest_age": max(
                (obj.age(now) for obj in group.oldest_live(1)),
                default=0,
            ),
        })
    rows.sort(key=lambda row: (-row["live_bytes"], row["size"],
                               row["call_signature"]))
    return rows[:limit]


def leak_group_source(monitor):
    """Group source reading a SafeMem monitor's leak-detector table.

    Resolves lazily, so it can be wired before the monitor attaches
    (the leak detector only exists after ``on_attach``).
    """
    def source():
        leak = getattr(monitor, "leak", None)
        return leak.groups if leak is not None else ()
    return source


class SamplingProfiler:
    """Cycle-driven sampler bound to one machine.

    Observation-only: taking a sample never advances the simulated
    clock, exactly like the registry's snapshot probes -- the cost a
    production deployment would pay is real (Python) time, which
    ``benchmarks/bench_monitor.py`` measures.
    """

    def __init__(self, machine, interval_cycles, group_source=None,
                 group_limit=DEFAULT_GROUP_LIMIT):
        if interval_cycles <= 0:
            raise ValueError(
                f"sampling interval must be positive: {interval_cycles}"
            )
        self.machine = machine
        self.interval_cycles = interval_cycles
        self.group_source = group_source
        self.group_limit = group_limit
        self._listeners = []
        self._timer = None
        self.samples_taken = 0
        #: the newest sample's overhead fraction (0.0 before the first).
        self.overhead_fraction = 0.0
        self._register_metrics(machine.metrics)

    def _register_metrics(self, metrics):
        metrics.probe("sampler.samples", lambda: self.samples_taken,
                      kind="counter",
                      description="samples captured by the profiler")
        metrics.probe("sampler.interval_cycles",
                      lambda: self.interval_cycles if self.running else 0,
                      kind="gauge",
                      description="active sampling interval (0 = off)")
        metrics.probe("sampler.overhead_fraction",
                      lambda: self.overhead_fraction, kind="gauge",
                      description="monitoring cycles / total CPU cycles "
                                  "(live Table 3 view)")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self):
        return self._timer is not None

    def start(self):
        """Register the sampling timer on the machine's clock."""
        if self._timer is None:
            self._timer = self.machine.clock.every(
                self.interval_cycles, self._on_timer
            )
        return self

    def stop(self):
        """Cancel the timer."""
        if self._timer is not None:
            self.machine.clock.cancel(self._timer)
            self._timer = None

    def add_listener(self, listener):
        """Call ``listener(sample)`` for every captured sample."""
        self._listeners.append(listener)
        return listener

    def remove_listener(self, listener):
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def _on_timer(self, _clock):
        self.sample_now()

    def sample_now(self):
        """Capture one sample immediately (also used at end of run)."""
        machine = self.machine
        cycle = machine.clock.cycles
        metrics = machine.metrics.scalar_view()
        spans = ["/".join(span.path)
                 for span in machine.tracer.active_spans()]
        groups = ()
        if self.group_source is not None:
            groups = group_stats(self.group_source(),
                                 limit=self.group_limit, now=cycle)
        sample = Sample(
            index=self.samples_taken,
            cycle=cycle,
            metrics=metrics,
            spans=spans,
            groups=groups,
            overhead_fraction=_overhead_fraction(metrics, cycle),
        )
        self.overhead_fraction = sample.overhead_fraction
        self.samples_taken += 1
        # The engine and sinks read the sample *after* its own
        # sampler.samples count: expose the derived gauge too.
        sample.metrics["sampler.overhead_fraction"] = \
            sample.overhead_fraction
        for listener in list(self._listeners):
            listener(sample)
        return sample

    # ------------------------------------------------------------------
    # durable state (repro.checkpoint/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """JSON-able counters and interval for checkpoints."""
        return {
            "interval_cycles": self.interval_cycles,
            "samples_taken": self.samples_taken,
            "overhead_fraction": self.overhead_fraction,
        }

    def load_state(self, payload):
        """Restore :meth:`state_dict` output into this profiler."""
        if payload["interval_cycles"] != self.interval_cycles:
            raise ValueError(
                f"sampler state mismatch: recorded interval "
                f"{payload['interval_cycles']}, profiler has "
                f"{self.interval_cycles}"
            )
        self.samples_taken = integer(payload["samples_taken"],
                                     "samples_taken")
        self.overhead_fraction = number(payload["overhead_fraction"],
                                        "overhead_fraction")
        return self


def _overhead_fraction(metrics, cycle):
    if cycle <= 0:
        return 0.0
    monitoring = sum(metrics.get(f"{name}.sum", 0)
                     for name in MONITORING_SPAN_SUMS)
    return monitoring / cycle


# ----------------------------------------------------------------------
# live report (the `repro monitor` top-style panel)
# ----------------------------------------------------------------------
def render_top(sample, alerts=None, top=5, title="live monitor"):
    """Render one sample as a compact top-style panel.

    ``alerts`` is an optional iterable of
    :class:`~repro.obs.alerts.Alert` runtime states; firing alerts are
    listed first, most severe on top.
    """
    lines = [f"{title} @ cycle {sample.cycle:,} "
             f"(sample #{sample.index})"]
    lines.append(
        f"  heap {sample.heap_live_bytes:,} B live | "
        f"watches {sample.armed_watches} armed | "
        f"overhead {sample.overhead_fraction * 100:.2f}% | "
        f"ecc traps {sample.get('kernel.ecc_traps')}"
    )
    if sample.spans:
        lines.append("  in: " + " > ".join(sample.spans[-1].split("/")))
    firing = [alert for alert in (alerts or ())
              if alert.state == "firing"]
    if firing:
        lines.append("  alerts:")
        for alert in sorted(firing,
                            key=lambda a: -a.rule.severity_rank):
            lines.append(
                f"    [{alert.rule.severity.upper():>8}] "
                f"{alert.rule.name} "
                f"(value {alert.last_value:g}, "
                f"fired @ {alert.fired_at_cycle:,})"
            )
    if sample.groups:
        lines.append("  top allocation groups (live Figure 3 view):")
        lines.append("    size  callsig     live     bytes "
                     "max_life   stable")
        for group in sample.groups[:top]:
            lines.append(
                f"    {group['size']:>4}  {group['call_signature']:#09x} "
                f"{group['live_count']:>7} {group['live_bytes']:>9,} "
                f"{group['max_lifetime']:>8,} {group['stable_time']:>8,}"
            )
    return "\n".join(lines)
