"""Metrics registry: the machine's single source of counters.

Every simulated component registers its counters, gauges, and
histograms here under one documented namespace (``mmu.tlb.hit``,
``ecc.codec.lines_batched``, ``safemem.watch.armed``, ...; see
``docs/OBSERVABILITY.md``).  Experiments read the machine with
cycle-stamped :meth:`MetricsRegistry.snapshot` and do per-phase
accounting with snapshot *deltas* -- absolute counters accumulate for
the life of the machine, so two snapshots are the only way to attribute
work to a phase exactly.

Two registration styles:

- **owned instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`): the caller holds the object and mutates it,
- **probes**: a zero-argument callable sampled at snapshot time.
  Components on the access fast path keep plain integer attributes
  (one ``+= 1`` is cheaper than any method call) and expose them
  through probes, so registering a metric never slows the hot loop.
"""

import math

from repro.common.errors import ConfigurationError
from repro.common.state import (
    boolean,
    number,
    numbers,
    record,
    sequence,
    text,
)

_KINDS = ("counter", "gauge", "histogram")

#: Percentiles flattened out of every histogram snapshot.
HISTOGRAM_PERCENTILES = (50, 90, 99)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "description", "value")

    def __init__(self, name, description=""):
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Point-in-time value (may go up and down)."""

    kind = "gauge"
    __slots__ = ("name", "description", "value")

    def __init__(self, name, description=""):
        self.name = name
        self.description = description
        self.value = 0

    def set(self, value):
        self.value = value

    def add(self, amount):
        self.value += amount


class Histogram:
    """Distribution of observed values (cycle durations, sizes, ...).

    Keeps every observation; the simulation is bounded by requests, not
    wall time, so exact percentiles are affordable and reproducible.
    """

    kind = "histogram"
    __slots__ = ("name", "description", "_values", "_sorted", "sum")

    def __init__(self, name, description=""):
        self.name = name
        self.description = description
        self._values = []
        self._sorted = True
        self.sum = 0

    def observe(self, value):
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self.sum += value

    @property
    def count(self):
        return len(self._values)

    @property
    def min(self):
        return min(self._values) if self._values else 0

    @property
    def max(self):
        return max(self._values) if self._values else 0

    @property
    def values(self):
        """A copy of every observation (cross-process merge input)."""
        return list(self._values)

    def percentile(self, p):
        """Nearest-rank percentile (p in [0, 100]); 0 when empty."""
        if not self._values:
            return 0
        if not 0 <= p <= 100:
            raise ConfigurationError(f"percentile out of range: {p}")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * len(self._values)))
        return self._values[rank - 1]


def attr_reader(obj, attr):
    """Closure reading ``obj.attr`` -- the standard probe source for
    components that keep hot-path counters as plain integers."""
    return lambda: getattr(obj, attr)


class _Probe:
    """Callback-backed metric, sampled only at snapshot time."""

    __slots__ = ("name", "description", "kind", "fn")

    def __init__(self, name, fn, kind, description=""):
        if kind not in ("counter", "gauge"):
            raise ConfigurationError(
                f"probe {name}: kind must be counter or gauge, got {kind}"
            )
        self.name = name
        self.description = description
        self.kind = kind
        self.fn = fn

    @property
    def value(self):
        return self.fn()


def flatten_histogram(histogram, values, kinds):
    """Flatten one histogram into snapshot keys (shared by
    :meth:`MetricsRegistry.snapshot` and the cross-process merge, so
    both produce byte-identical key sets).

    An empty histogram keeps ``count``/``sum`` at 0 (counters must
    stay numeric so deltas subtract) but reports the statistical
    gauges as ``None``: a min or percentile of zero observations is
    not 0, and rendering it as one made empty-window snapshots carry
    phantom values (exporters render None as ``-``)."""
    name = histogram.name
    empty = histogram.count == 0
    values[f"{name}.count"] = histogram.count
    values[f"{name}.sum"] = histogram.sum
    kinds[f"{name}.count"] = "counter"
    kinds[f"{name}.sum"] = "counter"
    values[f"{name}.min"] = None if empty else histogram.min
    values[f"{name}.max"] = None if empty else histogram.max
    kinds[f"{name}.min"] = "gauge"
    kinds[f"{name}.max"] = "gauge"
    for p in HISTOGRAM_PERCENTILES:
        values[f"{name}.p{p}"] = None if empty else histogram.percentile(p)
        kinds[f"{name}.p{p}"] = "gauge"


#: flat-key suffixes of the per-histogram statistical gauges.
HISTOGRAM_GAUGE_SUFFIXES = (".min", ".max") + tuple(
    f".p{p}" for p in HISTOGRAM_PERCENTILES
)


class Snapshot:
    """Cycle-stamped flat view of every registered metric.

    ``values`` maps fully-qualified metric names to numbers; histograms
    flatten to ``<name>.count`` / ``.sum`` / ``.min`` / ``.max`` /
    ``.p50`` / ``.p90`` / ``.p99``.  ``kinds`` records, per flat key,
    whether the value accumulates (``counter``: deltas subtract) or is
    instantaneous (``gauge``: deltas keep the later value).
    """

    __slots__ = ("cycle", "since_cycle", "values", "kinds")

    def __init__(self, cycle, values, kinds, since_cycle=None):
        self.cycle = cycle
        self.since_cycle = since_cycle
        self.values = values
        self.kinds = kinds

    def __getitem__(self, name):
        return self.values[name]

    def get(self, name, default=0):
        return self.values.get(name, default)

    def __contains__(self, name):
        return name in self.values

    def as_dict(self):
        return dict(self.values)

    def filtered(self, prefix):
        """The subset of values whose name starts with ``prefix``."""
        return {name: value for name, value in self.values.items()
                if name.startswith(prefix)}

    def delta(self, earlier):
        """What happened between ``earlier`` and this snapshot.

        Counter-kind keys subtract; gauge-kind keys (and histogram
        min/max/percentiles) keep this snapshot's value, since a
        difference of instantaneous readings has no meaning.  Keys
        registered only after ``earlier`` count from zero.
        """
        values = {}
        kinds = self.kinds
        for name, value in self.values.items():
            if kinds.get(name) == "counter":
                values[name] = value - earlier.values.get(name, 0)
            else:
                values[name] = value
        # A histogram's min/max/percentile gauges describe its
        # observations; a window in which it recorded nothing (delta
        # count == 0) has no observations, so carrying the whole-run
        # statistics forward would report stale values for the window.
        for name in values:
            if not name.endswith(HISTOGRAM_GAUGE_SUFFIXES):
                continue
            count_key = f"{name.rsplit('.', 1)[0]}.count"
            if (kinds.get(name) == "gauge"
                    and kinds.get(count_key) == "counter"
                    and values.get(count_key) == 0):
                values[name] = None
        return Snapshot(self.cycle, values, dict(self.kinds),
                        since_cycle=earlier.cycle)

    def __sub__(self, earlier):
        return self.delta(earlier)

    @property
    def cycles_elapsed(self):
        """Cycles covered by a delta snapshot (0 for absolute ones)."""
        if self.since_cycle is None:
            return 0
        return self.cycle - self.since_cycle

    def __repr__(self):
        span = (f"{self.since_cycle}->{self.cycle}"
                if self.since_cycle is not None else f"@{self.cycle}")
        return f"Snapshot({span}, {len(self.values)} metrics)"


class MetricsRegistry:
    """All named metrics of one machine, snapshot together.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for an
    existing name returns the same instrument (so two components can
    share one counter), but asking with a different kind is a
    configuration error.  Probes replace a same-named probe (a monitor
    re-attaching re-registers its views) but cannot shadow an owned
    instrument.
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._metrics = {}
        #: ``(key, reader)`` pairs of :meth:`scalar_view`, compiled on
        #: first use after ``_metrics`` changes (None until then).
        self._readers = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(self, name, description=""):
        return self._instrument(Counter, name, description)

    def gauge(self, name, description=""):
        return self._instrument(Gauge, name, description)

    def histogram(self, name, description=""):
        return self._instrument(Histogram, name, description)

    def _instrument(self, cls, name, description):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, description)
        self._metrics[name] = metric
        self._readers = None
        return metric

    def probe(self, name, fn, kind="counter", description=""):
        """Register a callback-backed metric (sampled at snapshot).

        Replacing a *counter* probe folds the predecessor's final value
        into the new one as a base, so the metric stays monotonic when
        its backing object is recreated (a new program's allocator, a
        re-attached monitor).  Without the base, a snapshot taken
        before the swap would make the next delta negative or zero.
        """
        existing = self._metrics.get(name)
        if existing is not None and not isinstance(existing, _Probe):
            raise ConfigurationError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        if (existing is not None and kind == "counter"
                and existing.kind == "counter"):
            base = existing.value
            if base:
                inner = fn
                fn = lambda: base + inner()  # noqa: E731
        probe = _Probe(name, fn, kind, description)
        self._metrics[name] = probe
        self._readers = None
        return probe

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def names(self):
        return sorted(self._metrics)

    def describe(self):
        """``{name: (kind, description)}`` for every registered metric."""
        return {name: (m.kind, m.description)
                for name, m in sorted(self._metrics.items())}

    def value(self, name):
        """Current value of one metric (histograms report count)."""
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def instruments(self):
        """``{name: instrument}`` view (dump/merge machinery)."""
        return dict(self._metrics)

    def scalar_view(self):
        """Every metric's current value in registration order, as the
        sampling profiler reads it: counters, gauges and probes by
        name, each histogram as ``<name>.count`` and ``<name>.sum``
        only (no per-sample percentile sort).

        The readers are compiled once per set of metrics: the list is
        dropped wherever ``_metrics`` changes and rebuilt here.
        """
        readers = self._readers
        if readers is None:
            readers = self._readers = []
            for name, metric in self._metrics.items():
                if isinstance(metric, Histogram):
                    readers.append((f"{name}.count",
                                    attr_reader(metric, "count")))
                    readers.append((f"{name}.sum",
                                    attr_reader(metric, "sum")))
                elif isinstance(metric, _Probe):
                    readers.append((name, metric.fn))
                else:
                    readers.append((name, attr_reader(metric, "value")))
        return {key: read() for key, read in readers}

    @property
    def current_cycle(self):
        """The bound clock's cycle count (0 when clockless)."""
        return self._clock.cycles if self._clock is not None else 0

    def __contains__(self, name):
        return name in self._metrics

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Every metric in registration order as ``[name, kind,
        description, value]``.

        A probe records only its name (kind ``"probe"``): its value
        lives in the component it reads.  A histogram's value is its
        observations in their current order plus whether that order
        is sorted.
        """
        instruments = []
        for name, metric in self._metrics.items():
            if isinstance(metric, _Probe):
                value = None
                kind = "probe"
            elif isinstance(metric, Histogram):
                value = [list(metric._values), metric._sorted]
                kind = metric.kind
            else:
                value = metric.value
                kind = metric.kind
            instruments.append([name, kind, metric.description, value])
        return {"instruments": instruments}

    def load_state(self, state):
        """Restore :meth:`state_dict` output, registration order
        included.

        Every recorded probe must already be registered (the restored
        components registered them when they were built), and every
        registered metric must be in the record; owned instruments
        are created or reset.
        """
        classes = {"counter": Counter, "gauge": Gauge,
                   "histogram": Histogram}
        metrics = {}
        for item in sequence(state["instruments"], "instruments"):
            name, kind, description, value = record(item, 4, "instrument")
            existing = self._metrics.get(text(name, "instrument name"))
            if kind == "probe":
                if not isinstance(existing, _Probe):
                    raise ValueError(f"probe {name!r} is not registered")
                metrics[name] = existing
                continue
            cls = classes.get(kind)
            if cls is None:
                raise ValueError(f"metric {name!r} has unknown kind "
                                 f"{kind!r}")
            if existing is not None and type(existing) is not cls:
                raise ValueError(f"metric {name!r} is registered as "
                                 f"{existing.kind}, recorded as {kind}")
            metric = existing or cls(name, text(description,
                                                "description"))
            if cls is Histogram:
                values, ordered = record(value, 2, f"histogram {name}")
                metric._values = list(numbers(values, name))
                metric._sorted = boolean(ordered, f"{name} sorted")
                metric.sum = sum(metric._values)
            else:
                metric.value = number(value, name)
            metrics[name] = metric
        missing = sorted(set(self._metrics) - set(metrics))
        if missing:
            raise ValueError(f"registered metric(s) missing from the "
                             f"record: {', '.join(missing)}")
        self._metrics = metrics
        self._readers = None

    def snapshot(self):
        """Flatten every metric into a cycle-stamped :class:`Snapshot`."""
        values = {}
        kinds = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                flatten_histogram(metric, values, kinds)
            else:
                values[name] = metric.value
                kinds[name] = metric.kind
        return Snapshot(self.current_cycle, values, kinds)
