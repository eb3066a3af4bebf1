"""Streaming leak-trend analytics over :class:`SamplingProfiler` samples.

SafeMem's lifetime-outlier heuristic (``repro.core.leak``) reasons
about *individual allocations*; production leak hunting usually starts
one level up, from the time series the telemetry stack already ships:
is ``live_bytes`` for some allocation site still climbing after the
service warmed up?  The :class:`TrendEngine` answers that question
online.  It observes every sampler sample (the stack builder,
:func:`~repro.obs.stack.assemble_monitor_stack`, subscribes it) and
maintains one bounded-window state per series:

- ``heap.live_bytes`` -- whole-heap occupancy,
- ``safemem.watch.armed`` -- watch-pool occupancy,
- ``group:<size>:<call_signature>`` -- per-leak-group live bytes from
  :func:`~repro.obs.sampler.leak_group_source` rows.

Every observation runs **three** detectors over every series (they are
cheap, and computing all of them keeps bundles and the head-to-head
experiment comparable without re-running workloads):

``theil-sen``
    Robust slope: the median of all pairwise slopes over the window,
    reported in **bytes per megacycle**.  Judged only once the window
    is *full* -- the median then dilutes a one-off level step (a
    buffer pool warming up) to ~0, so only a *sustained* ramp breaches.
    Insensitive to up to ~29% outlier samples (GC pauses, burst
    frees), but the slowest to react.
``cusum``
    One-sided cumulative sum over *increments*:
    ``s = max(0, s + (x_t - x_{t-1}) - drift)``.  The statistic is net
    growth in **bytes** above the allowed drift; fastest to react to a
    step or a sustained ramp, least robust to a one-off spike.
``page-hinkley``
    Page-Hinkley test: ``m_t += x_t - mean_t - delta`` with statistic
    ``m_t - min(m)``, the **cumulative** bytes above the running mean
    (byte-samples).  Sits between the two: tolerates level shifts the
    series recovers from, flags ones it does not.

Each (series, detector) pair carries a hysteresis latch: the verdict
becomes *breached* when the statistic crosses the detector threshold
and clears only after it falls below ``threshold * clear_ratio``.
Latch **edges** (onset and clear) are emitted as sparse
:data:`~repro.common.events.EventKind.TREND` events -- stamped on the
simulated clock, so forensic replay reproduces them bit-exactly -- and
the latest verdicts are served to the :class:`~repro.obs.alerts.
AlertEngine` through :meth:`TrendEngine.judge`, which interprets
``trend``-kind rule metrics as ``<detector>/<series-pattern>``
selectors.

A tracked group series that vanishes from a sample (the workload freed
the site, or it fell out of the sampler's top-N) is **ended**: its
state is dropped so a later reappearance starts a fresh window instead
of computing a slope across the gap.

With ``seasonal_period`` set, the engine folds every observation onto
its phase within the period and subtracts a **frozen per-phase median
baseline** before the detectors see it.  During the first
``seasonal_warmup`` periods the engine only records (no verdicts, no
events); at the first post-warmup observation of a series its baseline
freezes -- a continuously updated baseline would slowly absorb a real
leak -- and from then on the detectors judge *residuals*.  Clean
diurnal traffic (a session pool that swells by day and drains by
night) then cancels to ~0, while a leak's residual keeps climbing.
Phase bins a series never visited during warmup copy the circularly
nearest recorded bin; a series first seen after warmup gets an
all-zero baseline (raw values pass through).  See
docs/OBSERVABILITY.md.

The whole engine state -- windows, CUSUM/Page-Hinkley accumulators,
hysteresis latches, seasonal baselines -- round-trips bit-exactly
through :meth:`TrendEngine.state_dict` / :meth:`TrendEngine.load_state`
for ``repro.checkpoint/v1`` documents.

The engine exports a ``trend.*`` probe namespace (documented in
docs/OBSERVABILITY.md); note that probe values captured *in* a sample
reflect the previous observation, because the sampler snapshots
metrics before listeners run.
"""

from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.events import EventKind

#: detector names accepted in ``trend``-rule selectors and ``--trend``.
DETECTORS = ("theil-sen", "cusum", "page-hinkley")

#: samples per series window (Theil-Sen pairs grow quadratically).
DEFAULT_WINDOW = 32

#: minimum points before :func:`theil_sen_slope` reports (else 0.0);
#: the engine is stricter and judges only on a *full* window.
MIN_SLOPE_POINTS = 4

#: slope unit: bytes per this many cycles.
MEGACYCLE = 1_000_000

#: default sustained-growth threshold, bytes per megacycle.
DEFAULT_SLOPE_THRESHOLD = 64.0

#: default net-growth threshold for CUSUM, bytes.  Sized above the
#: steady-state footprint a clean working set accretes (the corpus'
#: clean runs plateau below 8 KiB per group).
DEFAULT_CUSUM_THRESHOLD = 16_384.0

#: default cumulative above-running-mean threshold for Page-Hinkley,
#: in byte-samples.  Clean transients in the corpus stay under ~45k.
DEFAULT_PH_THRESHOLD = 131_072.0

#: per-sample growth tolerated by CUSUM before it accumulates, bytes.
DEFAULT_CUSUM_DRIFT = 0.0

#: per-sample magnitude ignored by Page-Hinkley, bytes.
DEFAULT_PH_DELTA = 0.0

#: breached latches clear below ``threshold * clear_ratio``.
DEFAULT_CLEAR_RATIO = 0.5

#: phase bins the seasonal baseline folds a period into.
DEFAULT_SEASONAL_PHASES = 32

#: full periods recorded before the seasonal baseline freezes.
DEFAULT_SEASONAL_WARMUP = 2


def group_series_name(size, call_signature):
    """Series name for one allocation group, e.g. ``group:48:0x2a``."""
    return f"group:{size}:{call_signature:#x}"


def parse_selector(selector):
    """Split a ``<detector>/<series-pattern>`` selector.

    The pattern is ``*`` (every series), a ``prefix*`` glob, or an
    exact series name.  Raises :class:`ConfigurationError` on a
    missing ``/`` or an unknown detector.
    """
    if not isinstance(selector, str) or "/" not in selector:
        raise ConfigurationError(
            f"trend selector {selector!r} must look like "
            f"'<detector>/<series-pattern>' "
            f"(e.g. 'theil-sen/group:*')"
        )
    detector, pattern = selector.split("/", 1)
    if detector not in DETECTORS:
        raise ConfigurationError(
            f"trend selector {selector!r}: unknown detector "
            f"{detector!r} (choose from {', '.join(DETECTORS)})"
        )
    if not pattern:
        raise ConfigurationError(
            f"trend selector {selector!r} has an empty series pattern"
        )
    return detector, pattern


def series_matches(pattern, name):
    """True when a selector pattern covers a series name."""
    if pattern == "*":
        return True
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


@dataclass(frozen=True)
class TrendVerdict:
    """One detector's latest word on one series."""

    series: str
    detector: str
    cycle: int
    value: float
    breached: bool

    def to_dict(self):
        return {
            "series": self.series,
            "detector": self.detector,
            "cycle": self.cycle,
            "value": self.value,
            "breached": self.breached,
        }


class _SeriesState:
    """Detector state for one tracked series."""

    __slots__ = ("window", "last_value", "cusum", "ph_count", "ph_mean",
                 "ph_m", "ph_min", "breached", "last_cycle",
                 "points_seen", "season_bins", "baseline")

    def __init__(self, window, seasonal_phases=None):
        #: (cycle, value) ring for the Theil-Sen window.
        self.window = deque(maxlen=window)
        self.last_value = None
        self.cusum = 0.0
        self.ph_count = 0
        self.ph_mean = 0.0
        self.ph_m = 0.0
        self.ph_min = 0.0
        #: detector name -> currently latched breached?
        self.breached = {detector: False for detector in DETECTORS}
        self.last_cycle = 0
        self.points_seen = 0
        #: per-phase raw values recorded during seasonal warmup.
        self.season_bins = ([[] for _ in range(seasonal_phases)]
                            if seasonal_phases else None)
        #: per-phase frozen medians (None until the baseline freezes).
        self.baseline = None


def _median(values):
    """Median of a non-empty list (sorted internally)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def theil_sen_slope(points):
    """Median pairwise slope of ``(cycle, value)`` points, per cycle.

    Returns 0.0 below :data:`MIN_SLOPE_POINTS` -- a two-sample
    "window" is noise, not a trend.
    """
    if len(points) < MIN_SLOPE_POINTS:
        return 0.0
    slopes = []
    for i in range(len(points)):
        cycle_i, value_i = points[i]
        for j in range(i + 1, len(points)):
            cycle_j, value_j = points[j]
            if cycle_j != cycle_i:
                slopes.append((value_j - value_i) / (cycle_j - cycle_i))
    if not slopes:
        return 0.0
    slopes.sort()
    mid = len(slopes) // 2
    if len(slopes) % 2:
        return slopes[mid]
    return (slopes[mid - 1] + slopes[mid]) / 2.0


class TrendEngine:
    """Online slope/changepoint detection over sampler series.

    Build it through :func:`~repro.obs.stack.assemble_monitor_stack`
    (or :func:`~repro.obs.stack.build_monitor_stack`), which subscribes
    :meth:`observe` **before** the alert engine's listener, so
    ``trend``-kind rules judge the verdicts of the sample being
    evaluated rather than the previous one.
    """

    def __init__(self, machine, window=DEFAULT_WINDOW,
                 slope_threshold=DEFAULT_SLOPE_THRESHOLD,
                 cusum_threshold=DEFAULT_CUSUM_THRESHOLD,
                 cusum_drift=DEFAULT_CUSUM_DRIFT,
                 ph_threshold=DEFAULT_PH_THRESHOLD,
                 ph_delta=DEFAULT_PH_DELTA,
                 clear_ratio=DEFAULT_CLEAR_RATIO,
                 seasonal_period=None,
                 seasonal_phases=DEFAULT_SEASONAL_PHASES,
                 seasonal_warmup=DEFAULT_SEASONAL_WARMUP,
                 emit_events=True, register_probes=True):
        if window < MIN_SLOPE_POINTS:
            raise ConfigurationError(
                f"trend window must be >= {MIN_SLOPE_POINTS}, "
                f"got {window}"
            )
        if not 0.0 <= clear_ratio <= 1.0:
            raise ConfigurationError(
                f"trend clear_ratio must be within [0, 1], "
                f"got {clear_ratio}"
            )
        if seasonal_period is not None and seasonal_period < 1:
            raise ConfigurationError(
                f"seasonal period must be >= 1 cycle, "
                f"got {seasonal_period}"
            )
        if seasonal_phases < 1:
            raise ConfigurationError(
                f"seasonal phases must be >= 1, got {seasonal_phases}"
            )
        if seasonal_warmup < 1:
            raise ConfigurationError(
                f"seasonal warmup must be >= 1 period, "
                f"got {seasonal_warmup}"
            )
        self._machine = machine
        self._events = machine.events
        self.window = window
        self.clear_ratio = clear_ratio
        self.thresholds = {
            "theil-sen": float(slope_threshold),
            "cusum": float(cusum_threshold),
            "page-hinkley": float(ph_threshold),
        }
        self.cusum_drift = float(cusum_drift)
        self.ph_delta = float(ph_delta)
        self.seasonal_period = seasonal_period
        self.seasonal_phases = seasonal_phases
        self.seasonal_warmup = seasonal_warmup
        #: False silences TREND event emission -- a purely
        #: computational observer (e.g. the no-baseline control engine
        #: the SEASON experiment runs alongside) that cannot perturb
        #: the replayable event stream.
        self.emit_events = emit_events
        self._series = {}
        #: series name -> {detector -> TrendVerdict} from the latest
        #: observation of that series.
        self._verdicts = {}
        self.evaluations = 0
        self.series_ended = 0
        self.breach_onsets = 0
        #: breach-onset log: {"cycle", "series", "detector"} dicts in
        #: onset order (experiments score control engines from this).
        self.onsets = []
        if register_probes:
            self._register_probes(machine.metrics)

    # ------------------------------------------------------------------
    # probes (documented in docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def _register_probes(self, metrics):
        metrics.probe("trend.series", lambda: len(self._series),
                      kind="gauge",
                      description="series currently tracked")
        metrics.probe("trend.evaluations",
                      lambda: self.evaluations,
                      description="samples observed by the engine")
        metrics.probe("trend.verdicts", lambda: self.breach_onsets,
                      description="breach onsets (latch closed)")
        metrics.probe("trend.series_ended",
                      lambda: self.series_ended,
                      description="series ended (group freed or "
                                  "evicted)")
        metrics.probe("trend.breaching", self._breaching_count,
                      kind="gauge",
                      description="(series, detector) pairs latched "
                                  "breached")
        metrics.probe("trend.max_slope", self._max_slope, kind="gauge",
                      description="largest Theil-Sen slope across "
                                  "series, bytes/Mcycle")

    def _breaching_count(self):
        return sum(
            1 for state in self._series.values()
            for latched in state.breached.values() if latched
        )

    def _max_slope(self):
        slopes = [
            verdicts["theil-sen"].value
            for verdicts in self._verdicts.values()
            if "theil-sen" in verdicts
        ]
        return max(slopes) if slopes else 0.0

    # ------------------------------------------------------------------
    # observation (the sampler listener)
    # ------------------------------------------------------------------
    def observe(self, sample):
        """Update every detector with one :class:`Sample`."""
        self.evaluations += 1
        values = {
            "heap.live_bytes": float(sample.heap_live_bytes),
            "safemem.watch.armed": float(sample.armed_watches),
        }
        for row in sample.groups:
            name = group_series_name(row["size"],
                                     row["call_signature"])
            values[name] = float(row["live_bytes"])
        for name in list(self._series):
            if name not in values:
                self._end_series(name, sample.cycle)
        for name, value in sorted(values.items()):
            self._observe_series(name, sample.cycle, value)

    def _end_series(self, name, cycle):
        state = self._series.pop(name)
        self._verdicts.pop(name, None)
        self.series_ended += 1
        for detector, latched in sorted(state.breached.items()):
            if latched and self.emit_events:
                self._events.emit(
                    EventKind.TREND,
                    series=name, detector=detector, breached=False,
                    value=0.0, reason="series-ended",
                )

    def _seasonal_adjust(self, state, cycle, value):
        """Seasonal pipeline: record during warmup, residual after.

        Returns None while the baseline is still warming up (the
        observation was recorded; the detectors must not run), else the
        residual ``value - baseline[phase]``.
        """
        period = self.seasonal_period
        phase = (cycle % period) * self.seasonal_phases // period
        if cycle < period * self.seasonal_warmup:
            state.season_bins[phase].append(value)
            return None
        if state.baseline is None:
            state.baseline = self._freeze_baseline(state.season_bins)
        return value - state.baseline[phase]

    def _freeze_baseline(self, season_bins):
        """Per-phase medians; empty bins copy the nearest recorded bin.

        Sampling cadences rarely visit every phase bin during warmup.
        An unvisited bin takes the median of the circularly nearest
        visited bin -- for a smooth seasonal signal that is off by at
        most one bin of slope, where a series-wide fallback would be
        off by the full seasonal amplitude.  A series with no warmup
        data at all (first seen after warmup) gets an all-zero
        baseline, so its raw values pass through.
        """
        filled = [i for i, bin_values in enumerate(season_bins)
                  if bin_values]
        if not filled:
            return [0.0] * self.seasonal_phases
        medians = {i: _median(season_bins[i]) for i in filled}
        phases = self.seasonal_phases
        return [
            medians[i] if i in medians else medians[min(
                filled,
                key=lambda j: min((i - j) % phases, (j - i) % phases),
            )]
            for i in range(phases)
        ]

    def _observe_series(self, name, cycle, value):
        state = self._series.get(name)
        if state is None:
            state = self._series[name] = _SeriesState(
                self.window,
                seasonal_phases=(self.seasonal_phases
                                 if self.seasonal_period else None))
        if self.seasonal_period:
            value = self._seasonal_adjust(state, cycle, value)
            if value is None:
                # Warmup: the baseline recorded the raw value; the
                # detectors stay gated until it freezes.
                state.last_cycle = cycle
                state.points_seen += 1
                return
        previous = state.last_value
        state.window.append((cycle, value))
        state.last_cycle = cycle
        state.points_seen += 1
        # CUSUM over increments (needs a previous point).
        if previous is not None:
            state.cusum = max(
                0.0, state.cusum + (value - previous) - self.cusum_drift
            )
        # Page-Hinkley running mean / minimum.
        state.ph_count += 1
        state.ph_mean += (value - state.ph_mean) / state.ph_count
        state.ph_m += value - state.ph_mean - self.ph_delta
        state.ph_min = min(state.ph_min, state.ph_m)
        state.last_value = value
        # Theil-Sen is judged only on a full window: the median of
        # pairwise slopes then dilutes a one-off level step (clean
        # warmup) to ~0, so only a sustained ramp reports a slope.
        slope = 0.0
        if len(state.window) == self.window:
            slope = theil_sen_slope(state.window) * MEGACYCLE
        statistics = {
            "theil-sen": slope,
            "cusum": state.cusum,
            "page-hinkley": state.ph_m - state.ph_min,
        }
        verdicts = {}
        for detector in DETECTORS:
            stat = statistics[detector]
            threshold = self.thresholds[detector]
            clear_at = threshold * self.clear_ratio
            latched = state.breached[detector]
            if not latched and stat >= threshold:
                latched = True
                self.breach_onsets += 1
                self.onsets.append({"cycle": cycle, "series": name,
                                    "detector": detector})
                if self.emit_events:
                    self._events.emit(
                        EventKind.TREND,
                        series=name, detector=detector, breached=True,
                        value=stat,
                    )
            elif latched and stat < clear_at:
                latched = False
                if self.emit_events:
                    self._events.emit(
                        EventKind.TREND,
                        series=name, detector=detector, breached=False,
                        value=stat,
                    )
            state.breached[detector] = latched
            verdicts[detector] = TrendVerdict(
                series=name, detector=detector, cycle=cycle,
                value=stat, breached=latched,
            )
        self._verdicts[name] = verdicts

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def judge(self, selector):
        """Latest verdicts matching a ``<detector>/<pattern>`` selector.

        Sorted by series name; used by ``trend``-kind alert rules.
        """
        detector, pattern = parse_selector(selector)
        return [
            self._verdicts[name][detector]
            for name in sorted(self._verdicts)
            if series_matches(pattern, name)
        ]

    def verdicts(self):
        """Every latest verdict, sorted by (series, detector)."""
        return [
            self._verdicts[name][detector]
            for name in sorted(self._verdicts)
            for detector in DETECTORS
        ]

    def summary(self):
        """JSON-able engine state for forensic bundles."""
        series = []
        for name in sorted(self._series):
            state = self._series[name]
            row = {
                "name": name,
                "points": len(state.window),
                "points_seen": state.points_seen,
                "last_cycle": state.last_cycle,
                "last_value": state.last_value,
                "verdicts": [
                    self._verdicts[name][detector].to_dict()
                    for detector in DETECTORS
                    if name in self._verdicts
                ],
            }
            if self.seasonal_period:
                row["baseline_ready"] = state.baseline is not None
            series.append(row)
        summary = {
            "window": self.window,
            "clear_ratio": self.clear_ratio,
            "thresholds": dict(self.thresholds),
            "evaluations": self.evaluations,
            "series_ended": self.series_ended,
            "breach_onsets": self.breach_onsets,
            "series": series,
        }
        if self.seasonal_period:
            summary["seasonal"] = {
                "period": self.seasonal_period,
                "phases": self.seasonal_phases,
                "warmup_periods": self.seasonal_warmup,
            }
        return summary

    # ------------------------------------------------------------------
    # durable state (repro.checkpoint/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Complete detector state, JSON-able and bit-exact.

        Everything a resumed engine needs to continue producing the
        same verdicts: windows, CUSUM/Page-Hinkley accumulators,
        hysteresis latches, seasonal bins/baselines, counters, and the
        latest verdicts.  Floats survive a JSON round-trip exactly
        (repr round-trip), so ``load_state(state_dict())`` is the
        identity.
        """
        series = {}
        for name in sorted(self._series):
            state = self._series[name]
            series[name] = {
                "window": [[cycle, value]
                           for cycle, value in state.window],
                "last_value": state.last_value,
                "cusum": state.cusum,
                "ph_count": state.ph_count,
                "ph_mean": state.ph_mean,
                "ph_m": state.ph_m,
                "ph_min": state.ph_min,
                "breached": dict(state.breached),
                "last_cycle": state.last_cycle,
                "points_seen": state.points_seen,
                "season_bins": (
                    [list(bin_values)
                     for bin_values in state.season_bins]
                    if state.season_bins is not None else None),
                "baseline": (list(state.baseline)
                             if state.baseline is not None else None),
            }
        return {
            "window": self.window,
            "clear_ratio": self.clear_ratio,
            "thresholds": dict(self.thresholds),
            "cusum_drift": self.cusum_drift,
            "ph_delta": self.ph_delta,
            "seasonal_period": self.seasonal_period,
            "seasonal_phases": self.seasonal_phases,
            "seasonal_warmup": self.seasonal_warmup,
            "evaluations": self.evaluations,
            "series_ended": self.series_ended,
            "breach_onsets": self.breach_onsets,
            "onsets": [dict(onset) for onset in self.onsets],
            "series": series,
            "verdicts": {
                name: {detector: verdict.to_dict()
                       for detector, verdict in
                       sorted(self._verdicts[name].items())}
                for name in sorted(self._verdicts)
            },
        }

    def load_state(self, payload):
        """Restore :meth:`state_dict` output into this engine.

        The engine's own configuration (window, thresholds, seasonal
        settings) must match the recorded one -- a checkpoint resumed
        under different detector tuning would silently change verdicts.
        """
        for key, mine in (("window", self.window),
                          ("clear_ratio", self.clear_ratio),
                          ("cusum_drift", self.cusum_drift),
                          ("ph_delta", self.ph_delta),
                          ("seasonal_period", self.seasonal_period),
                          ("seasonal_phases", self.seasonal_phases),
                          ("seasonal_warmup", self.seasonal_warmup)):
            if payload.get(key) != mine:
                raise ConfigurationError(
                    f"trend state mismatch: recorded {key}="
                    f"{payload.get(key)!r}, engine has {mine!r}"
                )
        if dict(payload.get("thresholds", {})) != self.thresholds:
            raise ConfigurationError(
                f"trend state mismatch: recorded thresholds="
                f"{payload.get('thresholds')!r}, engine has "
                f"{self.thresholds!r}"
            )
        self.evaluations = payload["evaluations"]
        self.series_ended = payload["series_ended"]
        self.breach_onsets = payload["breach_onsets"]
        self.onsets = [dict(onset)
                       for onset in payload.get("onsets", [])]
        self._series = {}
        self._verdicts = {}
        for name, record in payload["series"].items():
            state = _SeriesState(
                self.window,
                seasonal_phases=(self.seasonal_phases
                                 if self.seasonal_period else None))
            for cycle, value in record["window"]:
                state.window.append((cycle, value))
            state.last_value = record["last_value"]
            state.cusum = record["cusum"]
            state.ph_count = record["ph_count"]
            state.ph_mean = record["ph_mean"]
            state.ph_m = record["ph_m"]
            state.ph_min = record["ph_min"]
            state.breached = {detector: bool(record["breached"][detector])
                              for detector in DETECTORS}
            state.last_cycle = record["last_cycle"]
            state.points_seen = record["points_seen"]
            if record.get("season_bins") is not None:
                state.season_bins = [list(bin_values) for bin_values
                                     in record["season_bins"]]
            if record.get("baseline") is not None:
                state.baseline = list(record["baseline"])
            self._series[name] = state
        for name, verdicts in payload.get("verdicts", {}).items():
            self._verdicts[name] = {
                detector: TrendVerdict(
                    series=record["series"],
                    detector=record["detector"],
                    cycle=record["cycle"],
                    value=record["value"],
                    breached=record["breached"],
                )
                for detector, record in verdicts.items()
            }
        return self
