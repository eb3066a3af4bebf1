"""Tests for the streaming leak-trend analytics engine.

Covers the detector math (Theil-Sen robustness, CUSUM increments,
Page-Hinkley recovery), selector parsing, the per-(series, detector)
hysteresis latch and its TREND events, series ending when a group
vanishes mid-window, the ``trend``-kind alert rule (validation,
lifecycle, engine wiring), sampler edge cases, the
``--trend`` CLI surface (monitor summary, inspect --trends, diff trend
deltas), and bit-exact replay of a bundle captured with a trend engine
attached.
"""

import io
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.common.events import EventKind
from repro.core.config import leak_only_config
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    default_trend_rules,
    load_rules,
)
from repro.obs.forensics import (
    capture_bundle,
    diff_documents,
    render_bundle_trends,
    render_diff,
    replay_bundle,
    verify_replay,
    write_bundle,
)
from repro.obs.sampler import Sample, SamplingProfiler, leak_group_source
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.obs.trend import (
    DEFAULT_WINDOW,
    DETECTORS,
    MEGACYCLE,
    MIN_SLOPE_POINTS,
    TrendEngine,
    group_series_name,
    parse_selector,
    series_matches,
    theil_sen_slope,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def make_sample(cycle, heap=0.0, armed=0.0, groups=(), index=0):
    return Sample(index=index, cycle=cycle,
                  metrics={"heap.live_bytes": heap,
                           "safemem.watch.armed": armed},
                  spans=[], groups=list(groups), overhead_fraction=0.0)


def group_row(size, signature, live_bytes):
    return {"size": size, "call_signature": signature,
            "live_bytes": live_bytes}


def trend_events(machine):
    return machine.events.of_kind(EventKind.TREND)


# ----------------------------------------------------------------------
# selectors
# ----------------------------------------------------------------------
class TestSelectors:
    def test_parse_selector(self):
        assert parse_selector("theil-sen/group:*") == \
            ("theil-sen", "group:*")
        assert parse_selector("cusum/heap.live_bytes") == \
            ("cusum", "heap.live_bytes")

    def test_rejects_missing_slash(self):
        with pytest.raises(ConfigurationError, match="selector"):
            parse_selector("cusum")

    def test_rejects_unknown_detector(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            parse_selector("least-squares/group:*")

    def test_rejects_empty_pattern(self):
        with pytest.raises(ConfigurationError, match="empty"):
            parse_selector("cusum/")

    def test_series_matches(self):
        assert series_matches("*", "anything")
        assert series_matches("group:*", "group:48:0x2a")
        assert not series_matches("group:*", "heap.live_bytes")
        assert series_matches("heap.live_bytes", "heap.live_bytes")
        assert not series_matches("heap.live_bytes", "heap.live")

    def test_group_series_name(self):
        assert group_series_name(48, 0x2A) == "group:48:0x2a"


# ----------------------------------------------------------------------
# Theil-Sen
# ----------------------------------------------------------------------
class TestTheilSenSlope:
    def test_perfect_line(self):
        points = [(i * 1000, i * 100.0) for i in range(8)]
        assert theil_sen_slope(points) == pytest.approx(0.1)

    def test_robust_to_one_outlier(self):
        points = [(i * 1000, i * 100.0) for i in range(8)]
        points[4] = (4000, 50_000.0)  # burst free / GC pause artifact
        assert theil_sen_slope(points) == pytest.approx(0.1)

    def test_too_few_points_is_zero(self):
        points = [(0, 0.0), (1000, 100.0), (2000, 200.0)]
        assert len(points) < MIN_SLOPE_POINTS
        assert theil_sen_slope(points) == 0.0

    def test_coincident_cycles_are_zero(self):
        assert theil_sen_slope([(5, 1.0), (5, 2.0), (5, 3.0),
                                (5, 4.0)]) == 0.0


# ----------------------------------------------------------------------
# incremental Theil-Sen vs the reference helper (differential property)
# ----------------------------------------------------------------------
#: (size, call signature) of the group series a stream can carry.
GROUP_KEYS = ((16, 0x7), (48, 0x2A), (64, 0x10), (128, 0x99))

#: byte levels, with repeats common so equal slopes (ties) occur.
levels = st.one_of(st.integers(0, 1 << 20), st.sampled_from([0, 4096]))

#: group series switched on or off by one sample: usually none, so
#: groups often persist long enough to fill their windows.
toggles = st.one_of(
    st.just(frozenset()), st.just(frozenset()), st.just(frozenset()),
    st.frozensets(st.integers(0, len(GROUP_KEYS) - 1), min_size=1,
                  max_size=2))

#: per sample: cycle advance (0 repeats the previous cycle, as the
#: end-of-run ``sample_now`` can), heap bytes, armed watches, the
#: groups toggled (a group switched off ends its series, and switching
#: it back on starts a fresh one) and every group's bytes.  Streams
#: are longer than the largest window, so every stream evicts.
trend_steps = st.lists(
    st.tuples(st.sampled_from([0, 1, 40_000, 100_000, 250_000]),
              levels, st.integers(0, 64), toggles,
              st.tuples(*[levels] * len(GROUP_KEYS))),
    min_size=42, max_size=90)

#: None (flat) or (period, phases, warmup periods).
seasons = st.one_of(st.none(),
                    st.tuples(st.integers(200_000, 2_000_000),
                              st.integers(1, 8), st.integers(1, 2)))


def _trend_stream(steps):
    cycle = 100_000
    present = frozenset()
    for index, (advance, heap, armed, toggled, group_bytes) in \
            enumerate(steps):
        cycle += advance
        present ^= toggled
        rows = [group_row(*GROUP_KEYS[key], group_bytes[key])
                for key in sorted(present)]
        yield make_sample(cycle, heap=heap, armed=armed, groups=rows,
                          index=index)


def _engine_for(window, season, machine=None):
    seasonal = {}
    if season is not None:
        period, phases, warmup = season
        seasonal = {"seasonal_period": period, "seasonal_phases": phases,
                    "seasonal_warmup": warmup}
    return TrendEngine(machine or Machine(dram_size=1024 * 1024),
                       window=window, **seasonal)


def _pairwise_slopes(points):
    return sorted(
        (value_j - value_i) / (cycle_j - cycle_i)
        for i, (cycle_i, value_i) in enumerate(points)
        for cycle_j, value_j in points[i + 1:]
        if cycle_j != cycle_i)


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestIncrementalTheilSen:
    @given(window=st.integers(MIN_SLOPE_POINTS, 40), season=seasons,
           steps=trend_steps, restore_at=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_and_survives_restore(self, window, season,
                                                    steps, restore_at):
        """After every observation each series' Theil-Sen verdict is
        the reference slope of its window (0.0 until the window is
        full), its sorted slopes are exactly the window's pairwise
        slopes, and an engine restored from a JSON round trip of
        ``state_dict()`` at a random step tracks the uninterrupted one
        at every later step."""
        engine = _engine_for(window, season)
        samples = list(_trend_stream(steps))
        restore_at %= len(samples)
        restored = None
        for index, sample in enumerate(samples):
            if index == restore_at:
                restored = _engine_for(window, season).load_state(
                    json.loads(json.dumps(engine.state_dict())))
            engine.observe(sample)
            for verdict in engine.judge("theil-sen/*"):
                state = engine._series[verdict.series]
                points = list(state.window)
                assert state.slopes == _pairwise_slopes(points)
                expected = (theil_sen_slope(points) * MEGACYCLE
                            if len(points) == window else 0.0)
                assert _same_float(verdict.value, expected)
            if restored is not None:
                restored.observe(sample)
                assert restored.state_dict() == engine.state_dict()
                assert restored.summary() == engine.summary()


#: None (flat), or (phases, warmup periods, the step inside whose
#: sample the warmup ends).
restore_seasons = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 8), st.integers(1, 2), st.integers(0, 40)))


class TestVerdictsAfterRestore:
    @given(window=st.integers(4, 8), season=restore_seasons,
           steps=trend_steps)
    @settings(max_examples=20, deadline=None)
    def test_restored_engine_reads_the_same_verdicts(self, window, season,
                                                     steps):
        """Verdicts are read from the state ``state_dict`` carries, so
        after every observation an engine loaded from a JSON round
        trip of it reads the same verdicts, ``judge`` results,
        summary and ``trend.max_slope`` as the engine it came from;
        no series has a verdict before the seasonal warmup ends, every
        series has one after, stamped with the sample's cycle; and a
        full window's Theil-Sen verdict is the reference slope of the
        window."""
        samples = list(_trend_stream(steps))
        warmup_end = None
        if season is not None:
            phases, warmup, step = season
            # The warmup ends after the chosen sample's cycle, and a
            # later sample lies past it.
            period = samples[step].cycle // warmup + 1
            warmup_end = period * warmup
            season = (period, phases, warmup)
            assume(warmup_end <= samples[-1].cycle)

        def engine_on_a_machine():
            machine = Machine(dram_size=1024 * 1024)
            return machine, _engine_for(window, season, machine)

        machine, engine = engine_on_a_machine()
        for sample in samples:
            engine.observe(sample)
            twin, fresh = engine_on_a_machine()
            fresh.load_state(json.loads(json.dumps(engine.state_dict())))
            verdicts = engine.verdicts()
            assert fresh.verdicts() == verdicts
            for detector in DETECTORS:
                assert fresh.judge(f"{detector}/*") \
                    == engine.judge(f"{detector}/*")
            assert fresh.summary() == engine.summary()
            assert twin.metrics.value("trend.max_slope") \
                == machine.metrics.value("trend.max_slope")
            # Every tracked series was observed at this sample.
            assert {verdict.cycle for verdict in verdicts} \
                <= {sample.cycle}
            judged = {verdict.series for verdict in verdicts}
            if warmup_end is not None and sample.cycle < warmup_end:
                assert judged == set()
            else:
                assert judged == {row["name"] for row
                                  in engine.summary()["series"]}
            state = engine.state_dict()["series"]
            for verdict in engine.judge("theil-sen/*"):
                points = [tuple(point)
                          for point in state[verdict.series]["window"]]
                expected = (theil_sen_slope(points) * MEGACYCLE
                            if len(points) == window else 0.0)
                assert _same_float(verdict.value, expected)


# ----------------------------------------------------------------------
# the engine's detector state machines
# ----------------------------------------------------------------------
class TestTrendEngineDetectors:
    def make_engine(self, **kwargs):
        machine = Machine(dram_size=8 * 1024 * 1024)
        return machine, TrendEngine(machine, **kwargs)

    def test_window_validation(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        with pytest.raises(ConfigurationError, match="window"):
            TrendEngine(machine, window=MIN_SLOPE_POINTS - 1)
        with pytest.raises(ConfigurationError, match="clear_ratio"):
            TrendEngine(machine, clear_ratio=1.5)

    def test_cusum_breaches_then_clears_with_hysteresis(self):
        machine, engine = self.make_engine(
            window=4, cusum_threshold=100.0, clear_ratio=0.5)
        for index, heap in enumerate((0.0, 50.0, 100.0, 150.0)):
            engine.observe(make_sample(index * 1000, heap=heap))
        verdict, = engine.judge("cusum/heap.live_bytes")
        assert verdict.breached and verdict.value == pytest.approx(150.0)
        # shrinking resets the one-sided sum; below 50 the latch clears.
        engine.observe(make_sample(4000, heap=0.0))
        verdict, = engine.judge("cusum/heap.live_bytes")
        assert not verdict.breached
        edges = [event for event in trend_events(machine)
                 if event.detail["series"] == "heap.live_bytes"
                 and event.detail["detector"] == "cusum"]
        assert [edge.detail["breached"] for edge in edges] == \
            [True, False]

    def test_theil_sen_judges_only_full_windows(self):
        machine, engine = self.make_engine(
            window=4, slope_threshold=50.0)
        for index in range(3):
            engine.observe(make_sample(index * 1000,
                                       heap=index * 100.0))
            verdict, = engine.judge("theil-sen/heap.live_bytes")
            assert verdict.value == 0.0 and not verdict.breached
        engine.observe(make_sample(3000, heap=300.0))
        verdict, = engine.judge("theil-sen/heap.live_bytes")
        # 100 bytes per 1000 cycles = 100_000 bytes/Mcycle.
        assert verdict.value == pytest.approx(0.1 * MEGACYCLE)
        assert verdict.breached

    def test_page_hinkley_tolerates_recovered_spike(self):
        machine, engine = self.make_engine(
            window=4, ph_threshold=50.0, clear_ratio=0.5)
        cycle = 0
        for heap in (0.0, 0.0, 0.0, 100.0):
            engine.observe(make_sample(cycle, heap=heap))
            cycle += 1000
        verdict, = engine.judge("page-hinkley/heap.live_bytes")
        assert verdict.breached  # the spike looked like a level shift
        for _ in range(8):  # ...but the series recovers
            engine.observe(make_sample(cycle, heap=0.0))
            cycle += 1000
        verdict, = engine.judge("page-hinkley/heap.live_bytes")
        assert not verdict.breached

    def test_vanished_group_ends_its_series(self):
        machine, engine = self.make_engine(window=4,
                                           cusum_threshold=64.0)
        grows = [group_row(48, 0x2A, bytes_)
                 for bytes_ in (48, 480, 960)]
        for index, row in enumerate(grows):
            engine.observe(make_sample(index * 1000, groups=[row]))
        name = group_series_name(48, 0x2A)
        verdict = engine.judge(f"cusum/{name}")[0]
        assert verdict.breached
        # the site is freed: the next sample has no such group.
        engine.observe(make_sample(3000))
        assert engine.series_ended == 1
        assert engine.judge(f"cusum/{name}") == []
        ended = [event for event in trend_events(machine)
                 if event.detail.get("reason") == "series-ended"]
        assert [event.detail["series"] for event in ended] == [name]
        assert not ended[0].detail["breached"]
        # reappearance starts a fresh window: no slope across the gap.
        engine.observe(make_sample(4000,
                                   groups=[group_row(48, 0x2A, 960)]))
        verdict = engine.judge(f"cusum/{name}")[0]
        assert verdict.value == 0.0 and not verdict.breached

    def test_probes_registered(self):
        machine, engine = self.make_engine(window=4,
                                           cusum_threshold=100.0)
        for index, heap in enumerate((0.0, 80.0, 160.0, 240.0)):
            engine.observe(make_sample(index * 1000, heap=heap))
        metrics = machine.metrics
        assert metrics.value("trend.evaluations") == 4
        assert metrics.value("trend.series") == 2
        assert metrics.value("trend.verdicts") == engine.breach_onsets
        assert metrics.value("trend.breaching") >= 1
        assert metrics.value("trend.series_ended") == 0
        # max_slope reads the latest Theil-Sen verdicts (full window).
        assert metrics.value("trend.max_slope") == pytest.approx(
            0.08 * MEGACYCLE)

    def test_verdicts_and_summary_are_sorted_and_jsonable(self):
        machine, engine = self.make_engine(window=4)
        engine.observe(make_sample(0, heap=10.0,
                                   groups=[group_row(48, 0x2A, 48)]))
        verdicts = engine.verdicts()
        assert [v.series for v in verdicts] == sorted(
            v.series for v in verdicts)
        assert {v.detector for v in verdicts} == set(DETECTORS)
        summary = engine.summary()
        json.dumps(summary)  # must be JSON-able for bundles
        assert summary["window"] == 4
        assert [s["name"] for s in summary["series"]] == sorted(
            s["name"] for s in summary["series"])


# ----------------------------------------------------------------------
# the trend alert rule kind
# ----------------------------------------------------------------------
class TestTrendRuleKind:
    def test_trend_rule_validates_selector(self):
        with pytest.raises(ConfigurationError,
                           match="alert rule 'bad-rule'"):
            AlertRule("bad-rule", "not-a-selector", kind="trend")

    def test_unknown_kind_names_the_rule(self):
        with pytest.raises(ConfigurationError,
                           match="alert rule 'r'.*unknown kind"):
            AlertRule.from_dict({"name": "r", "metric": "m",
                                 "kind": "banana"})

    def test_unknown_keys_name_the_rule(self):
        with pytest.raises(ConfigurationError,
                           match="alert rule 'r'.*threshold_value"):
            AlertRule.from_dict({"name": "r", "metric": "m",
                                 "threshold_value": 5})

    def test_load_rules_rejects_non_object_entries(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(["leak-trend-cusum"]))
        with pytest.raises(ConfigurationError, match="entry #0"):
            load_rules(path)

    def test_trend_rules_round_trip_through_files(self, tmp_path):
        rules = [rule.to_dict() for detector in DETECTORS
                 for rule in default_trend_rules(detector)]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        loaded = load_rules(path)
        assert [rule.to_dict() for rule in loaded] == rules

    def test_default_trend_rules_rejects_unknown_detector(self):
        with pytest.raises(ConfigurationError, match="unknown trend"):
            default_trend_rules("least-squares")

    def test_rule_without_trend_source_never_fires(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        engine = AlertEngine(default_trend_rules("cusum"),
                             events=machine.events,
                             metrics=machine.metrics)
        for index in range(4):
            engine.evaluate(make_sample(
                index * 1000,
                groups=[group_row(48, 0x2A, (index + 1) * 10_000)]))
        assert engine.transitions == []

    def test_trend_alert_lifecycle(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        trend = TrendEngine(machine, window=4, cusum_threshold=100.0)
        engine = AlertEngine(default_trend_rules("cusum"),
                             events=machine.events,
                             metrics=machine.metrics,
                             trend_source=trend)

        def observe(sample):  # the stack's listener order
            trend.observe(sample)
            engine.evaluate(sample)

        cycle = 0
        for bytes_ in (0, 60, 120, 180, 240):  # sustained group growth
            observe(make_sample(cycle,
                                groups=[group_row(48, 0x2A, bytes_)]))
            cycle += 1000
        for _ in range(4):  # the site is freed: series ends, rule clears
            observe(make_sample(cycle))
            cycle += 1000
        states = [(t.rule, t.state) for t in engine.transitions]
        assert states == [("leak-trend-cusum", "firing"),
                          ("leak-trend-cusum", "resolved")]
        assert machine.metrics.value(
            "alerts.rule.leak-trend-cusum.fired") == 1


# ----------------------------------------------------------------------
# sampler edge cases
# ----------------------------------------------------------------------
class TestSamplerRingEdges:
    def test_interval_longer_than_run_takes_no_samples(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        sampler = SamplingProfiler(machine, interval_cycles=10 ** 9)
        sampler.start()
        machine.clock.tick(100_000)  # the whole "run"
        sampler.stop()
        assert sampler.samples_taken == 0
        assert machine.metrics.value("sampler.overhead_fraction") == 0.0

    def test_group_leaving_top_n_ends_trend_series(self):
        # With group_limit=1 only the largest group is sampled; when
        # the big site is freed the small one takes its slot, and the
        # big site's trend series must END (fresh state on return)
        # instead of carrying a slope across the gap.
        machine = Machine(dram_size=16 * 1024 * 1024)
        safemem = SafeMem(leak_only_config())
        program = Program(machine, monitor=safemem,
                          heap_size=4 * 1024 * 1024)
        sampler = SamplingProfiler(machine, interval_cycles=10 ** 9,
                                   group_source=leak_group_source(safemem),
                                   group_limit=1)
        trend = TrendEngine(machine, window=4)
        sampler.add_listener(trend.observe)
        big = []
        with program.frame(0x100):
            for _ in range(10):
                big.append(program.malloc(64))
        with program.frame(0x200):
            program.malloc(32)
        sample = sampler.sample_now()
        assert [row["size"] for row in sample.groups] == [64]
        tracked = {v.series for v in trend.verdicts()}
        big_series = next(name for name in tracked
                          if name.startswith("group:64:"))
        for address in big:
            program.free(address)
        sample = sampler.sample_now()
        assert [row["size"] for row in sample.groups] == [32]
        assert trend.series_ended == 1
        assert big_series not in {v.series for v in trend.verdicts()}
        assert any(name.startswith("group:32:")
                   for name in {v.series for v in trend.verdicts()})


# ----------------------------------------------------------------------
# end to end: the monitoring stack catches a leak, stays quiet clean
# ----------------------------------------------------------------------
def _alert_scenario(leak):
    """The TestLeakAlertLifecycle workload with trend analytics on.

    The leaky variant never frees one 128-byte site (25.6 KB over the
    run, past the CUSUM net-growth threshold); the clean twin frees
    every allocation, so its group series stay flat.
    """
    machine = Machine(dram_size=32 * 1024 * 1024)
    safemem = SafeMem(leak_only_config(
        warmup_s=0.001, checking_period_s=0.0005,
        aleak_live_threshold=16, leak_confirm_s=0.002,
    ))
    program = Program(machine, monitor=safemem,
                      heap_size=8 * 1024 * 1024)
    sampler = SamplingProfiler(
        machine, interval_cycles=2_000_000,
        group_source=leak_group_source(safemem),
    )
    trend = TrendEngine(machine)
    engine = AlertEngine(default_trend_rules("cusum"),
                         events=machine.events,
                         metrics=machine.metrics, trend_source=trend)
    sampler.add_listener(trend.observe)
    sampler.add_listener(engine.evaluate)
    sampler.start()
    for _ in range(200):
        with program.frame(0x1111):
            address = program.malloc(128)
        program.store(address, b"leak")
        if not leak:
            program.free(address)
        program.compute(200_000)
    for _ in range(140):
        program.compute(200_000)
    sampler.stop()
    program.exit()
    return machine, trend, engine


class TestTrendEndToEnd:
    def test_leak_fires_trend_alert(self):
        machine, trend, engine = _alert_scenario(leak=True)
        alert = engine.alerts["leak-trend-cusum"]
        assert alert.fired_count >= 1
        assert trend.breach_onsets >= 1
        assert machine.events.count(EventKind.TREND) >= 1
        firing = [t for t in engine.transitions if t.state == "firing"]
        assert firing and firing[0].rule == "leak-trend-cusum"

    def test_clean_twin_stays_silent(self):
        machine, trend, engine = _alert_scenario(leak=False)
        assert engine.transitions == []
        assert engine.alerts["leak-trend-cusum"].fired_count == 0
        breached = [v for v in trend.verdicts() if v.breached]
        assert breached == []

    def test_config_trend_requires_profiler(self):
        with pytest.raises(ConfigurationError, match="sample-every"):
            MonitorStackConfig(trend="cusum").validate()
        with pytest.raises(ConfigurationError, match="trend-window"):
            MonitorStackConfig(sample_every=1000,
                               trend_window=8).validate()
        with pytest.raises(ConfigurationError, match="--trend must"):
            MonitorStackConfig(sample_every=1000,
                               trend="least-squares").validate()
        config = MonitorStackConfig(sample_every=1000, trend="cusum",
                                    trend_window=8).validate()
        assert MonitorStackConfig.from_dict(config.to_dict()) == config

    def test_monitor_cli_reports_trend_summary(self):
        code, out = run_cli(
            "monitor", "ypserv2", "--buggy", "--rules", "none",
            "--sample-every", "200000", "--trend", "cusum")
        assert code == 0
        assert "trend:     cusum over" in out
        assert "breach onset(s)" in out

    def test_stack_wires_trend_before_alert_engine(self):
        config = MonitorStackConfig(sample_every=100_000,
                                    trend="theil-sen",
                                    trend_window=8, rules="none")
        stack = build_monitor_stack(config)
        assert stack.trend is not None
        assert stack.trend.window == 8
        assert stack.engine.trend_source is stack.trend
        listeners = stack.sampler._listeners
        assert listeners.index(stack.trend.observe) < \
            listeners.index(stack.engine.evaluate)
        assert [rule.name for rule in stack.alert_rules] == \
            ["leak-trend-theil-sen"]
        info = stack.monitoring_info()
        assert info["trend"] == {
            "detector": "theil-sen", "window": 8,
            "seasonal_period": None, "seasonal_phases": 32,
            "seasonal_warmup": 2,
        }
        stack.close()


# ----------------------------------------------------------------------
# forensics: bundles, replay, inspect --trends, diff
# ----------------------------------------------------------------------
def _trend_monitored_run(workload="ypserv2", buggy=True):
    config = MonitorStackConfig(monitor="safemem", rules="none",
                                sample_every=200_000, trend="cusum")
    run_info = {"workload": workload, "monitor": "safemem",
                "buggy": buggy, "requests": None, "seed": 0}
    stack = build_monitor_stack(config)
    from repro.analysis.runner import run_workload
    stack.start()
    try:
        run_workload(workload, "safemem", buggy=buggy,
                     machine=stack.machine, monitor=stack.monitor)
    finally:
        stack.stop()
    bundle = capture_bundle(
        stack.machine, monitor=stack.monitor,
        run_info={**run_info, "monitoring": stack.monitoring_info()},
        trend=stack.trend)
    stack.close()
    return stack, bundle


class TestTrendForensics:
    def test_bundle_records_trends_and_replays_bit_exactly(self):
        stack, bundle = _trend_monitored_run()
        trends = bundle["trends"]
        assert trends["window"] == DEFAULT_WINDOW
        assert trends["evaluations"] == stack.trend.evaluations
        assert stack.machine.events.count(EventKind.TREND) >= 1
        replay = replay_bundle(bundle)
        ok, message = verify_replay(bundle, replay)
        assert ok, message
        assert replay.machine.events.count(EventKind.TREND) == \
            stack.machine.events.count(EventKind.TREND)
        assert replay.machine.metrics.value("trend.verdicts") == \
            stack.machine.metrics.value("trend.verdicts")

    def test_bundle_without_trend_has_null_trends(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(10)
        bundle = capture_bundle(machine)
        assert bundle["trends"] is None
        assert "no trend analytics recorded" in \
            render_bundle_trends(bundle)

    def test_inspect_trends_view(self, tmp_path):
        _stack, bundle = _trend_monitored_run()
        path = write_bundle(bundle, tmp_path / "run.dump.json")
        code, out = run_cli("inspect", str(path), "--trends")
        assert code == 0
        assert "trend analytics:" in out
        assert "BREACHED" in out
        assert "cusum" in out

    def test_diff_shows_trend_verdict_deltas(self, tmp_path):
        _stack_a, bundle_a = _trend_monitored_run(buggy=False)
        _stack_b, bundle_b = _trend_monitored_run(buggy=True)
        diff = diff_documents(bundle_a, bundle_b)
        changed = {(row["series"], row["detector"])
                   for row in diff["trends"]}
        assert any(series.startswith("group:")
                   for series, _detector in changed)
        rendered = render_diff(diff)
        assert "trend verdicts" in rendered
        path_a = write_bundle(bundle_a, tmp_path / "clean.dump.json")
        path_b = write_bundle(bundle_b, tmp_path / "buggy.dump.json")
        code, out = run_cli("diff", str(path_a), str(path_b))
        assert code == 0
        assert "trend verdicts" in out
