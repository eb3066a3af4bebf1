"""Tests for seasonal-baseline trend detection and diurnal workloads.

Covers the baseline pipeline (warmup gating, freezing per-phase
medians, the nearest-recorded-bin circular fallback for phase bins the
sampling cadence never visited, the all-zero fallback for series first
seen after warmup, near-zero residuals on clean periodic input), phase
folding at arbitrary cycles, the diurnal workload wrappers (triangle
session wave, fixed-cycle request slots, determinism, ground-truth
passthrough), the SEASON experiment row plumbing, and configuration
validation for ``--seasonal-period``.
"""

import json
import math

import pytest

from repro.analysis.experiments import (
    SEASON_PHASES,
    SEASON_SAMPLE_EVERY,
    SEASON_WORKLOADS,
    TREND_SCENARIO,
    SeasonHeadToHeadResult,
    TrendScenarioRow,
)
from repro.analysis.runner import run_workload
from repro.common.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.obs.sampler import Sample
from repro.obs.stack import MonitorStackConfig
from repro.obs.trend import DETECTORS, TrendEngine
from repro.workloads.diurnal import (
    DIURNAL_WORKLOADS,
    SEASON_PERIOD_CYCLES,
    SEASON_PERIOD_REQUESTS,
    SEASON_REQUEST_CYCLES,
    SESSION_BASE,
    SESSION_SWING,
    session_target,
)
from repro.workloads.registry import get_workload


def make_sample(cycle, heap, index=0):
    return Sample(index=index, cycle=cycle,
                  metrics={"heap.live_bytes": heap,
                           "safemem.watch.armed": 0.0},
                  spans=[], groups=[], overhead_fraction=0.0)


def seasonal_engine(period=1000, phases=10, warmup=1, window=8):
    return TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                       window=window, seasonal_period=period,
                       seasonal_phases=phases, seasonal_warmup=warmup)


def seasonal_value(cycle, period=1000, amplitude=10_000.0):
    """A clean sinusoidal 'diurnal' signal with no trend."""
    return amplitude * (1 + math.sin(2 * math.pi * cycle / period))


# ----------------------------------------------------------------------
# baseline pipeline
# ----------------------------------------------------------------------
class TestSeasonalPipeline:
    def test_warmup_gates_the_detectors(self):
        engine = seasonal_engine(warmup=2)
        # two full periods of a steep seasonal climb: no verdicts yet.
        for cycle in range(0, 2000, 100):
            engine.observe(make_sample(cycle, seasonal_value(cycle)))
        assert engine.verdicts() == []
        state = engine.state_dict()["series"]["heap.live_bytes"]
        assert state["baseline"] is None
        assert any(state["season_bins"])

    def test_clean_periodic_input_yields_small_residuals(self):
        engine = seasonal_engine(warmup=1)
        for cycle in range(0, 4000, 100):
            engine.observe(make_sample(cycle, seasonal_value(cycle)))
        # the baseline froze after period one; later samples repeat it
        # exactly, so the detector statistics stay at zero.
        assert not any(v.breached for v in engine.verdicts())
        for verdict in engine.verdicts():
            assert abs(verdict.value) < 1e-6
        assert engine.breach_onsets == 0

    def test_flat_engine_false_alarms_on_the_same_input(self):
        """The control: without the baseline, the seasonal climb alone
        latches CUSUM -- the failure mode SEASON-pr scores."""
        flat = TrendEngine(Machine(dram_size=8 * 1024 * 1024), window=8)
        for cycle in range(0, 4000, 100):
            flat.observe(make_sample(cycle, seasonal_value(cycle)))
        assert flat.breach_onsets > 0

    def test_leak_on_top_of_season_still_breaches(self):
        engine = seasonal_engine(warmup=1)
        for cycle in range(0, 8000, 100):
            leak = 2000.0 * cycle if cycle >= 1000 else 0.0
            engine.observe(make_sample(
                cycle, seasonal_value(cycle) + leak))
        assert engine.breach_onsets > 0

    def test_phase_folding_is_periodic(self):
        # same phase maths the engine uses, at arbitrary cycles.
        for cycle in (0, 999, 1000, 123_456_789):
            phase = (cycle % 1000) * 10 // 1000
            assert 0 <= phase < 10
        assert (1000 % 1000) * 10 // 1000 == 0  # wraps exactly

    def test_series_first_seen_after_warmup_gets_zero_baseline(self):
        engine = seasonal_engine(warmup=1)
        # heap series warms normally; a group series appears later.
        for cycle in range(0, 1000, 100):
            engine.observe(make_sample(cycle, seasonal_value(cycle)))
        late = Sample(index=99, cycle=1500,
                      metrics={"heap.live_bytes": seasonal_value(1500),
                               "safemem.watch.armed": 0.0},
                      spans=[],
                      groups=[{"size": 64, "call_signature": 0x10,
                               "live_bytes": 640.0}],
                      overhead_fraction=0.0)
        engine.observe(late)
        record = engine.state_dict()["series"]["group:64:0x10"]
        assert record["baseline"] == [0.0] * engine.seasonal_phases

    def test_validation(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        with pytest.raises(ConfigurationError, match="seasonal period"):
            TrendEngine(machine, seasonal_period=0)
        with pytest.raises(ConfigurationError, match="phases"):
            TrendEngine(machine, seasonal_period=10, seasonal_phases=0)
        with pytest.raises(ConfigurationError, match="warmup"):
            TrendEngine(machine, seasonal_period=10, seasonal_warmup=0)


class TestFreezeBaseline:
    def _engine(self, phases):
        return TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                           window=8, seasonal_period=1000,
                           seasonal_phases=phases)

    def test_visited_bins_take_their_median(self):
        engine = self._engine(3)
        baseline = engine._freeze_baseline([[1.0, 9.0, 5.0],
                                            [7.0], [2.0]])
        assert baseline == [5.0, 7.0, 2.0]

    def test_empty_bins_copy_the_circularly_nearest(self):
        engine = self._engine(10)
        bins = [[] for _ in range(10)]
        bins[0] = [100.0]
        bins[5] = [500.0]
        baseline = engine._freeze_baseline(bins)
        assert baseline[9] == 100.0  # distance 1 to bin 0, 4 to bin 5
        assert baseline[1] == 100.0
        assert baseline[4] == 500.0
        assert baseline[6] == 500.0
        # bin 3: distance 3 to bin 0, 2 to bin 5.
        assert baseline[3] == 500.0

    def test_no_data_at_all_is_all_zero(self):
        engine = self._engine(4)
        assert engine._freeze_baseline([[], [], [], []]) == [0.0] * 4


# ----------------------------------------------------------------------
# the diurnal workload wrappers
# ----------------------------------------------------------------------
class TestDiurnalWorkloads:
    def test_registry_has_all_four(self):
        assert set(DIURNAL_WORKLOADS) == set(SEASON_WORKLOADS)
        for name in DIURNAL_WORKLOADS:
            assert get_workload(name, requests=10).name == name

    def test_session_triangle_wave(self):
        targets = [session_target(i)
                   for i in range(SEASON_PERIOD_REQUESTS)]
        assert targets[0] == SESSION_BASE
        assert max(targets) == SESSION_BASE + SESSION_SWING
        peak = targets.index(max(targets))
        # rises to the peak, falls after, repeats next period.
        assert targets[:peak + 1] == sorted(targets[:peak + 1])
        assert targets[peak:] == sorted(targets[peak:], reverse=True)
        assert session_target(SEASON_PERIOD_REQUESTS) == targets[0]

    def test_requests_are_padded_to_fixed_slots(self):
        result = run_workload("ypserv1-diurnal", "safemem",
                              requests=5, seed=0)
        # each request occupies exactly one fixed diurnal slot, so the
        # total is dominated by requests * slot (plus setup/teardown).
        assert result.cycles >= 5 * SEASON_REQUEST_CYCLES
        assert result.truth.requests_completed == 5

    def test_period_constant_matches_slots(self):
        assert SEASON_PERIOD_CYCLES == \
            SEASON_REQUEST_CYCLES * SEASON_PERIOD_REQUESTS

    def test_diurnal_run_is_deterministic(self):
        first = run_workload("ypserv1-diurnal", "safemem",
                             requests=12, buggy=True, seed=7)
        second = run_workload("ypserv1-diurnal", "safemem",
                              requests=12, buggy=True, seed=7)
        assert first.cycles == second.cycles
        assert sorted(first.truth.leaked_addresses) == \
            sorted(second.truth.leaked_addresses)

    def test_inner_ground_truth_passes_through(self):
        buggy = run_workload("ypserv1-diurnal", "safemem",
                             requests=40, buggy=True)
        clean = run_workload("ypserv1-diurnal", "safemem",
                             requests=40, buggy=False)
        assert buggy.truth.leaked_addresses
        # the session pool is reachable churn, never a leak.
        assert not clean.truth.leaked_addresses


# ----------------------------------------------------------------------
# the SEASON experiment plumbing
# ----------------------------------------------------------------------
class TestSeasonExperiment:
    def test_row_crosses_the_fleet_codec(self):
        row = TrendScenarioRow(
            workload="ypserv1-diurnal", buggy=True, cycles=100,
            samples=10, baseline_cycle=None,
            fired={d: False for d in DETECTORS},
            first_cycle={d: None for d in DETECTORS},
            flat_onsets=0, flat_first_cycle=None)
        wire = json.loads(json.dumps(TREND_SCENARIO.encode(row)))
        assert TREND_SCENARIO.decode(wire) == row

    def test_headtohead_scoring(self):
        quiet = {d: False for d in DETECTORS}
        caught = dict(quiet, **{"cusum": True})
        rows = [
            TrendScenarioRow("a-diurnal", True, 10, 5, 100,
                              caught, {d: (7 if d == "cusum" else None)
                                       for d in DETECTORS}, 3, 50),
            TrendScenarioRow("a-diurnal", False, 10, 5, None,
                              dict(quiet), {d: None for d in DETECTORS},
                              2, 60),
        ]
        result = SeasonHeadToHeadResult(sample_every=1000, rows=rows)
        assert result.clean_alerts() == []
        assert result.buggy_missed() == []
        assert result.clean_flat_quiet() == []
        text = result.render()
        assert "Clean diurnal traffic" in text
        assert "a-diurnal" in text

    def test_headtohead_flags_misses_and_false_alarms(self):
        noisy = {d: True for d in DETECTORS}
        quiet = {d: False for d in DETECTORS}
        rows = [
            TrendScenarioRow("b-diurnal", True, 10, 5, None,
                              dict(quiet), {d: None for d in DETECTORS},
                              0, None),
            TrendScenarioRow("b-diurnal", False, 10, 5, None,
                              dict(noisy), {d: 1 for d in DETECTORS},
                              0, None),
        ]
        result = SeasonHeadToHeadResult(sample_every=1000, rows=rows)
        assert result.clean_alerts() == [
            f"b-diurnal/{d}" for d in sorted(DETECTORS)]
        assert result.buggy_missed() == ["b-diurnal"]
        assert result.clean_flat_quiet() == ["b-diurnal"]

    def test_sample_cadence_divides_the_period(self):
        assert SEASON_PERIOD_CYCLES % SEASON_SAMPLE_EVERY == 0
        assert SEASON_PHASES >= 1

    def test_seasonal_period_flag_requires_trend(self):
        with pytest.raises(ConfigurationError, match="--trend"):
            MonitorStackConfig(sample_every=1000,
                               seasonal_period=100).validate()
        config = MonitorStackConfig(sample_every=1000,
                                    trend="cusum",
                                    seasonal_period=100)
        assert config.validate().seasonal_period == 100
