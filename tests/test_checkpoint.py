"""Tests for checkpoint/restore (``repro.checkpoint/v1``).

Covers the differential contract the whole feature hangs on -- run to
N requests, checkpoint, resume to M equals a straight run to M in
events, metrics, ALERT/TREND cycles, and verdict -- plus checkpoint
capture contents, the observation-only invariant, the request-boundary
scheduler arithmetic (due multiples, the checkpoint cap, skip
counting), section-by-section verification (``compare_checkpoints``),
detector-state durability (sampler ring, alert state machines, trend
windows/accumulators, a hysteresis latch mid-breach at the checkpoint
cycle), the ``load_checkpoint``/``load_document`` schema errors, and
the ``repro resume`` / ``repro inspect`` CLI surface.
"""

import io
import json

import pytest

from repro.analysis.runner import run_workload
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.checkpoint import (
    CHECKPOINT_SCHEMA,
    DEFAULT_MAX_CHECKPOINTS,
    VERIFIED_SECTIONS,
    CheckpointScheduler,
    capture_checkpoint,
    compare_checkpoints,
    load_checkpoint,
    render_checkpoint_summary,
    resume_checkpoint,
    write_checkpoint,
)
from repro.obs.export import snapshot_document
from repro.obs.forensics import load_document
from repro.obs.sampler import Sample, SamplingProfiler
from repro.obs.snapshot import event_to_dict
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.obs.trend import DETECTORS, TrendEngine

SAMPLE_EVERY = 50_000


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_with_stack(requests, checkpoint_every=None, checkpoint_dir=None,
                   workload="ypserv1", buggy=True, **settings):
    """One monitored run under the full stack; returns (stack, result).

    ``settings`` override the stack defaults (profiler, theil-sen
    trend analytics, history)."""
    settings = {"sample_every": SAMPLE_EVERY, "trend": "theil-sen",
                "history": True, **settings}
    config = MonitorStackConfig(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=(str(checkpoint_dir)
                        if checkpoint_dir is not None else None),
        **settings,
    )
    run_info = {"workload": workload, "monitor": "safemem",
                "buggy": buggy, "requests": requests, "seed": 0}
    stack = build_monitor_stack(config, run_info=run_info)
    stack.start()
    try:
        result = run_workload(workload, "safemem", buggy=buggy,
                              requests=requests, machine=stack.machine,
                              monitor=stack.monitor,
                              request_hook=stack.request_hook)
    finally:
        stack.stop()
        stack.close()
    return stack, result


def make_sample(index, cycle, heap):
    return Sample(index=index, cycle=cycle,
                  metrics={"heap.live_bytes": heap,
                           "safemem.watch.armed": 0.0},
                  spans=[], groups=[], overhead_fraction=0.0)


# ----------------------------------------------------------------------
# the differential contract
# ----------------------------------------------------------------------
class TestDifferentialContract:
    """run-to-N -> checkpoint -> resume-to-M == straight run to M."""

    N, M = 40, 60

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpts")
        straight_stack, straight = run_with_stack(self.M)
        short_stack, _short = run_with_stack(
            self.N, checkpoint_every=10_000_000, checkpoint_dir=tmp)
        return straight_stack, straight, short_stack

    def test_short_run_wrote_checkpoints(self, runs):
        _, _, short_stack = runs
        assert short_stack.checkpoint_paths
        for path in short_stack.checkpoint_paths:
            assert path.name.endswith(".ckpt.json")

    def test_resume_verifies_bit_exact(self, runs):
        _, _, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[0])
        resumed = resume_checkpoint(checkpoint, requests=self.M)
        assert resumed.verified is True, resumed.verify_message
        assert "verified bit-exact" in resumed.verify_message
        assert resumed.checkpoint_cycle == checkpoint["cycle"]

    def test_resume_equals_straight_run(self, runs):
        straight_stack, straight, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[-1])
        resumed = resume_checkpoint(checkpoint, requests=self.M)
        assert resumed.verified is True, resumed.verify_message
        # events -- including every ALERT and TREND cycle -- bit-exact.
        resumed_events = [event_to_dict(e) for e in resumed.events]
        straight_events = [event_to_dict(e) for e in
                           straight_stack.machine.events.query()]
        assert resumed_events == straight_events
        # metrics snapshot bit-exact.
        resumed_doc = snapshot_document(
            resumed.machine.metrics.snapshot())
        straight_doc = snapshot_document(
            straight_stack.machine.metrics.snapshot())
        assert resumed_doc["metrics"] == straight_doc["metrics"]
        # verdict.
        assert resumed.truth.requests_completed == \
            straight.truth.requests_completed
        assert sorted(resumed.truth.leaked_addresses) == \
            sorted(straight.truth.leaked_addresses)
        assert (resumed.truth.detection is None) == \
            (straight.truth.detection is None)
        assert resumed.panic is None

    def test_checkpointing_never_perturbs_the_run(self, runs):
        """The straight run (checkpointing OFF) and the short run
        (checkpointing ON) agree on every shared-prefix event."""
        straight_stack, _, short_stack = runs
        prefix_cycle = load_checkpoint(
            short_stack.checkpoint_paths[0])["cycle"]
        short_events = [
            event_to_dict(e)
            for e in short_stack.machine.events.query()
            if e.cycle <= prefix_cycle]
        straight_events = [
            event_to_dict(e)
            for e in straight_stack.machine.events.query()
            if e.cycle <= prefix_cycle]
        assert short_events == straight_events

    def test_resume_defaults_to_recorded_horizon(self, runs):
        _, _, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[0])
        resumed = resume_checkpoint(checkpoint)
        assert resumed.truth.requests_completed == self.N
        assert resumed.verified is True, resumed.verify_message

    def test_latched_trend_state_rides_in_the_checkpoint(self, runs):
        """The buggy ypserv1 leak latches trend detectors well before
        the final checkpoint; the document carries the latch."""
        _, _, short_stack = runs
        checkpoint = load_checkpoint(short_stack.checkpoint_paths[-1])
        trend_state = checkpoint["monitoring_state"]["trend"]
        assert trend_state is not None
        latched = [
            (name, detector)
            for name, record in trend_state["series"].items()
            for detector, breached in record["breached"].items()
            if breached
        ]
        assert latched, "expected a breached latch mid-run"
        history_doc = checkpoint["monitoring_state"]["history"]
        assert history_doc["schema"] == "repro.history/v1"
        assert history_doc["observations"] > 0


def test_resume_verifies_with_rules_none(tmp_path):
    """Regression: with ``--rules none`` the recorded stack still has
    an (empty) alert engine, so the resumed stack must rebuild one too
    or the ``alerts.*`` metrics and monitoring state diverge."""
    stack, _ = run_with_stack(40, checkpoint_every=10_000_000,
                              checkpoint_dir=tmp_path, rules="none",
                              trend=None, history=False)
    checkpoint = load_checkpoint(stack.checkpoint_paths[0])
    assert checkpoint["run"]["monitoring"]["rules"] == []
    resumed = resume_checkpoint(checkpoint, verify=True)
    assert resumed.verified is True, resumed.verify_message


# ----------------------------------------------------------------------
# capture contents + observation-only invariant
# ----------------------------------------------------------------------
class TestCapture:
    def test_capture_sections_and_schema(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(1234)
        document = capture_checkpoint(machine, request_index=3)
        assert document["schema"] == CHECKPOINT_SCHEMA
        for section in VERIFIED_SECTIONS:
            assert section in document
        assert document["cycle"] == 1234
        assert document["progress"] == {"request_index": 3,
                                        "requests_completed": 4}
        assert set(document["dram"]) >= {"data", "check"}

    def test_capture_is_observation_only(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(777)
        before_events = len(machine.events)
        capture_checkpoint(machine, request_index=0)
        assert machine.clock.cycles == 777
        assert len(machine.events) == before_events

    def test_write_then_load_round_trips(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine, request_index=0)
        path = write_checkpoint(document, tmp_path / "x.ckpt.json")
        assert load_checkpoint(path) == json.loads(json.dumps(document))

    def test_render_summary(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine, request_index=1,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 5, "seed": 0})
        text = render_checkpoint_summary(document)
        assert f"checkpoint ({CHECKPOINT_SCHEMA})" in text
        assert "after request #1" in text
        assert "gzip/safemem" in text

    def test_render_summary_flags_unresumable(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine)
        assert "not resumable" in render_checkpoint_summary(document)


# ----------------------------------------------------------------------
# scheduler arithmetic
# ----------------------------------------------------------------------
class TestCheckpointScheduler:
    def _scheduler(self, tmp_path, machine, every, **kwargs):
        return CheckpointScheduler(machine, every,
                                   checkpoint_dir=tmp_path,
                                   label="t", **kwargs)

    def test_captures_only_when_due(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 1000)
        assert scheduler.on_request(0, None) is None  # cycle 0 < 1000
        machine.clock.tick(999)
        assert scheduler.on_request(1, None) is None  # 999 < 1000
        machine.clock.tick(1)
        path = scheduler.on_request(2, None)          # 1000 == due
        assert path is not None
        assert path.name == "t-c1000-r2.ckpt.json"
        assert scheduler.next_due == 2000

    def test_rearm_skips_to_next_multiple_past_now(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 1000)
        machine.clock.tick(2500)  # one long request crosses 2 deadlines
        assert scheduler.on_request(0, None) is not None
        assert scheduler.next_due == 3000  # not 2000: no catch-up burst
        machine.clock.tick(400)   # 2900 < 3000
        assert scheduler.on_request(1, None) is None

    def test_max_checkpoints_cap_counts_skips(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 100,
                                    max_checkpoints=2)
        for index in range(5):
            machine.clock.tick(100)
            scheduler.on_request(index, None)
        assert len(scheduler.checkpoint_paths) == 2
        assert scheduler.checkpoints_skipped == 3
        # due arithmetic keeps advancing even while capped.
        assert scheduler.next_due == 600

    def test_default_cap(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        scheduler = self._scheduler(tmp_path, machine, 100)
        assert scheduler.max_checkpoints == DEFAULT_MAX_CHECKPOINTS == 16

    def test_rejects_nonpositive_interval(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        with pytest.raises(ConfigurationError, match=">= 1"):
            self._scheduler(tmp_path, machine, 0)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
class TestCompareCheckpoints:
    def test_identical_captures_verify(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        machine.clock.tick(500)
        first = capture_checkpoint(machine, request_index=0)
        second = capture_checkpoint(machine, request_index=0)
        ok, message = compare_checkpoints(first, second)
        assert ok
        assert f"{len(VERIFIED_SECTIONS)} sections" in message

    def test_mismatch_names_the_diverged_section(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        first = capture_checkpoint(machine, request_index=0)
        second = json.loads(json.dumps(first))
        second["interrupts"]["delivered"] += 1
        second["cycle"] += 1
        ok, message = compare_checkpoints(first, second)
        assert not ok
        assert "interrupts" in message
        assert "cycle" in message
        assert "dram" not in message  # only diverged sections listed

    def test_run_section_is_not_compared(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        first = capture_checkpoint(machine, run_info={"requests": 10})
        second = capture_checkpoint(machine, run_info={"requests": 99})
        ok, _ = compare_checkpoints(first, second)
        assert ok


# ----------------------------------------------------------------------
# schema / resume errors
# ----------------------------------------------------------------------
class TestLoadErrors:
    def test_load_checkpoint_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "repro.dump/v1"}))
        with pytest.raises(ConfigurationError) as error:
            load_checkpoint(path)
        assert CHECKPOINT_SCHEMA in str(error.value)
        assert "repro.dump/v1" in str(error.value)

    def test_load_document_names_unknown_schema(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"schema": "repro.mystery/v9"}))
        with pytest.raises(ConfigurationError) as error:
            load_document(path)
        message = str(error.value)
        assert "repro.mystery/v9" in message
        # the error teaches the known formats.
        assert CHECKPOINT_SCHEMA in message
        assert "repro.history/v1" in message

    def test_load_document_dispatches_checkpoint(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine, request_index=0)
        path = write_checkpoint(document, tmp_path / "a.ckpt.json")
        kind, payload = load_document(path)
        assert kind == "checkpoint"
        assert payload["schema"] == CHECKPOINT_SCHEMA

    def test_resume_requires_run_info(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(machine, request_index=0)
        with pytest.raises(ConfigurationError, match="cannot be resumed"):
            resume_checkpoint(document)

    def test_resume_rejects_horizon_before_boundary(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine, request_index=30,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 40, "seed": 0})
        with pytest.raises(ConfigurationError, match="boundary"):
            resume_checkpoint(document, requests=10)

    def test_resume_without_boundary_needs_no_verify(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 40, "seed": 0})
        with pytest.raises(ConfigurationError, match="no request boundary"):
            resume_checkpoint(document)


# ----------------------------------------------------------------------
# detector-state durability (the checkpoint payloads)
# ----------------------------------------------------------------------
class TestDetectorDurability:
    def _ramp(self, engine, start=0, count=12):
        for i in range(start, start + count):
            engine.observe(make_sample(i, (i + 1) * 100_000,
                                       heap=i * 50_000.0))

    def test_trend_state_round_trips_through_json(self):
        source = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                             window=8)
        self._ramp(source)
        state = json.loads(json.dumps(source.state_dict()))
        restored = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                               window=8)
        restored.load_state(state)
        assert restored.state_dict() == source.state_dict()

    def test_trend_latch_mid_breach_survives_and_clears_in_step(self):
        """A hysteresis latch breached at the checkpoint cycle resumes
        latched and clears on the same later sample as the original."""
        source = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                             window=8)
        self._ramp(source)
        state = source.state_dict()
        latch = state["series"]["heap.live_bytes"]["breached"]
        assert latch["cusum"] and latch["page-hinkley"], \
            "ramp must latch detectors before the checkpoint"
        restored = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                               window=8)
        restored.load_state(json.loads(json.dumps(state)))
        # drive both engines through the decay; they must stay
        # bit-identical at every step, including the clearing sample.
        for i in range(12, 40):
            sample = make_sample(i, (i + 1) * 100_000, heap=0.0)
            source.observe(sample)
            restored.observe(sample)
            assert restored.state_dict() == source.state_dict()
        final = source.state_dict()["series"]["heap.live_bytes"]
        assert not final["breached"]["cusum"]

    def test_trend_rejects_mismatched_configuration(self):
        source = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                             window=8)
        self._ramp(source, count=4)
        other = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                            window=16)
        with pytest.raises(ConfigurationError, match="window"):
            other.load_state(source.state_dict())

    def test_seasonal_bins_and_baseline_round_trip(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        source = TrendEngine(machine, window=8, seasonal_period=1000,
                             seasonal_phases=4, seasonal_warmup=1)
        # one warmup period records bins; the next freezes the baseline.
        for i in range(16):
            source.observe(make_sample(i, i * 125,
                                       heap=float(i % 8) * 100.0))
        state = source.state_dict()
        record = state["series"]["heap.live_bytes"]
        assert record["baseline"] is not None
        assert record["season_bins"] is not None
        restored = TrendEngine(Machine(dram_size=8 * 1024 * 1024),
                               window=8, seasonal_period=1000,
                               seasonal_phases=4, seasonal_warmup=1)
        restored.load_state(json.loads(json.dumps(state)))
        assert restored.state_dict() == state

    def test_alert_engine_state_round_trips_mid_streak(self):
        rule = AlertRule("heap-high", "heap.live_bytes", op=">",
                         value=1000.0, for_samples=3, resolve_after=2)
        machine_a = Machine(dram_size=8 * 1024 * 1024)
        machine_b = Machine(dram_size=8 * 1024 * 1024)
        source = AlertEngine([rule], events=machine_a.events)
        # two breaching samples: streak == 2 of 3, still pending.
        for i in range(2):
            source.evaluate(make_sample(i, (i + 1) * 1000, heap=5000.0))
        state = json.loads(json.dumps(source.state_dict()))
        assert state["alerts"]["heap-high"]["breach_streak"] == 2
        restored = AlertEngine([rule], events=machine_b.events)
        restored.load_state(state)
        assert restored.state_dict() == source.state_dict()
        # the third breach fires both engines at the same cycle.
        sample = make_sample(2, 3000, heap=5000.0)
        source.evaluate(sample)
        restored.evaluate(sample)
        assert restored.state_dict() == source.state_dict()
        assert source.alerts["heap-high"].state == "firing"

    def test_alert_engine_rejects_unknown_rules(self):
        rule = AlertRule("heap-high", "heap.live_bytes", value=1.0)
        other = AlertRule("other", "heap.live_bytes", value=1.0)
        source = AlertEngine([rule])
        restored = AlertEngine([other])
        with pytest.raises(ConfigurationError, match="heap-high"):
            restored.load_state(source.state_dict())

    def test_sampler_ring_round_trips(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        for _ in range(5):
            machine.clock.tick(1000)
            sampler.sample_now()
        state = json.loads(json.dumps(sampler.state_dict()))
        restored = SamplingProfiler(Machine(dram_size=8 * 1024 * 1024),
                                    interval_cycles=1000)
        restored.load_state(state)
        assert restored.state_dict() == sampler.state_dict()
        assert restored.samples_taken == 5

    def test_sampler_rejects_mismatched_interval(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        restored = SamplingProfiler(Machine(dram_size=8 * 1024 * 1024),
                                    interval_cycles=2000)
        with pytest.raises(ValueError, match="interval"):
            restored.load_state(sampler.state_dict())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCheckpointCli:
    def test_run_resume_inspect(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        code, output = run_cli(
            "run", "ypserv1", "--buggy", "--requests", "30",
            "--sample-every", "100000", "--checkpoint-every", "5000000",
            "--checkpoint-dir", str(ckpt_dir))
        assert code == 0
        paths = sorted(ckpt_dir.glob("*.ckpt.json"))
        assert paths
        assert "checkpoint:" in output

        code, output = run_cli("inspect", str(paths[0]))
        assert code == 0
        assert f"checkpoint ({CHECKPOINT_SCHEMA})" in output

        code, output = run_cli("resume", str(paths[0]),
                               "--requests", "35")
        assert code == 0
        assert "OK -- " in output
        assert "DIVERGED" not in output

    def test_resume_no_verify(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        document = capture_checkpoint(
            machine, request_index=2,
            run_info={"workload": "gzip", "monitor": "safemem",
                      "buggy": False, "requests": 5, "seed": 0})
        path = write_checkpoint(document, tmp_path / "g.ckpt.json")
        code, output = run_cli("resume", str(path), "--no-verify")
        assert code == 0
        assert "skipped (--no-verify)" in output

    def test_resume_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "not-a-ckpt.json"
        path.write_text(json.dumps({"schema": "repro.metrics/v1"}))
        with pytest.raises(ConfigurationError, match="repro.metrics"):
            run_cli("resume", str(path))
