"""Tests for the live production-monitoring stack.

Covers the clock's periodic timers, the sampling profiler (sample
counts, histogram fast reads, overhead fraction, group capture), the
alert-rule engine (rule validation, debounce/hysteresis state
machines, the built-in rule set), the streaming sinks (rotation,
``repro.events/v1`` conformance), and the end-to-end acceptance
scenario: an injected leak driving ``leak-suspect-growth`` through
firing -> resolved, visible in the stream and the metrics namespace.
"""

import importlib.util
import io
import json
import pathlib

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, MachinePanic
from repro.common.events import EventKind
from repro.core.config import leak_only_config
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    default_rules,
    load_rules,
    resolve_rules,
)
from repro.obs.sampler import (
    Sample,
    SamplingProfiler,
    leak_group_source,
    render_top,
)
from repro.obs.sink import (
    EVENTS_SCHEMA,
    JsonlSink,
    MemorySink,
    TelemetryStream,
    read_jsonl,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# clock timers
# ----------------------------------------------------------------------
class TestClockTimers:
    def test_fires_on_interval(self):
        clock = VirtualClock()
        fired = []
        clock.every(100, lambda c: fired.append(c.cycles))
        for _ in range(5):
            clock.tick(50)
        assert fired == [100, 200]

    def test_large_tick_fires_once_then_reschedules(self):
        # One syscall-sized tick crossing several deadlines fires the
        # timer once; the next deadline is relative to *now*.
        clock = VirtualClock()
        timer = clock.every(100, lambda c: None)
        clock.tick(550)
        assert timer.fired == 1
        assert timer.next_fire == 650

    def test_idle_cycles_do_not_fire(self):
        clock = VirtualClock()
        fired = []
        clock.every(100, lambda c: fired.append(c.cycles))
        clock.idle(1000)
        assert fired == []
        clock.tick(100)
        assert fired == [100]

    def test_cancel_is_idempotent(self):
        clock = VirtualClock()
        timer = clock.every(10, lambda c: None)
        assert clock.timer_count == 1
        clock.cancel(timer)
        clock.cancel(timer)
        assert clock.timer_count == 0
        clock.tick(100)
        assert timer.fired == 0

    def test_multiple_timers_independent(self):
        clock = VirtualClock()
        a, b = [], []
        clock.every(30, lambda c: a.append(c.cycles))
        clock.every(50, lambda c: b.append(c.cycles))
        for _ in range(10):
            clock.tick(10)
        assert a == [30, 60, 90]
        assert b == [50, 100]

    def test_callback_ticking_does_not_recurse(self):
        clock = VirtualClock()
        fired = []

        def callback(c):
            fired.append(c.cycles)
            c.tick(500)  # re-entrant tick must not re-fire in place

        clock.every(100, callback)
        clock.tick(100)
        assert len(fired) == 1

    def test_interval_must_be_positive(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.every(0, lambda c: None)


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------
def _machine():
    return Machine(dram_size=8 * 1024 * 1024)


class TestSamplingProfiler:
    def test_off_by_default(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        machine.clock.tick(10_000)
        assert sampler.samples_taken == 0
        assert not sampler.running
        assert machine.metrics.value("sampler.interval_cycles") == 0

    def test_start_stop(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        sampler.start()
        assert machine.metrics.value("sampler.interval_cycles") == 1000
        for _ in range(5):
            machine.clock.tick(1000)
        assert sampler.samples_taken == 5
        sampler.stop()
        machine.clock.tick(5000)
        assert sampler.samples_taken == 5
        assert machine.metrics.value("sampler.samples") == 5

    def test_histograms_sampled_as_count_and_sum(self):
        machine = _machine()
        histogram = machine.metrics.histogram("test.lat")
        histogram.observe(10)
        histogram.observe(30)
        sampler = SamplingProfiler(machine, interval_cycles=1000)
        sample = sampler.sample_now()
        assert sample.get("test.lat.count") == 2
        assert sample.get("test.lat.sum") == 40
        # percentiles are end-of-run-only: never computed per sample.
        assert "test.lat.p50" not in sample

    def test_registry_changes_show_in_the_next_sample(self):
        # Samples read a compiled probe list: a probe or histogram
        # registered, or a counter probe replaced with its base (a
        # re-attached monitor), between two samples shows in the second.
        machine = _machine()
        metrics = machine.metrics
        sampler = SamplingProfiler(machine, interval_cycles=100)
        metrics.probe("test.count", lambda: 3)
        first = sampler.sample_now()
        assert first.get("test.count") == 3
        metrics.probe("test.level", lambda: 9, kind="gauge")
        metrics.probe("test.count", lambda: 4)
        metrics.histogram("test.lat").observe(5)
        second = sampler.sample_now()
        assert second.get("test.count") == 3 + 4
        assert second.get("test.level") == 9
        assert second.get("test.lat.count") == 1
        assert second.get("test.lat.sum") == 5
        assert list(second.metrics) == list(first.metrics) + [
            "test.level", "test.lat.count", "test.lat.sum"]

    def test_active_span_stack_captured(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        with machine.tracer.span("phase.outer"):
            with machine.tracer.span("phase.inner"):
                sample = sampler.sample_now()
        assert sample.spans == ["phase.outer", "phase.outer/phase.inner"]

    def test_group_source_flattens_lifetimes(self):
        machine = _machine()
        safemem = SafeMem(leak_only_config())
        program = Program(machine, monitor=safemem,
                          heap_size=2 * 1024 * 1024)
        with program.frame(0xAAAA):
            program.malloc(48)
        sampler = SamplingProfiler(
            machine, interval_cycles=100,
            group_source=leak_group_source(safemem),
        )
        sample = sampler.sample_now()
        assert len(sample.groups) == 1
        group = sample.groups[0]
        assert group["size"] == 48
        assert group["live_count"] == 1
        assert group["live_bytes"] == 48
        assert group["total_allocated"] == 1

    def test_listener_sees_every_sample(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        seen = []
        sampler.add_listener(seen.append)
        sampler.sample_now()
        sampler.remove_listener(seen.append)
        sampler.sample_now()
        assert len(seen) == 1

    def test_invalid_interval_and_capacity(self):
        machine = _machine()
        with pytest.raises(ValueError):
            SamplingProfiler(machine, interval_cycles=0)
        # The profiler retains no samples, so it takes no capacity.
        with pytest.raises(TypeError):
            SamplingProfiler(machine, interval_cycles=10, capacity=4)

    def test_sample_serializes(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        payload = sampler.sample_now().to_dict()
        assert json.dumps(payload)  # JSON-able end to end
        assert payload["cycle"] == 0
        assert "machine.load.slow" in payload["metrics"]

    def test_render_top_mentions_vitals(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        panel = render_top(sampler.sample_now())
        assert "heap" in panel
        assert "watches" in panel
        assert "overhead" in panel

    def test_overhead_fraction_zero_cycle_guard(self):
        # A sample at cycle 0 (and the probe before any sample exists)
        # must read 0.0, never divide by zero.
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        assert machine.metrics.value("sampler.overhead_fraction") == 0.0
        sample = sampler.sample_now()
        assert sample.cycle == 0
        assert sample.overhead_fraction == 0.0
        assert sample.metrics["sampler.overhead_fraction"] == 0.0
        assert machine.metrics.value("sampler.overhead_fraction") == 0.0

    def test_overhead_fraction_counts_monitoring_spans_only(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        with machine.tracer.span("syscall.WatchMemory"):
            machine.clock.tick(100)
        with machine.tracer.span("workload.gzip"):
            machine.clock.tick(900)
        sample = sampler.sample_now()
        assert sample.overhead_fraction == pytest.approx(0.1)
        assert machine.metrics.value("sampler.overhead_fraction") == \
            pytest.approx(0.1)


def _sample(cycle, metrics):
    return Sample(index=0, cycle=cycle, metrics=metrics, spans=[],
                  groups=(), overhead_fraction=0.0)


# ----------------------------------------------------------------------
# alert rules and engine
# ----------------------------------------------------------------------
class TestAlertRule:
    def test_rejects_unknown_kind_severity_op(self):
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", kind="spline")
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", severity="mild")
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", op="!=")
        with pytest.raises(ConfigurationError):
            AlertRule("r", "m", for_samples=0)

    def test_dict_round_trip(self):
        rule = AlertRule("r", "m", kind="rate", op=">", value=5.0,
                         for_samples=2, severity="critical")
        clone = AlertRule.from_dict(rule.to_dict())
        assert clone.to_dict() == rule.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            AlertRule.from_dict({"name": "r", "metric": "m",
                                 "threshold": 3})

    def test_resolve_rules(self, tmp_path):
        assert resolve_rules(None) == []
        assert resolve_rules("none") == []
        assert [r.name for r in resolve_rules("default")] == \
            [r.name for r in default_rules()]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"name": "heap-high", "metric": "heap.live_bytes",
             "value": 1000}
        ]))
        loaded = resolve_rules(str(path))
        assert [r.name for r in loaded] == ["heap-high"]

    @pytest.mark.parametrize("field, value", [
        ("resolve_after", "x"),
        ("for_samples", 2.5),
        ("for_samples", True),
        ("value", "high"),
        ("value", None),
        ("clear_value", [1]),
    ])
    def test_load_rules_rejects_untyped_fields(self, tmp_path, field,
                                               value):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"name": "typed", "metric": "heap.live_bytes", field: value}
        ]))
        with pytest.raises(ConfigurationError, match=f"'typed'.*{field}"):
            load_rules(path)

    def test_load_rules_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_rules(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a list\"}")
        with pytest.raises(ConfigurationError):
            load_rules(bad)


class TestAlertEngine:
    def test_threshold_fires_and_resolves_with_hysteresis(self):
        rule = AlertRule("hot", "temp", kind="threshold", op=">",
                        value=10, clear_value=5, for_samples=1,
                        resolve_after=1)
        engine = AlertEngine([rule])
        assert engine.evaluate(_sample(1, {"temp": 11}))[0].state == \
            "firing"
        # between clear_value and value: still firing (hysteresis).
        assert engine.evaluate(_sample(2, {"temp": 7})) == []
        assert engine.alerts["hot"].state == "firing"
        done = engine.evaluate(_sample(3, {"temp": 3}))
        assert done[0].state == "resolved"
        assert engine.summary()["hot"] == (1, 1, "ok")

    def test_null_metric_value_is_treated_as_absent(self):
        # Empty-window histogram gauges flatten to None; comparing
        # None would TypeError (and a phantom breach would be worse).
        rule = AlertRule("hot", "span.op.cycles.p99", kind="threshold",
                         op=">", value=10, for_samples=1)
        engine = AlertEngine([rule])
        assert engine.evaluate(
            _sample(1, {"span.op.cycles.p99": None})) == []
        assert engine.alerts["hot"].state == "ok"

    def test_debounce_needs_consecutive_breaches(self):
        rule = AlertRule("hot", "temp", value=10, for_samples=3)
        engine = AlertEngine([rule])
        assert engine.evaluate(_sample(1, {"temp": 11})) == []
        assert engine.evaluate(_sample(2, {"temp": 11})) == []
        # a clear sample resets the streak.
        assert engine.evaluate(_sample(3, {"temp": 1})) == []
        assert engine.evaluate(_sample(4, {"temp": 11})) == []
        assert engine.evaluate(_sample(5, {"temp": 11})) == []
        fired = engine.evaluate(_sample(6, {"temp": 11}))
        assert fired[0].state == "firing"

    def test_rate_rule_in_per_megacycle_units(self):
        rule = AlertRule("growth", "count", kind="rate", op=">",
                        value=5.0, for_samples=1, resolve_after=1)
        engine = AlertEngine([rule])
        # first sample: no previous, never breaches.
        assert engine.evaluate(_sample(1_000_000, {"count": 100})) == []
        # +10 per megacycle > 5.
        fired = engine.evaluate(_sample(2_000_000, {"count": 110}))
        assert fired[0].state == "firing"
        assert fired[0].value == pytest.approx(10.0)
        done = engine.evaluate(_sample(3_000_000, {"count": 110}))
        assert done[0].state == "resolved"

    def test_rate_rule_same_cycle_samples_never_divide_by_zero(self):
        # Two samples at the same cycle (a manual sample_now right at a
        # timer tick) hit the elapsed==0 guard: no crash, no fire.
        rule = AlertRule("growth", "count", kind="rate", op=">",
                        value=5.0, for_samples=1, resolve_after=1)
        engine = AlertEngine([rule])
        assert engine.evaluate(_sample(1_000, {"count": 100})) == []
        assert engine.evaluate(_sample(1_000, {"count": 900})) == []
        assert engine.alerts["growth"].state == "ok"
        # normal progress afterwards still evaluates correctly.
        fired = engine.evaluate(_sample(1_001_000, {"count": 910}))
        assert fired[0].state == "firing"

    def test_absence_rule_fires_on_missing_or_stalled(self):
        rule = AlertRule("stall", "progress", kind="absence",
                        for_samples=2, resolve_after=1)
        engine = AlertEngine([rule])
        engine.evaluate(_sample(1, {}))
        fired = engine.evaluate(_sample(2, {}))
        assert fired[0].state == "firing"
        # the metric reappearing is progress: it resolves the alert.
        done = engine.evaluate(_sample(3, {"progress": 1}))
        assert done[0].state == "resolved"
        # and a growing counter stays quiet.
        assert engine.evaluate(_sample(4, {"progress": 2})) == []

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertEngine([AlertRule("r", "a"), AlertRule("r", "b")])

    def test_transitions_published_to_events_and_metrics(self):
        machine = _machine()
        rule = AlertRule("hot", "temp", value=10, for_samples=1,
                        resolve_after=1, severity="critical")
        engine = AlertEngine([rule], events=machine.events,
                             metrics=machine.metrics)
        engine.evaluate(_sample(1, {"temp": 11}))
        assert machine.metrics.value("alerts.fired") == 1
        assert machine.metrics.value("alerts.firing") == 1
        assert machine.metrics.value("alerts.rule.hot.fired") == 1
        event = machine.events.last(EventKind.ALERT)
        assert event.detail["rule"] == "hot"
        assert event.detail["state"] == "firing"
        assert event.detail["severity"] == "critical"
        engine.evaluate(_sample(2, {"temp": 1}))
        assert machine.metrics.value("alerts.resolved") == 1
        assert machine.metrics.value("alerts.firing") == 0

    def test_firing_sorted_by_severity(self):
        rules = [
            AlertRule("warn", "a", value=0, for_samples=1,
                     severity="warning"),
            AlertRule("crit", "b", value=0, for_samples=1,
                     severity="critical"),
        ]
        engine = AlertEngine(rules)
        engine.evaluate(_sample(1, {"a": 1, "b": 1}))
        assert [a.rule.name for a in engine.firing()] == \
            ["crit", "warn"]

    def test_default_rules_cover_the_documented_set(self):
        names = {rule.name for rule in default_rules()}
        assert names == {"ecc-fault-storm", "watch-budget-exhaustion",
                         "overhead-slo-breach", "leak-suspect-growth"}


# ----------------------------------------------------------------------
# sinks and the repro.events/v1 stream
# ----------------------------------------------------------------------
class TestJsonlSink:
    def test_writes_one_record_per_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink.write({"schema": EVENTS_SCHEMA, "type": "run", "cycle": 0})
        sink.write({"schema": EVENTS_SCHEMA, "type": "run", "cycle": 1})
        sink.close()
        records = read_jsonl(path)
        assert [r["cycle"] for r in records] == [0, 1]

    def test_rotation_never_splits_a_record(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path, max_bytes=200, max_files=3)
        for cycle in range(20):
            sink.write({"schema": EVENTS_SCHEMA, "type": "run",
                        "cycle": cycle, "pad": "x" * 40})
        sink.close()
        assert sink.rotations > 0
        for rotated in sink.paths():
            for record in read_jsonl(rotated):  # every line parses
                assert record["schema"] == EVENTS_SCHEMA

    def test_rotation_drops_oldest_generation(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path, max_bytes=120, max_files=2)
        for cycle in range(40):
            sink.write({"schema": EVENTS_SCHEMA, "type": "run",
                        "cycle": cycle, "pad": "x" * 40})
        sink.close()
        assert len(sink.paths()) <= 3  # active + max_files generations
        newest = read_jsonl(path)[-1]
        assert newest["cycle"] == 39

    def test_invalid_configuration(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSink(tmp_path / "x.jsonl", max_bytes=0)
        with pytest.raises(ConfigurationError):
            JsonlSink(tmp_path / "x.jsonl", max_files=0)

    def test_context_manager_closes_even_on_error(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                sink.write({"schema": EVENTS_SCHEMA, "type": "run",
                            "cycle": 0})
                raise RuntimeError("boom")
        assert sink.closed
        assert [r["cycle"] for r in read_jsonl(path)] == [0]

    def test_memory_sink_context_manager(self):
        with MemorySink() as sink:
            sink.write({"schema": EVENTS_SCHEMA, "type": "run",
                        "cycle": 0})
        assert sink.closed
        assert len(sink.records) == 1


class TestTelemetryStream:
    def test_streams_samples_alerts_and_events(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        engine = AlertEngine(
            [AlertRule("hot", "temp", value=0, for_samples=1)],
            events=machine.events, metrics=machine.metrics,
        )
        sampler.add_listener(engine.evaluate)
        sink = MemorySink()
        stream = TelemetryStream(sink, machine=machine, sampler=sampler,
                                 engine=engine)
        stream.mark(0, marker="start")
        machine.events.emit(EventKind.LEAK_REPORT, address=0x40)
        sample = sampler.sample_now()
        sample.metrics["temp"] = 1
        engine.evaluate(sample)
        assert len(sink.of_type("run")) == 1
        assert len(sink.of_type("event")) == 1
        assert len(sink.of_type("sample")) == 1
        # the engine-listener path is the only alert writer: the ALERT
        # event-log copy must not double-write.
        assert len(sink.of_type("alert")) == 1
        for record in sink.records:
            assert record["schema"] == EVENTS_SCHEMA
            assert {"schema", "type", "cycle"} <= set(record)

    def test_alert_events_stream_without_engine(self):
        machine = _machine()
        sink = MemorySink()
        TelemetryStream(sink, machine=machine)
        machine.events.emit(EventKind.ALERT, rule="r", state="firing")
        assert len(sink.of_type("event")) == 1

    def test_close_detaches_everything(self):
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        engine = AlertEngine([], metrics=machine.metrics)
        sink = MemorySink()
        stream = TelemetryStream(sink, machine=machine, sampler=sampler,
                                 engine=engine)
        stream.close()
        assert sink.closed
        machine.events.emit(EventKind.LEAK_REPORT)
        sampler.sample_now()
        assert sink.records == []

    def test_mid_run_crash_leaves_valid_stream_file(self, tmp_path):
        # Satellite guarantee: a machine panic mid-run must not corrupt
        # the on-disk stream -- every line already written stays a
        # complete repro.events/v1 record, and nothing leaks in after
        # the crash.
        path = tmp_path / "crash.jsonl"
        machine = _machine()
        sampler = SamplingProfiler(machine, interval_cycles=100)
        with pytest.raises(MachinePanic):
            with TelemetryStream(JsonlSink(path), machine=machine,
                                 sampler=sampler) as stream:
                stream.mark(0, marker="start")
                sampler.sample_now()
                machine.events.emit(EventKind.LEAK_REPORT,
                                    address=0x40)
                raise MachinePanic("simulated crash")
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["run", "sample",
                                                "event"]
        assert all(r["schema"] == EVENTS_SCHEMA for r in records)
        # the stream detached on exit: post-crash events don't append.
        machine.events.emit(EventKind.LEAK_REPORT)
        sampler.sample_now()
        assert len(read_jsonl(path)) == len(records)

    def test_stream_context_manager_closes_sink(self):
        machine = _machine()
        sink = MemorySink()
        with TelemetryStream(sink, machine=machine):
            machine.events.emit(EventKind.LEAK_REPORT)
        assert sink.closed
        assert len(sink.of_type("event")) == 1


# ----------------------------------------------------------------------
# the acceptance scenario: injected leak -> firing -> resolved
# ----------------------------------------------------------------------
class TestLeakAlertLifecycle:
    def test_leak_growth_fires_then_resolves(self):
        machine = Machine(dram_size=32 * 1024 * 1024)
        config = leak_only_config(
            warmup_s=0.001, checking_period_s=0.0005,
            aleak_live_threshold=16, leak_confirm_s=0.002,
        )
        safemem = SafeMem(config)
        program = Program(machine, monitor=safemem,
                          heap_size=8 * 1024 * 1024)
        sampler = SamplingProfiler(
            machine, interval_cycles=7_200_000,
            group_source=leak_group_source(safemem),
        )
        engine = AlertEngine(default_rules(), events=machine.events,
                             metrics=machine.metrics)
        sampler.add_listener(engine.evaluate)
        sink = MemorySink()
        TelemetryStream(sink, machine=machine, sampler=sampler,
                        engine=engine)
        sampler.start()
        # leak phase: one never-freed group grows without bound.
        for _ in range(200):
            with program.frame(0x1111):
                address = program.malloc(48)
            program.store(address, b"leak")
            program.compute(200_000)
        # stable phase: computation only, the suspect count flattens.
        for _ in range(140):
            program.compute(200_000)
        sampler.stop()
        program.exit()

        states = [(t.rule, t.state) for t in engine.transitions
                  if t.rule == "leak-suspect-growth"]
        assert states == [("leak-suspect-growth", "firing"),
                          ("leak-suspect-growth", "resolved")]
        # visible in the metrics namespace...
        assert machine.metrics.value(
            "alerts.rule.leak-suspect-growth.fired") == 1
        assert machine.metrics.value("alerts.resolved") >= 1
        assert machine.metrics.value("alerts.firing") == 0
        # ...and in the stream, interleaved with samples.
        alert_records = sink.of_type("alert")
        assert [r["alert"]["state"] for r in alert_records
                if r["alert"]["rule"] == "leak-suspect-growth"] == \
            ["firing", "resolved"]
        assert all(r["alert"]["severity"] == "critical"
                   for r in alert_records)
        samples = sink.of_type("sample")
        assert len(samples) == sampler.samples_taken
        # the firing sample really saw suspect growth.
        firing_cycle = alert_records[0]["cycle"]
        suspects = {record["cycle"]:
                    record["sample"]["metrics"]["safemem.leak.suspects"]
                    for record in samples}
        assert suspects[firing_cycle] > 0


# ----------------------------------------------------------------------
# bench_check: the benchmark regression gate
# ----------------------------------------------------------------------
def _load_bench_check():
    spec = importlib.util.spec_from_file_location(
        "bench_check", REPO_ROOT / "tools" / "bench_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchCheck:
    def test_only_throughput_keys_compared(self):
        bench_check = _load_bench_check()
        leaves = bench_check.throughput_leaves({
            "hot_ops": 40000,
            "hot_loads_ops_per_sec": 100.0,
            "speedup_unwatched_loads": 2.0,
            "serial_seconds": 9.0,
            "verdicts_identical": True,
            "configs": {
                "fast": {"miss_loads_ops_per_sec": 5.0,
                         "metrics": {"schema": "repro.metrics/v1"}},
            },
        })
        assert leaves == {
            "hot_loads_ops_per_sec": 100.0,
            "speedup_unwatched_loads": 2.0,
            "configs.fast.miss_loads_ops_per_sec": 5.0,
        }

    def test_regression_detected_within_tolerance(self):
        bench_check = _load_bench_check()
        baseline = {"hot_loads_ops_per_sec": 100.0}
        ok = bench_check.compare_reports(
            baseline, {"hot_loads_ops_per_sec": 80.0})[0]
        assert not ok.regressed(0.25)
        bad = bench_check.compare_reports(
            baseline, {"hot_loads_ops_per_sec": 70.0})[0]
        assert bad.regressed(0.25)
        assert bad.change == pytest.approx(-0.30)

    def test_missing_baseline_is_not_an_error(self, tmp_path):
        bench_check = _load_bench_check()
        out = io.StringIO()
        regressions = bench_check.check_report(
            "nonesuch", {"hot_loads_ops_per_sec": 1.0},
            tolerance=0.25, out=out)
        assert regressions == []
        assert "no committed baseline" in out.getvalue()

    def test_committed_baselines_self_compare_clean(self):
        # Every committed BENCH_*.json compared against itself (as the
        # working tree may have regenerated it) must at least parse and
        # produce comparisons through the real git path.
        bench_check = _load_bench_check()
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            baseline = bench_check.committed_baseline(path)
            if baseline is None:
                continue  # new in this working tree
            comparisons = bench_check.compare_reports(baseline, baseline)
            assert all(not c.regressed(0.0) for c in comparisons)
