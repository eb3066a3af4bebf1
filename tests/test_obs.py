"""Tests for the telemetry subsystem: registry, spans, exporters.

Covers the redesigned observability API end to end: instrument
registration and snapshot/delta arithmetic, histogram percentiles,
span nesting on the simulated clock, the PANIC flight recorder, the
removal of the legacy counter-dict shims, event-log
subscriptions/queries, and the machine-reuse accounting regression.
"""

import pytest

from repro.analysis.runner import run_workload
from repro.common.clock import VirtualClock
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import ConfigurationError, MachinePanic
from repro.common.events import EventKind, EventLog
from repro.core.config import full_config
from repro.core.safemem import SafeMem
from repro.machine import machine as machine_module
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.obs.export import (
    SCHEMA,
    render_metrics_table,
    render_span_tree,
    snapshot_document,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc()
        registry.counter("a.count").inc(2)
        registry.gauge("a.level").set(7)
        registry.histogram("a.dist").observe(5)
        assert registry.value("a.count") == 3
        assert registry.value("a.level") == 7
        assert registry.value("a.dist") == 1

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_is_configuration_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.probe("x", lambda: 0)

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("x").inc(-1)

    def test_probe_sampled_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.probe("p", lambda: state["n"])
        state["n"] = 41
        assert registry.snapshot()["p"] == 41

    def test_replacing_counter_probe_keeps_monotonic_base(self):
        # The machine-reuse bug: a new program re-registers heap.*
        # probes backed by a fresh allocator; without folding the old
        # probe's final value in as a base, a pre-swap snapshot makes
        # the next delta zero or negative.
        registry = MetricsRegistry()
        registry.probe("heap.allocs", lambda: 17)
        before = registry.snapshot()
        fresh = {"n": 0}
        registry.probe("heap.allocs", lambda: fresh["n"])
        fresh["n"] = 5
        delta = registry.snapshot() - before
        assert delta["heap.allocs"] == 5

    def test_replacing_gauge_probe_just_replaces(self):
        registry = MetricsRegistry()
        registry.probe("g", lambda: 100, kind="gauge")
        registry.probe("g", lambda: 2, kind="gauge")
        assert registry.snapshot()["g"] == 2

    def test_scalar_view_follows_registration_and_restore(self):
        source = MetricsRegistry()
        source.counter("c").inc(2)
        source.histogram("h").observe(5)
        state = {"n": 1}
        source.probe("p", lambda: state["n"])
        assert source.scalar_view() == {"c": 2, "h.count": 1,
                                        "h.sum": 5, "p": 1}
        restored = MetricsRegistry()
        restored.probe("p", lambda: 8)
        assert restored.scalar_view() == {"p": 8}
        restored.load_state(source.state_dict())
        # Registration order is the record's; the probe reads its own
        # component.
        assert list(restored.scalar_view().items()) == [
            ("c", 2), ("h.count", 1), ("h.sum", 5), ("p", 8)]


class TestSnapshotDelta:
    def test_counters_subtract_gauges_keep_later(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock=clock)
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        counter.inc(10)
        gauge.set(10)
        clock.tick(100)
        first = registry.snapshot()
        counter.inc(5)
        gauge.set(3)
        clock.tick(50)
        delta = registry.snapshot() - first
        assert delta["c"] == 5
        assert delta["g"] == 3
        assert delta.since_cycle == 100
        assert delta.cycle == 150
        assert delta.cycles_elapsed == 50

    def test_keys_registered_after_earlier_count_from_zero(self):
        registry = MetricsRegistry()
        first = registry.snapshot()
        registry.counter("late").inc(4)
        assert (registry.snapshot() - first)["late"] == 4

    def test_filtered_selects_namespace(self):
        registry = MetricsRegistry()
        registry.counter("mmu.tlb.hit").inc()
        registry.counter("ecc.read_lines").inc()
        assert list(registry.snapshot().filtered("mmu.")) == \
            ["mmu.tlb.hit"]

    def test_histogram_flattens_with_kinds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1, 2, 3, 4):
            hist.observe(value)
        snapshot = registry.snapshot()
        assert snapshot["h.count"] == 4
        assert snapshot["h.sum"] == 10
        assert snapshot.kinds["h.count"] == "counter"
        assert snapshot.kinds["h.p99"] == "gauge"

    def test_empty_histogram_flattens_to_null_gauges(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        snapshot = registry.snapshot()
        assert snapshot["h.count"] == 0
        assert snapshot["h.sum"] == 0
        for suffix in ("min", "max", "p50", "p90", "p99"):
            assert snapshot[f"h.{suffix}"] is None, suffix

    def test_empty_window_nulls_histogram_gauges(self):
        # Regression: a windowed snapshot whose histogram count is 0
        # used to carry the whole-run min/max/percentiles (stale
        # statistics for observations outside the window).
        registry = MetricsRegistry()
        hist = registry.histogram("span.op.cycles")
        for value in (10, 20, 30):
            hist.observe(value)
        start = registry.snapshot()
        window = registry.snapshot() - start
        assert window["span.op.cycles.count"] == 0
        for suffix in ("min", "max", "p50", "p90", "p99"):
            assert window[f"span.op.cycles.{suffix}"] is None, suffix
        # A window with observations keeps real (current) statistics.
        hist.observe(40)
        window = registry.snapshot() - start
        assert window["span.op.cycles.count"] == 1
        assert window["span.op.cycles.max"] == 40

    def test_null_gauges_render_as_dash(self):
        from repro.obs.export import render_metrics_table
        registry = MetricsRegistry()
        registry.histogram("h")
        text = render_metrics_table(registry.snapshot())
        line = next(row for row in text.splitlines()
                    if row.startswith("h.max"))
        assert "-" in line


class TestHistogramPercentiles:
    def test_nearest_rank(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.min == 1
        assert hist.max == 100

    def test_unsorted_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (9, 1, 5, 3, 7):
            hist.observe(value)
        assert hist.percentile(50) == 5
        assert hist.percentile(100) == 9

    def test_empty_histogram_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").percentile(99) == 0


class TestTracer:
    def test_span_nesting_on_simulated_clock(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.tick(100)
            with tracer.span("inner", tag="x") as inner:
                clock.tick(25)
        assert outer.start_cycle == 0
        assert outer.end_cycle == 125
        assert inner.start_cycle == 100
        assert inner.duration_cycles == 25
        assert inner.path == ("outer", "inner")
        assert inner.depth == 1
        assert inner.attrs == {"tag": "x"}

    def test_durations_feed_registry_histograms(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock=clock)
        tracer = Tracer(clock, registry=registry)
        for cost in (10, 20):
            with tracer.span("op"):
                clock.tick(cost)
        snapshot = registry.snapshot()
        assert snapshot["span.op.cycles.count"] == 2
        assert snapshot["span.op.cycles.sum"] == 30
        assert snapshot["trace.spans"] == 2

    def test_flight_recorder_is_bounded_ring(self):
        clock = VirtualClock()
        tracer = Tracer(clock, capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                clock.tick(1)
        record = tracer.flight_record()
        assert len(record) == 4
        assert [span.name for span in record] == \
            ["s6", "s7", "s8", "s9"]
        assert tracer.spans_dropped == 6

    def test_exception_unwinds_nested_spans(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                tracer.start("left_open")
                raise RuntimeError
        assert tracer.current is None
        assert {s.name for s in tracer.flight_record()} == \
            {"outer", "left_open"}


class TestPanicFlightRecorder:
    def _armed_machine_without_handler(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        base = 0x4000_0000
        machine.kernel.mmap(base, 4 * PAGE_SIZE)
        machine.store(base, bytes(CACHE_LINE_SIZE))
        machine.kernel.watch_memory(base, CACHE_LINE_SIZE)
        return machine, base

    def test_panic_freezes_flight_record(self):
        machine, base = self._armed_machine_without_handler()
        with pytest.raises(MachinePanic):
            machine.load(base, 8)
        dump = machine.tracer.panic_dump
        assert dump is not None
        assert dump["reason"] == "no ECC fault handler registered"
        assert dump["cycle"] == machine.clock.cycles
        names = [span["name"] for span in dump["spans"]]
        assert "syscall.WatchMemory" in names
        # the fault span was still open when the panic fired.
        assert "ecc.fault" in \
            [span["name"] for span in dump["open_spans"]]

    def test_panic_dump_renders_as_span_tree(self):
        machine, base = self._armed_machine_without_handler()
        with pytest.raises(MachinePanic):
            machine.load(base, 8)
        rendered = render_span_tree(machine.tracer.panic_dump["spans"])
        assert "syscall.WatchMemory" in rendered


class TestEventLog:
    def _log(self):
        clock = VirtualClock()
        return clock, EventLog(clock)

    def test_subscribe_by_kind(self):
        _clock, log = self._log()
        seen = []
        log.subscribe(seen.append, kind=EventKind.WATCH)
        log.emit(EventKind.WATCH, address=1)
        log.emit(EventKind.SYSCALL, name="x")
        assert [e.address for e in seen] == [1]

    def test_subscribe_all_and_unsubscribe(self):
        _clock, log = self._log()
        seen = []
        token = log.subscribe(seen.append)
        log.emit(EventKind.WATCH)
        log.unsubscribe(token)
        log.emit(EventKind.WATCH)
        assert len(seen) == 1

    def test_query_filters(self):
        clock, log = self._log()
        log.emit(EventKind.WATCH, address=0x40)
        clock.tick(100)
        log.emit(EventKind.WATCH, address=0x80)
        log.emit(EventKind.SYSCALL, name="x")
        assert len(log.query(kind=EventKind.WATCH)) == 2
        assert [e.address for e in log.query(since_cycle=50)] == \
            [0x80, 0]
        assert len(log.query(kind=EventKind.WATCH,
                             address=0x80)) == 1
        assert len(log.query(limit=1)) == 1

    def test_direct_iteration_is_removed(self):
        _clock, log = self._log()
        log.emit(EventKind.WATCH)
        with pytest.raises(TypeError):
            iter(log)
        assert len(log.query()) == 1

    def test_mid_run_subscriber_sees_only_subsequent_events(self):
        # A consumer that subscribes mid-run (e.g. a telemetry stream
        # attached to a warm machine) must not receive history -- the
        # query path is how history is read.
        clock, log = self._log()
        log.emit(EventKind.WATCH, address=0x40)
        clock.tick(100)
        seen = []
        log.subscribe(seen.append, kind=EventKind.WATCH)
        log.emit(EventKind.WATCH, address=0x80)
        assert [e.address for e in seen] == [0x80]
        # while a query from the same consumer still covers the past...
        assert [e.address for e in log.query(kind=EventKind.WATCH)] == \
            [0x40, 0x80]
        # ...and the subscription keeps delivering after the query.
        log.emit(EventKind.WATCH, address=0xC0)
        assert [e.address for e in seen] == [0x80, 0xC0]

    def test_since_cycle_with_limit_keeps_newest_in_order(self):
        # limit truncates from the *front* (oldest dropped), and the
        # result stays oldest-first -- pinned because the monitor CLI
        # and flight-recorder views rely on both properties.
        clock, log = self._log()
        for index in range(6):
            log.emit(EventKind.WATCH, address=index)
            clock.tick(10)
        events = log.query(kind=EventKind.WATCH, since_cycle=20,
                           limit=2)
        assert [e.address for e in events] == [4, 5]
        assert [e.cycle for e in events] == sorted(
            e.cycle for e in events)

    def test_emit_during_dispatch_reaches_later_subscribers(self):
        # A subscriber that emits (the alert engine publishing through
        # the event log) must not corrupt delivery of the original
        # event.
        _clock, log = self._log()
        seen = []

        def reactor(event):
            if event.kind is EventKind.WATCH:
                log.emit(EventKind.ALERT, rule="r")

        log.subscribe(reactor)
        log.subscribe(lambda e: seen.append(e.kind))
        log.emit(EventKind.WATCH)
        assert EventKind.WATCH in seen
        assert EventKind.ALERT in seen
        assert log.count(EventKind.ALERT) == 1


class TestRemovedShims:
    """The legacy counter dicts finished their deprecation lifecycle;
    the registry snapshot is the only way to read telemetry."""

    def test_perf_counters_is_removed(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        with pytest.raises(AttributeError):
            machine.perf_counters()
        assert not hasattr(machine_module, "PERF_COUNTER_METRICS")

    def test_statistics_is_removed(self):
        with pytest.raises(AttributeError):
            SafeMem().statistics()
        machine = Machine(dram_size=16 * 1024 * 1024)
        safemem = SafeMem(full_config())
        Program(machine, monitor=safemem, heap_size=4 * 1024 * 1024)
        with pytest.raises(AttributeError):
            safemem.statistics()


class TestBenchParity:
    def test_delta_reproduces_legacy_hot_loop_counters(self):
        # The BENCH_memfast hot loop: unwatched machine, 16 hot lines,
        # every access a TLB hit + cache hit.  The registry delta must
        # reproduce the machine's own access counters exactly.
        machine = Machine(dram_size=8 * 1024 * 1024)
        base = 0x4000_0000
        machine.kernel.mmap(base, 4 * PAGE_SIZE)
        addresses = [base + i * CACHE_LINE_SIZE for i in range(16)]
        for address in addresses:
            machine.store(address, bytes(8))
        slow_before = machine.slow_loads
        before = machine.metrics.snapshot()
        for i in range(2000):
            machine.load(addresses[i & 15], 8)
        delta = machine.metrics.snapshot() - before
        assert delta["machine.load.slow"] == 2000
        assert delta["machine.load.slow"] == \
            machine.slow_loads - slow_before
        assert delta["mmu.tlb.miss"] == 0


class TestMachineReuseAccounting:
    @pytest.mark.parametrize("monitor_name", ["native", "safemem"])
    def test_second_run_delta_is_unskewed(self, monitor_name):
        # Regression: lifetime counters survive machine reuse, so a
        # second workload's accounting must come from snapshot deltas,
        # not absolute values.
        def monitor():
            if monitor_name == "native":
                return None
            return SafeMem(full_config())

        first = run_workload("ypserv1", monitor_name, requests=4,
                             monitor=monitor(), release=True)
        second = run_workload("ypserv1", monitor_name, requests=4,
                              monitor=monitor(), machine=first.machine,
                              release=True)
        assert second.cycles == first.cycles
        assert second.machine is first.machine
        # every counter-kind metric agrees between the two runs...
        for name, kind in second.metrics.kinds.items():
            if kind == "counter":
                assert second.metrics.get(name) == \
                    first.metrics.get(name), name
        # ...even though the machine's absolute totals kept growing.
        total = first.machine.metrics.snapshot()
        assert total["machine.load.slow"] == \
            2 * first.metrics["machine.load.slow"]
        assert first.machine.clock.cycles == 2 * first.cycles


class TestExporters:
    def test_snapshot_document_schema(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock=clock)
        tracer = Tracer(clock, registry=registry)
        registry.counter("mmu.tlb.hit").inc(3)
        with tracer.span("op"):
            clock.tick(10)
        first = registry.snapshot()
        clock.tick(5)
        document = snapshot_document(
            registry.snapshot() - first,
            spans=tracer.flight_record(),
            meta={"workload": "unit"},
        )
        assert document["schema"] == SCHEMA
        assert document["generated"] == {"cycle": 15, "since_cycle": 10}
        assert document["metrics"]["mmu.tlb.hit"] == 0
        assert document["kinds"]["mmu.tlb.hit"] == "counter"
        assert document["meta"] == {"workload": "unit"}
        assert document["spans"][0]["name"] == "op"
        assert document["spans"][0]["duration_cycles"] == 10

    def test_render_metrics_table(self):
        registry = MetricsRegistry()
        registry.counter("mmu.tlb.hit").inc(1234)
        registry.gauge("swap.slots").set(2)
        rendered = render_metrics_table(registry.snapshot(),
                                        title="test metrics")
        assert "mmu.tlb.hit" in rendered
        assert "1,234" in rendered
        rendered = render_metrics_table(registry.snapshot(),
                                        prefix="swap.")
        assert "mmu.tlb.hit" not in rendered
        assert "swap.slots" in rendered

    def test_run_result_metrics_feed_exporter(self):
        run = run_workload("ypserv1", "native", requests=3)
        document = snapshot_document(run.metrics)
        assert document["schema"] == SCHEMA
        assert document["metrics"]["machine.load.slow"] > 0
        assert document["generated"]["since_cycle"] == 0


class TestMergeHistogramEdgeCases:
    """Fleet merges of empty / single-observation histograms.

    A worker that registers a histogram but observes nothing (or
    exactly once) is the normal state of a short or idle machine; the
    merged snapshot must keep the name with its full flattened key set
    instead of dropping it or crashing the percentile pass.
    """

    def _dump(self, observe=()):
        from repro.obs.merge import dump_registry
        registry = MetricsRegistry()
        histogram = registry.histogram("span.op.cycles")
        for value in observe:
            histogram.observe(value)
        return dump_registry(registry)

    def test_empty_histogram_survives_merge_with_null_gauges(self):
        from repro.obs.merge import merge_dumps
        merged = merge_dumps([self._dump(), self._dump()])
        # Counters must stay numeric (deltas subtract them) ...
        assert merged["span.op.cycles.count"] == 0
        assert merged["span.op.cycles.sum"] == 0
        # ... but zero observations have no statistics: the gauges are
        # None, not a phantom 0.
        for suffix in ("min", "max", "p50", "p90", "p99"):
            assert merged[f"span.op.cycles.{suffix}"] is None, suffix

    def test_single_observation_union(self):
        from repro.obs.merge import merge_dumps
        merged = merge_dumps([self._dump(), self._dump(observe=[7])])
        assert merged["span.op.cycles.count"] == 1
        assert merged["span.op.cycles.sum"] == 7
        assert merged["span.op.cycles.min"] == 7
        assert merged["span.op.cycles.max"] == 7
        assert merged["span.op.cycles.p99"] == 7

    def test_empty_dump_list_is_an_empty_snapshot(self):
        from repro.obs.merge import merge_dumps
        merged = merge_dumps([])
        assert merged.cycle == 0
        assert merged.values == {}

    def test_zero_cycle_machines_merge_cleanly(self):
        # Machines that never ticked (cycle 0, no samples) are the
        # empty edge of a fleet merge: counters stay 0, nothing raises.
        from repro.obs.merge import dump_registry, merge_dumps
        machines = [Machine(dram_size=8 * 1024 * 1024)
                    for _ in range(2)]
        merged = merge_dumps([dump_registry(machine.metrics)
                              for machine in machines])
        assert merged.cycle == 0
        assert merged["machine.load.slow"] == 0
        assert merged["machine.events"] == 0

    def test_mixed_empty_and_populated_workers(self):
        from repro.obs.merge import merge_dumps
        merged = merge_dumps([
            self._dump(),
            self._dump(observe=[10, 20, 30]),
            self._dump(observe=[40]),
        ])
        assert merged["span.op.cycles.count"] == 4
        assert merged["span.op.cycles.sum"] == 100
        assert merged["span.op.cycles.min"] == 10
        assert merged["span.op.cycles.max"] == 40
