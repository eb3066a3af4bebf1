"""Tests for trace recording, generation, persistence, and replay."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import full_config, leak_only_config
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.workloads.traces import (
    GroupSpec,
    SyntheticTraceGenerator,
    Trace,
    TraceEvent,
    TraceRecorder,
    TraceReplayer,
    default_server_population,
)


def make_program(monitor=None, heap=8 * 1024 * 1024):
    machine = Machine(dram_size=32 * 1024 * 1024)
    return Program(machine, monitor=monitor, heap_size=heap)


class TestTraceEvents:
    def test_json_roundtrip(self):
        event = TraceEvent(kind="malloc", obj=7, size=128, site=0xAB)
        again = TraceEvent.from_json(event.to_json())
        assert again == event

    def test_compact_encoding_drops_zero_fields(self):
        event = TraceEvent(kind="free", obj=3)
        assert "s" not in event.to_json()

    def test_trace_file_roundtrip(self, tmp_path):
        trace = Trace([
            TraceEvent(kind="malloc", obj=0, size=64, site=1),
            TraceEvent(kind="store", obj=0, offset=8, length=16),
            TraceEvent(kind="compute", instructions=1000),
            TraceEvent(kind="free", obj=0),
        ])
        path = tmp_path / "t.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.events == trace.events

    @pytest.mark.parametrize("line, message", [
        ("not json", "trace event is not JSON: Expecting value"),
        ('{"o":0}', "trace event field 'k' is missing"),
        ('{"k":"malloc","o":0,"s":"big"}',
         "trace event field 's' must be a non-negative integer, got "
         "'big'"),
        ('{"k":"frame"}',
         "trace event field 'k' must be one of 'malloc', 'free', "
         "'store', 'load', 'compute', got 'frame'"),
        ('[1]', "trace event must be an object, got list"),
        ('{"k":"free","o":-1}',
         "trace event field 'o' must be a non-negative integer, got -1"),
        ('{"k":"compute","i":5,"x":1}',
         "trace event field 'x' is unknown; expected one of k, o, s, f, "
         "l, i, c"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line,
                                                message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"k":"compute","i":5}\n\n' + line + "\n")
        with pytest.raises(ConfigurationError) as error:
            Trace.load(path)
        assert str(error.value) == f"{path} line 3: {message}"

    def test_unreadable_file_is_a_named_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'\xff{"k":"compute"}\n')
        for unreadable in (path, tmp_path / "missing.jsonl"):
            with pytest.raises(ConfigurationError,
                               match=f"cannot read {unreadable}: "):
                Trace.load(unreadable)

    def test_stats(self):
        trace = Trace([
            TraceEvent(kind="malloc", obj=0, size=64, site=1),
            TraceEvent(kind="malloc", obj=1, size=64, site=2),
            TraceEvent(kind="free", obj=0),
            TraceEvent(kind="load", obj=1, length=8),
            TraceEvent(kind="compute", instructions=500),
        ])
        stats = trace.stats()
        assert stats["mallocs"] == 2
        assert stats["never_freed"] == 1
        assert stats["accesses"] == 1
        assert stats["instructions"] == 500
        assert stats["allocation_sites"] == 2


class TestRecorder:
    def test_records_allocation_lifecycle(self):
        recorder = TraceRecorder()
        program = make_program(monitor=recorder)
        address = program.malloc(96)
        program.store(address, b"x" * 32)
        program.load(address, 16)
        program.free(address)
        kinds = [e.kind for e in recorder.trace]
        assert kinds == ["malloc", "store", "load", "free"]
        assert recorder.trace.events[0].size == 96

    def test_offsets_are_object_relative(self):
        recorder = TraceRecorder()
        program = make_program(monitor=recorder)
        address = program.malloc(128)
        program.store(address + 40, b"hello")
        store = recorder.trace.events[-1]
        assert store.offset == 40
        assert store.length == 5

    def test_global_accesses_not_recorded(self):
        recorder = TraceRecorder()
        program = make_program(monitor=recorder)
        program.set_global(0, 42)
        assert all(e.kind != "store" for e in recorder.trace)

    def test_recorder_wraps_inner_monitor(self):
        inner = SafeMem(full_config())
        recorder = TraceRecorder(inner=inner)
        program = make_program(monitor=recorder)
        address = program.malloc(64)
        program.free(address)
        program.exit()
        # Both layers saw the allocation.
        assert len(recorder.trace) >= 2
        assert inner.corruption is not None
        assert inner.watcher.arm_count > 0


class TestReplay:
    def test_record_then_replay_produces_same_shape(self):
        recorder = TraceRecorder()
        program = make_program(monitor=recorder)
        a = program.malloc(64)
        b = program.malloc(128)
        program.store(a, b"aa")
        program.free(a)
        program.load(b, 8)
        program.free(b)
        program.exit()

        replay_program = make_program()
        replayer = TraceReplayer(recorder.trace)
        replayer.run(replay_program)
        assert replayer.skipped == 0
        allocator = replay_program.allocator
        assert allocator.total_allocs == 2
        assert allocator.total_frees == 2

    def test_replay_under_safemem_detects_trace_leaks(self):
        generator = SyntheticTraceGenerator(
            groups=[
                GroupSpec(site=0x1, size=64, mean_lifetime_events=4,
                          leak_probability=0.05),
                GroupSpec(site=0x2, size=64, mean_lifetime_events=4),
            ],
            events=6000,
            compute_per_event=30_000,
            seed=3,
        )
        trace, leaked_objs = generator.generate()
        assert leaked_objs

        safemem = SafeMem(leak_only_config())
        program = make_program(monitor=safemem, heap=16 * 1024 * 1024)
        replayer = TraceReplayer(trace)
        addresses = replayer.run(program)
        del addresses
        reported = {r.object_address for r in safemem.leak_reports}
        assert reported  # found leaks in a generated trace

    def test_unknown_event_kind_rejected(self):
        trace = Trace([TraceEvent(kind="teleport")])
        program = make_program()
        with pytest.raises(ConfigurationError):
            TraceReplayer(trace).run(program)


class TestSyntheticGenerator:
    def test_generates_requested_population(self):
        generator = SyntheticTraceGenerator(events=2000, seed=1)
        trace, _leaked = generator.generate()
        stats = trace.stats()
        assert stats["allocation_sites"] >= 30
        assert stats["mallocs"] > 2000  # events + residents

    def test_leak_injection_is_controlled(self):
        groups = [GroupSpec(site=0x1, size=64, mean_lifetime_events=5,
                            leak_probability=0.1)]
        generator = SyntheticTraceGenerator(groups=groups, events=3000,
                                            seed=2)
        trace, leaked = generator.generate()
        stats = trace.stats()
        # Leaked objects are exactly the never-freed ones (residents=0).
        assert stats["never_freed"] == len(leaked)
        assert 150 < len(leaked) < 450  # ~10% of 3000

    def test_no_leaks_when_probability_zero(self):
        groups = [GroupSpec(site=0x1, size=64, mean_lifetime_events=5)]
        generator = SyntheticTraceGenerator(groups=groups, events=1500,
                                            seed=2)
        trace, leaked = generator.generate()
        assert leaked == set()
        assert trace.stats()["never_freed"] == 0

    def test_generation_is_deterministic(self):
        first, _ = SyntheticTraceGenerator(events=500, seed=9).generate()
        second, _ = SyntheticTraceGenerator(events=500, seed=9).generate()
        assert first.events == second.events

    def test_default_population_shape(self):
        population = default_server_population()
        assert len(population) == 24 + 6 + 2 + 1
        assert any(g.residents for g in population)
        assert any(g.leak_probability > 0 for g in population)
