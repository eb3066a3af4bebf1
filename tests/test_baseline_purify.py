"""Tests for the Purify-style baseline."""

import pytest

from repro.baselines.purify import Purify, PurifyConfig
from repro.common.errors import MonitorError
from repro.core.reports import CorruptionKind
from repro.machine.machine import Machine
from repro.machine.program import Program


def make_program(config=None):
    machine = Machine(dram_size=32 * 1024 * 1024)
    purify = Purify(config or PurifyConfig())
    program = Program(machine, monitor=purify, heap_size=8 * 1024 * 1024)
    return program, purify


class TestCorruptionChecking:
    def test_overflow_write_detected(self):
        program, purify = make_program()
        buf = program.malloc(100)
        program.store(buf, b"x" * 100)
        with pytest.raises(MonitorError) as exc_info:
            program.store(buf + 100, b"!")
        assert exc_info.value.report.kind is CorruptionKind.BUFFER_OVERFLOW

    def test_one_byte_overflow_read_detected(self):
        """Byte-granularity: Purify sees even the overflow that hides in
        SafeMem's cache-line slack."""
        program, _purify = make_program()
        buf = program.malloc(100)
        program.store(buf, b"x" * 100)
        with pytest.raises(MonitorError):
            program.load(buf + 100, 1)

    def test_use_after_free_detected(self):
        program, _purify = make_program()
        buf = program.malloc(64)
        program.store(buf, b"gone")
        program.free(buf)
        with pytest.raises(MonitorError) as exc_info:
            program.load(buf, 4)
        assert exc_info.value.report.kind is CorruptionKind.USE_AFTER_FREE

    def test_uninitialized_read_detected(self):
        program, _purify = make_program()
        buf = program.malloc(64)
        with pytest.raises(MonitorError) as exc_info:
            program.load(buf, 8)
        assert exc_info.value.report.kind is \
            CorruptionKind.UNINITIALIZED_READ

    def test_uninit_detection_can_be_disabled(self):
        program, purify = make_program(PurifyConfig(detect_uninit=False))
        buf = program.malloc(64)
        program.load(buf, 8)
        assert purify.corruption_reports == []

    def test_legal_accesses_silent(self):
        program, purify = make_program()
        buf = program.malloc(128)
        program.store(buf, b"y" * 128)
        assert program.load(buf, 128) == b"y" * 128
        assert purify.corruption_reports == []

    def test_every_access_is_checked(self):
        program, purify = make_program()
        buf = program.malloc(64)
        before = purify.access_checks
        program.store(buf, b"12345678")
        for _ in range(10):
            program.load(buf, 8)
        assert purify.access_checks == before + 11


class TestInstrumentationCosts:
    def test_compute_is_dilated(self):
        program, _purify = make_program()
        machine = program.machine
        before = machine.clock.cycles
        program.compute(1000)
        dilated = machine.clock.cycles - before
        assert dilated == 1000 * machine.costs.purify_instruction_cost()
        assert dilated > 1000 * machine.costs.instruction


class TestMarkAndSweep:
    def test_unreferenced_block_reported_at_exit(self):
        program, purify = make_program(PurifyConfig(sweep_interval_s=0))
        kept = program.malloc(64)
        program.store(kept, b"\0" * 64)
        program.set_global(0, kept)        # reachable from the roots
        dropped = program.malloc(64)
        program.store(dropped, b"\0" * 64)  # pointer never stored
        program.exit()
        leaked = {r.object_address for r in purify.leak_reports}
        assert dropped in leaked
        assert kept not in leaked

    def test_transitively_reachable_not_leaked(self):
        program, purify = make_program(PurifyConfig(sweep_interval_s=0))
        head = program.malloc(64)
        node = program.malloc(64)
        program.store(head, bytes(64))
        program.store(node, bytes(64))
        program.store_word(head, node)   # head -> node
        program.set_global(0, head)      # roots -> head
        program.exit()
        leaked = {r.object_address for r in purify.leak_reports}
        assert node not in leaked
        assert head not in leaked

    def test_interior_pointer_keeps_block_alive(self):
        """Conservative collection: a pointer into the middle of a
        block still marks it."""
        program, purify = make_program(PurifyConfig(sweep_interval_s=0))
        buf = program.malloc(256)
        program.store(buf, bytes(256))
        program.set_global(0, buf + 100)
        program.exit()
        assert buf not in {r.object_address for r in purify.leak_reports}

    def test_sweep_pauses_program(self):
        program, purify = make_program(PurifyConfig(sweep_interval_s=0))
        block = program.malloc(4096)
        program.store(block, bytes(4096))
        program.set_global(0, block)
        before = program.machine.clock.cycles
        purify._mark_and_sweep()
        paused = program.machine.clock.cycles - before
        assert paused >= program.machine.costs.purify_sweep_base

    def test_periodic_sweeps_triggered_by_cpu_time(self):
        program, purify = make_program(
            PurifyConfig(sweep_interval_s=0.001)
        )
        for _ in range(50):
            block = program.malloc(64)
            program.compute(100_000)
            program.free(block)
        assert purify.sweeps >= 2

    def test_no_duplicate_leak_reports(self):
        program, purify = make_program(PurifyConfig(sweep_interval_s=0))
        dropped = program.malloc(64)
        program.store(dropped, bytes(64))
        purify._mark_and_sweep()
        purify._mark_and_sweep()
        addresses = [r.object_address for r in purify.leak_reports]
        assert addresses.count(dropped) == 1


class TestRealloc:
    def test_realloc_preserves_prefix(self):
        program, _purify = make_program()
        buf = program.malloc(32)
        program.store(buf, b"keep me!" + bytes(24))
        new = program.realloc(buf, 128)
        assert program.load(new, 8) == b"keep me!"


def test_numpy_loads_only_with_a_purify_monitor():
    """``import repro`` and the modules every run and bench child
    imports leave numpy unloaded; building a Purify run loads it."""
    import os
    import pathlib
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import repro, repro.obs.stack, repro.analysis.runner, "
        "repro.obs.checkpoint\n"
        "print('numpy' in sys.modules)\n"
        "from repro.analysis.runner import run_workload\n"
        "run_workload('gzip', 'purify', requests=2)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]
