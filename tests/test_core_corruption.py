"""Tests for SafeMem's memory-corruption detection (paper Section 4)."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import InvalidFree, MonitorError
from repro.core.config import SafeMemConfig, corruption_only_config
from repro.core.reports import CorruptionKind
from repro.core.safemem import SafeMem
from repro.ecc.controller import EccMode
from repro.machine.machine import Machine
from repro.machine.program import Program


def make_program(config=None, **machine_kwargs):
    machine_kwargs.setdefault("dram_size", 16 * 1024 * 1024)
    machine = Machine(**machine_kwargs)
    safemem = SafeMem(config or corruption_only_config())
    program = Program(machine, monitor=safemem, heap_size=4 * 1024 * 1024)
    return program, safemem


class TestBufferOverflow:
    def test_write_one_past_end_detected(self):
        program, safemem = make_program()
        buf = program.malloc(CACHE_LINE_SIZE)
        with pytest.raises(MonitorError) as exc_info:
            program.store(buf + CACHE_LINE_SIZE, b"!")
        report = exc_info.value.report
        assert report.kind is CorruptionKind.BUFFER_OVERFLOW
        assert report.access_type == "write"
        assert report.detail["side"] == "right"
        assert safemem.corruption_reports

    def test_read_past_end_detected(self):
        program, _safemem = make_program()
        buf = program.malloc(CACHE_LINE_SIZE)
        with pytest.raises(MonitorError) as exc_info:
            program.load(buf + CACHE_LINE_SIZE, 1)
        assert exc_info.value.report.access_type == "read"

    def test_underflow_detected(self):
        program, _safemem = make_program()
        buf = program.malloc(32)
        with pytest.raises(MonitorError) as exc_info:
            program.store(buf - 1, b"!")
        assert exc_info.value.report.detail["side"] == "left"

    def test_in_bounds_accesses_are_silent(self):
        program, safemem = make_program()
        buf = program.malloc(100)
        program.store(buf, b"a" * 100)
        assert program.load(buf, 100) == b"a" * 100
        assert safemem.corruption_reports == []

    def test_line_granularity_blind_spot(self):
        """Documented limitation: overflow into the alignment slack of
        the buffer's own last line is invisible to line-granularity
        guards (the paper's padding cannot see it either)."""
        program, safemem = make_program()
        buf = program.malloc(100)  # spans two lines; slack = 28 bytes
        program.store(buf + 100, b"!")  # within the slack: undetected
        assert safemem.corruption_reports == []

    def test_buffers_are_line_aligned(self):
        program, _safemem = make_program()
        for size in (1, 63, 64, 65, 1000):
            assert program.malloc(size) % CACHE_LINE_SIZE == 0

    def test_adjacent_buffers_do_not_false_share(self):
        program, safemem = make_program()
        a = program.malloc(16)
        b = program.malloc(16)
        program.store(a, b"a" * 16)
        program.store(b, b"b" * 16)
        program.load(a, 16)
        program.load(b, 16)
        assert safemem.corruption_reports == []


class TestUseAfterFree:
    def test_read_after_free_detected(self):
        program, _safemem = make_program()
        buf = program.malloc(64)
        program.store(buf, b"dead")
        program.free(buf)
        with pytest.raises(MonitorError) as exc_info:
            program.load(buf, 4)
        assert exc_info.value.report.kind is CorruptionKind.USE_AFTER_FREE

    def test_write_after_free_detected(self):
        program, _safemem = make_program()
        buf = program.malloc(64)
        program.free(buf)
        with pytest.raises(MonitorError) as exc_info:
            program.store(buf, b"zombie")
        report = exc_info.value.report
        assert report.kind is CorruptionKind.USE_AFTER_FREE
        assert report.access_type == "write"

    def test_double_free_rejected(self):
        program, _safemem = make_program()
        buf = program.malloc(64)
        program.free(buf)
        with pytest.raises(InvalidFree):
            program.free(buf)

    def test_free_of_wild_pointer_rejected(self):
        program, _safemem = make_program()
        with pytest.raises(InvalidFree):
            program.free(0x1234_5678)

    def test_quarantine_recycles_oldest(self):
        config = corruption_only_config(freed_quarantine_bytes=1024)
        program, safemem = make_program(config)
        first = program.malloc(64)
        program.free(first)
        # Enough churn to push `first` out of the small quarantine.
        live = [program.malloc(64) for _ in range(8)]
        for block in live:
            program.free(block)
        detector = safemem.corruption
        # The byte bound holds after every release.
        assert detector._quarantine_bytes <= 1024
        # `first`'s block was recycled: a fresh allocation reuses its
        # address and is perfectly usable (monitoring was disabled at
        # reallocation, exactly as the paper specifies).
        fresh = [program.malloc(64) for _ in range(8)]
        assert first in fresh
        program.store(first, b"new life")
        assert program.load(first, 8) == b"new life"


class TestUninitializedReads:
    def _config(self):
        return SafeMemConfig(
            detect_leaks=False,
            detect_corruption=True,
            detect_uninit_reads=True,
        ).validate()

    def test_read_before_write_detected(self):
        program, _safemem = make_program(self._config())
        buf = program.malloc(64)
        with pytest.raises(MonitorError) as exc_info:
            program.load(buf, 8)
        assert exc_info.value.report.kind is \
            CorruptionKind.UNINITIALIZED_READ

    def test_write_then_read_is_fine(self):
        program, safemem = make_program(self._config())
        buf = program.malloc(64)
        program.store(buf, b"init")
        assert program.load(buf, 4) == b"init"
        assert safemem.corruption_reports == []

    def test_per_line_disarming(self):
        """Writing line 0 must not disarm line 1's uninit watch."""
        program, _safemem = make_program(self._config())
        buf = program.malloc(2 * CACHE_LINE_SIZE)
        program.store(buf, b"x")
        with pytest.raises(MonitorError):
            program.load(buf + CACHE_LINE_SIZE, 1)

    def test_calloc_counts_as_initialisation(self):
        program, safemem = make_program(self._config())
        buf = program.calloc(4, 16)
        assert program.load(buf, 64) == bytes(64)
        assert safemem.corruption_reports == []

    def test_first_write_after_a_scrub_pass_disarms(self):
        """A scrub pass disarms and re-arms every watch; the buffer's
        layout must still hold the re-armed uninit watch."""
        program, safemem = make_program(
            self._config(), ecc_mode=EccMode.CORRECT_AND_SCRUB)
        buf = program.malloc(64)
        program.machine.kernel.run_scrub_pass()
        program.store(buf, b"init")
        assert program.load(buf, 4) == b"init"
        assert safemem.corruption_reports == []

    def test_first_write_after_a_repaired_hardware_error_disarms(self):
        """A hardware error in the armed line is repaired by re-arming
        the region; the layout must still hold the re-armed watch."""
        program, safemem = make_program(self._config())
        machine = program.machine
        buf = program.malloc(64)
        paddr = machine.mmu.translate(buf)
        machine.dram.flip_data_bit(paddr, 6)
        machine.dram.flip_data_bit(paddr + 1, 7)
        program.store(buf, b"init")
        assert safemem.watcher.hardware_errors_repaired == 1
        assert program.load(buf, 4) == b"init"
        assert safemem.corruption_reports == []


class TestSpaceAccounting:
    def test_waste_is_padding_plus_alignment(self):
        program, safemem = make_program()
        detector = safemem.corruption
        program.malloc(100)
        layout = detector.live_layouts()[0]
        # 2 guard lines + rounding 100 -> 128.
        assert layout.waste_bytes == 2 * CACHE_LINE_SIZE + (128 - 100)
        assert detector.requested_bytes == 100

    def test_space_overhead_fraction(self):
        program, safemem = make_program()
        program.malloc(CACHE_LINE_SIZE)  # no rounding waste
        # waste = exactly the two guard lines
        assert safemem.space_overhead_fraction() == pytest.approx(2.0)


class TestExitCleanup:
    def test_exit_disarms_everything(self):
        program, safemem = make_program()
        buf = program.malloc(64)
        other = program.malloc(64)
        program.free(other)
        program.exit()
        assert safemem.watcher.active_watches() == []
        # After exit the guards are gone; the old overflow access
        # no longer traps (the tool detached).
        program.machine.load(buf + CACHE_LINE_SIZE, 1)
