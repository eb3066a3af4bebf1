"""Tests for the DRAM model, memory controller modes, and scrubber."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.constants import CACHE_LINE_SIZE, ECC_GROUP_BYTES
from repro.common.costs import default_cost_model
from repro.common.errors import BusError, ConfigurationError
from repro.ecc.controller import EccMode, MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import FaultOrigin, FaultSeverity, UncorrectableEccError
from repro.ecc.codec import get_codec
from repro.ecc.scrubber import Scrubber

scramble_bytes = get_codec("secded").scramble_bytes


@pytest.fixture
def dram():
    return PhysicalMemory(64 * 1024)


@pytest.fixture
def controller(dram):
    return MemoryController(dram)


LINE = bytes(range(CACHE_LINE_SIZE))


class TestPhysicalMemory:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemory(0)
        with pytest.raises(ConfigurationError):
            PhysicalMemory(100)  # not a multiple of the group size

    def test_raw_roundtrip(self, dram):
        dram.write_raw(128, b"abcdef")
        assert dram.read_raw(128, 6) == b"abcdef"

    def test_out_of_range_raises_bus_error(self, dram):
        with pytest.raises(BusError):
            dram.read_raw(dram.size - 2, 4)
        with pytest.raises(BusError):
            dram.write_raw(-8, b"x")

    def test_group_access_requires_alignment(self, dram):
        with pytest.raises(BusError):
            dram.read_group(4)

    def test_group_roundtrip(self, dram):
        dram.write_group(64, 0xDEADBEEF, 0x5A)
        word, check = dram.read_group(64)
        assert word == 0xDEADBEEF
        assert check == 0x5A

    def test_data_only_write_preserves_check(self, dram):
        dram.write_group(64, 0x1111, 0x42)
        dram.write_group_data_only(64, 0x2222)
        word, check = dram.read_group(64)
        assert word == 0x2222
        assert check == 0x42  # stale, as the scramble trick requires


class TestControllerReadWrite:
    def test_clean_line_roundtrip(self, controller):
        controller.write_line(0, LINE)
        assert controller.read_line(0) == LINE

    def test_line_alignment_enforced(self, controller):
        with pytest.raises(BusError):
            controller.read_line(8)
        with pytest.raises(BusError):
            controller.write_line(8, LINE)

    def test_line_size_enforced(self, controller):
        with pytest.raises(BusError):
            controller.write_line(0, b"short")

    def test_single_bit_error_corrected_in_place(self, controller, dram):
        controller.write_line(0, LINE)
        dram.flip_data_bit(3, 5)
        corrected_events = []
        controller.fault_listener = corrected_events.append
        assert controller.read_line(0) == LINE
        assert controller.corrected_errors == 1
        assert len(corrected_events) == 1
        assert corrected_events[0].severity is FaultSeverity.CORRECTED
        # Correct-Error mode repaired DRAM: a second read is clean.
        corrected_events.clear()
        assert controller.read_line(0) == LINE
        assert not corrected_events

    def test_double_bit_error_raises(self, controller, dram):
        controller.write_line(0, LINE)
        dram.flip_data_bit(0, 0)
        dram.flip_data_bit(0, 1)
        with pytest.raises(UncorrectableEccError) as exc_info:
            controller.read_line(0)
        fault = exc_info.value.fault
        assert fault.uncorrectable
        assert fault.line_address == 0
        assert controller.uncorrectable_errors == 1

    def test_check_only_mode_reports_but_does_not_repair(self, dram):
        controller = MemoryController(dram, mode=EccMode.CHECK_ONLY)
        controller.write_line(0, LINE)
        dram.flip_data_bit(3, 5)
        events = []
        controller.fault_listener = events.append
        controller.read_line(0)
        assert len(events) == 1
        # DRAM was not repaired: reading again reports again.
        controller.read_line(0)
        assert len(events) == 2

    def test_disabled_mode_ignores_errors(self, dram):
        controller = MemoryController(dram, mode=EccMode.DISABLED)
        controller.write_line(0, LINE)
        dram.flip_data_bit(0, 0)
        dram.flip_data_bit(0, 1)
        data = controller.read_line(0)  # no exception
        assert data != LINE

    def test_set_mode_validates(self, controller):
        with pytest.raises(ConfigurationError):
            controller.set_mode("correct_error")


class TestScrambleWindow:
    def test_disable_requires_bus_lock(self, controller):
        with pytest.raises(BusError):
            controller.disable_ecc()

    def test_double_lock_rejected(self, controller):
        controller.lock_bus()
        with pytest.raises(BusError):
            controller.lock_bus()
        controller.unlock_bus()
        with pytest.raises(BusError):
            controller.unlock_bus()

    def test_scrambled_line_faults_on_read(self, controller):
        controller.write_line(0, LINE)
        controller.lock_bus()
        controller.disable_ecc()
        controller.write_line(0, scramble_bytes(LINE))
        controller.enable_ecc()
        controller.unlock_bus()
        with pytest.raises(UncorrectableEccError):
            controller.read_line(0)

    def test_rewrite_with_ecc_enabled_clears_fault(self, controller):
        controller.write_line(0, LINE)
        controller.lock_bus()
        controller.disable_ecc()
        controller.write_line(0, scramble_bytes(LINE))
        controller.enable_ecc()
        controller.unlock_bus()
        controller.write_line(0, LINE)  # fresh encode
        assert controller.read_line(0) == LINE


class TestScrubber:
    def _scrub_controller(self, dram):
        return MemoryController(dram, mode=EccMode.CORRECT_AND_SCRUB)

    def test_requires_scrub_mode(self, dram):
        controller = MemoryController(dram, mode=EccMode.CORRECT_ERROR)
        scrubber = Scrubber(controller)
        with pytest.raises(ConfigurationError):
            scrubber.scrub_pass()

    def test_scrub_repairs_latent_single_bit_errors(self, dram):
        controller = self._scrub_controller(dram)
        controller.write_line(0, LINE)
        dram.flip_data_bit(7, 2)
        scrubber = Scrubber(controller)
        faults = scrubber.scrub_pass()
        assert faults == []
        assert controller.corrected_errors == 1
        word, _check = dram.read_group(0)
        assert word == int.from_bytes(LINE[:ECC_GROUP_BYTES], "little")

    def test_scrub_reports_uncorrectable_without_raising(self, dram):
        controller = self._scrub_controller(dram)
        controller.write_line(0, LINE)
        dram.flip_data_bit(0, 0)
        dram.flip_data_bit(0, 1)
        scrubber = Scrubber(controller)
        faults = scrubber.scrub_pass()
        assert len(faults) == 1
        assert faults[0].origin is FaultOrigin.SCRUB

    def test_hooks_run_around_pass(self, dram):
        controller = self._scrub_controller(dram)
        calls = []
        scrubber = Scrubber(controller)
        scrubber.add_hooks(pre=lambda: calls.append("pre"),
                           post=lambda: calls.append("post"))
        scrubber.scrub_pass()
        assert calls == ["pre", "post"]

    def test_scrub_time_is_idle_not_cpu(self, dram):
        controller = self._scrub_controller(dram)
        clock = VirtualClock()
        scrubber = Scrubber(controller, clock=clock,
                            cost_model=default_cost_model())
        scrubber.scrub_pass()
        assert clock.cycles == 0
        assert clock.idle_cycles > 0

    def test_scrub_range_alignment(self, dram):
        controller = self._scrub_controller(dram)
        scrubber = Scrubber(controller)
        with pytest.raises(ConfigurationError):
            scrubber.scrub_pass(start=3)


# ----------------------------------------------------------------------
# host memory: installed DRAM costs nothing until it is written
# ----------------------------------------------------------------------
# VmHWM is this process's own peak RSS; ru_maxrss would also count the
# parent's peak, which an exec'd child inherits.
_BOOT_RSS_SCRIPT = """
from repro.machine.machine import Machine

def peak_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

before = peak_kib()
machine = Machine(dram_size=64 * 1024 * 1024)
machine.kernel.mmap(0x4000_0000, 16 * 4096)
machine.store(0x4000_0000, b"x" * 4096)
print(peak_kib() - before)
"""


def test_booting_a_machine_leaves_untouched_dram_unresident():
    """A 64 MiB machine (plus 8 MiB of check bytes) must not make its
    DRAM resident at boot: a run writes a few hundred pages, and fleet
    workers and bench children pay for every resident byte."""
    import os
    import pathlib
    import subprocess
    import sys

    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc to read a process's peak RSS")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", _BOOT_RSS_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    grown_kib = int(result.stdout.strip())
    assert grown_kib < 16 * 1024, f"boot grew peak RSS by {grown_kib} KiB"
