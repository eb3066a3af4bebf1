"""Tests for the kernel: the three paper syscalls, faults, pinning, scrub."""

import pytest

from repro.common.constants import (
    CACHE_LINE_SIZE,
    PAGE_SIZE,
    SCRAMBLE_BIT_POSITIONS,
)
from repro.common.errors import (
    ConfigurationError,
    MachinePanic,
    PinLimitExceeded,
    SyscallError,
)
from repro.common.events import EventKind
from repro.ecc.codec import get_codec
from repro.ecc.controller import EccMode
from repro.machine.machine import Machine

BASE = 0x4000_0000

#: the default (E7500, SEC-DED) scramble the kernel arms lines with.
scramble_bytes = get_codec("secded").scramble_bytes


@pytest.fixture
def machine():
    m = Machine(dram_size=4 * 1024 * 1024)
    m.kernel.mmap(BASE, 16 * PAGE_SIZE)
    return m


def arm(machine, vaddr, size=CACHE_LINE_SIZE):
    machine.store(vaddr, bytes(size))  # make resident, deterministic data
    original = machine.load(vaddr, size)
    machine.kernel.watch_memory(vaddr, size)
    return original


class TestScrambleBytes:
    def test_mask_matches_positions(self):
        expected = 0
        for position in SCRAMBLE_BIT_POSITIONS:
            expected |= 1 << position
        assert get_codec("secded").scramble_mask == expected

    def test_involution(self):
        data = bytes(range(64))
        assert scramble_bytes(scramble_bytes(data)) == data

    def test_requires_group_multiple(self):
        with pytest.raises(ConfigurationError):
            scramble_bytes(b"odd")


class TestWatchMemory:
    def test_alignment_validation(self, machine):
        with pytest.raises(SyscallError):
            machine.kernel.watch_memory(BASE + 1, CACHE_LINE_SIZE)
        with pytest.raises(SyscallError):
            machine.kernel.watch_memory(BASE, 10)
        with pytest.raises(SyscallError):
            machine.kernel.watch_memory(BASE, 0)

    def test_unmapped_region_rejected(self, machine):
        with pytest.raises(SyscallError):
            machine.kernel.watch_memory(0x9000_0000, CACHE_LINE_SIZE)

    @pytest.mark.parametrize("mapped_first", [True, False])
    def test_straddling_region_names_first_unmapped_line(self, mapped_first):
        # The region's two lines sit on either side of a page boundary;
        # only one of the two pages is mapped.
        m = Machine(dram_size=4 * 1024 * 1024)
        boundary = BASE + PAGE_SIZE
        m.kernel.mmap(BASE if mapped_first else boundary, PAGE_SIZE)
        start = boundary - CACHE_LINE_SIZE
        unmapped = boundary if mapped_first else start
        with pytest.raises(SyscallError, match=f"{unmapped:#x}"):
            m.kernel.watch_memory(start, 2 * CACHE_LINE_SIZE)
        assert m.kernel.pinned_pages == 0
        assert len(m.kernel.watches) == 0

    def test_watch_pins_pages(self, machine):
        assert machine.kernel.pinned_pages == 0
        arm(machine, BASE)
        assert machine.kernel.pinned_pages == 1
        entry = machine.page_table.lookup(BASE)
        assert entry.pinned

    def test_double_watch_rejected_and_rolls_back_pins(self, machine):
        arm(machine, BASE)
        pinned = machine.kernel.pinned_pages
        with pytest.raises(SyscallError):
            machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        assert machine.kernel.pinned_pages == pinned

    def test_pin_budget_enforced(self):
        m = Machine(dram_size=4 * 1024 * 1024, max_pinned_pages=1)
        m.kernel.mmap(BASE, 4 * PAGE_SIZE)
        m.store(BASE, b"\0")
        m.store(BASE + PAGE_SIZE, b"\0")
        m.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        with pytest.raises(PinLimitExceeded):
            m.kernel.watch_memory(BASE + PAGE_SIZE, CACHE_LINE_SIZE)
        # The failed call must not leak pins.
        assert m.kernel.pinned_pages == 1

    def test_unhandled_fault_panics(self, machine):
        arm(machine, BASE)
        with pytest.raises(MachinePanic):
            machine.load(BASE, 8)

    def test_handler_decline_panics(self, machine):
        machine.kernel.register_ecc_fault_handler(lambda info: False)
        arm(machine, BASE)
        with pytest.raises(MachinePanic):
            machine.load(BASE, 8)

    def test_fault_reports_virtual_address_and_watched(self, machine):
        seen = {}

        def handler(info):
            seen.update(vaddr=info.vaddr, watched=info.watched)
            machine.kernel.disable_watch_memory(BASE)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        arm(machine, BASE)
        machine.load(BASE + 8, 4)
        assert seen["watched"] is True
        # The fault is attributed at ECC-group granularity inside the line.
        assert BASE <= seen["vaddr"] < BASE + CACHE_LINE_SIZE

    def test_access_resumes_after_restore(self, machine):
        original = None

        def handler(info):
            machine.kernel.disable_watch_memory(BASE, restore_data=original)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, b"precious data bytes")
        original = machine.load(BASE, CACHE_LINE_SIZE)
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        assert machine.load(BASE, 19) == b"precious data bytes"

    def test_multi_line_watch(self, machine):
        fired = []

        def handler(info):
            fired.append(info.vaddr)
            machine.kernel.disable_watch_memory(BASE)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, bytes(4 * CACHE_LINE_SIZE))
        machine.kernel.watch_memory(BASE, 4 * CACHE_LINE_SIZE)
        machine.load(BASE + 3 * CACHE_LINE_SIZE, 1)
        assert len(fired) == 1
        assert fired[0] // CACHE_LINE_SIZE == \
            (BASE + 3 * CACHE_LINE_SIZE) // CACHE_LINE_SIZE

    def test_watch_event_logged(self, machine):
        arm(machine, BASE)
        assert machine.events.count(EventKind.WATCH) == 1


class TestDisableWatchMemory:
    def test_unknown_region_rejected(self, machine):
        with pytest.raises(SyscallError):
            machine.kernel.disable_watch_memory(BASE)

    def test_restore_size_validated(self, machine):
        arm(machine, BASE)
        with pytest.raises(SyscallError):
            machine.kernel.disable_watch_memory(BASE, restore_data=b"x")

    def test_disable_unpins(self, machine):
        arm(machine, BASE)
        machine.kernel.disable_watch_memory(BASE)
        assert machine.kernel.pinned_pages == 0

    def test_disable_without_restore_reencodes_scrambled(self, machine):
        original = arm(machine, BASE)
        machine.kernel.disable_watch_memory(BASE)
        data = machine.load(BASE, CACHE_LINE_SIZE)  # no fault
        assert data == scramble_bytes(original)

    def test_disable_with_restore_returns_original(self, machine):
        machine.store(BASE, b"abcdefgh" * 8)
        original = machine.load(BASE, CACHE_LINE_SIZE)
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        machine.kernel.disable_watch_memory(BASE, restore_data=original)
        assert machine.load(BASE, CACHE_LINE_SIZE) == original

    @pytest.mark.parametrize("restore", [True, False])
    def test_region_over_non_contiguous_frames(self, machine, restore):
        # Touch the second page first so the region's two pages land on
        # frames that are not physically adjacent: arming and disarming
        # then take one burst per frame.
        machine.store(BASE + PAGE_SIZE, b"\1")
        machine.store(BASE + 3 * PAGE_SIZE, b"\1")
        start = BASE + PAGE_SIZE - 2 * CACHE_LINE_SIZE
        size = 4 * CACHE_LINE_SIZE
        machine.store(start, bytes(range(256)))
        original = machine.load(start, size)
        region = machine.kernel.watch_memory(start, size)
        plines = [region.lines[vline] for vline in sorted(region.lines)]
        assert plines[2] != plines[1] + CACHE_LINE_SIZE
        for vline, pline in region.lines.items():
            offset = vline - start
            assert machine.dram.read_raw(pline, CACHE_LINE_SIZE) == \
                scramble_bytes(original[offset:offset + CACHE_LINE_SIZE])
        machine.kernel.disable_watch_memory(
            start, restore_data=original if restore else None)
        expected = original if restore else scramble_bytes(original)
        assert machine.load(start, size) == expected


class TestHardwareErrorDiscrimination:
    def test_hardware_multibit_error_on_unwatched_line(self, machine):
        """A genuine hardware error is delivered with watched=False."""
        seen = {}

        def handler(info):
            seen.update(watched=info.watched, vaddr=info.vaddr)
            return False  # SafeMem would decline -> panic

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, b"data")
        # Flush so the corruption is visible to the next fill.
        paddr = machine.mmu.translate(BASE)
        machine.cache.flush_line(paddr)
        machine.dram.flip_data_bit(paddr, 0)
        machine.dram.flip_data_bit(paddr, 1)
        with pytest.raises(MachinePanic):
            machine.load(BASE, 4)
        assert seen["watched"] is False
        assert seen["vaddr"] is None


class TestPeekWatchedLine:
    def test_peek_returns_scrambled_bytes(self, machine):
        original = arm(machine, BASE)
        peeked = machine.kernel.peek_watched_line(BASE)
        assert peeked == scramble_bytes(original)

    def test_peek_rejects_unwatched(self, machine):
        with pytest.raises(SyscallError):
            machine.kernel.peek_watched_line(BASE)


class TestScrubCoordination:
    def test_scrub_pass_with_watched_lines_would_fault(self):
        m = Machine(dram_size=1024 * 1024,
                    ecc_mode=EccMode.CORRECT_AND_SCRUB)
        m.kernel.mmap(BASE, PAGE_SIZE)
        m.store(BASE, bytes(CACHE_LINE_SIZE))
        m.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        faults = m.kernel.run_scrub_pass()
        assert len(faults) == 1  # the armed line trips the scrubber

    def test_listener_unwatch_protects_scrub(self):
        m = Machine(dram_size=1024 * 1024,
                    ecc_mode=EccMode.CORRECT_AND_SCRUB)
        m.kernel.mmap(BASE, PAGE_SIZE)
        m.store(BASE, bytes(CACHE_LINE_SIZE))

        def pre():
            m.kernel.disable_watch_memory(BASE)

        def post():
            m.kernel.watch_memory(BASE, CACHE_LINE_SIZE)

        m.kernel.add_scrub_listener(pre=pre, post=post)
        m.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        faults = m.kernel.run_scrub_pass()
        assert faults == []
        # Re-armed after the pass: the next access still faults.
        with pytest.raises(MachinePanic):
            m.load(BASE, 1)


class TestMunmap:
    def test_munmap_watched_region_rejected(self, machine):
        arm(machine, BASE)
        with pytest.raises(SyscallError):
            machine.kernel.munmap(BASE, PAGE_SIZE)

    def test_munmap_of_a_watched_tail_rejected(self, machine):
        """A region that starts before the unmapped range but ends
        inside it pins a page of the range: munmap must refuse, not
        release the pinned, armed frame."""
        start = BASE + PAGE_SIZE - CACHE_LINE_SIZE
        arm(machine, start, 2 * CACHE_LINE_SIZE)
        assert machine.kernel.pinned_pages == 2
        with pytest.raises(SyscallError):
            machine.kernel.munmap(BASE + PAGE_SIZE, PAGE_SIZE)
        assert machine.kernel.pinned_pages == 2
        machine.kernel.disable_watch_memory(start)
        assert machine.kernel.pinned_pages == 0
        machine.kernel.munmap(BASE + PAGE_SIZE, PAGE_SIZE)

    def test_munmap_releases_frames(self, machine):
        machine.store(BASE, b"x")
        free_before = machine.frames.free_frames
        machine.kernel.munmap(BASE, 16 * PAGE_SIZE)
        assert machine.frames.free_frames == free_before + 1


class TestSyscallAccounting:
    def test_costs_charged(self, machine):
        before = machine.clock.cycles
        machine.store(BASE, bytes(CACHE_LINE_SIZE))
        mid = machine.clock.cycles
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        assert machine.clock.cycles - mid >= \
            machine.costs.watch_memory_cost(1)
        assert mid > before

    def test_syscall_counts(self, machine):
        arm(machine, BASE)
        machine.kernel.disable_watch_memory(BASE)
        metrics = machine.metrics
        assert metrics.value("kernel.syscall.WatchMemory") == 1
        assert metrics.value("kernel.syscall.DisableWatchMemory") == 1
