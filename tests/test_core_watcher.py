"""Tests for the user-level ECC watch manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import MachinePanic
from repro.ecc.controller import EccMode
from repro.core.watcher import EccWatchManager, WatchTag
from repro.machine.machine import Machine

BASE = 0x4000_0000


@pytest.fixture
def machine():
    m = Machine(dram_size=8 * 1024 * 1024)
    m.kernel.mmap(BASE, 32 * PAGE_SIZE)
    return m


@pytest.fixture
def watcher(machine):
    return EccWatchManager(machine)


def make_hit_recorder(watcher, disarm=True, restore=True):
    hits = []

    def on_hit(watch, info):
        hits.append((watch, info))
        if disarm:
            watcher.unwatch(watch, restore=restore)
        return True

    return hits, on_hit


class TestArmDisarm:
    def test_watch_saves_original_and_scrambles(self, machine, watcher):
        machine.store(BASE, b"original")
        hits, on_hit = make_hit_recorder(watcher)
        watch = watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD, on_hit)
        assert watch.original[:8] == b"original"
        assert watcher.is_watched(BASE)
        assert watcher.is_watched(BASE + CACHE_LINE_SIZE - 1)
        assert not watcher.is_watched(BASE + CACHE_LINE_SIZE)

    def test_hit_dispatches_to_callback(self, machine, watcher):
        machine.store(BASE, b"data")
        hits, on_hit = make_hit_recorder(watcher)
        watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD, on_hit)
        assert machine.load(BASE, 4) == b"data"
        assert len(hits) == 1
        _watch, info = hits[0]
        assert info.access == "read"

    def test_write_hit_reports_write_access(self, machine, watcher):
        machine.store(BASE, b"data")
        hits, on_hit = make_hit_recorder(watcher)
        watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD, on_hit)
        machine.store(BASE, b"new!")
        assert hits[0][1].access == "write"

    def test_unwatch_restores_original(self, machine, watcher):
        machine.store(BASE, b"precious")
        watch = watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.FREED,
                              lambda w, i: True)
        watcher.unwatch(watch)
        assert machine.load(BASE, 8) == b"precious"

    def test_unwatch_twice_is_harmless(self, machine, watcher):
        machine.store(BASE, b"x")
        watch = watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.FREED,
                              lambda w, i: True)
        watcher.unwatch(watch)
        watcher.unwatch(watch)
        assert watcher.disarm_count == 1

    def test_overlapping_watch_returns_none(self, machine, watcher):
        machine.store(BASE, b"x")
        assert watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD,
                             lambda w, i: True) is not None
        assert watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD,
                             lambda w, i: True) is None

    def test_pin_exhaustion_returns_none(self):
        m = Machine(dram_size=8 * 1024 * 1024, max_pinned_pages=1)
        m.kernel.mmap(BASE, 8 * PAGE_SIZE)
        watcher = EccWatchManager(m)
        m.store(BASE, b"a")
        m.store(BASE + PAGE_SIZE, b"b")
        assert watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD,
                             lambda w, i: True) is not None
        assert watcher.watch(BASE + PAGE_SIZE, CACHE_LINE_SIZE,
                             WatchTag.PAD, lambda w, i: True) is None
        assert watcher.pin_failures == 1

    def test_unwatch_all(self, machine, watcher):
        machine.store(BASE, bytes(4 * CACHE_LINE_SIZE))
        for i in range(4):
            watcher.watch(BASE + i * CACHE_LINE_SIZE, CACHE_LINE_SIZE,
                          WatchTag.PAD, lambda w, i: True)
        watcher.unwatch_all()
        assert watcher.active_watches() == []
        machine.load(BASE, 4 * CACHE_LINE_SIZE)  # no faults


class TestHardwareErrorDiscrimination:
    def test_unwatched_hardware_error_declined(self, machine, watcher):
        machine.store(BASE, b"victim")
        paddr = machine.mmu.translate(BASE)
        machine.cache.flush_line(paddr)
        machine.dram.flip_data_bit(paddr, 0)
        machine.dram.flip_data_bit(paddr, 1)
        with pytest.raises(MachinePanic):
            machine.load(BASE, 1)
        assert watcher.unclaimed_faults == 1

    def test_hardware_error_in_watched_region_repaired(self, machine,
                                                       watcher):
        machine.store(BASE, b"guarded contents")
        hits, on_hit = make_hit_recorder(watcher)
        watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.LEAK_SUSPECT, on_hit)
        # A real hardware error strikes the scrambled line: flip TWO
        # more bits so the stored pattern no longer matches the
        # scramble signature.
        paddr = machine.mmu.translate(BASE)
        machine.dram.flip_data_bit(paddr, 6)
        machine.dram.flip_data_bit(paddr + 1, 7)
        data = machine.load(BASE, 16)
        # SafeMem repaired from its private copy and re-armed; the
        # load then hit the re-armed watchpoint and the callback fired.
        assert watcher.hardware_errors_repaired == 1
        assert len(hits) == 1
        assert data == b"guarded contents"


class TestScrubCoordination:
    def test_suspend_resume_roundtrip(self):
        m = Machine(dram_size=2 * 1024 * 1024,
                    ecc_mode=EccMode.CORRECT_AND_SCRUB)
        m.kernel.mmap(BASE, 4 * PAGE_SIZE)
        watcher = EccWatchManager(m)
        m.store(BASE, b"scrub me not")
        hits, on_hit = make_hit_recorder(watcher)
        watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.LEAK_SUSPECT, on_hit)
        faults = m.kernel.run_scrub_pass()
        assert faults == []          # suspended during the pass
        assert watcher.active_watches()  # re-armed afterwards
        assert m.load(BASE, 12) == b"scrub me not"
        assert len(hits) == 1        # still armed after resume


class TestAccounting:
    def test_arm_disarm_counts(self, machine, watcher):
        machine.store(BASE, b"x")
        watch = watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.PAD,
                              lambda w, i: True)
        watcher.unwatch(watch)
        assert watcher.arm_count == 1
        assert watcher.disarm_count == 1

    def test_watch_for_lookup(self, machine, watcher):
        machine.store(BASE, b"x")
        watch = watcher.watch(BASE, CACHE_LINE_SIZE, WatchTag.FREED,
                              lambda w, i: True)
        assert watcher.watch_for(BASE + 10) is watch
        assert watcher.watch_for(BASE + CACHE_LINE_SIZE) is None


#: lines of the four-page area the model test arms regions in.
MODEL_LINES = 4 * PAGE_SIZE // CACHE_LINE_SIZE


@given(ops=st.lists(
    st.tuples(st.sampled_from(["watch", "kernel", "unwatch"]),
              st.integers(0, MODEL_LINES - 1), st.integers(1, 80)),
    min_size=1, max_size=16))
@settings(max_examples=20, deadline=None)
def test_line_lookups_match_a_per_line_model(ops):
    """``is_watched``/``watch_for`` resolve through the kernel registry
    and the manager's own regions; they must answer as a per-line dict
    of the manager's watches would.  Regions span pages whose frames
    are not contiguous, and some are armed straight through the kernel
    (not the manager's), which must resolve to no watch."""
    machine = Machine(dram_size=8 * 1024 * 1024)
    machine.kernel.mmap(BASE, 4 * PAGE_SIZE)
    for page in (2, 0, 3, 1):
        machine.store(BASE + page * PAGE_SIZE, b"\1")
    watcher = EccWatchManager(machine)
    mine = {}                   # virtual line -> the manager's watch
    armed = set()               # every armed virtual line
    for kind, line, lines in ops:
        vaddr = BASE + line * CACHE_LINE_SIZE
        vlines = range(vaddr, vaddr + min(lines, MODEL_LINES - line)
                       * CACHE_LINE_SIZE, CACHE_LINE_SIZE)
        overlapping = any(vline in armed for vline in vlines)
        if kind == "watch":
            watch = watcher.watch(vaddr, len(vlines) * CACHE_LINE_SIZE,
                                  WatchTag.PAD, lambda w, i: True)
            assert (watch is None) == overlapping
            if watch is not None:
                mine.update(dict.fromkeys(vlines, watch))
                armed.update(vlines)
        elif kind == "kernel":
            if overlapping:
                continue
            machine.kernel.watch_memory(vaddr,
                                        len(vlines) * CACHE_LINE_SIZE)
            armed.update(vlines)
        elif vaddr in mine:
            watch = mine[vaddr]
            watcher.unwatch(watch)
            for vline in watch_lines(watch):
                del mine[vline]
                armed.discard(vline)
        for vline in range(BASE, BASE + 4 * PAGE_SIZE, CACHE_LINE_SIZE):
            assert watcher.watch_for(vline + 5) is mine.get(vline)
            assert watcher.is_watched(vline) == (vline in mine)


def watch_lines(watch):
    return range(watch.vaddr, watch.vaddr + watch.size, CACHE_LINE_SIZE)
