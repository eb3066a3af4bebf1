"""Burst transfers are equivalent to their per-line counterparts.

``MemoryController.write_line`` accepts multi-line bursts,
``MemoryController.read_lines`` reads a burst's clean prefix, and
``Cache.flush_lines`` coalesces contiguous dirty write-backs.  All are
pure host-time optimizations: each test drives twin objects, one with
the burst call and one with the per-line loop it replaces, and requires
identical DRAM contents (data and check bits), counters and cache state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.common.clock import VirtualClock
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.costs import default_cost_model
from repro.common.errors import BusError
from repro.ecc.controller import EccMode, MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import UncorrectableEccError
from repro.ecc.profile import PROFILES, get_profile
from repro.obs.metrics import MetricsRegistry

DRAM_SIZE = 64 * PAGE_SIZE
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE


def _controller(profile="e7500"):
    codec = get_profile(profile).build_codec()
    dram = PhysicalMemory(DRAM_SIZE, check_bytes_per_group=codec.check_bytes)
    metrics = MetricsRegistry()
    return MemoryController(dram, codec=codec, metrics=metrics), metrics


def _ecc_counters(metrics):
    return metrics.snapshot().filtered("ecc.")


# ----------------------------------------------------------------------
# multi-line write_line == one write_line per line
# ----------------------------------------------------------------------
class TestBurstWrite:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("scramble_window", [False, True])
    @given(first=st.integers(0, DRAM_SIZE // CACHE_LINE_SIZE - 1),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_burst_matches_per_line_writes(self, profile, scramble_window,
                                           first, data):
        lines = data.draw(st.integers(
            1, min(2 * LINES_PER_PAGE,
                   DRAM_SIZE // CACHE_LINE_SIZE - first)))
        payload = data.draw(st.binary(min_size=lines * CACHE_LINE_SIZE,
                                      max_size=lines * CACHE_LINE_SIZE))
        address = first * CACHE_LINE_SIZE
        twins = []
        for burst in (True, False):
            controller, metrics = _controller(profile)
            # Some prior encoded contents, so a data-only write leaves
            # check bits that differ from the new data's.
            controller.write_line(0, bytes(range(256)) * (DRAM_SIZE // 256))
            if scramble_window:
                controller.lock_bus()
                controller.disable_ecc()
            if burst:
                controller.write_line(address, payload)
            else:
                for line in range(lines):
                    offset = line * CACHE_LINE_SIZE
                    controller.write_line(
                        address + offset,
                        payload[offset:offset + CACHE_LINE_SIZE])
            if scramble_window:
                controller.enable_ecc()
                controller.unlock_bus()
            twins.append((controller.dram.digest(), _ecc_counters(metrics)))
        assert twins[0] == twins[1]

    def test_burst_reads_back_through_the_codec(self):
        controller, _ = _controller()
        payload = bytes(range(256)) * 16
        controller.write_line(PAGE_SIZE, payload)
        for line in range(0, len(payload), CACHE_LINE_SIZE):
            assert controller.read_line(PAGE_SIZE + line) == \
                payload[line:line + CACHE_LINE_SIZE]
        assert controller.clean_line_reads == LINES_PER_PAGE
        assert controller.writes == LINES_PER_PAGE
        assert controller.batched_line_writes == LINES_PER_PAGE

    @pytest.mark.parametrize("address, length", [
        (8, 2 * CACHE_LINE_SIZE),          # misaligned burst
        (CACHE_LINE_SIZE // 2, CACHE_LINE_SIZE),
        (0, CACHE_LINE_SIZE + 1),          # not a line multiple
        (0, 3 * CACHE_LINE_SIZE - 8),
        (0, 0),                            # empty
        (DRAM_SIZE - CACHE_LINE_SIZE, 2 * CACHE_LINE_SIZE),  # past DRAM
    ])
    def test_bad_bursts_raise_bus_error(self, address, length):
        controller, _ = _controller()
        before = controller.dram.digest()
        with pytest.raises(BusError):
            controller.write_line(address, bytes(length))
        assert controller.dram.digest() == before


# ----------------------------------------------------------------------
# read_lines == one clean read_line per line, up to the first unclean
# ----------------------------------------------------------------------
class TestBurstRead:
    @staticmethod
    def _twin(profile, address, flips):
        controller, metrics = _controller(profile)
        controller.write_line(0, bytes(range(256)) * (DRAM_SIZE // 256))
        for line, byte, bit in flips:
            controller.dram.flip_data_bit(
                address + line * CACHE_LINE_SIZE + byte, bit)
        return controller, metrics

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @given(first=st.integers(0, DRAM_SIZE // CACHE_LINE_SIZE - 1),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_burst_returns_the_clean_prefix(self, profile, first, data):
        count = data.draw(st.integers(
            1, min(2 * LINES_PER_PAGE,
                   DRAM_SIZE // CACHE_LINE_SIZE - first)))
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, count - 1),
                      st.integers(0, CACHE_LINE_SIZE - 1),
                      st.integers(0, 7)), max_size=3))
        address = first * CACHE_LINE_SIZE
        # Find the first unclean line with one-line reads on a probe.
        probe, _ = self._twin(profile, address, flips)
        clean = 0
        while clean < count:
            before = probe.clean_line_reads
            try:
                probe.read_line(address + clean * CACHE_LINE_SIZE)
            except UncorrectableEccError:
                break
            if probe.clean_line_reads == before:
                break
            clean += 1
        reference, reference_metrics = self._twin(profile, address, flips)
        expected = b"".join(
            reference.read_line(address + line * CACHE_LINE_SIZE)
            for line in range(clean))
        burst, burst_metrics = self._twin(profile, address, flips)
        assert burst.read_lines(address, count) == expected
        assert burst.dram.digest() == reference.dram.digest()
        assert _ecc_counters(burst_metrics) == \
            _ecc_counters(reference_metrics)

    def test_unchecked_burst_returns_every_line(self):
        controller, _ = _controller()
        controller.dram.flip_data_bit(CACHE_LINE_SIZE, 0)
        controller.set_mode(EccMode.DISABLED)
        raw = controller.dram.read_raw(0, 4 * CACHE_LINE_SIZE)
        assert controller.read_lines(0, 4) == raw
        assert controller.reads == 4
        assert controller.clean_line_reads == 0


# ----------------------------------------------------------------------
# flush_lines == one flush_line per address
# ----------------------------------------------------------------------
#: non-contiguous frames, so flush lists cross run boundaries.
FRAMES = (0, 3 * PAGE_SIZE, 4 * PAGE_SIZE, 9 * PAGE_SIZE)

#: per line: absent, clean (loaded) or dirty (stored).
line_states = st.lists(st.sampled_from(["absent", "clean", "dirty"]),
                       min_size=2 * LINES_PER_PAGE,
                       max_size=2 * LINES_PER_PAGE)


def _cache(controller):
    return Cache(controller, VirtualClock(), default_cost_model(),
                 size=32 * 1024, ways=4)


def _cache_state(cache):
    return (cache.hits, cache.misses, cache.evictions, cache.writebacks,
            cache.flushes,
            sorted((tag, data, dirty)
                   for tag, dirty, _stamp, data in cache.lines()))


class TestFlushLines:
    @given(states=line_states, frames=st.permutations(FRAMES),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_flush_lines_matches_per_line_flush(self, states, frames,
                                                order):
        # The flushed lines: two frames' worth, visited in ascending
        # order within a frame (contiguous runs) but frames in random
        # order, plus a few repeats and never-touched lines.
        lines = [frames[index // LINES_PER_PAGE]
                 + (index % LINES_PER_PAGE) * CACHE_LINE_SIZE
                 for index in range(len(states))]
        flush = lines + order.sample(lines, 4)
        flush.insert(order.randrange(len(flush)),
                     frames[2] + 5 * CACHE_LINE_SIZE)
        twins = []
        for batched in (True, False):
            controller, metrics = _controller()
            cache = _cache(controller)
            for line, state in zip(lines, states):
                if state == "clean":
                    cache.load(line, 8)
                elif state == "dirty":
                    cache.store(line + 8, line.to_bytes(8, "little"))
            if batched:
                cache.flush_lines(flush)
            else:
                for paddr in flush:
                    cache.flush_line(paddr)
            twins.append((controller.dram.digest(), _ecc_counters(metrics),
                          _cache_state(cache)))
        assert twins[0] == twins[1]

    def test_contiguous_dirty_lines_write_back_as_one_burst(self):
        controller, _ = _controller()
        cache = _cache(controller)
        bursts = []
        write_line = controller.write_line

        def recording(address, data):
            bursts.append((address, len(data) // CACHE_LINE_SIZE))
            write_line(address, data)

        controller.write_line = recording
        for index in (0, 1, 2, 4, 5):
            cache.store(index * CACHE_LINE_SIZE, b"dirty")
        cache.load(3 * CACHE_LINE_SIZE, 8)  # clean: breaks the run
        cache.flush_lines(index * CACHE_LINE_SIZE for index in range(6))
        assert bursts == [(0, 3), (4 * CACHE_LINE_SIZE, 2)]
        assert cache.flushes == 6
        assert cache.writebacks == 5
        assert controller.writes == 5
