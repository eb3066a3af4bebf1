"""The cache's span walk is equivalent to a per-line reference model.

``Cache.load``/``Cache.store`` move a whole span per call: a span of
resident lines inside one frame is accounted in one step and copied
with one slice, and any other span walks line by line with batched hit
charges.  The reference below is the per-line loop it replaced: split
the span at cache lines and take every piece through
``Cache._access_line``, the one fill path.  Twin caches run the same
random access sequence, one through each, and must agree on every
returned byte, every counter, every resident line (stamp, dirty bit,
data), the clock and what a clock timer observes, and the DRAM
contents after a final ``flush_all``.  The random sequences also
interleave ``flush_lines`` and ``invalidate_line``, applied to both
twins.  The frame index and the ``resident_lines`` counter are
checked after every operation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.clock import VirtualClock
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE, line_base
from repro.common.costs import default_cost_model
from repro.ecc.codec import get_codec
from repro.ecc.controller import MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import UncorrectableEccError
from repro.obs.metrics import MetricsRegistry

#: accesses start in the first three frames and span up to three pages.
DRAM_SIZE = 8 * PAGE_SIZE
PATTERN = bytes(range(256)) * (3 * PAGE_SIZE // 256 + 1)


def _chunks(address, size):
    """Split ``[address, address+size)`` at cache-line boundaries."""
    cursor = address
    end = address + size
    while cursor < end:
        chunk = min(end, line_base(cursor) + CACHE_LINE_SIZE) - cursor
        yield cursor, chunk
        cursor += chunk


def reference_load(cache, paddr, size):
    out = bytearray()
    for chunk_addr, chunk_size in _chunks(paddr, size):
        line = cache._access_line(chunk_addr, for_write=False)
        offset = chunk_addr - line_base(chunk_addr)
        out += line.data[offset:offset + chunk_size]
    return bytes(out)


def reference_store(cache, paddr, data):
    position = 0
    for chunk_addr, chunk_size in _chunks(paddr, len(data)):
        line = cache._access_line(chunk_addr, for_write=True)
        offset = chunk_addr - line_base(chunk_addr)
        line.data[offset:offset + chunk_size] = (
            data[position:position + chunk_size])
        line.dirty = True
        position += chunk_size


class _Rig:
    """One cache over its own DRAM and clock, optionally with a timer."""

    def __init__(self, size, ways, cadence):
        dram = PhysicalMemory(DRAM_SIZE)
        self.controller = MemoryController(dram)
        # Distinct line contents, so a misplaced byte shows.
        self.controller.write_line(
            0, (bytes(range(251)) * (DRAM_SIZE // 251 + 1))[:DRAM_SIZE])
        self.clock = VirtualClock()
        self.cache = Cache(self.controller, size=size, ways=ways,
                           clock=self.clock,
                           cost_model=default_cost_model())
        self.observed = []
        if cadence is not None:
            self.clock.every(cadence, self._observe)

    def _observe(self, clock):
        cache = self.cache
        self.observed.append((clock.cycles, cache.hits, cache.misses,
                              cache._tick))

    def state(self):
        cache = self.cache
        return (cache.hits, cache.misses, cache.evictions,
                cache.writebacks, cache._tick, self.clock.cycles,
                sorted((base, line.stamp, line.dirty, bytes(line.data))
                       for cache_set in cache._sets
                       for base, line in cache_set.items()),
                self.observed)


def assert_frame_index(cache):
    """``_frames`` holds exactly the frames with resident lines, each
    frame's slots and count match the set dicts, and the
    ``resident_lines`` counter matches their total."""
    assert cache.resident_lines == sum(len(s) for s in cache._sets)
    expected = {}
    for cache_set in cache._sets:
        for base, line in cache_set.items():
            frame_base = base - base % PAGE_SIZE
            slot = (base - frame_base) // CACHE_LINE_SIZE
            expected.setdefault(frame_base, {})[slot] = line
    assert set(cache._frames) == set(expected)
    for frame_base, frame in cache._frames.items():
        slots = expected[frame_base]
        assert frame.resident == len(slots)
        for slot, line in enumerate(frame.lines):
            assert line is slots.get(slot)
            if line is not None:
                assert line.data.obj is frame.buffer
                start = slot * CACHE_LINE_SIZE
                assert bytes(line.data) == \
                    frame.buffer[start:start + CACHE_LINE_SIZE]


addresses = st.builds(
    lambda page, line, delta: page * PAGE_SIZE + line * CACHE_LINE_SIZE
    + delta,
    st.integers(0, 2), st.integers(0, PAGE_SIZE // CACHE_LINE_SIZE - 1),
    st.sampled_from([0, 1, 8, 33, 63]))
sizes = st.one_of(
    st.integers(0, 3 * CACHE_LINE_SIZE),
    st.sampled_from([CACHE_LINE_SIZE, PAGE_SIZE - 1, PAGE_SIZE,
                     PAGE_SIZE + 1, 2 * PAGE_SIZE, 3 * PAGE_SIZE]),
    st.integers(0, 3 * PAGE_SIZE))
accesses = st.lists(
    st.tuples(st.sampled_from(["load", "store", "flush", "invalidate"]),
              addresses, sizes, st.integers(0, 255)),
    min_size=1, max_size=12)


@given(size=st.sampled_from([1024, 2048, 4096, 8192]),
       ways=st.sampled_from([1, 2, 4, 8]),
       cadence=st.integers(1, 500),
       plan=accesses)
@settings(max_examples=60, deadline=None)
def test_span_walk_matches_per_line_reference(size, ways, cadence, plan):
    for timer in (None, cadence):
        span, reference = _Rig(size, ways, timer), _Rig(size, ways, timer)
        for kind, paddr, length, seed in plan:
            if kind == "store":
                data = PATTERN[seed:seed + length]
                span.cache.store(paddr, data)
                reference_store(reference.cache, paddr, data)
            elif kind == "load":
                assert span.cache.load(paddr, length) == \
                    reference_load(reference.cache, paddr, length)
            else:
                # Maintenance runs the same code on both twins.
                for rig in (span, reference):
                    if kind == "flush":
                        rig.cache.flush_lines(range(
                            line_base(paddr), paddr + length,
                            CACHE_LINE_SIZE))
                    else:
                        rig.cache.invalidate_line(paddr)
            assert span.state() == reference.state()
            assert_frame_index(span.cache)
            assert_frame_index(reference.cache)
        span.cache.flush_all()
        reference.cache.flush_all()
        assert span.cache._frames == {}
        assert span.cache.resident_lines == 0
        assert span.state() == reference.state()
        assert span.controller.dram.digest() == \
            reference.controller.dram.digest()


@pytest.mark.parametrize("cadence", [None, 3])
@pytest.mark.parametrize("write", [False, True])
def test_fault_mid_span_leaves_reference_state(cadence, write):
    # Lines 0-3 resident, line 2 then flushed and armed: the span hits
    # lines 0 and 1, and its fill of line 2 raises out of the call.
    scramble = get_codec("secded").scramble_bytes
    rigs = []
    for walk in (True, False):
        rig = _Rig(8192, 2, cadence)
        rig.cache.load(0, 4 * CACHE_LINE_SIZE)
        armed = 2 * CACHE_LINE_SIZE
        rig.cache.flush_line(armed)
        controller = rig.controller
        line = controller.read_line(armed)
        controller.lock_bus()
        controller.disable_ecc()
        controller.write_line(armed, scramble(line))
        controller.enable_ecc()
        controller.unlock_bus()
        with pytest.raises(UncorrectableEccError):
            if walk and write:
                rig.cache.store(8, b"\x5a" * 200)
            elif walk:
                rig.cache.load(8, 200)
            elif write:
                reference_store(rig.cache, 8, b"\x5a" * 200)
            else:
                reference_load(rig.cache, 8, 200)
        assert_frame_index(rig.cache)
        rigs.append(rig.state())
    assert rigs[0] == rigs[1]


def test_resident_lines_gauges_read_each_level():
    """``cache.l1.resident_lines`` and ``cache.l2.resident_lines`` are
    each level's own counter, through fills, evictions, flushes and an
    invalidate."""
    controller = MemoryController(PhysicalMemory(DRAM_SIZE))
    metrics = MetricsRegistry()
    hierarchy = CacheHierarchy(controller, l1_size=1024, l1_ways=2,
                               l2_size=8192, l2_ways=4, metrics=metrics)

    def assert_gauges():
        for level in (hierarchy.l1, hierarchy.l2):
            assert_frame_index(level)
            assert metrics.value(f"cache.{level.level}.resident_lines") \
                == sum(len(s) for s in level._sets)

    hierarchy.load(0, 2 * PAGE_SIZE)
    assert_gauges()
    # 2 pages = 128 lines: L1 holds 16 of them, L2 all 128.
    assert metrics.value("cache.l1.resident_lines") == 16
    assert metrics.value("cache.l2.resident_lines") == 128
    hierarchy.store(PAGE_SIZE + 8, b"\xa5" * 300)
    hierarchy.flush_lines(range(0, 4 * CACHE_LINE_SIZE, CACHE_LINE_SIZE))
    hierarchy.invalidate_line(PAGE_SIZE)
    assert_gauges()
    hierarchy.flush_all()
    assert_gauges()
    assert metrics.value("cache.l1.resident_lines") == 0
    assert metrics.value("cache.l2.resident_lines") == 0
