"""The cache's span walk is equivalent to a per-line reference model.

``Cache.load``/``Cache.store`` move a whole span per call: a span of
resident lines inside one frame is accounted in one step and copied
with one slice, a run of absent lines inside one frame fills from one
controller burst (its clean prefix installed in one step up to the
first full set), and any other span walks line by line with batched
hit and fill charges.  The reference below is the per-line loop it
replaced: split the span at cache lines and take every piece through
``Cache._access_line`` with its own one-line controller read.  Twin
caches run the same random access sequence, one through each, and must
agree on every returned byte, every raised fault and the line it
names, every cache and controller counter, every reported ECC fault
and its cycle, every resident line (stamp, dirty bit, data), the clock
and what a clock timer observes, and the DRAM contents after a final
``flush_all``.  Before the sequence runs, random lines are armed (data
scrambled under the bus-locked window) and random single data bits
flipped, so bursts meet unclean lines at every position.

The random sequences also interleave the range operations, each
against its per-line loop: ``flush_range`` against ``flush_lines``
over the range, ``flush_resident`` against ``flush_lines`` over the
resident lines, and ``invalidate_range`` against one
``invalidate_line`` per line.  The frame index and the
``resident_lines`` counter are checked after every operation.
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
#: lines an access can reach: the first six frames.
REACHABLE_LINES = 6 * PAGE_SIZE // CACHE_LINE_SIZE


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


SCRAMBLE = get_codec("secded").scramble_bytes


def arm(controller, line):
    """Scramble one line under the bus-locked, ECC-off window, as
    ``WatchMemory`` does, so its next fill raises."""
    data = controller.dram.read_raw(line, CACHE_LINE_SIZE)
    controller.lock_bus()
    controller.disable_ecc()
    controller.write_line(line, SCRAMBLE(data))
    controller.enable_ecc()
    controller.unlock_bus()


class _Rig:
    """One cache (or an L1 over an L2) over its own DRAM and clock,
    optionally with a timer, with ``armed`` lines scrambled and the
    ``flipped`` ``(line, byte, bit)`` data bits flipped."""

    def __init__(self, size, ways, cadence, armed=(), flipped=(),
                 levels=1):
        dram = PhysicalMemory(DRAM_SIZE)
        self.controller = MemoryController(dram)
        # Distinct line contents, so a misplaced byte shows.
        self.controller.write_line(
            0, (bytes(range(251)) * (DRAM_SIZE // 251 + 1))[:DRAM_SIZE])
        for line in armed:
            arm(self.controller, line * CACHE_LINE_SIZE)
        for line, byte, bit in flipped:
            dram.flip_data_bit(line * CACHE_LINE_SIZE + byte, bit)
        self.clock = VirtualClock()
        self.faults = []
        self.controller.fault_listener = self._on_fault
        if levels == 1:
            self.cache = Cache(self.controller, size=size, ways=ways,
                               clock=self.clock,
                               cost_model=default_cost_model())
            self.levels = (self.cache,)
        else:
            self.cache = CacheHierarchy(
                self.controller, l1_size=size, l1_ways=ways,
                l2_size=4 * size, l2_ways=ways, clock=self.clock,
                cost_model=default_cost_model())
            self.levels = (self.cache.l1, self.cache.l2)
        self.observed = []
        if cadence is not None:
            self.clock.every(cadence, self._observe)

    def _on_fault(self, fault):
        self.faults.append((self.clock.cycles, fault))

    def _observe(self, clock):
        self.observed.append((clock.cycles, self.controller.reads)
                             + tuple((level.hits, level.misses,
                                      level._tick)
                                     for level in self.levels))

    def state(self):
        controller = self.controller
        return (tuple((level.hits, level.misses, level.evictions,
                       level.writebacks, level.flushes, level._tick,
                       sorted((base, line.stamp, line.dirty,
                               bytes(line.data))
                              for cache_set in level._sets
                              for base, line in cache_set.items()))
                      for level in self.levels),
                self.clock.cycles,
                (controller.reads, controller.clean_line_reads,
                 controller.corrected_errors,
                 controller.uncorrectable_errors,
                 controller.group_decodes),
                self.faults, self.observed)


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
    st.tuples(st.sampled_from(["load", "store", "flush", "flush_resident",
                               "invalidate"]),
              addresses, sizes, st.integers(0, 255)),
    min_size=1, max_size=12)
armed_lines = st.lists(st.integers(0, REACHABLE_LINES - 1), max_size=4,
                       unique=True)
flipped_bits = st.lists(
    st.tuples(st.integers(0, REACHABLE_LINES - 1), st.integers(0, 63),
              st.integers(0, 7)),
    max_size=4)


def apply(rig, kind, paddr, length, seed, reference):
    """One op on one twin: through the span path and the range
    operations, or (``reference``) through the per-line loops.  Returns
    the loaded bytes, or the fault a raising span reported."""
    cache = rig.cache
    top = rig.levels[0]
    lines = range(line_base(paddr), paddr + length, CACHE_LINE_SIZE)
    try:
        if kind == "load":
            if reference:
                return reference_load(top, paddr, length)
            return cache.load(paddr, length)
        if kind == "store":
            data = PATTERN[seed:seed + length]
            if reference:
                reference_store(top, paddr, data)
            else:
                cache.store(paddr, data)
        elif kind == "flush":
            if reference:
                cache.flush_lines(lines)
            else:
                cache.flush_range(paddr, length)
        elif kind == "flush_resident":
            if reference:
                cache.flush_lines(line for line in lines
                                  if cache.contains(line))
            else:
                cache.flush_resident(paddr, length)
        elif reference:
            for line in lines:
                cache.invalidate_line(line)
        else:
            cache.invalidate_range(paddr, length)
    except UncorrectableEccError as exc:
        return exc.fault
    return None


def assert_twins_agree(make_rig, plan):
    span, reference = make_rig(), make_rig()
    for kind, paddr, length, seed in plan:
        assert apply(span, kind, paddr, length, seed, False) == \
            apply(reference, kind, paddr, length, seed, True)
        assert span.state() == reference.state()
        for level in span.levels + reference.levels:
            assert_frame_index(level)
    span.cache.flush_all()
    reference.cache.flush_all()
    for level in span.levels:
        assert level._frames == {}
        assert level.resident_lines == 0
    assert span.state() == reference.state()
    assert span.controller.dram.digest() == \
        reference.controller.dram.digest()


@given(size=st.sampled_from([1024, 2048, 4096, 8192]),
       ways=st.sampled_from([1, 2, 4, 8]),
       cadence=st.integers(1, 500),
       armed=armed_lines, flipped=flipped_bits,
       plan=accesses)
@settings(max_examples=60, deadline=None)
def test_span_walk_matches_per_line_reference(size, ways, cadence, armed,
                                              flipped, plan):
    # Without a timer a span fills runs of absent lines from bursts;
    # with one, every fill is a one-line read.
    for timer in (None, cadence):
        assert_twins_agree(
            lambda: _Rig(size, ways, timer, armed, flipped), plan)


@given(size=st.sampled_from([1024, 2048]),
       ways=st.sampled_from([1, 2, 4]),
       cadence=st.one_of(st.none(), st.integers(1, 500)),
       armed=armed_lines, flipped=flipped_bits,
       plan=accesses)
@settings(max_examples=25, deadline=None)
def test_hierarchy_matches_per_line_reference(size, ways, cadence, armed,
                                              flipped, plan):
    """An L1 over an L2: the L1 never bursts (its fills read through
    the L2), and the hierarchy's range operations keep the per-line
    L1 -> L2 order."""
    assert_twins_agree(
        lambda: _Rig(size, ways, cadence, armed, flipped, levels=2), plan)


def test_burst_stops_at_the_first_unclean_line():
    """A store over a page of absent lines: one burst reads the clean
    prefix, the corrected line and the armed line each take their own
    read, and the span raises from the armed line with the lines before
    it filled."""
    rig = _Rig(16 * 1024, 4, None, armed=[9], flipped=[(4, 3, 5)])
    fault = apply(rig, "store", 0, PAGE_SIZE, 0, False)
    assert fault.line_address == 9 * CACHE_LINE_SIZE
    controller = rig.controller
    # Lines 0-8 filled (line 4 corrected); the read of line 9 raised.
    assert rig.cache.misses == 10
    assert controller.reads == 10
    assert controller.clean_line_reads == 8
    assert controller.corrected_errors == 1
    assert controller.uncorrectable_errors == 1
    assert [fault.line_address for _, fault in rig.faults] == \
        [4 * CACHE_LINE_SIZE, 9 * CACHE_LINE_SIZE]


@pytest.mark.parametrize("ways", [1, 2])
def test_one_step_fill_stops_at_a_full_set(ways):
    """A store over a page of absent lines into a cache of 16 sets,
    fewer than a page's 64 lines.  Each one-step run installs at most
    16 lines and stops at the first full set; every line past it
    evicts an earlier, already stored-to line of the same span, whose
    stored bytes (not the burst's) must be the ones written back."""
    size = 16 * ways * CACHE_LINE_SIZE
    plan = [("store", 0, PAGE_SIZE, 7), ("load", 8, PAGE_SIZE - 16, 0)]
    assert_twins_agree(lambda: _Rig(size, ways, None), plan)
    rig = _Rig(size, ways, None)
    apply(rig, "store", 0, PAGE_SIZE, 7, False)
    assert_frame_index(rig.cache)
    lines = PAGE_SIZE // CACHE_LINE_SIZE
    # One burst read every line; the lines past the 16 * ways that fit
    # each evicted a dirty line.
    assert rig.controller.reads == rig.cache.misses == lines
    assert rig.cache.evictions == rig.cache.writebacks == lines - 16 * ways
    rig.cache.flush_all()
    assert rig.controller.dram.read_raw(0, PAGE_SIZE) == \
        PATTERN[7:7 + PAGE_SIZE]


@pytest.mark.parametrize("cadence", [None, 3])
@pytest.mark.parametrize("write", [False, True])
def test_fault_mid_span_leaves_reference_state(cadence, write):
    # Lines 0-3 resident, line 2 then flushed and armed: the span hits
    # lines 0 and 1, and its fill of line 2 raises out of the call.
    rigs = []
    for walk in (True, False):
        rig = _Rig(8192, 2, cadence)
        rig.cache.load(0, 4 * CACHE_LINE_SIZE)
        armed = 2 * CACHE_LINE_SIZE
        rig.cache.flush_line(armed)
        arm(rig.controller, armed)
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
