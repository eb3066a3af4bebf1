"""The cache's span walk is equivalent to a per-line reference model.

``Cache.load``/``Cache.store`` move a whole span per call: a span of
resident lines inside one frame is accounted with slice operations on
the frame's ``present``, ``origins`` and ``dirty`` arrays and copied
with one slice, a run of absent lines inside one frame fills from one
controller burst (its clean prefix installed in one step up to the
first full set), and any other span walks line by line with batched
hit and fill charges.  The reference below is the per-line loop it
replaced: split the span at cache lines and take every piece through
``Cache._access_line`` with its own one-line controller read, moving
the bytes through the frame it returns.  Twin caches run the same
random access sequence, one through each, and must agree on every
returned byte, every raised fault and the line it names, every cache
and controller counter, every reported ECC fault and its cycle, every
resident line (``Cache.lines``: stamp, dirty bit, data), the clock and
what a clock timer observes, and the DRAM contents after a final
``flush_all``.  Before the sequence runs, random lines are armed (data
scrambled under the bus-locked window) and random single data bits
flipped, so bursts meet unclean lines at every position.

The random sequences also interleave the range operations, each
against its per-line loop: ``flush_range`` against ``flush_lines``
over the range, ``flush_resident`` against ``flush_lines`` over the
resident lines, and ``invalidate_range`` against one
``invalidate_line`` per line.  The frame index (each set entry's
frame, each frame's present slots, count and dirty bits) and the
``resident_lines`` counter are checked after every operation.

Both twins share the cache's LRU encoding, so LRU order is also
checked against a model that shares no code with ``Cache``: one
``OrderedDict`` per set, least recently used first, which must agree
on the counters, each set's order and dirty bits, and the sequence of
lines written back.
"""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.common.clock import VirtualClock
from repro.common.constants import (
    CACHE_LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SIZE,
    line_base,
)
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
        frame = cache._access_line(chunk_addr, for_write=False)
        offset = chunk_addr % PAGE_SIZE
        out += frame.buffer[offset:offset + chunk_size]
    return bytes(out)


def reference_store(cache, paddr, data):
    position = 0
    for chunk_addr, chunk_size in _chunks(paddr, len(data)):
        frame = cache._access_line(chunk_addr, for_write=True)
        offset = chunk_addr % PAGE_SIZE
        frame.buffer[offset:offset + chunk_size] = (
            data[position:position + chunk_size])
        frame.dirty[offset // CACHE_LINE_SIZE] = 1
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
    """One cache over its own DRAM and clock, optionally with a timer,
    with ``armed`` lines scrambled and the ``flipped``
    ``(line, byte, bit)`` data bits flipped."""

    def __init__(self, size, ways, cadence, armed=(), flipped=()):
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
        self.cache = Cache(self.controller, self.clock,
                           default_cost_model(), size=size, ways=ways)
        self.observed = []
        if cadence is not None:
            self.clock.every(cadence, self._observe)

    def _on_fault(self, fault):
        self.faults.append((self.clock.cycles, fault))

    def _observe(self, clock):
        cache = self.cache
        self.observed.append((clock.cycles, self.controller.reads,
                              cache.hits, cache.misses, cache._tick))

    def state(self):
        cache = self.cache
        controller = self.controller
        return ((cache.hits, cache.misses, cache.evictions,
                 cache.writebacks, cache.flushes, cache._tick,
                 sorted((tag, stamp, dirty, data)
                        for tag, dirty, stamp, data in cache.lines())),
                self.clock.cycles,
                (controller.reads, controller.clean_line_reads,
                 controller.corrected_errors,
                 controller.uncorrectable_errors,
                 controller.group_decodes),
                self.faults, self.observed)


def assert_frame_index(cache):
    """``_frames`` holds exactly the frames with resident lines, every
    set entry points at its indexed frame, each frame's ``present``
    slots and ``resident`` count match the set dicts, no absent slot is
    dirty, and the ``resident_lines`` counter matches the total."""
    assert cache.resident_lines == sum(len(s) for s in cache._sets)
    expected = {}
    for cache_set in cache._sets:
        for base, frame in cache_set.items():
            frame_base = base - base % PAGE_SIZE
            assert cache._frames.get(frame_base) is frame
            slot = (base - frame_base) // CACHE_LINE_SIZE
            expected.setdefault(frame_base, set()).add(slot)
    assert set(cache._frames) == set(expected)
    for frame_base, frame in cache._frames.items():
        slots = expected[frame_base]
        assert frame.resident == len(slots) == frame.present.count(1)
        for slot in range(LINES_PER_PAGE):
            assert frame.present[slot] == (slot in slots)
            assert frame.dirty[slot] in ((0, 1) if slot in slots else (0,))


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
    lines = range(line_base(paddr), paddr + length, CACHE_LINE_SIZE)
    try:
        if kind == "load":
            if reference:
                return reference_load(cache, paddr, length)
            return cache.load(paddr, length)
        if kind == "store":
            data = PATTERN[seed:seed + length]
            if reference:
                reference_store(cache, paddr, data)
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
        assert_frame_index(span.cache)
        assert_frame_index(reference.cache)
    span.cache.flush_all()
    reference.cache.flush_all()
    assert span.cache._frames == {}
    assert span.cache.resident_lines == 0
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
    """``cache.l1.resident_lines`` is the cache's own counter, through
    fills, evictions, flushes and an invalidate."""
    controller = MemoryController(PhysicalMemory(DRAM_SIZE))
    metrics = MetricsRegistry()
    cache = Cache(controller, VirtualClock(), default_cost_model(),
                  size=1024, ways=2, metrics=metrics)

    def assert_gauge():
        assert_frame_index(cache)
        assert metrics.value("cache.l1.resident_lines") \
            == sum(len(s) for s in cache._sets)

    cache.load(0, 2 * PAGE_SIZE)
    assert_gauge()
    # 2 pages = 128 lines, of which the 16-line cache keeps the last 16.
    assert metrics.value("cache.l1.resident_lines") == 16
    cache.store(PAGE_SIZE + 8, b"\xa5" * 300)
    cache.flush_lines(range(PAGE_SIZE, PAGE_SIZE + 4 * CACHE_LINE_SIZE,
                            CACHE_LINE_SIZE))
    assert_gauge()
    assert metrics.value("cache.l1.resident_lines") == 16 - 4
    cache.invalidate_line(PAGE_SIZE + 4 * CACHE_LINE_SIZE)
    assert_gauge()
    assert metrics.value("cache.l1.resident_lines") == 16 - 5
    cache.flush_all()
    assert_gauge()
    assert metrics.value("cache.l1.resident_lines") == 0


# ----------------------------------------------------------------------
# LRU order against a model that shares no code with Cache
# ----------------------------------------------------------------------
class _LruModel:
    """Each set an ``OrderedDict`` of resident line -> dirty, least
    recently used first: a hit moves its line to the end, a fill into
    a full set evicts the first line.  ``written`` lists every line
    address written back, in order."""

    def __init__(self, num_sets, ways):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.ways = ways
        self.hits = self.misses = self.evictions = 0
        self.writebacks = self.flushes = 0
        self.written = []

    def _lines(self, paddr, size):
        """``(line, its set)`` for each line touching the range."""
        return [(line, self.sets[(line // CACHE_LINE_SIZE)
                                 % len(self.sets)])
                for line in range(paddr - paddr % CACHE_LINE_SIZE,
                                  paddr + size, CACHE_LINE_SIZE)]

    def _write_back(self, line):
        self.writebacks += 1
        self.written.append(line)

    def access(self, paddr, size, store):
        for line, lines in self._lines(paddr, size):
            if line in lines:
                self.hits += 1
                lines[line] = lines.pop(line) or store
                continue
            self.misses += 1
            if len(lines) == self.ways:
                victim, dirty = lines.popitem(last=False)
                self.evictions += 1
                if dirty:
                    self._write_back(victim)
            lines[line] = store

    def drop(self, paddr, size, write_back, flush_every_line=False):
        """Drop the range's resident lines, writing back the dirty
        ones with ``write_back``; a flush counts every line of the
        range with ``flush_every_line``, else only the resident ones."""
        for line, lines in self._lines(paddr, size):
            if flush_every_line:
                self.flushes += 1
            if line not in lines:
                continue
            if write_back and not flush_every_line:
                self.flushes += 1
            if lines.pop(line) and write_back:
                self._write_back(line)

    def order(self):
        return [list(lines.items()) for lines in self.sets]


def lru_order(cache):
    """Each set's resident lines as ``(tag, dirty)``, least recently
    used first by their stamps."""
    order = [[] for _ in range(cache.num_sets)]
    for tag, dirty, stamp, _data in cache.lines():
        order[(tag // CACHE_LINE_SIZE) % cache.num_sets].append(
            (stamp, tag, dirty))
    return [[(tag, dirty) for _stamp, tag, dirty in sorted(lines)]
            for lines in order]


#: a few lines at the start and end of three frames, so lines are hit
#: again while still resident and runs cross frame boundaries.
lru_addresses = st.builds(
    lambda page, line, delta: page * PAGE_SIZE + line * CACHE_LINE_SIZE
    + delta,
    st.integers(0, 2),
    st.one_of(st.integers(0, 5), st.sampled_from([62, 63])),
    st.sampled_from([0, 8, 63]))
lru_plans = st.lists(
    st.tuples(st.sampled_from(["load", "load", "store", "store", "flush",
                               "flush_resident", "invalidate"]),
              lru_addresses,
              st.one_of(st.integers(1, 2 * CACHE_LINE_SIZE),
                        st.integers(1, 6 * CACHE_LINE_SIZE),
                        st.sampled_from([PAGE_SIZE, 2 * PAGE_SIZE]))),
    min_size=1, max_size=30)


#: four lines fill one 4-way set, a resident span hits the two oldest,
#: a resident store dirties the clean one of them, and a two-line burst
#: then evicts the other two (fill order would evict the two it hit).
LRU_HITS_THEN_FILLS = [
    ("store", 0, CACHE_LINE_SIZE), ("load", CACHE_LINE_SIZE, 1),
    ("store", PAGE_SIZE, CACHE_LINE_SIZE),
    ("load", PAGE_SIZE + CACHE_LINE_SIZE, 1),
    ("load", 0, 2 * CACHE_LINE_SIZE),
    ("store", CACHE_LINE_SIZE + 8, 8),
    ("store", 2 * PAGE_SIZE, 2 * CACHE_LINE_SIZE)]


@given(num_sets=st.sampled_from([1, 2, 3]), ways=st.sampled_from([1, 2, 4]),
       cadence=st.one_of(st.none(), st.integers(1, 500)), plan=lru_plans)
@settings(max_examples=200, deadline=None)
@example(num_sets=1, ways=4, cadence=None, plan=LRU_HITS_THEN_FILLS)
@example(num_sets=1, ways=4, cadence=7, plan=LRU_HITS_THEN_FILLS)
def test_lru_order_matches_an_ordered_dict_model(num_sets, ways, cadence,
                                                 plan):
    """Loads and stores (resident spans, burst fills and per-line
    walks, with or without a clock timer) and the range operations
    keep each set's LRU order, the counters, the dirty bits and the
    write-back sequence of the model."""
    controller = MemoryController(PhysicalMemory(DRAM_SIZE))
    written = []
    write_line = controller.write_line

    def recording_write(address, data):
        written.extend(range(address, address + len(data),
                             CACHE_LINE_SIZE))
        write_line(address, data)

    controller.write_line = recording_write
    clock = VirtualClock()
    if cadence is not None:
        clock.every(cadence, lambda clock: None)
    cache = Cache(controller, clock, default_cost_model(),
                  size=num_sets * ways * CACHE_LINE_SIZE, ways=ways)
    model = _LruModel(num_sets, ways)
    for kind, paddr, size in plan:
        if kind == "load":
            cache.load(paddr, size)
            model.access(paddr, size, False)
        elif kind == "store":
            cache.store(paddr, PATTERN[:size])
            model.access(paddr, size, True)
        elif kind == "flush":
            cache.flush_range(paddr, size)
            model.drop(paddr, size, write_back=True, flush_every_line=True)
        elif kind == "flush_resident":
            cache.flush_resident(paddr, size)
            model.drop(paddr, size, write_back=True)
        else:
            cache.invalidate_range(paddr, size)
            model.drop(paddr, size, write_back=False)
        assert (cache.hits, cache.misses, cache.evictions,
                cache.writebacks, cache.flushes) == \
            (model.hits, model.misses, model.evictions, model.writebacks,
             model.flushes)
        assert lru_order(cache) == model.order()
        assert written == model.written
