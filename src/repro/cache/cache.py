"""Set-associative write-back CPU cache.

The cache matters to SafeMem for one reason (Section 2.2.2, "Dealing
with Cache Effects"): ECC checks happen only on *memory* reads, so a
watched line that is still cached would never fault.  ``WatchMemory``
therefore flushes the watched line; and because a write miss performs a
line fill (write-allocate), even the first *write* to a watched line
reaches DRAM and trips the watchpoint.

This model reproduces those mechanics: LRU set-associative lookup,
write-back of dirty victims, explicit ``clflush``, and line fills that
go through the ECC controller (and may therefore raise ECC faults).

Line state is stored per physical frame: each frame with a resident
line owns one page-sized buffer and three 64-slot arrays, which say
for each line slot whether it is resident, whether it is dirty, and
its LRU stamp.  A span that hits only resident lines of one frame
therefore stamps, marks and moves them with a few slice operations.
"""

from repro.common.constants import (
    CACHE_LINE_SIZE,
    LINES_PER_PAGE,
    PAGE_SIZE,
    line_base,
)
from repro.common.errors import ConfigurationError
from repro.common.state import (
    BOOL,
    INT,
    TEXT,
    decode_bytes,
    encode_bytes,
    fields_state,
    load_fields,
    table,
)
from repro.obs.metrics import attr_reader as _attr_reader


#: ``_ONES[n]``/``_ZEROS[n]``: a run of n set/clear slot flags.  Kept
#: as bytearrays, which a bytearray slice assignment copies directly
#: (from ``bytes`` it first makes a temporary bytearray).
_ONES = tuple(bytearray(b"\x01") * n for n in range(LINES_PER_PAGE + 1))
_ZEROS = tuple(bytearray(n) for n in range(LINES_PER_PAGE + 1))


def _runs(flags, first, stop):
    """``(start, end)`` of each run of set slots in ``flags[first:stop]``,
    found with ``bytearray.find``."""
    start = flags.find(1, first, stop)
    while start >= 0:
        end = flags.find(0, start, stop)
        if end < 0:
            end = stop
        yield start, end
        start = flags.find(1, end, stop)


class _Frame:
    """The cached lines of one physical frame: their bytes and, per
    64-byte slot, residency, dirty bit and LRU stamp.

    Slot ``s`` is resident when ``present[s]`` is 1, dirty when
    ``dirty[s]`` is 1 (never for an absent slot), and its stamp is
    ``origins[s] + s``: consecutive stamps over a run of slots are one
    repeated origin, so a run is stamped with one slice assignment.
    """

    __slots__ = ("buffer", "view", "present", "dirty", "origins",
                 "resident")

    def __init__(self):
        self.buffer = bytearray(PAGE_SIZE)
        self.view = memoryview(self.buffer)
        self.present = bytearray(LINES_PER_PAGE)
        self.dirty = bytearray(LINES_PER_PAGE)
        self.origins = [0] * LINES_PER_PAGE
        #: resident slots, the number of 1s in ``present``.
        self.resident = 0


class Cache:
    """Physically-indexed, physically-tagged write-back cache."""

    #: the counters :meth:`state_dict` records next to the lines.
    STATE_FIELDS = ("_tick", "hits", "misses", "evictions", "writebacks",
                    "flushes")

    def __init__(self, controller, size=64 * 1024, ways=8,
                 clock=None, cost_model=None, metrics=None,
                 level="l1"):
        if size <= 0:
            raise ConfigurationError(
                f"{level} cache size must be positive, got {size}")
        if ways < 1:
            raise ConfigurationError(
                f"{level} cache ways must be at least 1, got {ways}")
        if size % (ways * CACHE_LINE_SIZE):
            raise ConfigurationError(
                f"cache size {size} not divisible into {ways}-way sets of "
                f"{CACHE_LINE_SIZE}-byte lines"
            )
        self.controller = controller
        #: the controller's multi-line read, or ``None`` when this cache
        #: fills from another cache level (an L1 over an L2), whose
        #: fills must each go through that level.
        self._read_lines = getattr(controller, "read_lines", None)
        self.ways = ways
        self.num_sets = size // (ways * CACHE_LINE_SIZE)
        self._sets = [dict() for _ in range(self.num_sets)]
        #: frame base -> _Frame, for exactly the frames with a
        #: resident line.
        self._frames = {}
        self._tick = 0
        self.clock = clock
        self.cost_model = cost_model
        self.level = level
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.flushes = 0
        #: lines currently resident, across every set.
        self.resident_lines = 0
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``cache.<level>.*`` probes into a metrics registry."""
        prefix = f"cache.{self.level}"
        for name, attr in (
            (f"{prefix}.hit", "hits"),
            (f"{prefix}.miss", "misses"),
            (f"{prefix}.eviction", "evictions"),
            (f"{prefix}.writeback", "writebacks"),
            (f"{prefix}.flush", "flushes"),
        ):
            metrics.probe(name, _attr_reader(self, attr),
                          kind="counter")
        metrics.probe(f"{prefix}.resident_lines",
                      _attr_reader(self, "resident_lines"), kind="gauge")

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def lines(self):
        """Every resident line as ``(tag, dirty, stamp, bytes)``, set
        by set in each set's order."""
        out = []
        for cache_set in self._sets:
            for base, frame in cache_set.items():
                offset = base % PAGE_SIZE
                slot = offset // CACHE_LINE_SIZE
                out.append((base, frame.dirty[slot] == 1,
                            frame.origins[slot] + slot,
                            bytes(frame.view[offset:
                                             offset + CACHE_LINE_SIZE])))
        return out

    def state_dict(self):
        """The LRU clock, the counters and every resident line as
        ``[tag, dirty, stamp, data]`` (:meth:`lines`).

        Captured without flushing: a flush would change the state, and
        a cold cache would charge misses the captured run never paid.
        """
        return {
            **fields_state(self, self.STATE_FIELDS),
            "lines": [[tag, dirty, stamp, encode_bytes(data)]
                      for tag, dirty, stamp, data in self.lines()],
        }

    def load_state(self, state):
        """Replace the resident lines and counters with
        :meth:`state_dict` output (nothing is written back).

        Each line must be aligned, unique, fit its set, lie inside the
        installed DRAM and carry a stamp no later than the restored
        LRU clock.
        """
        load_fields(self, state, self.STATE_FIELDS)
        self._sets = [dict() for _ in range(self.num_sets)]
        self._frames = {}
        self.resident_lines = 0
        dram_size = self._dram_size()
        for tag, dirty, stamp, data in table(
                state["lines"], (INT, BOOL, INT, TEXT), "lines"):
            data = decode_bytes(data, "line data")
            cache_set = self._sets[self._set_index(tag)]
            if (tag % CACHE_LINE_SIZE or tag in cache_set
                    or len(cache_set) >= self.ways
                    or len(data) != CACHE_LINE_SIZE):
                raise ValueError(f"line {tag:#x} does not fit this cache")
            if not 0 <= tag < dram_size:
                raise ValueError(f"line {tag:#x} lies outside DRAM of "
                                 f"{dram_size:#x} bytes")
            if stamp > self._tick:
                raise ValueError(f"line {tag:#x} has stamp {stamp}, later "
                                 f"than the LRU clock {self._tick}")
            offset = tag % PAGE_SIZE
            slot = offset // CACHE_LINE_SIZE
            frame = self._frames.get(tag - offset)
            if frame is None:
                frame = self._frames[tag - offset] = _Frame()
            frame.buffer[offset:offset + CACHE_LINE_SIZE] = data
            frame.present[slot] = 1
            frame.dirty[slot] = dirty
            frame.origins[slot] = stamp - slot
            frame.resident += 1
            cache_set[tag] = frame
            self.resident_lines += 1

    def _dram_size(self):
        """Installed DRAM bytes behind this cache: its controller's, or
        for an upper level (whose controller is the level below), that
        level's."""
        lower = getattr(self.controller, "lower", None)
        if lower is not None:
            return lower._dram_size()
        return self.controller.dram.size

    # ------------------------------------------------------------------
    # program-visible access path
    # ------------------------------------------------------------------
    def load(self, paddr, size):
        """Read ``size`` bytes at physical address ``paddr``.

        Any span, split at cache lines.  A miss fills the line through
        the ECC controller; an armed watchpoint on that line raises
        :class:`UncorrectableEccError` out of this call.
        """
        return self._span(paddr, size, None)

    def store(self, paddr, data):
        """Write bytes at ``paddr`` (write-allocate: misses fill first).

        ``data`` may be any buffer, including a memoryview.
        """
        self._span(paddr, len(data), data)

    #: names kept for the per-layer host-time tracer, which wraps them.
    load_span = load
    store_span = store

    def _span(self, paddr, size, data):
        """The one span walk: a read when ``data`` is None, else a write.

        Every line costs what one :meth:`_access_line` call costs, in
        the same order: a tick, an LRU stamp, a hit or a fill, and the
        cycle charge.  Two liberties are taken, both unobservable
        while no clock timer is registered (nothing can run between
        two lines then):

        - consecutive hit and fill charges batch into one
          ``clock.tick``;
        - a span inside one frame whose lines are all resident is
          accounted with slice operations on the frame's arrays and
          moves its bytes with one slice (:meth:`fast_read`,
          :meth:`fast_write`).

        With a timer registered, the hit count and tick are published
        before every charge, exactly as a per-line walk would.

        Under the same condition, and only where the controller's
        multi-line read is at hand, a miss whose line starts a run of
        absent lines inside its frame and the span reads the whole run
        with one burst.  The burst's clean prefix is installed in one
        step (:meth:`_install_run`): one set-dict entry per line, the
        slots' residency, consecutive LRU stamps and dirty bits by
        slice, one byte copy into the frame, and one slice moving the
        span's bytes over the installed lines.  That step stops at the
        first line whose set is full and after ``num_sets`` lines, so
        it never evicts and no two of its lines share a set; from there
        each line fills through :meth:`_access_line` with the bytes of
        the burst, so evictions and write-backs keep their per-line
        order, until a line whose set has room starts the next one-step
        run.  The first line whose check bytes differ takes the
        one-line read, which corrects or raises as it always does.
        Nothing the fills do can change the run's DRAM in between:
        write-backs only go to resident lines, and the run's lines are
        absent until filled.
        """
        if size <= 0:
            if size < 0:
                raise ConfigurationError(f"negative access size: {size}")
            return None if data is not None else b""
        clock = self.clock
        charging = clock is not None and self.cost_model is not None
        defer = not charging or clock.timer_count == 0
        if defer:
            if data is None:
                hit = self.fast_read(paddr, size)
                if hit is not None:
                    return hit
            elif self.fast_write(paddr, data):
                return None
        hit_cost = self.cost_model.cache_hit if charging else 0
        fill_cost = hit_cost + self.cost_model.cache_miss if charging else 0

        sets = self._sets
        num_sets = self.num_sets
        read_lines = self._read_lines
        out = bytearray() if data is None else None
        tick = self._tick
        hits = 0
        pending = 0
        # The last burst: its bytes, where they start, where its clean
        # prefix ends, and the first unclean line (-1: none).
        burst = None
        burst_start = burst_end = unclean = -1
        cursor = paddr
        end = paddr + size
        while cursor < end:
            base = cursor - (cursor % CACHE_LINE_SIZE)
            stop = min(end, base + CACHE_LINE_SIZE)
            offset = cursor % PAGE_SIZE
            slot = offset // CACHE_LINE_SIZE
            frame = sets[(base // CACHE_LINE_SIZE) % num_sets].get(base)
            if frame is None:
                # Miss: publish the exact cache/clock state, then take
                # the one fill path (an armed line raises out of it
                # with all accumulated state already applied).
                self._tick = tick
                self.hits += hits
                hits = 0
                if pending:
                    clock.tick(pending)
                    pending = 0
                if (base >= burst_end and base != unclean and defer
                        and read_lines is not None):
                    count = self._absent_run(base, end)
                    if count > 1:
                        burst = read_lines(base, count)
                        burst_start = base
                        burst_end = base + len(burst)
                        if len(burst) < count * CACHE_LINE_SIZE:
                            unclean = burst_end
                fill = None
                if base < burst_end:
                    if defer:
                        frame, installed = self._install_run(
                            base, burst, base - burst_start,
                            data is not None)
                        if installed:
                            tick = self._tick
                            pending = installed * fill_cost
                            stop = min(end,
                                       base + installed * CACHE_LINE_SIZE)
                            if data is None:
                                out += frame.view[offset:
                                                  offset + stop - cursor]
                            else:
                                frame.buffer[offset:
                                             offset + stop - cursor] = \
                                    data[cursor - paddr:stop - paddr]
                            cursor = stop
                            continue
                    fill = burst[base - burst_start:
                                 base - burst_start + CACHE_LINE_SIZE]
                frame = self._access_line(base, data is not None, fill)
                tick = self._tick
                defer = not charging or clock.timer_count == 0
            else:
                tick += 1
                hits += 1
                frame.origins[slot] = tick - slot
                if defer:
                    pending += hit_cost
                else:
                    # A timer may fire inside this charge and read the
                    # counters: publish them first.
                    self._tick = tick
                    self.hits += hits
                    hits = 0
                    clock.tick(hit_cost)
                    tick = self._tick
            if data is None:
                out += frame.view[offset:offset + stop - cursor]
            else:
                frame.buffer[offset:offset + stop - cursor] = \
                    data[cursor - paddr:stop - paddr]
                frame.dirty[slot] = 1
            cursor = stop
        self._tick = tick
        self.hits += hits
        if pending:
            clock.tick(pending)
        return bytes(out) if data is None else None

    # ------------------------------------------------------------------
    # the resident step of the span walk
    # ------------------------------------------------------------------
    def fast_read(self, paddr, size):
        """Read a span inside one frame whose lines are all resident;
        ``None`` for any other span.

        One ``find`` over the frame's ``present`` slots checks the
        span, one slice assignment of the frame's ``origins`` gives its
        lines consecutive stamps, ``hits`` grows by their number and
        their hit charges go out in one ``clock.tick``; the bytes move
        with one slice.  That equals a per-line walk only while no
        clock timer is registered, which the caller (:meth:`_span`)
        checks.  No line needs an armed check: ``WatchMemory`` flushes
        a line when it arms it, and a fill that faults installs
        nothing, so a resident line is never armed.
        """
        offset = paddr % PAGE_SIZE
        frame = self._hit_resident(paddr - offset, offset, size, False)
        if frame is None:
            return None
        return frame.view[offset:offset + size].tobytes()

    def fast_write(self, paddr, data):
        """:meth:`fast_read`'s write: store ``data`` into a span of
        resident lines of one frame and mark them dirty (one more slice
        assignment); ``False`` for any other span."""
        offset = paddr % PAGE_SIZE
        frame = self._hit_resident(paddr - offset, offset, len(data), True)
        if frame is None:
            return False
        frame.buffer[offset:offset + len(data)] = data
        return True

    # ------------------------------------------------------------------
    # maintenance operations
    # ------------------------------------------------------------------
    def flush_line(self, paddr):
        """clflush: write back if dirty, then invalidate.

        Used by WatchMemory so the next access must go to DRAM.
        """
        self.flush_lines((paddr,))

    def flush_lines(self, paddrs):
        """clflush every line of ``paddrs``, in order.

        Dirty lines at consecutive physical addresses write back as one
        burst.  The outcome equals one :meth:`flush_line` per address:
        the same lines leave the cache, the same counters advance, and
        DRAM ends up identical, because write-backs to distinct lines
        commute and nothing reads memory in between.  ``paddrs`` may be
        any iterable; it is consumed lazily, one address per flush.
        """
        sets = self._sets
        num_sets = self.num_sets
        burst = []
        start = end = None
        for paddr in paddrs:
            base = paddr - (paddr % CACHE_LINE_SIZE)
            dirty = self._drop(sets[(base // CACHE_LINE_SIZE) % num_sets],
                               base)
            self.flushes += 1
            if dirty is None:
                continue
            self.writebacks += 1
            if base != end:
                if burst:
                    self.controller.write_line(start, b"".join(burst))
                burst = []
                start = base
            # A dropped line's slot keeps its bytes until the next fill
            # of that line, and nothing fills before the burst goes out.
            burst.append(dirty)
            end = base + CACHE_LINE_SIZE
        if burst:
            self.controller.write_line(start, b"".join(burst))

    def flush_range(self, paddr, size):
        """clflush every line of ``[paddr, paddr+size)``.

        The outcome of :meth:`flush_lines` over the range's lines:
        ``flushes`` counts every line, resident or not, but only the
        resident ones are visited.
        """
        first = paddr - (paddr % CACHE_LINE_SIZE)
        self.flushes += (paddr + size - first - 1) // CACHE_LINE_SIZE + 1
        self._drop_range(first, paddr + size, True)

    def flush_resident(self, paddr, size):
        """clflush only the resident lines of ``[paddr, paddr+size)``;
        ``flushes`` counts those lines."""
        self.flushes += self._drop_range(paddr, paddr + size, True)

    def invalidate_range(self, paddr, size):
        """Drop the resident lines of ``[paddr, paddr+size)`` without
        writing them back."""
        self._drop_range(paddr, paddr + size, False)

    def flush_all(self):
        """Write back and invalidate every resident line."""
        for cache_set in self._sets:
            for base in list(cache_set):
                dirty = self._drop(cache_set, base)
                if dirty is not None:
                    self.controller.write_line(base, bytes(dirty))
                    self.writebacks += 1

    def contains(self, paddr):
        """True when the line holding ``paddr`` is resident."""
        base = line_base(paddr)
        return base in self._sets[self._set_index(base)]

    def invalidate_line(self, paddr):
        """Drop a line without writing it back (test helper)."""
        base = line_base(paddr)
        self._drop(self._sets[self._set_index(base)], base)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _absent_run(self, base, end):
        """Number of lines from the absent line at ``base`` up to the
        first resident one, the end of its frame, or ``end``."""
        offset = base % PAGE_SIZE
        first = offset // CACHE_LINE_SIZE
        stop = min(LINES_PER_PAGE,
                   (offset + end - base - 1) // CACHE_LINE_SIZE + 1)
        frame = self._frames.get(base - offset)
        if frame is None:
            return stop - first
        slot = frame.present.find(1, first + 1, stop)
        return (stop if slot < 0 else slot) - first

    def _install_run(self, base, burst, skip, dirty):
        """Fill absent lines from ``base`` with ``burst[skip:]`` in one
        step; return their frame and how many were filled (0: none).

        The outcome of one :meth:`_access_line` fill per line, in
        address order, for as many lines as fill without an eviction:
        the run stops at the first line whose set is full and after
        ``num_sets`` lines, so no two of its lines share a set and no
        line of it can evict another.  One loop enters the lines in
        their sets; the frame's slots take their bytes, residency,
        consecutive LRU stamps and (with ``dirty``, what a store sets)
        dirty bits by slice, and ``misses``, ``resident_lines`` and the
        frame's count move once.  The caller charges the fills.
        """
        sets = self._sets
        ways = self.ways
        index = (base // CACHE_LINE_SIZE) % self.num_sets
        limit = min((len(burst) - skip) // CACHE_LINE_SIZE, self.num_sets)
        run = sets[index:index + limit]
        if len(run) < limit:
            run += sets[:limit - len(run)]
        if len(run[0]) >= ways:
            return None, 0
        offset = base % PAGE_SIZE
        frame = self._frames.get(base - offset)
        if frame is None:
            frame = self._frames[base - offset] = _Frame()
        count = 0
        for cache_set in run:
            if len(cache_set) >= ways:
                break
            cache_set[base] = frame
            base += CACHE_LINE_SIZE
            count += 1
        first = offset // CACHE_LINE_SIZE
        stop = first + count
        tick = self._tick
        frame.origins[first:stop] = [tick + 1 - first] * count
        frame.present[first:stop] = _ONES[count]
        if dirty:
            frame.dirty[first:stop] = _ONES[count]
        size = count * CACHE_LINE_SIZE
        frame.buffer[offset:offset + size] = burst[skip:skip + size]
        frame.resident += count
        self._tick = tick + count
        self.misses += count
        self.resident_lines += count
        return frame, count

    def _hit_resident(self, frame_base, offset, size, dirty):
        """Account ``[offset, offset+size)`` of one frame as hits when
        every line it covers is resident (marking them dirty with
        ``dirty``) and return the frame; ``None`` otherwise.

        Three slice operations: one ``find`` checks residency, one
        assignment gives the lines consecutive stamps, and on a store
        one more sets their dirty bits.
        """
        if offset + size > PAGE_SIZE:
            return None
        frame = self._frames.get(frame_base)
        if frame is None:
            return None
        first = offset // CACHE_LINE_SIZE
        stop = (offset + size - 1) // CACHE_LINE_SIZE + 1
        if frame.present.find(0, first, stop) >= 0:
            return None
        count = stop - first
        tick = self._tick
        frame.origins[first:stop] = [tick + 1 - first] * count
        self._tick = tick + count
        if dirty:
            frame.dirty[first:stop] = _ONES[count]
        self.hits += count
        self._charge_hit(count)
        return frame

    def _access_line(self, paddr, for_write, data=None):
        """One line's access: a hit, or a fill through the controller.
        Returns the line's frame.

        ``data``, when given, is the line's bytes from a burst that
        already read it; a fill then skips its own controller read.
        The caller moves the bytes and, on a store, sets the dirty bit.
        """
        base = line_base(paddr)
        index = self._set_index(base)
        cache_set = self._sets[index]
        self._tick += 1
        offset = base % PAGE_SIZE
        slot = offset // CACHE_LINE_SIZE
        frame = cache_set.get(base)
        if frame is not None:
            self.hits += 1
            self._charge_hit()
            frame.origins[slot] = self._tick - slot
            return frame

        self.misses += 1
        self._charge_hit()
        self._charge_miss()
        if len(cache_set) >= self.ways:
            self._evict_lru(cache_set)
        # The fill goes through the controller: this is where an armed
        # watchpoint fires.  If it raises, no line is installed.
        if data is None:
            data = self.controller.read_line(base)
        frame = self._frames.get(base - offset)
        if frame is None:
            frame = self._frames[base - offset] = _Frame()
        frame.buffer[offset:offset + CACHE_LINE_SIZE] = data
        frame.present[slot] = 1
        frame.origins[slot] = self._tick - slot
        frame.resident += 1
        cache_set[base] = frame
        self.resident_lines += 1
        return frame

    def _drop(self, cache_set, base):
        """Remove the line at ``base`` from its set and its frame.

        Returns a view of its bytes when it was dirty, ``None`` when it
        was clean or not resident.  The view holds the line's bytes
        until the next fill of that slot.  A frame leaves the index
        with its last line.
        """
        frame = cache_set.pop(base, None)
        if frame is None:
            return None
        self.resident_lines -= 1
        offset = base % PAGE_SIZE
        slot = offset // CACHE_LINE_SIZE
        frame.present[slot] = 0
        frame.resident -= 1
        if not frame.resident:
            del self._frames[base - offset]
        if not frame.dirty[slot]:
            return None
        frame.dirty[slot] = 0
        return frame.view[offset:offset + CACHE_LINE_SIZE]

    def _drop_range(self, start, end, write_back):
        """Drop every resident line touching ``[start, end)``.

        Visits only the indexed frames of the range.  In each, runs of
        resident slots are found with ``bytearray.find`` and their
        lines deleted from the set dicts, one delete per line; with
        ``write_back``, each run of consecutive dirty lines goes to
        memory in one burst, in address order.  The slots' residency
        and dirty bits are then cleared by slice.  Returns the number
        of lines dropped.
        """
        frames = self._frames
        sets = self._sets
        num_sets = self.num_sets
        dropped = 0
        for frame_base in range(start - start % PAGE_SIZE, end, PAGE_SIZE):
            frame = frames.get(frame_base)
            if frame is None:
                continue
            first = max(start - frame_base, 0) // CACHE_LINE_SIZE
            stop = min(LINES_PER_PAGE,
                       (end - frame_base - 1) // CACHE_LINE_SIZE + 1)
            count = 0
            for run, after in _runs(frame.present, first, stop):
                for base in range(frame_base + run * CACHE_LINE_SIZE,
                                  frame_base + after * CACHE_LINE_SIZE,
                                  CACHE_LINE_SIZE):
                    del sets[(base // CACHE_LINE_SIZE) % num_sets][base]
                count += after - run
            if not count:
                continue
            if write_back:
                for run, after in _runs(frame.dirty, first, stop):
                    self.writebacks += after - run
                    self._write_slots(frame_base, frame, run, after)
            frame.present[first:stop] = _ZEROS[stop - first]
            frame.dirty[first:stop] = _ZEROS[stop - first]
            frame.resident -= count
            if not frame.resident:
                del frames[frame_base]
            dropped += count
        self.resident_lines -= dropped
        return dropped

    def _write_slots(self, frame_base, frame, first, stop):
        """Write slots ``[first, stop)`` of a frame back as one burst."""
        self.controller.write_line(
            frame_base + first * CACHE_LINE_SIZE,
            bytes(frame.view[first * CACHE_LINE_SIZE:
                             stop * CACHE_LINE_SIZE]))

    def _evict_lru(self, cache_set):
        def stamp(base):
            slot = base % PAGE_SIZE // CACHE_LINE_SIZE
            return cache_set[base].origins[slot] + slot

        victim = min(cache_set, key=stamp)
        dirty = self._drop(cache_set, victim)
        self.evictions += 1
        if dirty is not None:
            self.controller.write_line(victim, bytes(dirty))
            self.writebacks += 1
            self._charge_writeback()

    def _set_index(self, line_address):
        return (line_address // CACHE_LINE_SIZE) % self.num_sets

    def _charge_hit(self, lines=1):
        if self.clock is not None and self.cost_model is not None:
            self.clock.tick(lines * self.cost_model.cache_hit)

    def _charge_miss(self):
        if self.clock is not None and self.cost_model is not None:
            self.clock.tick(self.cost_model.cache_miss)

    def _charge_writeback(self):
        if self.clock is not None and self.cost_model is not None:
            self.clock.tick(self.cost_model.writeback)
