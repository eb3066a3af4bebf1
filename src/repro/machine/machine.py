"""The simulated machine: DRAM + ECC controller + cache + MMU + kernel.

One :class:`Machine` is one booted system.  Programs access memory
through :meth:`load`/:meth:`store`, which walk the full path
(translation -> cache -> ECC controller) and transparently retry after
a user-handled ECC fault, modelling the interrupted-and-resumed
instruction of real hardware.
"""

from repro.cache.cache import Cache
from repro.common.clock import VirtualClock
from repro.common.constants import (
    CACHE_LINE_SIZE,
    PAGE_SIZE,
    align_down,
    line_base,
)
from repro.common.costs import default_cost_model
from repro.common.errors import (
    ConfigurationError,
    MachinePanic,
    PageFault,
    ProtectionFault,
)
from repro.common.events import EventKind, EventLog
from repro.ecc.controller import EccMode, MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import UncorrectableEccError
from repro.ecc.profile import get_profile
from repro.kernel.kernel import Kernel
from repro.mmu.mmu import Mmu
from repro.mmu.pagetable import FrameAllocator, PageTable
from repro.mmu.swap import SwapDevice
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: A livelock guard: a correct handler fixes a line in one delivery,
#: but one access may legitimately fault once per cache line it spans
#: (each armed line needs its own delivery), so the budget scales with
#: the access size.
MAX_FAULT_RETRIES = 8


def _retry_budget(size):
    return MAX_FAULT_RETRIES + size // CACHE_LINE_SIZE + 1


class Machine:
    """A booted simulated system with ECC memory."""

    #: Whether :meth:`run_ops` uses the batched engine.  A class
    #: attribute so differential tests can monkeypatch it off and push
    #: the same access plan through the scalar path.
    batching_enabled = True

    def __init__(self, dram_size=32 * 1024 * 1024, cache_size=256 * 1024,
                 cache_ways=8, ecc_mode=EccMode.CORRECT_ERROR,
                 cost_model=None, max_pinned_pages=None, cache_levels=1,
                 l1_size=16 * 1024, l1_ways=4, profile=None):
        #: the chipset profile (codec, scrub cadence, fault noise)
        #: this machine's memory system is built for.
        self.profile = get_profile(profile)
        #: how this machine was booted -- recorded into forensic
        #: bundles so replay can construct an identical machine
        #: (the cost model is assumed default; custom models are an
        #: in-process experiment concern, not a production config).
        self.boot_config = {
            "dram_size": dram_size,
            "cache_size": cache_size,
            "cache_ways": cache_ways,
            "ecc_mode": ecc_mode.value,
            "max_pinned_pages": max_pinned_pages,
            "cache_levels": cache_levels,
            "l1_size": l1_size,
            "l1_ways": l1_ways,
            "profile": self.profile.name,
        }
        codec = self.profile.build_codec()
        self.costs = cost_model or default_cost_model()
        self.clock = VirtualClock()
        self.events = EventLog(self.clock)
        self.metrics = MetricsRegistry(clock=self.clock)
        self.tracer = Tracer(self.clock, registry=self.metrics,
                             events=self.events)
        self.dram = PhysicalMemory(
            dram_size, check_bytes_per_group=codec.check_bytes
        )
        self.controller = MemoryController(self.dram, mode=ecc_mode,
                                           codec=codec,
                                           metrics=self.metrics)
        if cache_levels == 2:
            from repro.cache.hierarchy import CacheHierarchy
            self.cache = CacheHierarchy(
                self.controller,
                l1_size=l1_size,
                l1_ways=l1_ways,
                l2_size=cache_size,
                l2_ways=cache_ways,
                clock=self.clock,
                cost_model=self.costs,
                metrics=self.metrics,
            )
        else:
            self.cache = Cache(
                self.controller,
                size=cache_size,
                ways=cache_ways,
                clock=self.clock,
                cost_model=self.costs,
                metrics=self.metrics,
            )
        self.page_table = PageTable()
        self.frames = FrameAllocator(dram_size)
        self.swap = SwapDevice(metrics=self.metrics)
        self.mmu = Mmu(
            self.page_table,
            self.frames,
            self.swap,
            self.dram,
            self.cache,
            self.controller,
            metrics=self.metrics,
        )
        self.kernel = Kernel(
            self.dram,
            self.controller,
            self.cache,
            self.mmu,
            self.page_table,
            self.clock,
            self.costs,
            self.events,
            max_pinned_pages=max_pinned_pages,
            metrics=self.metrics,
            tracer=self.tracer,
            scrub_interval_cycles=self.profile.scrub_interval_cycles,
        )
        # Short-circuit access path: taken only while *zero* cache lines
        # are armed (the overwhelmingly common production state).  The
        # registry listener flips the flag the instant a watch is armed,
        # so an armed line always sees the full fault-retry machinery
        # and "first touch faults" is preserved.
        self._fast_path_enabled = True
        self.kernel.watches.add_listener(self._on_watch_registry_change)
        self.fast_loads = 0
        self.fast_stores = 0
        self.slow_loads = 0
        self.slow_stores = 0
        self.batched_loads = 0
        self.batched_stores = 0
        self.register_metrics(self.metrics)

    def register_metrics(self, metrics):
        """Publish the machine's own access-path probes."""
        metrics.probe("machine.load.fast", lambda: self.fast_loads,
                      kind="counter",
                      description="loads served by the short-circuit path")
        metrics.probe("machine.store.fast", lambda: self.fast_stores,
                      kind="counter")
        metrics.probe("machine.load.slow", lambda: self.slow_loads,
                      kind="counter",
                      description="loads through the full fault-retry walk")
        metrics.probe("machine.store.slow", lambda: self.slow_stores,
                      kind="counter")
        metrics.probe("machine.load.batched", lambda: self.batched_loads,
                      kind="counter",
                      description="loads served by the batched engine")
        metrics.probe("machine.store.batched", lambda: self.batched_stores,
                      kind="counter",
                      description="stores served by the batched engine")
        metrics.probe("machine.events", lambda: len(self.events),
                      kind="counter",
                      description="events emitted into the event log")

    def _on_watch_registry_change(self, registry):
        self._fast_path_enabled = registry.armed_line_count == 0

    # ------------------------------------------------------------------
    # program-visible memory access
    # ------------------------------------------------------------------
    def load(self, vaddr, size):
        """Load ``size`` bytes from virtual memory.

        An uncorrectable ECC fault is delivered to the kernel; if the
        user-level handler claims it (after disarming/restoring the
        line) the access retries and completes, like a resumed
        instruction after a machine-check.

        While no watchpoints are armed, a single-line access whose
        translation and cache line are both hot short-circuits the
        fault-retry machinery entirely (identical costs and statistics;
        a resident cache line can never raise an ECC fault).
        """
        if (self._fast_path_enabled and 0 < size
                and (vaddr % CACHE_LINE_SIZE) + size <= CACHE_LINE_SIZE):
            paddr = self.mmu.translate_fast(vaddr)
            if paddr is not None:
                data = self.cache.fast_read(paddr, size)
                if data is not None:
                    self.fast_loads += 1
                    return data
        self.slow_loads += 1
        return self._access_with_retry(vaddr, size, False)

    def store(self, vaddr, data):
        """Store bytes to virtual memory (write-allocate, so a store to
        a watched line also trips the watchpoint via its line fill)."""
        if (self._fast_path_enabled and data
                and (vaddr % CACHE_LINE_SIZE) + len(data) <= CACHE_LINE_SIZE):
            paddr = self.mmu.translate_fast(vaddr, write=True)
            if paddr is not None and self.cache.fast_write(paddr, data):
                self.fast_stores += 1
                return
        self.slow_stores += 1
        self._access_with_retry(vaddr, len(data), True, data)

    def _access_with_retry(self, vaddr, size, write, data=None,
                           span=False):
        """The fault-retry loop shared by every non-short-circuit path.

        One ``walk`` attempt per delivered-and-handled fault, up to the
        livelock budget; ``span=True`` moves whole-line spans through
        the cache (:meth:`_span_walk`), which is bookkeeping-identical
        to the scalar :meth:`_walk` but amortizes Python overhead.
        """
        walk = self._span_walk if span else self._walk
        access = "write" if write else "read"
        budget = _retry_budget(size)
        for _ in range(budget):
            try:
                return walk(vaddr, size, write, data)
            except UncorrectableEccError as exc:
                self.kernel.handle_uncorrectable_fault(exc.fault,
                                                       access=access)
            except ProtectionFault as exc:
                if not self.kernel.handle_protection_fault(exc):
                    raise
        self._retry_panic(vaddr, budget)

    # ------------------------------------------------------------------
    # batched execution engine
    # ------------------------------------------------------------------
    def run_ops(self, plan):
        """Execute an access plan in one call.

        ``plan`` is a sequence of ops: ``("load", vaddr, size)`` or
        ``("store", vaddr, data)``.  Returns one entry per op, in plan
        order: the loaded ``bytes`` for loads, ``None`` for stores.

        The batched engine resolves translation once per page run
        (a per-plan page->frame cache, discarded on any TLB shootdown),
        serves resident single-line ops inline, and moves everything
        else through whole-line span walks.  Any op that overlaps an
        armed/watched line -- and any zero-sized op -- falls back to
        the scalar :meth:`load`/:meth:`store`, so watchpoint semantics
        and cycle accounting are identical to scalar execution; a
        tier-1 differential test pins that equivalence.  The only
        observable differences are instrumentation: ``mmu.tlb.hit``
        undercounts pages served from the plan cache, and batched ops
        count under ``machine.*.batched`` instead of fast/slow.
        """
        if not self.batching_enabled:
            results = []
            for op in plan:
                kind = op[0]
                if kind == "load":
                    results.append(self.load(op[1], op[2]))
                elif kind == "store":
                    self.store(op[1], op[2])
                    results.append(None)
                else:
                    raise ConfigurationError(
                        f"unknown op kind {kind!r} in access plan")
            return results

        results = []
        append = results.append
        to_bytes = bytes
        mmu = self.mmu
        clock = self.clock
        tick_clock = clock.tick
        hit_cost = self.costs.cache_hit
        l1 = getattr(self.cache, "l1", self.cache)
        sets = l1._sets
        num_sets = l1.num_sets
        line_size = CACHE_LINE_SIZE
        page_size = PAGE_SIZE
        overlaps = self.kernel.watches.overlaps_range
        translate = mmu.translate
        # Per-plan translation cache: page base -> frame base, split by
        # required permission.  Invalidated wholesale whenever the TLB
        # shootdown counters move (the same contract TLB entries obey).
        rcache = {}
        wcache = {}
        shootdowns = mmu.tlb_invalidations + mmu.tlb_flushes
        armed_free = self._fast_path_enabled
        # While no timers are armed, nothing can observe intermediate
        # bookkeeping between hits, so the hot path runs on local
        # mirrors: consecutive hit charges batch into one clock.tick
        # and hit/LRU/op counters accumulate in locals.  Everything is
        # flushed back before any operation that can run handler code
        # (and at the end of the plan), and re-checked after it.
        defer = clock.timer_count == 0
        tick = l1._tick
        # Every deferred hit advances ``tick`` by one and charges
        # exactly ``hit_cost``, so ``tick - tick_base`` drives the
        # cycle charge, the cache hit count, and (with ``nstores``)
        # both batched-op metrics at flush time -- the hot loop pays
        # one increment, one stamp, and the data move.
        tick_base = tick
        nstores = 0
        # Memoized resident line (defer mode only): bulk plans revisit
        # the same 64-byte line for many consecutive word ops, which
        # skips the page/set lookups entirely.  ``NO_LINE`` keeps the
        # range test false for any real address.
        NO_LINE = -(1 << 62)
        last_vbase = NO_LINE
        last_line = None
        last_data = None
        last_frozen = None
        last_writable = False
        # Memo hits defer the LRU stamp as well: intermediate stamps of
        # the same line are overwritten anyway, and eviction decisions
        # only read stamps in slow paths, which all release the memo
        # (writing ``last_line.stamp = tick``, the tick of its most
        # recent hit) first.

        for kind, vaddr, arg in plan:
            if kind == "load":
                delta = vaddr - last_vbase
                if 0 <= delta and 0 < arg and delta + arg <= line_size:
                    tick += 1
                    # Slicing an immutable snapshot of the line is the
                    # cheapest way to produce bytes; it refreezes only
                    # after a store dirtied the memoized line.
                    if last_frozen is None:
                        last_frozen = to_bytes(last_data)
                    append(last_frozen[delta:delta + arg])
                    continue
                write = False
                data = None
                size = arg
            elif kind == "store":
                size = len(arg)
                delta = vaddr - last_vbase
                if last_writable and 0 <= delta and 0 < size \
                        and delta + size <= line_size:
                    tick += 1
                    # dirty was set when the memo was established by a
                    # write hit, and nothing clears it mid-segment.
                    last_data[delta:delta + size] = arg
                    last_frozen = None
                    nstores += 1
                    append(None)
                    continue
                write = True
                data = arg
            else:
                l1._tick = tick
                if last_line is not None:
                    last_line.stamp = tick
                hits = tick - tick_base
                if hits:
                    l1.hits += hits
                    self.batched_loads += hits - nstores
                    self.batched_stores += nstores
                    tick_clock(hits * hit_cost)
                raise ConfigurationError(
                    f"unknown op kind {kind!r} in access plan")

            slow = False
            if size <= 0 or (not armed_free and overlaps(vaddr, size)):
                # Scalar fallback: armed/watched lines keep the full
                # first-touch-faults machinery; degenerate sizes keep
                # scalar slow-path semantics.
                l1._tick = tick
                if last_line is not None:
                    last_line.stamp = tick
                    last_line = None
                    last_data = None
                    last_writable = False
                    last_vbase = NO_LINE
                hits = tick - tick_base
                if hits:
                    l1.hits += hits
                    self.batched_loads += hits - nstores
                    self.batched_stores += nstores
                    tick_clock(hits * hit_cost)
                    nstores = 0
                tick_base = tick
                if write:
                    self.store(vaddr, data)
                    append(None)
                else:
                    append(self.load(vaddr, size))
                slow = True
            else:
                offset = vaddr % page_size
                frame = None
                if offset + size <= page_size:
                    page = vaddr - offset
                    frame = (wcache if write else rcache).get(page)
                    if frame is None:
                        # Resolve through the MMU -- TLB refill, demand
                        # fill, or swap-in happen here exactly as on
                        # the scalar path (a swap-out can flush cache
                        # lines, hence the full flush first).  A
                        # faulting translation is NOT resolved here:
                        # the span walk below redoes it at the true
                        # access address, so page and protection faults
                        # carry the same address and reach the same
                        # delivery protocol as scalar execution.
                        l1._tick = tick
                        if last_line is not None:
                            last_line.stamp = tick
                            last_line = None
                            last_data = None
                            last_writable = False
                            last_vbase = NO_LINE
                        hits = tick - tick_base
                        if hits:
                            l1.hits += hits
                            self.batched_loads += hits - nstores
                            self.batched_stores += nstores
                            tick_clock(hits * hit_cost)
                            nstores = 0
                        try:
                            frame = translate(page, write=write)
                        except (PageFault, ProtectionFault):
                            frame = None
                        else:
                            armed_free = self._fast_path_enabled
                            defer = clock.timer_count == 0
                            marks = (mmu.tlb_invalidations
                                     + mmu.tlb_flushes)
                            if marks != shootdowns:
                                shootdowns = marks
                                rcache.clear()
                                wcache.clear()
                            # The mapping just resolved is
                            # authoritative even after a shootdown
                            # triggered by its own demand fill.
                            rcache[page] = frame
                            if write:
                                wcache[page] = frame
                        tick = tick_base = l1._tick
                if frame is not None:
                    paddr = frame + offset
                    loff = paddr % line_size
                    if loff + size <= line_size:
                        base = paddr - loff
                        line = sets[
                            (base // line_size) % num_sets
                        ].get(base)
                        if line is not None:
                            # Resident single-line op.  Same ordering
                            # as Cache.fast_read/fast_write: hit count,
                            # LRU stamp, cycle charge, then data.  The
                            # outgoing memo line gets its deferred
                            # stamp first (its last hit was one tick
                            # before this op's).
                            if last_line is not None:
                                last_line.stamp = tick
                            tick += 1
                            line.stamp = tick
                            if defer:
                                last_vbase = vaddr - loff
                                last_line = line
                                # A memoryview: slice writes through it
                                # skip bytearray slicing overhead on
                                # every memo store.
                                last_data = memoryview(line.data)
                                last_frozen = None
                                last_writable = write
                                if write:
                                    line.data[loff:loff + size] = data
                                    line.dirty = True
                                    nstores += 1
                                    append(None)
                                else:
                                    append(bytes(
                                        line.data[loff:loff + size]))
                            else:
                                # Timers armed: the charge below can run
                                # handler code, so bookkeeping writes
                                # through before the tick (exactly like
                                # the scalar fast path) and locals
                                # resync after it.
                                l1._tick = tick
                                l1.hits += 1
                                tick_clock(hit_cost)
                                tick = tick_base = l1._tick
                                if write:
                                    line.data[loff:loff + size] = data
                                    line.dirty = True
                                    self.batched_stores += 1
                                    append(None)
                                else:
                                    self.batched_loads += 1
                                    append(bytes(
                                        line.data[loff:loff + size]))
                            continue
                # Line miss or multi-line/multi-page span: the span
                # walk with full fault-retry semantics.
                l1._tick = tick
                if last_line is not None:
                    last_line.stamp = tick
                    last_line = None
                    last_data = None
                    last_writable = False
                    last_vbase = NO_LINE
                hits = tick - tick_base
                if hits:
                    l1.hits += hits
                    self.batched_loads += hits - nstores
                    self.batched_stores += nstores
                    tick_clock(hits * hit_cost)
                    nstores = 0
                if write:
                    self._access_with_retry(vaddr, size, True, data,
                                            span=True)
                    self.batched_stores += 1
                    append(None)
                else:
                    append(self._access_with_retry(vaddr, size, False,
                                                   span=True))
                    self.batched_loads += 1
                slow = True
            if slow:
                # A slow op may have run handler code: watches can have
                # been armed, timers started, TLB entries shot down.
                armed_free = self._fast_path_enabled
                defer = clock.timer_count == 0
                tick = tick_base = l1._tick
                marks = mmu.tlb_invalidations + mmu.tlb_flushes
                if marks != shootdowns:
                    shootdowns = marks
                    rcache.clear()
                    wcache.clear()

        l1._tick = tick
        if last_line is not None:
            last_line.stamp = tick
        hits = tick - tick_base
        if hits:
            l1.hits += hits
            self.batched_loads += hits - nstores
            self.batched_stores += nstores
            tick_clock(hits * hit_cost)
        return results

    def load_batch(self, addrs, size=8):
        """Batched word loads: ``size`` bytes at each address."""
        return self.run_ops([("load", vaddr, size) for vaddr in addrs])

    def store_batch(self, addrs, values):
        """Batched stores: ``values[i]`` written at ``addrs[i]``."""
        if len(addrs) != len(values):
            raise ConfigurationError(
                f"store_batch: {len(addrs)} addresses for "
                f"{len(values)} values"
            )
        self.run_ops([
            ("store", vaddr, value)
            for vaddr, value in zip(addrs, values)
        ])

    def _retry_panic(self, vaddr, budget):
        """Give up on an access whose fault the handler cannot clear.

        Emits a PANIC event first so post-mortem subscribers (the
        tracer's panic dump, forensic recorders) capture the machine
        state, mirroring the kernel's unhandled-fault panic path.
        """
        reason = (f"ECC fault at {vaddr:#x} persisted after "
                  f"{budget} handler retries")
        self.events.emit(EventKind.PANIC, address=vaddr, reason=reason)
        raise MachinePanic(reason)

    # ------------------------------------------------------------------
    # raw (tool-level) access: no cycles, no faults
    # ------------------------------------------------------------------
    def read_virtual_raw(self, vaddr, size):
        """Assemble the current bytes of ``[vaddr, vaddr+size)``.

        Reads resident frames and swap slots directly, returning zeros
        for never-touched pages.  Used by tools (e.g. Purify's
        mark-and-sweep) that charge their own modelled cost instead of
        walking the access path word by word.
        """
        out = bytearray()
        cursor = vaddr
        end = vaddr + size
        while cursor < end:
            page = align_down(cursor, PAGE_SIZE)
            take = min(end - cursor, page + PAGE_SIZE - cursor)
            entry = self.page_table.lookup(cursor)
            if entry is None:
                raise PageFault(cursor)
            if entry.present:
                frame_base = entry.pfn * PAGE_SIZE
                offset = cursor - page
                # Flush any dirty cached lines so DRAM is current.
                self._sync_lines(frame_base + offset, take)
                out += self.dram.read_raw(frame_base + offset, take)
            elif entry.in_swap:
                data = self.swap.peek(entry.vpn)
                offset = cursor - page
                out += data[offset:offset + take]
            else:
                out += bytes(take)
            cursor += take
        return bytes(out)

    def _sync_lines(self, paddr, size):
        first = line_base(paddr)
        last = line_base(paddr + size - 1)
        for line in range(first, last + CACHE_LINE_SIZE, CACHE_LINE_SIZE):
            if self.cache.contains(line):
                self.cache.flush_line(line)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _walk(self, vaddr, size, write, data=None):
        """One attempt at the access, split at page boundaries."""
        out = bytearray() if not write else None
        cursor = vaddr
        end = vaddr + size
        position = 0
        while cursor < end:
            page_end = align_down(cursor, PAGE_SIZE) + PAGE_SIZE
            take = min(end - cursor, page_end - cursor)
            paddr = self.mmu.translate(cursor, write=write)
            if write:
                self.cache.store(paddr, data[position:position + take])
            else:
                out += self.cache.load(paddr, take)
            cursor += take
            position += take
        return bytes(out) if not write else None

    def _span_walk(self, vaddr, size, write, data=None):
        """One attempt at a batched access: whole-line span moves.

        Splits at page boundaries like :meth:`_walk`, but each page
        chunk goes through the cache's span path, amortizing per-line
        Python overhead while keeping identical hit/miss/LRU/cycle
        bookkeeping (see ``Cache.load_span``).
        """
        cache = self.cache
        mmu = self.mmu
        out = bytearray() if not write else None
        view = memoryview(data) if write else None
        cursor = vaddr
        end = vaddr + size
        position = 0
        while cursor < end:
            page_end = align_down(cursor, PAGE_SIZE) + PAGE_SIZE
            take = min(end - cursor, page_end - cursor)
            paddr = mmu.translate(cursor, write=write)
            if write:
                cache.store_span(paddr, view[position:position + take])
            else:
                out += cache.load_span(paddr, take)
            cursor += take
            position += take
        return bytes(out) if not write else None

    def __repr__(self):
        return (
            f"Machine(dram={self.dram.size >> 20} MiB, "
            f"mode={self.controller.mode.value}, "
            f"cycles={self.clock.cycles})"
        )
