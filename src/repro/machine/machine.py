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
)
from repro.common.costs import default_cost_model
from repro.common.errors import (
    ConfigurationError,
    MachinePanic,
    PageFault,
    ProtectionFault,
)
from repro.common.events import EventKind, EventLog
from repro.common.state import fields_state, load_fields
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

    def __init__(self, dram_size=32 * 1024 * 1024, cache_size=256 * 1024,
                 cache_ways=8, ecc_mode=EccMode.CORRECT_ERROR,
                 cost_model=None, max_pinned_pages=None, profile=None):
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
        self.cache = Cache(
            self.controller,
            self.clock,
            self.costs,
            size=cache_size,
            ways=cache_ways,
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
        self.slow_loads = 0
        self.slow_stores = 0
        self.batched_loads = 0
        self.batched_stores = 0
        self.register_metrics(self.metrics)

    #: the access counters :meth:`state_dict` records.
    STATE_FIELDS = ("slow_loads", "slow_stores", "batched_loads",
                    "batched_stores")

    def state_dict(self):
        """The machine's own access counters; each component (clock,
        cache, kernel, ...) carries its own ``state_dict``."""
        return fields_state(self, self.STATE_FIELDS)

    def load_state(self, state):
        load_fields(self, state, self.STATE_FIELDS)

    def register_metrics(self, metrics):
        """Publish the machine's own access-path probes."""
        metrics.probe("machine.load.slow", lambda: self.slow_loads,
                      kind="counter",
                      description="direct loads (Machine.load calls), "
                                  "each through the fault-retry walk")
        metrics.probe("machine.store.slow", lambda: self.slow_stores,
                      kind="counter")
        metrics.probe("machine.load.batched", lambda: self.batched_loads,
                      kind="counter",
                      description="loads issued through an access plan "
                                  "(run_ops)")
        metrics.probe("machine.store.batched", lambda: self.batched_stores,
                      kind="counter",
                      description="stores issued through an access plan "
                                  "(run_ops)")
        metrics.probe("machine.events", lambda: len(self.events),
                      kind="counter",
                      description="events emitted into the event log")

    # ------------------------------------------------------------------
    # program-visible memory access
    # ------------------------------------------------------------------
    def load(self, vaddr, size):
        """Load ``size`` bytes from virtual memory.

        An uncorrectable ECC fault is delivered to the kernel; if the
        user-level handler claims it (after disarming/restoring the
        line) the access retries and completes, like a resumed
        instruction after a machine-check.
        """
        self.slow_loads += 1
        return self._access_with_retry(vaddr, size, False)

    def store(self, vaddr, data):
        """Store bytes to virtual memory (write-allocate, so a store to
        a watched line also trips the watchpoint via its line fill)."""
        self.slow_stores += 1
        self._access_with_retry(vaddr, len(data), True, data)

    def _access_with_retry(self, vaddr, size, write, data=None):
        """The fault-retry loop every access takes, direct or planned.

        One :meth:`_walk` attempt per delivered-and-handled fault, up
        to the livelock budget.
        """
        access = "write" if write else "read"
        budget = _retry_budget(size)
        for _ in range(budget):
            try:
                return self._walk(vaddr, size, write, data)
            except UncorrectableEccError as exc:
                self.kernel.handle_uncorrectable_fault(exc.fault,
                                                       access=access)
            except ProtectionFault as exc:
                if not self.kernel.handle_protection_fault(exc):
                    raise
        self._retry_panic(vaddr, budget)

    # ------------------------------------------------------------------
    # access plans
    # ------------------------------------------------------------------
    def run_ops(self, plan):
        """Execute an access plan in one call.

        ``plan`` is a sequence of ``("load", vaddr, size)`` and
        ``("store", vaddr, data)`` ops; returns one entry per op, in
        plan order: the loaded ``bytes``, or ``None`` for a store.
        Every op takes :meth:`_access_with_retry`, so an op touching an
        armed line faults on first touch exactly as a scalar access
        does; ops count under ``machine.*.batched``.
        """
        results = []
        for kind, vaddr, arg in plan:
            if kind == "load":
                self.batched_loads += 1
                results.append(self._access_with_retry(vaddr, arg, False))
            elif kind == "store":
                self.batched_stores += 1
                results.append(
                    self._access_with_retry(vaddr, len(arg), True, arg))
            else:
                raise ConfigurationError(
                    f"unknown op kind {kind!r} in access plan")
        return results

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
                self.cache.flush_resident(frame_base + offset, take)
                out += self.dram.read_raw(frame_base + offset, take)
            elif entry.in_swap:
                data = self.swap.peek(entry.vpn)
                offset = cursor - page
                out += data[offset:offset + take]
            else:
                out += bytes(take)
            cursor += take
        return bytes(out)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _walk(self, vaddr, size, write, data=None):
        """One attempt at the access: one cache span per page.

        Splits at page boundaries, translates each page once, and
        moves each page's bytes through the cache in one call (see
        ``Cache.load``), for direct accesses and plan ops alike.
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
                cache.store(paddr, view[position:position + take])
            else:
                out += cache.load(paddr, take)
            cursor += take
            position += take
        return bytes(out) if not write else None

    def __repr__(self):
        return (
            f"Machine(dram={self.dram.size >> 20} MiB, "
            f"mode={self.controller.mode.value}, "
            f"cycles={self.clock.cycles})"
        )
