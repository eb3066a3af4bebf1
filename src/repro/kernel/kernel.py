"""The simulated operating system kernel.

Implements the paper's three OS extensions (Section 2.2.1) plus the
standard facilities SafeMem and the baselines need:

- ``watch_memory(addr, size)``        -- arm ECC watchpoints on a region
- ``disable_watch_memory(addr, ...)`` -- disarm and restore a region
- ``register_ecc_fault_handler(fn)``  -- user-level ECC fault delivery
- ``mprotect`` / ``mmap`` / ``munmap``-- page-granularity management
- page pinning with a budget, scrub coordination

Every syscall charges its cycle cost to the program's clock, which is
how monitoring overhead becomes measurable.
"""

import contextlib

from repro.common.constants import (
    CACHE_LINE_SIZE,
    PAGE_SIZE,
    is_aligned,
    page_base,
)
from repro.common.errors import PinLimitExceeded, SyscallError
from repro.common.events import EventKind
from repro.common.state import fields_state, load_fields
from repro.ecc.scrubber import Scrubber
from repro.kernel.interrupts import EccFaultInfo, InterruptController
from repro.kernel.watchregistry import WatchedRegion, WatchRegistry
from repro.mmu.pagetable import PROT_RW


class Kernel:
    """OS services over the machine's hardware components."""

    def __init__(self, dram, controller, cache, mmu, page_table, clock,
                 costs, event_log, max_pinned_pages=None, metrics=None,
                 tracer=None, scrub_interval_cycles=None):
        self.dram = dram
        self.controller = controller
        self.cache = cache
        self.mmu = mmu
        self.page_table = page_table
        self.clock = clock
        self.costs = costs
        self.event_log = event_log
        self.metrics = metrics
        self.tracer = tracer
        self.interrupts = InterruptController(clock, costs, event_log,
                                              metrics=metrics,
                                              tracer=tracer)
        self.watches = WatchRegistry()
        self.scrubber = Scrubber(controller, clock, costs,
                                 interval_cycles=scrub_interval_cycles)
        self.pinned_pages = 0
        self.ecc_traps = 0
        if max_pinned_pages is None:
            max_pinned_pages = max(1, (dram.size // PAGE_SIZE) // 2)
        self.max_pinned_pages = max_pinned_pages
        #: syscall name -> its ``kernel.syscall.<Name>`` counter, kept
        #: after the registry lookup that registers it.
        self._syscall_counters = {}
        #: user-level SIGSEGV handler (page-protection guard tools).
        self.segv_handler = None
        controller.fault_listener = self._on_controller_event
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``kernel.*`` probes into a metrics registry.

        Per-syscall counters (``kernel.syscall.<Name>``) register
        lazily on first use in :meth:`_count`.
        """
        metrics.probe("kernel.ecc_traps", lambda: self.ecc_traps,
                      kind="counter",
                      description="uncorrectable faults routed to the "
                                  "user handler")
        metrics.probe("kernel.pinned_pages", lambda: self.pinned_pages,
                      kind="gauge")
        metrics.probe("kernel.watched_lines",
                      lambda: self.watches.armed_line_count,
                      kind="gauge")

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    #: the counters :meth:`state_dict` records.
    STATE_FIELDS = ("pinned_pages", "ecc_traps")

    def state_dict(self):
        """Pin and trap counters, the watch registry, the scrubber and
        the interrupt controller.  The per-syscall counts are the
        registry's ``kernel.syscall.<Name>`` counters; the user
        handlers are re-registered by the monitor that owns them."""
        return {
            **fields_state(self, self.STATE_FIELDS),
            "watches": self.watches.state_dict(),
            "scrubber": self.scrubber.state_dict(),
            "interrupts": self.interrupts.state_dict(),
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        load_fields(self, state, self.STATE_FIELDS)
        self.watches.load_state(state["watches"], self.dram.size)
        self.scrubber.load_state(state["scrubber"])
        self.interrupts.load_state(state["interrupts"])

    def _span(self, name, **attrs):
        if self.tracer is not None:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext()

    # ------------------------------------------------------------------
    # the three paper syscalls
    # ------------------------------------------------------------------
    def watch_memory(self, vaddr, size):
        """Arm ECC watchpoints over ``[vaddr, vaddr+size)``.

        The region must be cache-line aligned (paper requirement).  The
        kernel pins the underlying pages, flushes the lines, then --
        with the bus locked and ECC disabled -- rewrites the data with
        the 3-bit scramble pattern, leaving the old check bits stale.
        The next memory access to any of the lines raises a multi-bit
        ECC fault.
        """
        self._count("WatchMemory")
        with self._span("syscall.WatchMemory", vaddr=vaddr, size=size):
            return self._watch_memory(vaddr, size)

    def _watch_memory(self, vaddr, size):
        pages = self._validate_line_region(vaddr, size)
        self.clock.tick(
            self.costs.watch_memory_cost(size // CACHE_LINE_SIZE))

        pinned = []
        try:
            for page in pages:
                self._pin_page(page)
                pinned.append(page)
        except PinLimitExceeded:
            for page in pinned:
                self._unpin_page(page)
            raise

        # One translation per page: every line of a page shares its
        # (pinned, now resident) frame.  Pages whose frames adjoin
        # extend the same physically contiguous run.
        end = vaddr + size
        runs = []
        for page in pages:
            start = max(page, vaddr)
            length = min(page + PAGE_SIZE, end) - start
            pstart = self.mmu.resident_frame(start)
            if runs and runs[-1][1] + runs[-1][2] == pstart:
                vstart, run_pstart, run_length = runs[-1]
                runs[-1] = (vstart, run_pstart, run_length + length)
            else:
                runs.append((start, pstart, length))

        region = WatchedRegion(vaddr, size, runs)
        try:
            self.watches.add(region)
        except SyscallError:
            for page in pinned:
                self._unpin_page(page)
            raise

        # Write back + invalidate so DRAM holds the current data and the
        # next access must reach memory.
        for _vstart, pstart, length in runs:
            self.cache.flush_range(pstart, length)

        # Scramble window: bus locked, ECC off, data-only writes, one
        # burst per physically contiguous run.  The pattern comes from
        # the controller's codec, so the armed lines decode as
        # uncorrectable under whatever code this chipset profile runs.
        scramble = self.controller.codec.scramble_bytes
        self.controller.lock_bus()
        self.controller.disable_ecc()
        try:
            for _vstart, pstart, length in runs:
                current = self.dram.read_raw(pstart, length)
                self.controller.write_line(pstart, scramble(current))
        finally:
            self.controller.enable_ecc()
            self.controller.unlock_bus()

        self.event_log.emit(EventKind.WATCH, address=vaddr, size=size)
        return region

    def disable_watch_memory(self, vaddr, restore_data=None):
        """Disarm the watch region registered at ``vaddr``.

        ``restore_data`` is the original contents saved by the user
        library; when provided, the kernel rewrites it through the
        normal (ECC-generating) path so both data and check bits are
        consistent again.  Without it the scrambled bytes are simply
        re-encoded, which also clears the fault condition.
        """
        self._count("DisableWatchMemory")
        with self._span("syscall.DisableWatchMemory", vaddr=vaddr):
            return self._disable_watch_memory(vaddr, restore_data)

    def _disable_watch_memory(self, vaddr, restore_data):
        region = self.watches.get(vaddr)
        if region is None:
            raise SyscallError(f"no watched region at {vaddr:#x}")
        if restore_data is not None and len(restore_data) != region.size:
            raise SyscallError(
                f"restore data is {len(restore_data)} bytes for a "
                f"{region.size}-byte region"
            )
        self.clock.tick(self.costs.disable_watch_cost(region.line_count))
        self.watches.remove(vaddr)

        # Drop any cached copies, then re-encode one burst per
        # physically contiguous run (in region order, so a run's slice
        # of ``restore_data`` starts where the previous run ended).
        offset = 0
        for _vstart, pstart, length in region.runs:
            self.cache.invalidate_range(pstart, length)
            if restore_data is not None:
                chunk = restore_data[offset:offset + length]
            else:
                chunk = self.dram.read_raw(pstart, length)
            self.controller.write_line(pstart, chunk)
            offset += length

        for page in region.pages:
            self._unpin_page(page)
        self.event_log.emit(EventKind.UNWATCH, address=vaddr,
                            size=region.size)
        return region

    def register_ecc_fault_handler(self, handler):
        """Install the user-level ECC fault handler."""
        self._count("RegisterECCFaultHandler")
        self.clock.tick(self.costs.syscall_trap)
        self.interrupts.register_handler(handler)

    # ------------------------------------------------------------------
    # standard VM syscalls
    # ------------------------------------------------------------------
    def mmap(self, vaddr, size, prot=PROT_RW):
        """Map a fresh zero-filled region (no syscall cost charged --
        address-space setup happens before timing begins)."""
        self.page_table.map_region(vaddr, size, prot)

    def munmap(self, vaddr, size):
        """Unmap a region, releasing frames and swap slots."""
        if self.watches.overlaps_range(vaddr, size):
            raise SyscallError(
                f"cannot unmap {vaddr:#x}+{size:#x}: it overlaps a "
                f"watched region"
            )
        for entry in self.page_table.unmap_region(vaddr, size):
            if entry.present:
                self.cache.invalidate_range(entry.pfn * PAGE_SIZE, PAGE_SIZE)
                self.mmu.frames.release(entry.pfn)
            if entry.in_swap:
                self.mmu.swap.drop(entry.vpn)
        # TLB shoot-down: cached translations for the unmapped pages
        # would otherwise keep serving stale frames.
        self.mmu.tlb_invalidate_range(vaddr, size)

    def mprotect(self, vaddr, size, prot):
        """Change protection bits -- the page-granularity guard primitive."""
        self._count("mprotect")
        if not is_aligned(vaddr, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise SyscallError(
                f"mprotect range must be page aligned: "
                f"{vaddr:#x}+{size:#x}"
            )
        pages = size // PAGE_SIZE
        self.clock.tick(self.costs.mprotect_cost(pages))
        for vpn in range(vaddr // PAGE_SIZE, (vaddr + size) // PAGE_SIZE):
            entry = self.page_table.entry(vpn)
            if entry is None:
                raise SyscallError(f"mprotect on unmapped page {vpn:#x}")
            entry.prot = prot
        # TLB shoot-down: the TLB snapshots protection bits, so a
        # narrowed mapping must not keep serving from a stale entry.
        self.mmu.tlb_invalidate_range(vaddr, size)

    def register_segv_handler(self, handler):
        """Install a user-level protection-fault (SIGSEGV) handler.

        This is the delivery path the *page-protection* baseline uses;
        ECC watchpoints never come through here.
        """
        self._count("sigaction")
        self.clock.tick(self.costs.syscall_trap)
        self.segv_handler = handler

    def handle_protection_fault(self, fault):
        """Deliver a protection fault; True means retry the access."""
        if self.segv_handler is None:
            return False
        self.clock.tick(self.costs.fault_delivery)
        self.event_log.emit(
            EventKind.PROTECTION_FAULT,
            address=fault.vaddr,
            access=fault.access,
        )
        return self.segv_handler(fault)

    # ------------------------------------------------------------------
    # fault path (called by the machine's access loop)
    # ------------------------------------------------------------------
    def handle_uncorrectable_fault(self, fault, access="read"):
        """Route a multi-bit ECC fault to the user handler (or panic)."""
        self.ecc_traps += 1
        resolved = self.watches.resolve_physical_line(fault.line_address)
        if resolved is not None:
            region, vline = resolved
            vaddr = vline + (fault.address - fault.line_address)
            watched = True
        else:
            vaddr = None
            watched = False
        info = EccFaultInfo(
            paddr=fault.address,
            vaddr=vaddr,
            watched=watched,
            syndrome=fault.syndrome,
            origin=fault.origin.value,
            access=access,
        )
        with self._span("ecc.fault", paddr=fault.address,
                        watched=watched, access=access):
            self.interrupts.deliver(info)

    def peek_watched_line(self, vaddr):
        """Kernel-mode raw read of a watched line (no ECC check).

        The user-level handler needs the *current* (scrambled or not)
        contents to compare against the scramble signature; a normal
        load would simply re-fault.  Real hardware exposes this via the
        machine-check architecture; we expose it as a kernel service.
        """
        vline = vaddr - (vaddr % CACHE_LINE_SIZE)
        region = self.watches.region_of_vline(vline)
        if region is None:
            raise SyscallError(f"line {vline:#x} is not watched")
        return self.dram.read_raw(region.physical_line(vline),
                                  CACHE_LINE_SIZE)

    # ------------------------------------------------------------------
    # scrub coordination
    # ------------------------------------------------------------------
    def add_scrub_listener(self, pre=None, post=None):
        """Register callbacks run before/after every scrub pass.

        SafeMem registers hooks that temporarily unwatch all regions and
        block the program during scrubbing (Section 2.2.2).
        """
        self.scrubber.add_hooks(pre=pre, post=post)

    def run_scrub_pass(self):
        """Trigger one scrub pass (Correct-and-Scrub mode only)."""
        return self.scrubber.scrub_pass()

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def _pin_page(self, vaddr):
        entry = self.mmu.ensure_resident(vaddr)
        if entry.pin_count == 0:
            if self.pinned_pages >= self.max_pinned_pages:
                raise PinLimitExceeded(
                    f"pin budget of {self.max_pinned_pages} pages exhausted"
                )
            self.pinned_pages += 1
        entry.pin_count += 1

    def _unpin_page(self, vaddr):
        entry = self.page_table.lookup(vaddr)
        if entry is None or entry.pin_count == 0:
            raise SyscallError(f"page at {vaddr:#x} is not pinned")
        entry.pin_count -= 1
        if entry.pin_count == 0:
            self.pinned_pages -= 1

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _validate_line_region(self, vaddr, size):
        """Check a watch region; return the base of every page it touches.

        One page-table lookup per page: an unmapped page is reported
        at the first of its lines inside the region.
        """
        if size <= 0:
            raise SyscallError(f"watch size must be positive, got {size}")
        if not is_aligned(vaddr, CACHE_LINE_SIZE):
            raise SyscallError(
                f"watch region must be cache-line aligned, got {vaddr:#x}"
            )
        if not is_aligned(size, CACHE_LINE_SIZE):
            raise SyscallError(
                f"watch size must be a multiple of {CACHE_LINE_SIZE}, "
                f"got {size}"
            )
        pages = range(page_base(vaddr), vaddr + size, PAGE_SIZE)
        for page in pages:
            if self.page_table.lookup(page) is None:
                raise SyscallError(
                    f"watch on unmapped address {max(page, vaddr):#x}")
        return pages

    def _count(self, name):
        if self.metrics is not None:
            counter = self._syscall_counters.get(name)
            if counter is None:
                counter = self._syscall_counters[name] = \
                    self.metrics.counter(f"kernel.syscall.{name}")
            counter.value += 1
        self.event_log.emit(EventKind.SYSCALL, name=name)

    def _on_controller_event(self, fault):
        if not fault.uncorrectable:
            self.event_log.emit(
                EventKind.ECC_CORRECTED,
                address=fault.address,
                syndrome=fault.syndrome,
            )
