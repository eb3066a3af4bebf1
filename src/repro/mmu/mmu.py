"""Memory management unit: translation, demand paging, protection.

Translation is the seam where the two guard mechanisms differ:

- the **page-protection baseline** revokes access bits with ``mprotect``
  and relies on :class:`~repro.common.errors.ProtectionFault` here,
- **ECC protection** leaves translation untouched -- its faults fire
  later, in the memory controller, at cache-line granularity.
"""

from repro.common.constants import PAGE_SIZE
from repro.common.errors import PageFault, ProtectionFault
from repro.common.state import (
    fields_state,
    integer,
    load_fields,
    record,
    sequence,
)
from repro.mmu.pagetable import PROT_READ, PROT_WRITE
from repro.mmu.swap import EvictionPolicy
from repro.obs.metrics import attr_reader as _attr_reader

#: Entries in the software TLB (direct-mapped, indexed by vpn % size).
TLB_SIZE = 64


class Mmu:
    """Translates virtual addresses and services demand/swap faults.

    Translation goes through a small direct-mapped software TLB: a hit
    serves the physical frame base from a cached snapshot instead of
    walking the page table.  Because the TLB caches the frame base and
    protection bits *by value*, every operation that changes a mapping
    (munmap, mprotect, swap eviction) must explicitly invalidate the
    affected entries -- the same shoot-down contract real hardware has.
    """

    #: the counters :meth:`state_dict` records next to the TLB.
    STATE_FIELDS = ("_stamp", "demand_fills", "swap_in_faults",
                    "tlb_hits", "tlb_misses", "tlb_invalidations",
                    "tlb_flushes")

    def __init__(self, page_table, frame_allocator, swap, dram, cache,
                 controller, metrics):
        self.page_table = page_table
        self.frames = frame_allocator
        self.swap = swap
        self.dram = dram
        self.cache = cache
        self.controller = controller
        self.evictor = EvictionPolicy(
            page_table, frame_allocator, swap, dram, cache,
            invalidate_translation=self.tlb_invalidate_page,
        )
        self._stamp = 0
        self.demand_fills = 0
        self.swap_in_faults = 0
        #: TLB slot: ``(vpn, frame_base, prot, entry)`` or ``None``.
        self._tlb = [None] * TLB_SIZE
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.tlb_invalidations = 0
        self.tlb_flushes = 0
        self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish the MMU counters as ``mmu.*`` registry probes.

        The counters stay plain integer attributes -- translation is
        the hottest path in the simulator, and an attribute increment
        is the cheapest record we can make -- so the registry samples
        them through probes instead of owning them.
        """
        for name, attr in (
            ("mmu.tlb.hit", "tlb_hits"),
            ("mmu.tlb.miss", "tlb_misses"),
            ("mmu.tlb.invalidation", "tlb_invalidations"),
            ("mmu.tlb.flush", "tlb_flushes"),
            ("mmu.demand_fill", "demand_fills"),
            ("mmu.swap_in_fault", "swap_in_faults"),
        ):
            metrics.probe(name, _attr_reader(self, attr),
                          kind="counter")

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Counters and each TLB slot as ``[vpn, frame_base, prot]``
        (or ``None``); the entry a slot caches is re-linked by vpn."""
        return {
            **fields_state(self, self.STATE_FIELDS),
            "tlb": [None if slot is None else [slot[0], slot[1], slot[2]]
                    for slot in self._tlb],
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output; the page table must
        already hold the restored entries.

        The page table has no bound of its own, so its present entries
        are checked here, against the frame allocator's frame count;
        every TLB frame must lie inside DRAM too, and every TLB slot
        must sit at its page's index and cache a present page with the
        frame and protection of its page-table entry.
        """
        load_fields(self, state, self.STATE_FIELDS)
        total = self.frames.total_frames
        for entry in self.page_table.resident_entries():
            if entry.pfn is None or not 0 <= entry.pfn < total:
                raise ValueError(
                    f"page {entry.vpn:#x} maps frame {entry.pfn}, outside "
                    f"DRAM of {total} frames")
        slots = sequence(state["tlb"], "tlb")
        if len(slots) != TLB_SIZE:
            raise ValueError(f"{len(slots)} TLB slots, expected {TLB_SIZE}")
        tlb = []
        for index, slot in enumerate(slots):
            if slot is None:
                tlb.append(None)
                continue
            vpn, frame_base, prot = record(slot, 3, "TLB slot")
            entry = self.page_table.entry(integer(vpn, "TLB vpn"))
            if entry is None:
                raise ValueError(f"TLB slot caches unmapped page {vpn:#x}")
            if vpn % TLB_SIZE != index:
                raise ValueError(f"TLB slot {index} caches page {vpn:#x}, "
                                 f"which belongs in slot {vpn % TLB_SIZE}")
            if not 0 <= integer(frame_base, "TLB frame") < self.dram.size:
                raise ValueError(f"TLB slot caches frame {frame_base:#x}, "
                                 f"outside DRAM of {self.dram.size:#x} "
                                 f"bytes")
            integer(prot, "TLB prot")
            if not entry.present:
                raise ValueError(f"TLB slot caches page {vpn:#x}, which is "
                                 f"not present")
            if (frame_base, prot) != (entry.pfn * PAGE_SIZE, entry.prot):
                raise ValueError(
                    f"TLB slot caches page {vpn:#x} at frame "
                    f"{frame_base:#x} with protection {prot}, but its "
                    f"page-table entry maps frame "
                    f"{entry.pfn * PAGE_SIZE:#x} with protection "
                    f"{entry.prot}")
            tlb.append((vpn, frame_base, prot, entry))
        self._tlb = tlb

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def translate(self, vaddr, write=False):
        """Return the physical address for ``vaddr`` or raise a fault.

        Raises :class:`PageFault` for unmapped addresses and
        :class:`ProtectionFault` when the page's protection bits forbid
        the access (the mprotect-guard path).
        """
        paddr = self.translate_fast(vaddr, write)
        if paddr is not None:
            return paddr
        self.tlb_misses += 1
        return self._translate_slow(vaddr, write)

    def translate_fast(self, vaddr, write=False):
        """The TLB hit of :meth:`translate`: the physical address, or
        ``None`` on a miss.

        Counts the hit and stamps the page's ``last_access``; never
        walks the page table, pages anything in, or raises.
        """
        vpn, offset = divmod(vaddr, PAGE_SIZE)
        slot = self._tlb[vpn % TLB_SIZE]
        if (slot is not None and slot[0] == vpn
                and slot[2] & (PROT_WRITE if write else PROT_READ)):
            self.tlb_hits += 1
            self._stamp += 1
            slot[3].last_access = self._stamp
            return slot[1] + offset
        return None

    def _translate_slow(self, vaddr, write):
        """Full page-table walk; refills the TLB on success."""
        entry = self.page_table.lookup(vaddr)
        if entry is None:
            raise PageFault(vaddr)
        required = PROT_WRITE if write else PROT_READ
        if not entry.prot & required:
            raise ProtectionFault(vaddr, "write" if write else "read")
        if not entry.present:
            self._bring_in(entry)
        self._stamp += 1
        entry.last_access = self._stamp
        frame_base = entry.pfn * PAGE_SIZE
        self._tlb[entry.vpn % TLB_SIZE] = (
            entry.vpn, frame_base, entry.prot, entry
        )
        return frame_base + (vaddr % PAGE_SIZE)

    # ------------------------------------------------------------------
    # TLB maintenance (the shoot-down contract)
    # ------------------------------------------------------------------
    def tlb_invalidate_page(self, vpn):
        """Drop the cached translation for one virtual page number."""
        index = vpn % TLB_SIZE
        slot = self._tlb[index]
        if slot is not None and slot[0] == vpn:
            self._tlb[index] = None
            self.tlb_invalidations += 1

    def tlb_invalidate_range(self, vaddr, size):
        """Drop cached translations for every page in the range."""
        first = vaddr // PAGE_SIZE
        last = (vaddr + size - 1) // PAGE_SIZE
        for vpn in range(first, last + 1):
            self.tlb_invalidate_page(vpn)

    def tlb_flush(self):
        """Drop every cached translation (full shoot-down)."""
        self._tlb = [None] * TLB_SIZE
        self.tlb_flushes += 1

    def tlb_lookup(self, vaddr):
        """Current TLB snapshot for ``vaddr`` (test/introspection aid)."""
        vpn = vaddr // PAGE_SIZE
        slot = self._tlb[vpn % TLB_SIZE]
        if slot is not None and slot[0] == vpn:
            return slot
        return None

    def resident_frame(self, vaddr):
        """Physical address of ``vaddr`` if resident, else ``None``.

        Unlike :meth:`translate` this never pages anything in; the
        kernel uses it for maintenance paths (flushes, scramble).
        """
        entry = self.page_table.lookup(vaddr)
        if entry is None or not entry.present:
            return None
        return entry.pfn * PAGE_SIZE + (vaddr % PAGE_SIZE)

    # ------------------------------------------------------------------
    # paging
    # ------------------------------------------------------------------
    def _bring_in(self, entry):
        pfn = self.evictor.obtain_frame()
        frame_base = pfn * PAGE_SIZE
        # Drop any stale cache lines from the frame's previous owner.
        self.cache.invalidate_range(frame_base, PAGE_SIZE)
        if entry.in_swap:
            data = self.swap.load(entry.vpn)
            entry.in_swap = False
            self.swap_in_faults += 1
        else:
            data = bytes(PAGE_SIZE)
            self.demand_fills += 1
        # The fill is one page burst through the controller with ECC
        # enabled, so the frame ends up with fresh, consistent check
        # bits.  (This is why an armed-but-unpinned page would lose its
        # watchpoint across a swap cycle -- the hazard that motivates
        # pinning.)
        self.controller.write_line(frame_base, data)
        entry.pfn = pfn
        entry.present = True

    def ensure_resident(self, vaddr):
        """Page in (if needed) the page containing ``vaddr``."""
        entry = self.page_table.lookup(vaddr)
        if entry is None:
            raise PageFault(vaddr)
        if not entry.present:
            self._bring_in(entry)
        return entry
