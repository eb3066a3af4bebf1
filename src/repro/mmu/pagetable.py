"""Page table and physical-frame allocator for the simulated process.

ECC protection is tied to *physical* memory, so SafeMem must pin the
pages that contain watched lines (Section 2.2.2, "Dealing with Page
Swapping").  The page table tracks a pin count per page; the swap
policy (:mod:`repro.mmu.swap`) refuses to evict pinned pages; and the
kernel enforces a pinned-memory budget, reproducing the paper's noted
limitation that pinning bounds the total amount of monitored memory.
"""

from array import array
from dataclasses import dataclass

from repro.common.constants import PAGE_SIZE
from repro.common.errors import ConfigurationError
from repro.common.state import (
    BOOL,
    INT,
    OPTIONAL_INT,
    integers,
    table,
)

#: Protection bits (a deliberately tiny POSIX-flavoured subset).
PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_RW = PROT_READ | PROT_WRITE


@dataclass(slots=True)
class PageTableEntry:
    """State of one virtual page (slotted: a run maps thousands)."""

    vpn: int
    prot: int = PROT_RW
    pfn: int = None
    present: bool = False
    pin_count: int = 0
    last_access: int = 0
    in_swap: bool = False

    @property
    def pinned(self):
        return self.pin_count > 0


class FrameAllocator:
    """Free-list allocator over the installed physical frames, kept in
    one ``array("q")`` (8 bytes a frame, not a Python int each)."""

    def __init__(self, dram_size, reserved=0):
        if dram_size % PAGE_SIZE:
            raise ConfigurationError(
                f"DRAM size {dram_size} is not page aligned"
            )
        first = reserved // PAGE_SIZE
        self.total_frames = dram_size // PAGE_SIZE
        self._free = array("q", range(self.total_frames - 1, first - 1, -1))

    @property
    def free_frames(self):
        return len(self._free)

    def allocate(self):
        """Return a free frame number, or ``None`` when memory is full."""
        if not self._free:
            return None
        return self._free.pop()

    def release(self, pfn):
        self._free.append(pfn)

    def state_dict(self):
        """The free list, in the order frames will be handed out."""
        return {"free": self._free.tolist()}

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        free = integers(state["free"], "free")
        if not all(0 <= pfn < self.total_frames for pfn in free):
            raise ValueError("free list names a frame outside DRAM")
        self._free = array("q", free)


class PageTable:
    """Sparse map from virtual page number to :class:`PageTableEntry`."""

    def __init__(self):
        self._entries = {}

    def map_region(self, vaddr, size, prot=PROT_RW):
        """Declare ``[vaddr, vaddr+size)`` as valid (not yet resident)."""
        if vaddr % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise ConfigurationError(
                "regions must be page aligned and non-empty: "
                f"vaddr={vaddr:#x} size={size:#x}"
            )
        for vpn in range(vaddr // PAGE_SIZE, (vaddr + size) // PAGE_SIZE):
            if vpn in self._entries:
                raise ConfigurationError(
                    f"page {vpn:#x} is already mapped"
                )
            self._entries[vpn] = PageTableEntry(vpn=vpn, prot=prot)

    def unmap_region(self, vaddr, size):
        """Remove the mapping for ``[vaddr, vaddr+size)``.

        Returns the entries that were resident so the caller can free
        their frames.
        """
        if vaddr % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError("unmap must be page aligned")
        removed = []
        for vpn in range(vaddr // PAGE_SIZE, (vaddr + size) // PAGE_SIZE):
            entry = self._entries.pop(vpn, None)
            if entry is not None:
                removed.append(entry)
        return removed

    def lookup(self, vaddr):
        """Return the entry for the page containing ``vaddr`` or None."""
        return self._entries.get(vaddr // PAGE_SIZE)

    def entry(self, vpn):
        return self._entries.get(vpn)

    def entries(self):
        return list(self._entries.values())

    def resident_entries(self):
        return [e for e in self._entries.values() if e.present]

    def __len__(self):
        return len(self._entries)

    def state_dict(self):
        """Every entry as ``[vpn, prot, pfn, present, pin_count,
        last_access, in_swap]``, in mapping order (eviction breaks
        ``last_access`` ties by that order)."""
        return {"entries": [
            [entry.vpn, entry.prot, entry.pfn, entry.present,
             entry.pin_count, entry.last_access, entry.in_swap]
            for entry in self._entries.values()
        ]}

    def load_state(self, state):
        """Replace every mapping with :meth:`state_dict` output."""
        rows = table(state["entries"],
                     (INT, INT, OPTIONAL_INT, BOOL, INT, INT, BOOL),
                     "entries")
        self._entries = {row[0]: PageTableEntry(*row) for row in rows}
