"""Swap device and eviction policy.

Swapping is what forces the paper's pinning design: a watched page that
got swapped out and back in would land on a different physical frame,
silently losing its armed ECC state.  Our model keeps the same hazard:
page contents move through the swap device by *raw* DRAM copies (like a
DMA engine, uninspected by ECC), so any armed scramble on an evicted
page would be destroyed.  Pinned pages are never evicted, which is why
``WatchMemory`` pins.
"""

from repro.common.constants import PAGE_SIZE
from repro.common.errors import OutOfMemory
from repro.common.state import (
    decode_bytes,
    encode_bytes,
    integer,
    record,
    sequence,
)


class SwapDevice:
    """Backing store for evicted pages, keyed by virtual page number."""

    def __init__(self, metrics):
        self._slots = {}
        self.swap_outs = 0
        self.swap_ins = 0
        self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``swap.*`` probes into a metrics registry."""
        metrics.probe("swap.out", lambda: self.swap_outs,
                      kind="counter")
        metrics.probe("swap.in", lambda: self.swap_ins, kind="counter")
        metrics.probe("swap.slots", lambda: len(self._slots),
                      kind="gauge",
                      description="pages currently swapped out")

    def store(self, vpn, data):
        if len(data) != PAGE_SIZE:
            raise ValueError(f"swap slots hold whole pages, got {len(data)}")
        self._slots[vpn] = bytes(data)
        self.swap_outs += 1

    def load(self, vpn):
        data = self._slots.pop(vpn)
        self.swap_ins += 1
        return data

    def holds(self, vpn):
        return vpn in self._slots

    def peek(self, vpn):
        """Read a swapped page without swapping it back in."""
        return self._slots[vpn]

    def drop(self, vpn):
        self._slots.pop(vpn, None)

    def __len__(self):
        return len(self._slots)

    def state_dict(self):
        """Counters and every slot as ``[vpn, page bytes]``."""
        return {"swap_outs": self.swap_outs, "swap_ins": self.swap_ins,
                "slots": [[vpn, encode_bytes(data)]
                          for vpn, data in self._slots.items()]}

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        self.swap_outs = integer(state["swap_outs"], "swap_outs")
        self.swap_ins = integer(state["swap_ins"], "swap_ins")
        slots = {}
        for item in sequence(state["slots"], "slots"):
            vpn, data = record(item, 2, "slot")
            data = decode_bytes(data, "slot data")
            if len(data) != PAGE_SIZE:
                raise ValueError(f"swap slot of {len(data)} bytes")
            slots[integer(vpn, "slot vpn")] = data
        self._slots = slots


class EvictionPolicy:
    """LRU eviction over resident, unpinned pages."""

    def __init__(self, page_table, frame_allocator, swap, dram, cache,
                 invalidate_translation):
        self.page_table = page_table
        self.frames = frame_allocator
        self.swap = swap
        self.dram = dram
        self.cache = cache
        #: Called with the victim's vpn on every eviction so the MMU can
        #: shoot down its (now stale) cached translation.
        self.invalidate_translation = invalidate_translation

    def obtain_frame(self):
        """Return a free frame, evicting the LRU unpinned page if needed."""
        pfn = self.frames.allocate()
        if pfn is not None:
            return pfn
        victim = self._pick_victim()
        if victim is None:
            raise OutOfMemory(
                "no free frames and every resident page is pinned"
            )
        self._evict(victim)
        pfn = self.frames.allocate()
        if pfn is None:
            raise OutOfMemory("eviction failed to free a frame")
        return pfn

    def _pick_victim(self):
        candidates = [
            entry
            for entry in self.page_table.resident_entries()
            if not entry.pinned
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_access)

    def _evict(self, entry):
        frame_base = entry.pfn * PAGE_SIZE
        # Write back any cached lines of the frame first, then copy the
        # page out through the raw (DMA-like) path.
        self.cache.flush_resident(frame_base, PAGE_SIZE)
        self.swap.store(entry.vpn, self.dram.read_raw(frame_base, PAGE_SIZE))
        self.frames.release(entry.pfn)
        entry.pfn = None
        entry.present = False
        entry.in_swap = True
        self.invalidate_translation(entry.vpn)
