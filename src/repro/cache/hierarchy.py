"""Two-level cache hierarchy (L1 + L2).

The paper's machine (a Pentium 4) filters memory accesses through two
cache levels; what matters for SafeMem is that ``WatchMemory``'s flush
must evict the watched line from *every* level or the watchpoint never
fires.  The hierarchy keeps the same interface as a single
:class:`~repro.cache.cache.Cache`, so the machine can use either.

Model: non-inclusive write-back levels.  L1 misses fill from L2; L2
misses fill from the controller.  Dirty L1 victims write back into L2;
dirty L2 victims write back to memory.  ``flush_line`` walks both
levels top-down.
"""

from repro.common.constants import CACHE_LINE_SIZE, line_base
from repro.cache.cache import Cache


class _LevelBackend:
    """Adapts a Cache to act as the memory side of the level above it.

    The upper level calls ``read_line``/``write_line`` (the controller
    interface); we translate those into lower-level load/store of whole
    lines.
    """

    def __init__(self, lower):
        self.lower = lower

    def read_line(self, address):
        return self.lower.load(address, CACHE_LINE_SIZE)

    def write_line(self, address, data):
        self.lower.store(address, data)


class CacheHierarchy:
    """L1 over L2 over the ECC controller, presenting the Cache API."""

    def __init__(self, controller, l1_size=16 * 1024, l1_ways=4,
                 l2_size=256 * 1024, l2_ways=8, clock=None,
                 cost_model=None, metrics=None):
        # Only L1 charges the per-access hit cost; L2 charges its own
        # miss penalty through the shared cost hooks.
        self.l2 = Cache(controller, size=l2_size, ways=l2_ways,
                        clock=clock, cost_model=cost_model,
                        metrics=metrics, level="l2")
        self.l1 = Cache(_LevelBackend(self.l2), size=l1_size,
                        ways=l1_ways, clock=clock, cost_model=cost_model,
                        metrics=metrics, level="l1")
        self.controller = controller

    def register_metrics(self, metrics):
        """Publish both levels' ``cache.l1.*`` / ``cache.l2.*`` probes."""
        self.l1.register_metrics(metrics)
        self.l2.register_metrics(metrics)

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Both levels' :meth:`Cache.state_dict`."""
        return {"l1": self.l1.state_dict(), "l2": self.l2.state_dict()}

    def load_state(self, state):
        """Restore :meth:`state_dict` output into both levels."""
        self.l1.load_state(state["l1"])
        self.l2.load_state(state["l2"])

    # ------------------------------------------------------------------
    # Cache-compatible interface
    # ------------------------------------------------------------------
    def load(self, paddr, size):
        return self.l1.load(paddr, size)

    def store(self, paddr, data):
        self.l1.store(paddr, data)

    def flush_line(self, paddr):
        """Evict from L1 (into L2), then from L2 (into memory)."""
        self.l1.flush_line(paddr)
        self.l2.flush_line(paddr)

    def flush_lines(self, paddrs):
        """:meth:`flush_line` for each address, in order.

        A per-line L1 -> L2 walk: an L1 write-back can fill and evict
        in L2, so batching either level would reorder those effects.
        """
        for paddr in paddrs:
            self.flush_line(paddr)

    def flush_range(self, paddr, size):
        """:meth:`flush_line` for every line of the range, in order."""
        self.flush_lines(range(line_base(paddr), paddr + size,
                               CACHE_LINE_SIZE))

    def flush_resident(self, paddr, size):
        """:meth:`flush_line` for each line of the range that is
        resident in either level when the walk reaches it."""
        for line in range(line_base(paddr), paddr + size, CACHE_LINE_SIZE):
            if self.contains(line):
                self.flush_line(line)

    def invalidate_range(self, paddr, size):
        # Invalidation writes nothing back, so the levels cannot
        # interact and each drops its own lines in one pass.
        self.l1.invalidate_range(paddr, size)
        self.l2.invalidate_range(paddr, size)

    def flush_all(self):
        self.l1.flush_all()
        self.l2.flush_all()

    def contains(self, paddr):
        return self.l1.contains(paddr) or self.l2.contains(paddr)

    def invalidate_line(self, paddr):
        self.l1.invalidate_line(paddr)
        self.l2.invalidate_line(paddr)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def hits(self):
        return self.l1.hits + self.l2.hits

    @property
    def misses(self):
        # Hierarchy misses are the ones that reached memory.
        return self.l2.misses

    @property
    def writebacks(self):
        return self.l2.writebacks

    @property
    def flushes(self):
        return self.l1.flushes

    @property
    def evictions(self):
        return self.l1.evictions + self.l2.evictions

    def level_stats(self):
        return {
            "l1_hits": self.l1.hits,
            "l1_misses": self.l1.misses,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "l2_writebacks": self.l2.writebacks,
        }
