"""Pool (slab) allocator: a program-private custom allocator.

Real servers (apache, squid) often bypass malloc with pools; the paper
notes that SafeMem handles them by wrapping the program's own
allocation functions.  This pool carves fixed-size objects out of
slabs obtained from the program's regular ``malloc`` (so the slabs
themselves are guarded like any buffer), and exposes the alloc/free
hook surface SafeMem's wrapper needs.
"""

from repro.common.constants import CACHE_LINE_SIZE, align_up
from repro.common.errors import ConfigurationError, DoubleFree, InvalidFree
from repro.common.state import integer, integers


class PoolAllocator:
    """Fixed-size object pool over slab buffers.

    Objects are spaced at a cache-line-aligned stride so every object
    can carry its own ECC watchpoint without false sharing -- the
    property SafeMem's leak pruning needs.
    """

    #: capacity of the in-memory slab directory.
    MAX_SLABS = 64

    def __init__(self, program, object_size, objects_per_slab=32,
                 site=0x900C, root_slot=None):
        if object_size <= 0:
            raise ConfigurationError(
                f"pool object size must be positive: {object_size}"
            )
        self.program = program
        self.object_size = object_size
        self.stride = align_up(object_size, CACHE_LINE_SIZE)
        self.objects_per_slab = objects_per_slab
        self.site = site
        self._slabs = []
        self._free = []
        self._live = set()
        self.slab_allocations = 0
        # Like a real pool, the slab directory lives in program memory
        # (so conservative pointer scans see the slabs as reachable).
        # ``root_slot`` anchors it in the program's globals.
        with program.frame(site):
            self._directory = program.malloc(8 * self.MAX_SLABS)
        program.zero_memory(self._directory, 8 * self.MAX_SLABS)
        if root_slot is not None:
            program.set_global(root_slot, self._directory)

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Geometry, slabs, the free and live objects and the slab
        directory's address."""
        return {"object_size": self.object_size,
                "objects_per_slab": self.objects_per_slab,
                "site": self.site, "directory": self._directory,
                "slabs": list(self._slabs), "free": list(self._free),
                "live": sorted(self._live),
                "slab_allocations": self.slab_allocations}

    @classmethod
    def from_state(cls, program, state):
        """The pool of :meth:`state_dict` output, on ``program``, with
        nothing allocated (its slabs are in the restored heap)."""
        pool = cls.__new__(cls)
        pool.program = program
        pool.object_size = integer(state["object_size"], "object_size")
        pool.stride = align_up(pool.object_size, CACHE_LINE_SIZE)
        pool.objects_per_slab = integer(state["objects_per_slab"],
                                        "objects_per_slab")
        pool.site = integer(state["site"], "site")
        pool._directory = integer(state["directory"], "directory")
        pool._slabs = list(integers(state["slabs"], "slabs"))
        pool._free = list(integers(state["free"], "free"))
        pool._live = set(integers(state["live"], "live"))
        pool.slab_allocations = integer(state["slab_allocations"],
                                        "slab_allocations")
        return pool

    # ------------------------------------------------------------------
    # the custom allocation functions SafeMem wraps
    # ------------------------------------------------------------------
    def alloc(self):
        """Take one object from the pool (grows by a slab if empty)."""
        if not self._free:
            self._grow()
        address = self._free.pop()
        self._live.add(address)
        return address

    def release(self, address):
        """Return one object to the pool."""
        if address not in self._live:
            if any(self._owns(address, slab) for slab in self._slabs):
                raise DoubleFree(
                    f"pool double free of {address:#x}"
                )
            raise InvalidFree(
                f"{address:#x} does not belong to this pool"
            )
        self._live.remove(address)
        self._free.append(address)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def live_count(self):
        return len(self._live)

    @property
    def capacity(self):
        return len(self._slabs) * self.objects_per_slab

    def is_live(self, address):
        return address in self._live

    def destroy(self):
        """Free every slab (and the directory) back to the allocator."""
        for slab in self._slabs:
            self.program.free(slab)
        self.program.free(self._directory)
        self._slabs.clear()
        self._free.clear()
        self._live.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow(self):
        if len(self._slabs) >= self.MAX_SLABS:
            raise ConfigurationError(
                f"pool slab directory full ({self.MAX_SLABS} slabs)"
            )
        with self.program.frame(self.site):
            slab = self.program.malloc(
                self.stride * self.objects_per_slab
            )
        self.program.store_word(
            self._directory + 8 * len(self._slabs), slab
        )
        self.slab_allocations += 1
        self._slabs.append(slab)
        for index in reversed(range(self.objects_per_slab)):
            self._free.append(slab + index * self.stride)

    def _owns(self, address, slab):
        span = self.stride * self.objects_per_slab
        return slab <= address < slab + span and \
            (address - slab) % self.stride == 0
