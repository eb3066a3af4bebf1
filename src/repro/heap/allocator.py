"""First-fit heap allocator over the simulated address space.

Plays the role of the interposed ``malloc``/``free`` in the paper: the
monitoring tools wrap these entry points (SafeMem is "implemented as a
shared library and can be dynamically preloaded", Section 5.1).  The
allocator supports per-request alignment because both SafeMem and the
page-protection baseline need aligned buffers with guard padding.

Block metadata is kept host-side (a real allocator would embed headers
in the heap); what the paper's evaluation depends on is the *address
layout* -- alignment, padding, fragmentation -- and the per-operation
cost, both of which are modelled.
"""

import bisect
from itertools import compress

from repro.common.constants import align_up
from repro.common.errors import (
    ConfigurationError,
    DoubleFree,
    InvalidFree,
    OutOfMemory,
)
from repro.common.state import (
    BOOL,
    INT,
    fields_state,
    integers,
    load_fields,
    table,
)

#: Minimum alignment of any allocation, like glibc malloc.
MIN_ALIGNMENT = 16


class Allocation:
    """One live allocation."""

    __slots__ = ("address", "size", "requested_size", "sampled")

    def __init__(self, address, size, requested_size):
        self.address = address
        self.size = size
        self.requested_size = requested_size
        #: whether a sampling monitor admitted this allocation to its
        #: detectors.  True by default (always-on mode monitors every
        #: allocation); SafeMem flips it to False on the unsampled fast
        #: path so ``free``/``realloc`` can route in O(1) without
        #: consulting any watch machinery.
        self.sampled = True

    @property
    def end(self):
        return self.address + self.size


class Allocator:
    """First-fit allocator with address-ordered free list and coalescing."""

    #: the counters :meth:`state_dict` records next to the lists.
    STATE_FIELDS = ("total_allocs", "total_frees", "peak_live_bytes",
                    "live_bytes")

    def __init__(self, base, size, clock=None, costs=None, metrics=None):
        if size <= 0:
            raise ConfigurationError(f"heap size must be positive: {size}")
        self.base = base
        self.size = size
        self.clock = clock
        self.costs = costs
        # Parallel, address-sorted arrays of free extents.
        self._free_addrs = [base]
        self._free_sizes = [size]
        self._live = {}
        self._freed_history = set()
        self.total_allocs = 0
        self.total_frees = 0
        self.peak_live_bytes = 0
        self.live_bytes = 0
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``heap.*`` probes into a metrics registry."""
        metrics.probe("heap.allocs", lambda: self.total_allocs,
                      kind="counter")
        metrics.probe("heap.frees", lambda: self.total_frees,
                      kind="counter")
        metrics.probe("heap.live_bytes", lambda: self.live_bytes,
                      kind="gauge")
        metrics.probe("heap.peak_live_bytes",
                      lambda: self.peak_live_bytes, kind="gauge")

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Free extents, live blocks (in allocation order, as
        ``[address, size, requested_size, sampled]``), the freed-address
        history and the counters."""
        return {
            **fields_state(self, self.STATE_FIELDS),
            "free_addrs": list(self._free_addrs),
            "free_sizes": list(self._free_sizes),
            "live": [[block.address, block.size, block.requested_size,
                      block.sampled] for block in self._live.values()],
            "freed": sorted(self._freed_history),
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        load_fields(self, state, self.STATE_FIELDS)
        addrs = integers(state["free_addrs"], "free_addrs")
        sizes = integers(state["free_sizes"], "free_sizes")
        if len(addrs) != len(sizes):
            raise ValueError("free extent lists differ in length")
        live = {}
        for address, size, requested, sampled in table(
                state["live"], (INT, INT, INT, BOOL), "live"):
            block = live[address] = Allocation(address, size, requested)
            block.sampled = sampled
        self._free_addrs = list(addrs)
        self._free_sizes = list(sizes)
        self._live = live
        self._freed_history = set(integers(state["freed"], "freed"))

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def malloc(self, size, alignment=MIN_ALIGNMENT):
        """Allocate ``size`` bytes aligned to ``alignment``.

        Returns the address.  Raises :class:`OutOfMemory` when no free
        extent fits.
        """
        if size <= 0:
            raise ConfigurationError(f"allocation size must be positive: "
                                     f"{size}")
        if alignment < MIN_ALIGNMENT or alignment & (alignment - 1):
            raise ConfigurationError(
                f"alignment must be a power of two >= {MIN_ALIGNMENT}: "
                f"{alignment}"
            )
        self._charge()
        granted = align_up(size, MIN_ALIGNMENT)
        sizes = self._free_sizes
        # First fit over the extents at least ``granted`` long: a
        # shorter one can never hold the block, so skipping it leaves
        # the chosen extent unchanged.
        for index in compress(range(len(sizes)), map(granted.__le__,
                                                      sizes)):
            extent_addr = self._free_addrs[index]
            aligned = align_up(extent_addr, alignment)
            if aligned - extent_addr + granted > sizes[index]:
                continue
            self._carve(index, aligned, granted)
            allocation = Allocation(aligned, granted, size)
            self._live[aligned] = allocation
            self._freed_history.discard(aligned)
            self.total_allocs += 1
            self.live_bytes += granted
            self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
            return aligned
        raise OutOfMemory(
            f"cannot satisfy malloc({size}, align={alignment}); "
            f"{self.free_bytes()} bytes free but fragmented or insufficient"
        )

    def free(self, address):
        """Release the allocation at ``address``."""
        self._charge()
        allocation = self._live.pop(address, None)
        if allocation is None:
            if address in self._freed_history:
                raise DoubleFree(f"double free of {address:#x}")
            raise InvalidFree(f"free of non-allocated address {address:#x}")
        self._freed_history.add(address)
        self.total_frees += 1
        self.live_bytes -= allocation.size
        self._release(allocation.address, allocation.size)
        return allocation

    def realloc(self, address, new_size):
        """Classic realloc semantics; returns the (possibly new) address.

        The caller is responsible for copying user data if it cares --
        data movement happens in simulated memory, which the monitor
        layer orchestrates.
        """
        if address is None:
            return self.malloc(new_size)
        allocation = self._live.get(address)
        if allocation is None:
            raise InvalidFree(f"realloc of non-allocated address "
                              f"{address:#x}")
        if new_size <= allocation.size:
            allocation.requested_size = new_size
            return address
        self.free(address)
        return self.malloc(new_size)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, address):
        """Return the :class:`Allocation` starting at ``address`` or None."""
        return self._live.get(address)

    def block_containing(self, address):
        """Return the live allocation containing ``address``, or None."""
        index = bisect.bisect_right(self._live_sorted_addrs(), address) - 1
        if index < 0:
            return None
        candidate = self._live[self._live_sorted_addrs()[index]]
        if candidate.address <= address < candidate.end:
            return candidate
        return None

    def live_allocations(self):
        """All live allocations, unordered."""
        return list(self._live.values())

    def free_bytes(self):
        return sum(self._free_sizes)

    def is_live(self, address):
        return address in self._live

    def was_freed(self, address):
        """True if ``address`` was the start of a now-freed allocation."""
        return address in self._freed_history

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _carve(self, index, aligned, granted):
        extent_addr = self._free_addrs[index]
        extent_size = self._free_sizes[index]
        front = aligned - extent_addr
        back = extent_size - front - granted
        replacements_addr = []
        replacements_size = []
        if front:
            replacements_addr.append(extent_addr)
            replacements_size.append(front)
        if back:
            replacements_addr.append(aligned + granted)
            replacements_size.append(back)
        self._free_addrs[index:index + 1] = replacements_addr
        self._free_sizes[index:index + 1] = replacements_size

    def _release(self, address, size):
        index = bisect.bisect_left(self._free_addrs, address)
        # Coalesce with the following extent.
        if index < len(self._free_addrs) and \
                address + size == self._free_addrs[index]:
            size += self._free_sizes[index]
            del self._free_addrs[index]
            del self._free_sizes[index]
        # Coalesce with the preceding extent.
        if index > 0 and \
                self._free_addrs[index - 1] + self._free_sizes[index - 1] \
                == address:
            self._free_sizes[index - 1] += size
        else:
            self._free_addrs.insert(index, address)
            self._free_sizes.insert(index, size)

    def _live_sorted_addrs(self):
        # Small enough at our scale; recompute on demand.
        return sorted(self._live)

    def _charge(self):
        if self.clock is not None and self.costs is not None:
            self.clock.tick(self.costs.heap_op)
