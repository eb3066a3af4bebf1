"""Registry of ECC-watched memory regions.

The kernel needs two lookups:

- by *virtual* address, to validate WatchMemory/DisableWatchMemory
  calls and to refuse an unmap of a range that holds an armed line,
- by *physical* line, to attribute an ECC fault back to the virtual
  region the user handler reasons about.

A region is one virtual range stored as its physically contiguous
runs, so both indexes hold ranges, never single lines.  Pinning
guarantees the physical mapping of a watched region cannot change
while it is registered, so the physical index stays valid.
"""

from bisect import bisect_left, bisect_right

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE, page_base
from repro.common.errors import SyscallError
from repro.common.state import INT, LIST, table


class WatchedRegion:
    """One registered watch: a cache-line-aligned virtual range.

    ``runs`` are its physically contiguous pieces, ``(vstart, pstart,
    length)`` in virtual order, covering ``[vaddr, vaddr+size)``.  A
    region may instead be given as ``lines``, a mapping of virtual
    line base to physical line base, from which the runs are built.
    """

    __slots__ = ("vaddr", "size", "runs")

    def __init__(self, vaddr, size, runs=None, lines=None):
        self.vaddr = vaddr
        self.size = size
        if runs is None:
            runs = []
            for vline, pline in sorted((lines or {}).items()):
                if runs and (runs[-1][0] + runs[-1][2] == vline
                             and runs[-1][1] + runs[-1][2] == pline):
                    vstart, pstart, length = runs[-1]
                    runs[-1] = (vstart, pstart, length + CACHE_LINE_SIZE)
                else:
                    runs.append((vline, pline, CACHE_LINE_SIZE))
        self.runs = runs

    def __repr__(self):
        return (f"WatchedRegion(vaddr={self.vaddr:#x}, size={self.size}, "
                f"runs={len(self.runs)})")

    @property
    def lines(self):
        """Virtual line base -> physical line base, from the runs."""
        return {vstart + offset: pstart + offset
                for vstart, pstart, length in self.runs
                for offset in range(0, length, CACHE_LINE_SIZE)}

    @property
    def line_count(self):
        return self.size // CACHE_LINE_SIZE

    @property
    def pages(self):
        """Base addresses of the virtual pages this region touches."""
        return list(range(page_base(self.vaddr), self.vaddr + self.size,
                          PAGE_SIZE))

    def physical_line(self, vline):
        """The physical line under virtual line ``vline``."""
        for vstart, pstart, length in self.runs:
            if vstart <= vline < vstart + length:
                return pstart + (vline - vstart)
        raise KeyError(vline)

    def __contains__(self, vaddr):
        return self.vaddr <= vaddr < self.vaddr + self.size


class WatchRegistry:
    """All currently armed watch regions, indexed by range both ways.

    - Virtually, regions never overlap, so the sorted region starts
      answer any address or range query with one bisection.
    - Physically, every run is listed under each frame it touches,
      keyed by its virtual start; a faulting line scans only the runs
      of its own frame.
    """

    def __init__(self):
        self._regions = {}
        #: every region's ``vaddr``, ascending.
        self._starts = []
        #: physical frame base -> {run vstart: (pstart, pend, region)}
        #: for every run touching that frame.
        self._frames = {}
        self._armed_lines = 0

    def __len__(self):
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.values())

    @property
    def armed_line_count(self):
        """Number of cache lines currently armed across all regions."""
        return self._armed_lines

    def add(self, region):
        vaddr = region.vaddr
        if vaddr in self._regions:
            raise SyscallError(f"region at {vaddr:#x} is already watched")
        starts = self._starts
        index = bisect_left(starts, vaddr)
        if index < len(starts) and starts[index] < vaddr + region.size:
            raise SyscallError(
                f"line {starts[index]:#x} already belongs to a watched "
                f"region")
        if index:
            before = self._regions[starts[index - 1]]
            if before.vaddr + before.size > vaddr:
                raise SyscallError(
                    f"line {vaddr:#x} already belongs to a watched region")
        starts.insert(index, vaddr)
        self._regions[vaddr] = region
        frames = self._frames
        for vstart, pstart, length in region.runs:
            entry = (pstart, pstart + length, region)
            for frame in range(page_base(pstart), pstart + length,
                               PAGE_SIZE):
                runs = frames.get(frame)
                if runs is None:
                    frames[frame] = {vstart: entry}
                else:
                    runs[vstart] = entry
        self._armed_lines += region.line_count

    def remove(self, vaddr):
        region = self._regions.pop(vaddr, None)
        if region is None:
            raise SyscallError(f"no watched region at {vaddr:#x}")
        del self._starts[bisect_left(self._starts, vaddr)]
        frames = self._frames
        for vstart, pstart, length in region.runs:
            for frame in range(page_base(pstart), pstart + length,
                               PAGE_SIZE):
                runs = frames[frame]
                del runs[vstart]
                if not runs:
                    del frames[frame]
        self._armed_lines -= region.line_count
        return region

    def get(self, vaddr):
        return self._regions.get(vaddr)

    def region_of_vline(self, vline):
        """The region holding the line at ``vline``, or ``None``."""
        index = bisect_right(self._starts, vline)
        if index:
            region = self._regions[self._starts[index - 1]]
            if vline < region.vaddr + region.size:
                return region
        return None

    def resolve_physical_line(self, pline):
        """Return ``(region, virtual_line)`` for a physical line or None."""
        runs = self._frames.get(pline - (pline % PAGE_SIZE), {})
        for vstart, (pstart, pend, region) in runs.items():
            if pstart <= pline < pend:
                return region, vstart + (pline - pstart)
        return None

    def covers_virtual(self, vaddr):
        """True when ``vaddr`` lies inside any watched region."""
        return self.region_of_vline(vaddr) is not None

    def overlaps_range(self, vaddr, size):
        """True when ``[vaddr, vaddr+size)`` touches any armed line.

        ``Kernel.munmap``'s check: a range that still holds an armed
        line must not be unmapped.  Regions never overlap and are
        line-aligned, so only the last one that starts at or before
        the range's last byte can reach into the range.
        """
        if size <= 0:
            return False
        starts = self._starts
        index = bisect_right(starts, vaddr + size - 1)
        if not index:
            return False
        region = self._regions[starts[index - 1]]
        return region.vaddr + region.size > vaddr

    def all_regions(self):
        return list(self._regions.values())

    def state_dict(self):
        """Every region as ``[vaddr, size, runs]`` in arming order (the
        order the per-frame run maps were filled in)."""
        return {"regions": [
            [region.vaddr, region.size,
             [list(run) for run in region.runs]]
            for region in self._regions.values()
        ]}

    def load_state(self, state, dram_size):
        """Re-register :meth:`state_dict` output into an empty
        registry; every run must lie inside the ``dram_size`` bytes of
        installed DRAM."""
        if self._regions:
            raise ValueError("the watch registry is not empty")
        for vaddr, size, runs in table(state["regions"], (INT, INT, LIST),
                                       "regions"):
            runs = [tuple(run) for run in table(runs, (INT, INT, INT),
                                                "runs")]
            for _vstart, pstart, length in runs:
                if pstart < 0 or pstart + length > dram_size:
                    raise ValueError(
                        f"watched run [{pstart:#x}, {pstart + length:#x}) "
                        f"lies outside DRAM of {dram_size:#x} bytes")
            self.add(WatchedRegion(vaddr, size, runs))
