"""Stateful property testing (hypothesis rule-based machines).

Random interleavings of program operations against reference models:
the allocator against an interval bookkeeper and a plain first-fit
placement loop, the range-indexed watch registry against per-line
dicts, and a SafeMem-monitored program against a plain dict of
expected buffer contents.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.common.constants import (
    CACHE_LINE_SIZE,
    PAGE_SIZE,
    align_up,
    line_base,
)
from repro.common.errors import OutOfMemory, SyscallError
from repro.core.config import full_config
from repro.core.safemem import SafeMem
from repro.heap.allocator import MIN_ALIGNMENT, Allocator
from repro.kernel.watchregistry import WatchedRegion, WatchRegistry
from repro.machine.machine import Machine
from repro.machine.program import Program

ARENA_BASE = 0x2000_0000
ARENA_SIZE = 256 * 1024


def first_fit(free_addrs, free_sizes, size, alignment):
    """Reference placement: the aligned address in the first free
    extent, in address order, that holds the block; None when none
    does.  Visits every extent, with no size prefilter."""
    granted = align_up(size, MIN_ALIGNMENT)
    for index in range(len(free_addrs)):
        extent_addr = free_addrs[index]
        extent_size = free_sizes[index]
        aligned = align_up(extent_addr, alignment)
        waste_front = aligned - extent_addr
        if waste_front + granted > extent_size:
            continue
        return aligned
    return None


class AllocatorMachine(RuleBasedStateMachine):
    """The allocator places first-fit, never overlaps, never escapes,
    always coalesces."""

    def __init__(self):
        super().__init__()
        self.allocator = Allocator(ARENA_BASE, ARENA_SIZE)
        self.live = {}

    def _malloc(self, size, alignment):
        allocator = self.allocator
        expected = first_fit(list(allocator._free_addrs),
                             list(allocator._free_sizes), size, alignment)
        if expected is None:
            # OOM under fragmentation is legal, and only then.
            with pytest.raises(OutOfMemory):
                allocator.malloc(size, alignment=alignment)
            return None
        address = allocator.malloc(size, alignment=alignment)
        assert address == expected
        assert address % alignment == 0
        self.live[address] = allocator.lookup(address).size
        return address

    @rule(size=st.integers(min_value=1, max_value=4096),
          alignment=st.sampled_from([16, 32, 64, 4096]))
    def malloc(self, size, alignment):
        self._malloc(size, alignment)

    @precondition(lambda self: self.allocator._free_sizes)
    @rule(index=st.integers(min_value=0, max_value=10 ** 6))
    def malloc_exact_fit(self, index):
        """Request exactly one free extent's size (the first extent's
        often), so an extent with ``granted == extent size`` is the
        one first-fit takes."""
        allocator = self.allocator
        index %= len(allocator._free_sizes)
        extent_addr = allocator._free_addrs[index]
        address = self._malloc(allocator._free_sizes[index],
                               MIN_ALIGNMENT)
        if address == extent_addr:
            # The whole extent is consumed; none is left at its start.
            assert extent_addr not in allocator._free_addrs

    @precondition(lambda self: self.live)
    @rule(index=st.integers(min_value=0, max_value=10 ** 6))
    def free(self, index):
        address = sorted(self.live)[index % len(self.live)]
        self.allocator.free(address)
        del self.live[address]

    @invariant()
    def no_overlap_and_conservation(self):
        spans = sorted((a, a + s) for a, s in self.live.items())
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for start, end in spans:
            assert ARENA_BASE <= start and end <= ARENA_BASE + ARENA_SIZE
        used = sum(s for s in self.live.values())
        assert self.allocator.free_bytes() + used == ARENA_SIZE

    def teardown(self):
        for address in list(self.live):
            self.allocator.free(address)
        assert self.allocator.free_bytes() == ARENA_SIZE


#: the registry machine's virtual pages, mapped onto a random choice of
#: frames among twice as many.
VBASE = 0x4000_0000
VPAGES = 6
VLINES = VPAGES * PAGE_SIZE // CACHE_LINE_SIZE


class WatchRegistryMachine(RuleBasedStateMachine):
    """The range-indexed watch registry answers as per-line dicts do.

    The model is the per-line design the registry replaced: virtual
    line -> region and physical line -> (region, virtual line).
    Regions span pages whose frames are a random permutation, so their
    runs split where frames do not adjoin and merge where they do.
    """

    @initialize(frames=st.permutations(range(2 * VPAGES)))
    def boot(self, frames):
        self.frames = frames[:VPAGES]
        self.registry = WatchRegistry()
        self.by_vline = {}
        self.by_pline = {}

    def physical(self, vline):
        page, offset = divmod(vline - VBASE, PAGE_SIZE)
        return self.frames[page] * PAGE_SIZE + offset

    def kernel_runs(self, vaddr, size):
        """The runs the kernel builds: one translation per page, and
        adjoining frames extend the previous run."""
        runs = []
        page = vaddr - (vaddr - VBASE) % PAGE_SIZE
        while page < vaddr + size:
            start = max(page, vaddr)
            length = min(page + PAGE_SIZE, vaddr + size) - start
            pstart = self.physical(start)
            if runs and runs[-1][1] + runs[-1][2] == pstart:
                runs[-1] = (runs[-1][0], runs[-1][1], runs[-1][2] + length)
            else:
                runs.append((start, pstart, length))
            page += PAGE_SIZE
        return runs

    @rule(line=st.integers(0, VLINES - 1), lines=st.integers(1, 150),
          by_lines=st.booleans())
    def add(self, line, lines, by_lines):
        vaddr = VBASE + line * CACHE_LINE_SIZE
        size = min(lines, VLINES - line) * CACHE_LINE_SIZE
        line_map = {vline: self.physical(vline)
                    for vline in range(vaddr, vaddr + size,
                                       CACHE_LINE_SIZE)}
        runs = self.kernel_runs(vaddr, size)
        from_lines = WatchedRegion(vaddr, size, lines=line_map)
        assert from_lines.runs == runs
        region = from_lines if by_lines else \
            WatchedRegion(vaddr, size, runs)
        assert region.lines == line_map
        if any(vline in self.by_vline for vline in line_map):
            with pytest.raises(SyscallError):
                self.registry.add(region)
            return
        self.registry.add(region)
        for vline, pline in line_map.items():
            self.by_vline[vline] = region
            self.by_pline[pline] = (region, vline)

    @precondition(lambda self: self.by_vline)
    @rule(index=st.integers(min_value=0, max_value=10 ** 6))
    def remove(self, index):
        regions = sorted({id(r): r for r in self.by_vline.values()}
                         .values(), key=lambda r: r.vaddr)
        region = regions[index % len(regions)]
        assert self.registry.remove(region.vaddr) is region
        for vline, pline in region.lines.items():
            del self.by_vline[vline]
            del self.by_pline[pline]

    @rule(line=st.integers(-2, VLINES + 1),
          delta=st.sampled_from([0, 1, 32, CACHE_LINE_SIZE - 1]),
          size=st.one_of(st.sampled_from([-1, 0, 1, CACHE_LINE_SIZE - 1,
                                          CACHE_LINE_SIZE,
                                          CACHE_LINE_SIZE + 1]),
                         st.integers(0, 3 * PAGE_SIZE)))
    def overlaps_range(self, line, delta, size):
        vaddr = VBASE + line * CACHE_LINE_SIZE + delta
        expected = size > 0 and any(
            vline in self.by_vline
            for vline in range(line_base(vaddr), vaddr + size,
                               CACHE_LINE_SIZE))
        assert self.registry.overlaps_range(vaddr, size) == expected

    @invariant()
    def lookups_match_the_per_line_model(self):
        registry = self.registry
        assert registry.armed_line_count == len(self.by_vline)
        for vline in range(VBASE - CACHE_LINE_SIZE,
                           VBASE + VPAGES * PAGE_SIZE + CACHE_LINE_SIZE,
                           CACHE_LINE_SIZE):
            region = self.by_vline.get(vline)
            assert registry.region_of_vline(vline) is region
            assert registry.covers_virtual(vline + 7) == (region is not None)
        for frame in range(2 * VPAGES):
            for pline in range(frame * PAGE_SIZE, (frame + 1) * PAGE_SIZE,
                               CACHE_LINE_SIZE):
                assert registry.resolve_physical_line(pline) == \
                    self.by_pline.get(pline)


class MonitoredProgramMachine(RuleBasedStateMachine):
    """A SafeMem-monitored program behaves like a dict of buffers."""

    @initialize()
    def boot(self):
        machine = Machine(dram_size=16 * 1024 * 1024)
        self.program = Program(machine, monitor=SafeMem(full_config()),
                               heap_size=4 * 1024 * 1024)
        self.model = {}
        self.counter = 0

    @rule(size=st.integers(min_value=1, max_value=512))
    def malloc_and_fill(self, size):
        address = self.program.malloc(size)
        payload = bytes((self.counter + i) % 256 for i in range(size))
        self.counter += 1
        self.program.store(address, payload)
        self.model[address] = payload

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0, max_value=10 ** 6))
    def free_one(self, index):
        address = sorted(self.model)[index % len(self.model)]
        self.program.free(address)
        del self.model[address]

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0, max_value=10 ** 6),
          offset=st.integers(min_value=0, max_value=64))
    def partial_update(self, index, offset):
        address = sorted(self.model)[index % len(self.model)]
        payload = self.model[address]
        offset = min(offset, len(payload) - 1)
        self.program.store(address + offset, b"\xf0")
        self.model[address] = (payload[:offset] + b"\xf0"
                               + payload[offset + 1:])

    @precondition(lambda self: self.model)
    @invariant()
    def contents_match_model(self):
        # Check one buffer per step (checking all is O(n^2) overall).
        address = next(iter(self.model))
        expected = self.model[address]
        assert self.program.load(address, len(expected)) == expected

    @invariant()
    def no_reports_on_legal_program(self):
        monitor = self.program.monitor
        assert monitor.corruption_reports == []

    @invariant()
    def tlb_slots_match_their_pages(self):
        """What ``Mmu.load_state`` demands of a state image's TLB holds
        on a straight run: each slot sits at its page's index and
        caches a present page with its entry's frame and protection."""
        machine = self.program.machine
        tlb = machine.mmu.state_dict()["tlb"]
        for index, slot in enumerate(tlb):
            if slot is not None:
                vpn, frame_base, prot = slot
                entry = machine.page_table.entry(vpn)
                assert vpn % len(tlb) == index
                assert entry.present
                assert (frame_base, prot) == (entry.pfn * PAGE_SIZE,
                                              entry.prot)


AllocatorMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)
WatchRegistryMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)
MonitoredProgramMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=20, deadline=None,
)

TestAllocatorStateful = AllocatorMachine.TestCase
TestWatchRegistryStateful = WatchRegistryMachine.TestCase
TestMonitoredProgramStateful = MonitoredProgramMachine.TestCase
