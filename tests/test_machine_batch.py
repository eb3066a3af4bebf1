"""Tests for access plans (Machine.run_ops).

The contract is *simulation equivalence*: a plan run through
``run_ops`` must produce the same results, the same cycle count, the
same event stream, and the same detector-visible behavior as the same
ops issued one by one through ``load``/``store``.  The differential
tests here pin that contract directly by running twin machines, on
hand-picked plans and on random ones (armed lines, a clock timer,
three cache geometries); the edge-case tests cover plans that reach
demand fills, swap-ins, armed lines and degenerate sizes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import ConfigurationError
from repro.core.config import full_config
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.monitor import Monitor, NullMonitor
from repro.machine.program import Program
from repro.workloads.gzip_ import Gzip
from repro.workloads.tar_ import Tar

BASE = 0x4000_0000


def _machine(**kwargs):
    kwargs.setdefault("dram_size", 4 * 1024 * 1024)
    machine = Machine(**kwargs)
    machine.kernel.mmap(BASE, 32 * PAGE_SIZE)
    return machine


def _event_trace(machine):
    return [(e.kind, e.cycle, e.address) for e in machine.events.query()]


def _op_by_op(machine, plan):
    """The scalar twin: ``plan`` issued through ``load``/``store``."""
    return [machine.load(vaddr, arg) if kind == "load"
            else machine.store(vaddr, arg)
            for kind, vaddr, arg in plan]


def _run_twins(plan, prepare=None, machine_kwargs=None):
    """Run ``plan`` as a plan and op by op on identically prepared
    machines.

    Returns ``(batched_machine, scalar_machine, batched_results,
    scalar_results)`` after asserting the equivalence contract.
    """
    outcomes = []
    for run in (Machine.run_ops, _op_by_op):
        machine = _machine(**(machine_kwargs or {}))
        if prepare is not None:
            prepare(machine)
        outcomes.append((machine, run(machine, plan)))
    (batched, b_results), (scalar, s_results) = outcomes
    assert b_results == s_results
    assert batched.clock.cycles == scalar.clock.cycles
    assert _event_trace(batched) == _event_trace(scalar)
    assert batched.cache.hits == scalar.cache.hits
    assert batched.cache.misses == scalar.cache.misses
    assert batched.cache.writebacks == scalar.cache.writebacks
    assert batched.cache.evictions == scalar.cache.evictions
    return batched, scalar, b_results, s_results


class TestDifferentialEquivalence:
    def test_bulk_plan_is_cycle_and_event_identical(self):
        plan = [("store", BASE + i * 8, bytes([i % 251]) * 8)
                for i in range(1500)]
        plan += [("load", BASE + i * 8, 8) for i in range(1500)]
        plan += [("store", BASE + 5, b"\x99" * 3000),
                 ("load", BASE, 3 * PAGE_SIZE)]
        batched, _, results, _ = _run_twins(plan)
        assert batched.batched_loads + batched.batched_stores == len(plan)
        assert results[-1][5:8] == b"\x99" * 3

    def test_timer_inside_a_span_sees_scalar_hit_counts(self):
        # A clock timer that fires between two line hits of one access
        # must read the hit count a per-line walk has published by
        # then, in a plan as on the scalar path.
        observed = []

        def prepare(machine):
            machine.store(BASE, bytes(2 * PAGE_SIZE))
            seen = []
            observed.append(seen)
            machine.clock.every(7, lambda clock: seen.append(
                (clock.cycles, machine.cache.hits)))

        plan = [("load", BASE, 2 * PAGE_SIZE),
                ("store", BASE + PAGE_SIZE, b"\x5a" * PAGE_SIZE)]
        _run_twins(plan, prepare=prepare)
        batched_seen, scalar_seen = observed
        assert batched_seen
        assert batched_seen == scalar_seen

    def test_misaligned_and_line_straddling_ops(self):
        plan = [("store", BASE + 60, b"straddle!"),
                ("load", BASE + 60, 9),
                ("load", BASE + PAGE_SIZE - 4, 8),
                ("store", BASE + PAGE_SIZE - 4, b"pagespan"),
                ("load", BASE + PAGE_SIZE - 4, 8)]
        _run_twins(plan)


#: the random plans' address range.
PLAN_PAGES = 6
PLAN_LINES = PLAN_PAGES * PAGE_SIZE // CACHE_LINE_SIZE
MAX_OP = 200

#: op offsets: anywhere in the plan pages; near a 2 KiB stride, so
#: that ops revisit resident lines and contend for the same cache
#: sets; or just below a page boundary, so that longer ops straddle it.
_offsets = st.one_of(
    st.integers(0, PLAN_PAGES * PAGE_SIZE - MAX_OP),
    st.builds(lambda alias, offset: alias * 2048 + offset,
              st.integers(0, PLAN_PAGES * PAGE_SIZE // 2048 - 1),
              st.integers(0, 2 * CACHE_LINE_SIZE)),
    st.builds(lambda page, back: page * PAGE_SIZE - back,
              st.integers(1, PLAN_PAGES - 1), st.integers(1, MAX_OP)),
)
_ops = st.one_of(
    st.tuples(st.just("load"), _offsets, st.integers(0, MAX_OP)),
    st.tuples(st.just("store"), _offsets, st.binary(max_size=MAX_OP)),
)


def _path_counts(machine):
    """``(plan ops, direct accesses)`` counted so far."""
    return (machine.batched_loads + machine.batched_stores,
            machine.slow_loads + machine.slow_stores)


def _watch_regions(spec):
    """Non-overlapping line-aligned ``(vaddr, size)`` regions from
    ``(first line, line count)`` pairs with distinct first lines."""
    spec = sorted(spec)
    ends = [line for line, _count in spec[1:]] + [PLAN_LINES]
    return [(BASE + line * CACHE_LINE_SIZE,
             min(count, end - line) * CACHE_LINE_SIZE)
            for (line, count), end in zip(spec, ends)]


@given(ops=st.lists(_ops, max_size=40),
       warm_pages=st.integers(0, PLAN_PAGES),
       armed=st.lists(st.tuples(st.integers(0, PLAN_LINES - 1),
                                st.integers(1, 3)),
                      max_size=4, unique_by=lambda region: region[0]),
       period=st.none() | st.integers(2, 50),
       geometry=st.sampled_from([{},
                                 {"cache_size": 16 * 1024, "cache_ways": 4},
                                 {"cache_size": 4096, "cache_ways": 2}]))
@settings(max_examples=150, deadline=None)
def test_random_plans_match_op_by_op_execution(ops, warm_pages, armed,
                                               period, geometry):
    plan = [(kind, BASE + offset, arg) for kind, offset, arg in ops]
    twins = []
    for run in (Machine.run_ops, _op_by_op):
        machine = _machine(**geometry)
        if warm_pages:
            machine.store(BASE, bytes(range(256)) * (
                warm_pages * PAGE_SIZE // 256))

        def disarm_faulting_region(info, machine=machine):
            vline = info.vaddr - info.vaddr % CACHE_LINE_SIZE
            region = machine.kernel.watches.region_of_vline(vline)
            machine.kernel.disable_watch_memory(region.vaddr)
            return True

        machine.kernel.register_ecc_fault_handler(disarm_faulting_region)
        for vaddr, size in _watch_regions(armed):
            machine.kernel.watch_memory(vaddr, size)
        seen = []
        if period is not None:
            machine.clock.every(period, lambda clock, machine=machine:
                                seen.append((clock.cycles,
                                             machine.cache.hits)))
        before = _path_counts(machine)
        results = run(machine, plan)
        after = _path_counts(machine)
        twins.append((machine, results, seen,
                      tuple(a - b for a, b in zip(after, before))))

    (batched, b_results, b_seen, b_counts), \
        (scalar, s_results, s_seen, s_counts) = twins
    assert b_results == s_results
    assert batched.clock.cycles == scalar.clock.cycles
    assert _event_trace(batched) == _event_trace(scalar)
    assert b_seen == s_seen
    for counter in ("hits", "misses", "writebacks", "evictions"):
        assert getattr(batched.cache, counter) == \
            getattr(scalar.cache, counter), counter
    for counter in ("tlb_hits", "tlb_misses"):
        assert getattr(batched.mmu, counter) == \
            getattr(scalar.mmu, counter), counter
    assert batched.kernel.ecc_traps == scalar.kernel.ecc_traps
    # Plan ops count as batched; direct calls as direct accesses.
    assert b_counts == (len(plan), 0)
    assert s_counts == (0, len(plan))
    batched.cache.flush_all()
    scalar.cache.flush_all()
    assert batched.dram.digest() == scalar.dram.digest()


def _scalarizing(monitor_cls):
    """``monitor_cls`` with pass-through access hooks: overriding them
    makes ``Program.run_ops`` issue each plan op by op."""

    class Scalarizing(monitor_cls):
        def before_load(self, vaddr, size):
            super().before_load(vaddr, size)

        def before_store(self, vaddr, size):
            super().before_store(vaddr, size)

    return Scalarizing


class TestWorkloadDifferential:
    """The bulk workloads run the same as plans and op by op."""

    @pytest.mark.parametrize("workload_cls", [Gzip, Tar])
    @pytest.mark.parametrize("monitor_name", ["native", "safemem"])
    def test_run_is_batching_invariant(self, workload_cls, monitor_name):
        def run(scalar):
            monitor_cls, args = {
                "native": (NullMonitor, ()),
                "safemem": (SafeMem, (full_config(),)),
            }[monitor_name]
            if scalar:
                monitor_cls = _scalarizing(monitor_cls)
            machine = Machine()
            program = Program(machine, monitor=monitor_cls(*args))
            workload = workload_cls(requests=30)
            if hasattr(workload, "trigger_block"):
                workload.trigger_block = 15
            if hasattr(workload, "trigger_file"):
                workload.trigger_file = 15
            truth = workload.run(program, buggy=True)
            return machine, truth

        batched_machine, batched_truth = run(False)
        scalar_machine, scalar_truth = run(True)
        assert batched_machine.batched_loads > 0
        assert scalar_machine.batched_loads == 0
        assert batched_machine.clock.cycles == scalar_machine.clock.cycles
        assert _event_trace(batched_machine) == _event_trace(scalar_machine)
        assert (batched_truth.detection is None) == \
            (scalar_truth.detection is None)
        assert batched_truth.cycle_marks == scalar_truth.cycle_marks
        if monitor_name == "safemem":
            # The detector verdict itself must match, not just cycles.
            assert scalar_truth.detection is not None


class TestBatchEdgeCases:
    def test_demand_fill_mid_batch(self):
        # Pages beyond the first are untouched before the plan runs, so
        # the batch itself must trigger their demand fills.
        def prepare(machine):
            machine.store(BASE, b"warm")

        plan = [("load", BASE, 8)]
        plan += [("store", BASE + page * PAGE_SIZE + 128, b"deep" * 16)
                 for page in range(1, 8)]
        plan += [("load", BASE + page * PAGE_SIZE + 128, 64)
                 for page in range(1, 8)]
        batched, _, _, _ = _run_twins(plan, prepare=prepare)
        assert batched.mmu.demand_fills >= 7

    def test_batch_crossing_swap_evicted_page(self):
        kwargs = {"dram_size": 16 * PAGE_SIZE, "cache_size": 4 * 1024,
                  "max_pinned_pages": 4}

        def prepare(machine):
            # Touch more pages than DRAM has frames: the early pages
            # get swapped out, so the plan's loads must swap them in.
            for i in range(24):
                machine.store(BASE + i * PAGE_SIZE, bytes([i]) * 8)
            assert machine.swap.swap_outs > 0

        plan = [("load", BASE + i * PAGE_SIZE, 8) for i in range(24)]
        plan += [("load", BASE + PAGE_SIZE - 16, 32)]  # page-crossing
        batched, _, results, _ = _run_twins(
            plan, prepare=prepare, machine_kwargs=kwargs)
        assert batched.swap.swap_ins > 0
        for i in range(24):
            assert results[i] == bytes([i]) * 8

    def test_one_armed_line_among_clean_ones(self):
        fired = []

        def prepare(machine):
            armed = BASE + 7 * CACHE_LINE_SIZE

            def handler(info):
                fired.append(info.vaddr)
                machine.kernel.disable_watch_memory(armed)
                return True

            machine.kernel.register_ecc_fault_handler(handler)
            machine.store(armed, bytes(CACHE_LINE_SIZE))
            machine.kernel.watch_memory(armed, CACHE_LINE_SIZE)

        plan = [("load", BASE + i * CACHE_LINE_SIZE, 32)
                for i in range(32)]
        batched, scalar, _, _ = _run_twins(plan, prepare=prepare)
        # The watchpoint fired exactly once on both paths...
        assert len(fired) == 2  # one per twin machine
        assert batched.kernel.ecc_traps == scalar.kernel.ecc_traps == 1
        # ...and every plan op, the armed line's included, counted as
        # batched: the plan takes the fault-retry walk for each op.
        assert batched.batched_loads == 32
        assert batched.slow_loads == 0

    def test_empty_plan(self):
        machine = _machine()
        assert machine.run_ops([]) == []
        assert machine.clock.cycles == 0

    def test_single_element_batch(self):
        _run_twins([("store", BASE, b"only")])
        _run_twins([("load", BASE, 8)])

    def test_zero_size_ops_match_scalar_semantics(self):
        plan = [("load", BASE, 0), ("store", BASE, b""),
                ("load", BASE, 8)]
        batched, _, results, _ = _run_twins(plan)
        assert results[0] == b""
        assert results[1] is None
        # Degenerate sizes count as plan ops like any other.
        assert batched.batched_loads == 2
        assert batched.batched_stores == 1
        assert batched.slow_loads == batched.slow_stores == 0

    def test_unknown_op_kind_rejected(self):
        machine = _machine()
        with pytest.raises(ConfigurationError):
            machine.run_ops([("jump", BASE, 8)])

    def test_program_batch_api_scalarizes_for_access_monitors(self):
        # A Purify-style monitor overrides before_load/before_store;
        # Program.run_ops must keep feeding it per-op calls.
        seen = []

        class Spy(Monitor):
            name = "spy"

            def before_load(self, vaddr, size):
                seen.append(("load", vaddr, size))

            def before_store(self, vaddr, size):
                seen.append(("store", vaddr, size))

        machine = Machine(dram_size=4 * 1024 * 1024)
        program = Program(machine, monitor=Spy())
        plan = [("store", program.heap_base, b"x" * 8),
                ("load", program.heap_base, 8)]
        program.run_ops(plan)
        assert seen == [("store", program.heap_base, 8),
                        ("load", program.heap_base, 8)]
        assert machine.batched_loads == machine.batched_stores == 0


class TestOverlapsRange:
    def test_page_skip_and_line_hit(self):
        machine = _machine()
        armed = BASE + 4 * PAGE_SIZE + 2 * CACHE_LINE_SIZE
        machine.store(armed, bytes(CACHE_LINE_SIZE))
        machine.kernel.watch_memory(armed, CACHE_LINE_SIZE)
        watches = machine.kernel.watches
        assert not watches.overlaps_range(BASE, 4 * PAGE_SIZE)
        assert watches.overlaps_range(BASE, 5 * PAGE_SIZE)
        assert watches.overlaps_range(armed + CACHE_LINE_SIZE - 1, 1)
        assert not watches.overlaps_range(armed + CACHE_LINE_SIZE, 8)
        assert not watches.overlaps_range(BASE, 0)

    def test_armed_page_index_maintained_on_remove(self):
        machine = _machine()
        armed = BASE + 2 * CACHE_LINE_SIZE
        machine.store(armed, bytes(CACHE_LINE_SIZE))
        machine.kernel.watch_memory(armed, CACHE_LINE_SIZE)
        assert machine.kernel.watches.overlaps_range(BASE, PAGE_SIZE)
        machine.kernel.disable_watch_memory(armed)
        assert not machine.kernel.watches.overlaps_range(BASE, PAGE_SIZE)
