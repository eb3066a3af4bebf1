"""Tests for the batched execution engine (Machine.run_ops).

The engine's contract is *simulation equivalence*: a plan executed
batched must produce the same results, the same cycle count, the same
event stream, and the same detector-visible behavior as the same ops
issued one by one through the scalar path.  The differential tests here
pin that contract directly by running twin machines; the edge-case
tests cover the paths where the engine must leave its hot loop
(demand fills, swap-ins, armed lines, degenerate plans).
"""

import pytest

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import ConfigurationError
from repro.machine.machine import Machine
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


def _run_twins(plan, prepare=None, machine_kwargs=None):
    """Run ``plan`` batched and scalar on identically prepared machines.

    Returns ``(batched_machine, scalar_machine, batched_results,
    scalar_results)`` after asserting the equivalence contract.
    """
    outcomes = []
    for enabled in (True, False):
        machine = _machine(**(machine_kwargs or {}))
        if prepare is not None:
            prepare(machine)
        original = Machine.batching_enabled
        Machine.batching_enabled = enabled
        try:
            results = machine.run_ops(plan)
        finally:
            Machine.batching_enabled = original
        outcomes.append((machine, results))
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
        assert batched.batched_loads + batched.batched_stores > 0
        assert results[-1][5:8] == b"\x99" * 3

    def test_two_level_hierarchy_identical(self):
        plan = [("store", BASE + i * 64, b"x" * 64) for i in range(600)]
        plan += [("load", BASE + i * 64, 64) for i in range(600)]
        _run_twins(plan, machine_kwargs={"cache_levels": 2})

    def test_timer_inside_a_span_sees_scalar_hit_counts(self):
        # A clock timer that fires between two line hits of one access
        # must read the hit count a per-line walk has published by
        # then, on the batched path as on the scalar one.
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


class TestWorkloadDifferential:
    """The rewritten bulk workloads must be batching-invariant."""

    @pytest.mark.parametrize("workload_cls", [Gzip, Tar])
    @pytest.mark.parametrize("monitor_name", ["native", "safemem"])
    def test_run_is_batching_invariant(self, monkeypatch, workload_cls,
                                       monitor_name):
        from repro.analysis.runner import make_monitor

        def run(enabled):
            monkeypatch.setattr(Machine, "batching_enabled", enabled)
            machine = Machine(cache_levels=2)
            program = Program(machine, monitor=make_monitor(monitor_name))
            workload = workload_cls(requests=30)
            if hasattr(workload, "trigger_block"):
                workload.trigger_block = 15
            if hasattr(workload, "trigger_file"):
                workload.trigger_file = 15
            truth = workload.run(program, buggy=True)
            return machine, truth

        batched_machine, batched_truth = run(True)
        scalar_machine, scalar_truth = run(False)
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
        # ...and only the armed line took the scalar slow path: the 31
        # clean lines still went through the batched engine.
        assert batched.batched_loads == 31
        assert batched.slow_loads == 1

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
        # Degenerate sizes route through the scalar path (and count
        # there), exactly like direct load/store calls.
        assert batched.slow_loads >= 1
        assert batched.slow_stores >= 1

    def test_unknown_op_kind_rejected(self):
        machine = _machine()
        with pytest.raises(ConfigurationError):
            machine.run_ops([("jump", BASE, 8)])

    def test_load_store_batch_conveniences(self):
        machine = _machine()
        addrs = [BASE + i * 8 for i in range(64)]
        values = [bytes([i]) * 8 for i in range(64)]
        machine.store_batch(addrs, values)
        assert machine.load_batch(addrs) == values
        with pytest.raises(ConfigurationError):
            machine.store_batch(addrs, values[:-1])

    def test_program_batch_api_scalarizes_for_access_monitors(self):
        # A Purify-style monitor overrides before_load/before_store;
        # Program.run_ops must keep feeding it per-op calls.
        seen = []

        from repro.machine.monitor import Monitor

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
