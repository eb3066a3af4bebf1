"""Micro-benchmark for the batched execution engine.

Measures simulator throughput (real ops/sec) for the same bulk access
plans executed two ways:

- ``scalar``  -- one ``machine.load``/``machine.store`` call per
  operation: the per-access fast path, paying Python dispatch, TLB
  lookup, and fault-retry framing on every op,
- ``batched`` -- the whole plan through ``machine.run_ops``: one
  translation per page run, resident lines touched directly in the L1
  set, whole-line spans moved through the hierarchy in one call.

Both paths are cycle- and event-identical by contract (pinned by
``tests/test_machine_batch.py``); this benchmark shows the real-time
win and asserts it stays >= 2x for bulk word traffic.  Multi-line ops
take the same cache span walk on both paths, so block copies gate
against scalar word loads instead.

Writes ``BENCH_batch.json`` at the repo root and prints a summary.
Run directly (``python benchmarks/bench_batch.py``) or through pytest
(marked ``slow``, so the tier-1 run never pays for it).
"""

import gc
import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import pytest

from conftest import write_bench_json

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.machine.machine import Machine

pytestmark = pytest.mark.slow

BASE = 0x4000_0000
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_batch.json"

#: operations per timed phase.
WORD_OPS = 30_000
BLOCK_OPS = 1_500
#: timed repetitions per phase; best-of keeps the numbers stable.
REPEATS = 5


def _make_machine():
    machine = Machine(dram_size=8 * 1024 * 1024)
    machine.kernel.mmap(BASE, 64 * PAGE_SIZE)
    return machine


def _word_load_plan():
    # 512 hot lines across 8 pages, revisited: the steady-state shape
    # of gzip's block reads after warmup.
    addresses = [BASE + (i * 8) % (8 * PAGE_SIZE) for i in range(WORD_OPS)]
    return [("load", address, 8) for address in addresses]


def _word_store_plan():
    payload = b"\xa5" * 8
    addresses = [BASE + (i * 8) % (8 * PAGE_SIZE) for i in range(WORD_OPS)]
    return [("store", address, payload) for address in addresses]


def _block_plan():
    # Whole-buffer moves (4 KiB spans), the tar/gzip bulk-copy shape:
    # the span path's one-translation-per-page + line-sized codec calls.
    block = b"\x42" * (4 * PAGE_SIZE)
    plan = []
    for i in range(BLOCK_OPS):
        offset = (i % 8) * 4 * PAGE_SIZE
        plan.append(("store", BASE + offset, block))
        plan.append(("load", BASE + offset, len(block)))
    return plan


def _warmup(machine, plan):
    # Touch every page once so both paths start demand-filled.
    pages = {vaddr - (vaddr % PAGE_SIZE) for _, vaddr, _ in plan}
    for page in sorted(pages):
        machine.store(page, bytes(8))


def _run_scalar(machine, plan):
    load = machine.load
    store = machine.store
    for kind, vaddr, arg in plan:
        if kind == "load":
            load(vaddr, arg)
        else:
            store(vaddr, arg)
    return len(plan)


def _run_batched(machine, plan):
    machine.run_ops(plan)
    return len(plan)


def _time_phase(plan_factory):
    """Best-of-N ops/sec for the same plan, scalar vs batched.

    Fresh machines per repetition so LRU/dirty state never leaks
    between timings; cycle identity across the two paths is asserted
    on every repetition.  The speedup is the best of the *paired*
    per-repetition ratios, computed from process CPU time -- both
    modes run back to back inside each repetition and contention from
    other processes never counts against either side, so the ratio is
    stable even on a loaded host.  The reported ops/sec stay
    wall-clock, like the other benchmarks.
    """
    plan = plan_factory()
    best = {"scalar": 0.0, "batched": 0.0, "speedup": 0.0}
    for _ in range(REPEATS):
        rates = {}
        cpu = {}
        cycles = {}
        for mode, runner in (("scalar", _run_scalar),
                             ("batched", _run_batched)):
            machine = _make_machine()
            _warmup(machine, plan)
            gc.collect()
            gc.disable()
            try:
                wall = time.perf_counter()
                used = time.process_time()
                ops = runner(machine, plan)
                cpu[mode] = time.process_time() - used
                rates[mode] = ops / (time.perf_counter() - wall)
            finally:
                gc.enable()
            best[mode] = max(best[mode], rates[mode])
            cycles[mode] = machine.clock.cycles
        assert cycles["scalar"] == cycles["batched"], (
            f"cycle divergence: {cycles}")
        best["speedup"] = max(best["speedup"],
                              cpu["scalar"] / cpu["batched"])
    return best


def run_benchmark():
    phases = {
        "word_loads": _word_load_plan,
        "word_stores": _word_store_plan,
        "block_copies": _block_plan,
    }
    report = {"benchmark": "batch", "word_ops": WORD_OPS,
              "block_ops": BLOCK_OPS}
    for phase, factory in phases.items():
        best = _time_phase(factory)
        report[f"{phase}_scalar_ops_per_sec"] = best["scalar"]
        report[f"{phase}_batched_ops_per_sec"] = best["batched"]
        report[f"{phase}_speedup"] = best["speedup"]
    write_bench_json("batch", report)
    return report


def test_bench_batch():
    report = run_benchmark()
    # The acceptance gate: bulk word traffic through run_ops must be at
    # least 2x the scalar fast path.
    assert report["word_loads_speedup"] >= 2.0
    assert report["word_stores_speedup"] >= 2.0
    # Block copies take the same span walk batched or scalar, so their
    # gate is the span walk's own: one 16 KiB block op (256 resident
    # lines) must cost less than 64 scalar word loads.
    assert (report["block_copies_scalar_ops_per_sec"] * 64
            >= report["word_loads_scalar_ops_per_sec"])


def main():
    report = run_benchmark()
    print(f"wrote {RESULT_PATH}")
    for phase in ("word_loads", "word_stores", "block_copies"):
        print(
            f"{phase:>12}: scalar "
            f"{report[f'{phase}_scalar_ops_per_sec']:>10.0f} ops/s | "
            f"batched "
            f"{report[f'{phase}_batched_ops_per_sec']:>10.0f} ops/s | "
            f"{report[f'{phase}_speedup']:.2f}x"
        )


if __name__ == "__main__":
    main()
