"""Micro-benchmark for bulk block copies through the span walk.

Measures simulator throughput (real ops/sec) of two access shapes,
each issued through ``machine.load``/``machine.store``:

- ``word_loads``   -- 8-byte loads over hot resident lines: one
  translation and one one-line cache span per op, paying the whole
  access path's Python dispatch on every op,
- ``block_copies`` -- 16 KiB stores and loads: one translation per
  page and one cache span per page (``Machine._walk``).

Both shapes take the same fault-retry span walk, as do access plans
(``machine.run_ops``), so the gate is the span walk's own: one 16 KiB
block op must cost less than 64 word loads.

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

from repro.common.constants import PAGE_SIZE
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
    # Touch every page once so every repetition starts demand-filled.
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


def _time_phase(plan_factory):
    """Best-of-N wall-clock ops/sec for one plan.

    Fresh machines per repetition so LRU/dirty state never leaks
    between timings.
    """
    plan = plan_factory()
    best = 0.0
    for _ in range(REPEATS):
        machine = _make_machine()
        _warmup(machine, plan)
        gc.collect()
        gc.disable()
        try:
            wall = time.perf_counter()
            ops = _run_scalar(machine, plan)
            best = max(best, ops / (time.perf_counter() - wall))
        finally:
            gc.enable()
    return best


def run_benchmark():
    phases = {
        "word_loads": _word_load_plan,
        "block_copies": _block_plan,
    }
    report = {"benchmark": "batch", "word_ops": WORD_OPS,
              "block_ops": BLOCK_OPS}
    for phase, factory in phases.items():
        report[f"{phase}_scalar_ops_per_sec"] = _time_phase(factory)
    write_bench_json("batch", report)
    return report


def test_bench_batch():
    report = run_benchmark()
    # One 16 KiB block op (256 resident lines) must cost less than 64
    # scalar word loads.
    assert (report["block_copies_scalar_ops_per_sec"] * 64
            >= report["word_loads_scalar_ops_per_sec"])


def main():
    report = run_benchmark()
    print(f"wrote {RESULT_PATH}")
    for phase in ("word_loads", "block_copies"):
        print(f"{phase:>12}: "
              f"{report[f'{phase}_scalar_ops_per_sec']:>10.0f} ops/s")


if __name__ == "__main__":
    main()
