"""Micro-benchmark for the fast-path memory system.

Measures simulator throughput (real ops/sec, not simulated cycles) for
load/store traffic in two configurations:

- ``unarmed``    -- normal machine, zero armed lines,
- ``armed_line`` -- one unrelated line is ECC-watched (the paper's
  armed state).

Every access takes the same fault-retry span walk in both, with the
TLB and the batched codec; the two configurations should run at the
same rate, because arming a line changes nothing for the lines that
are not armed.

Writes ``BENCH_memfast.json`` at the repo root and prints a summary.
Run directly (``python benchmarks/bench_memfast.py``) or through pytest
(marked ``slow``, so the tier-1 run never pays for it).
"""

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
from repro.obs.export import snapshot_document

pytestmark = pytest.mark.slow

BASE = 0x4000_0000
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_memfast.json"

#: operations per timed phase.
HOT_OPS = 40_000
MISS_OPS = 4_000


def _make_machine(armed=False):
    machine = Machine(dram_size=8 * 1024 * 1024)
    machine.kernel.mmap(BASE, 64 * PAGE_SIZE)
    if armed:
        # Watch one line far from the benchmark's working set.
        victim = BASE + 63 * PAGE_SIZE
        machine.store(victim, bytes(CACHE_LINE_SIZE))
        machine.kernel.register_ecc_fault_handler(lambda info: False)
        machine.kernel.watch_memory(victim, CACHE_LINE_SIZE)
    return machine


def _time(fn):
    start = time.perf_counter()
    ops = fn()
    return ops / (time.perf_counter() - start)


def _bench_hot_loads(machine):
    # 16 hot lines in one page: after warmup every access is a TLB hit
    # plus a cache hit -- the pure common-path cost.
    addresses = [BASE + i * CACHE_LINE_SIZE for i in range(16)]
    for address in addresses:
        machine.store(address, bytes(8))

    def run():
        load = machine.load
        for i in range(HOT_OPS):
            load(addresses[i & 15], 8)
        return HOT_OPS

    return _time(run)


def _bench_hot_stores(machine):
    addresses = [BASE + i * CACHE_LINE_SIZE for i in range(16)]
    for address in addresses:
        machine.store(address, bytes(8))
    payload = b"\xa5" * 8

    def run():
        store = machine.store
        for i in range(HOT_OPS):
            store(addresses[i & 15], payload)
        return HOT_OPS

    return _time(run)


def _bench_miss_loads(machine):
    # Working set far larger than the 256 KiB cache: every access is a
    # line fill (plus eventual dirty write-backs), so throughput is
    # dominated by the ECC codec -- the batched-codec showcase.
    span = 48 * PAGE_SIZE
    stride = 17 * CACHE_LINE_SIZE

    def run():
        load = machine.load
        cursor = 0
        for _ in range(MISS_OPS):
            load(BASE + cursor, 8)
            cursor = (cursor + stride) % span
        return MISS_OPS

    return _time(run)


def _bench_config(name, **kwargs):
    results = {}
    machine = _make_machine(**kwargs)
    start = machine.metrics.snapshot()
    results["hot_loads_ops_per_sec"] = _bench_hot_loads(machine)
    results["hot_stores_ops_per_sec"] = _bench_hot_stores(machine)
    results["miss_loads_ops_per_sec"] = _bench_miss_loads(machine)
    # The timed phases' counters, as a repro.metrics/v1 document
    # (snapshot delta, so setup traffic from _make_machine and the
    # warmup stores is excluded).
    results["metrics"] = snapshot_document(
        machine.metrics.snapshot() - start,
        meta={"benchmark": "memfast", "config": name},
    )
    return results


def run_benchmark():
    configs = {
        "unarmed": _bench_config("unarmed"),
        "armed_line": _bench_config("armed_line", armed=True),
    }
    report = {
        "benchmark": "memfast",
        "hot_ops": HOT_OPS,
        "miss_ops": MISS_OPS,
        "configs": configs,
    }
    write_bench_json("memfast", report)
    return report


def test_bench_memfast():
    report = run_benchmark()
    # Every timed load is a direct access through the one walk.
    for config in report["configs"].values():
        assert config["metrics"]["metrics"]["machine.load.slow"] == \
            HOT_OPS + MISS_OPS


def main():
    report = run_benchmark()
    unarmed = report["configs"]["unarmed"]
    armed = report["configs"]["armed_line"]
    print(f"wrote {RESULT_PATH}")
    for phase in ("hot_loads", "hot_stores", "miss_loads"):
        key = f"{phase}_ops_per_sec"
        print(
            f"{phase:>11}: unarmed {unarmed[key]:>10.0f} ops/s | "
            f"armed {armed[key]:>10.0f} ops/s"
        )


if __name__ == "__main__":
    main()
