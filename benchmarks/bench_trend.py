"""Micro-benchmark for the streaming trend-analytics cost.

The :class:`TrendEngine` is a pure sample listener: it runs only when
the profiler captures a sample, never on loads or stores, so its whole
production cost is the per-sample Python time spent updating the
per-series detector state (Theil-Sen sorted slopes, CUSUM sum,
Page-Hinkley statistics).  This benchmark measures both sides of that:

- **hot path** -- simulator throughput (real ops/sec) of the unwatched
  fast-path hot loop, in two stacks built by
  :func:`~repro.obs.stack.build_monitor_stack`:

  - ``trend_off`` -- the sampling profiler and alert engine on the
    default rules, no trend analytics;
  - ``trend_on``  -- the same stack with ``trend="theil-sen"``: a
    :class:`TrendEngine` observing every sample (all three detectors
    run on every series) and the Theil-Sen trend rules.

  The acceptance bar is that the trend-enabled hot path stays within
  10% of the trend-off numbers (``ratio >= 0.9``).  The hot loop takes
  only a few samples, so this phase gates the listener's presence on
  the access path, not its per-sample cost;
- **observe** -- ``trend_observes_per_sec``: :meth:`TrendEngine.observe`
  timed directly over :data:`OBSERVE_SAMPLES` synthetic samples with
  the two heap series plus :data:`GROUP_ROWS` group rows and the
  default 32-sample window, so nearly every observation evicts a point.

Writes ``BENCH_trend.json`` at the repo root.  Run directly
(``python benchmarks/bench_trend.py``) or through pytest (marked
``slow``, so the tier-1 run never pays for it).
"""

import pathlib
import random
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import pytest

from conftest import write_bench_json

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.machine.machine import Machine
from repro.obs.sampler import Sample
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.obs.trend import DEFAULT_WINDOW

pytestmark = pytest.mark.slow

BASE = 0x4000_0000
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_trend.json"

#: operations per timed hot-path phase.
HOT_OPS = 40_000

#: sampling interval of the hot-path stacks.
SAMPLE_EVERY = 50_000

#: synthetic samples fed to the observe phase.
OBSERVE_SAMPLES = 2_000

#: group rows per synthetic sample (plus the two heap series).
GROUP_ROWS = 4


def _make_stack(trend_on):
    machine = Machine(dram_size=8 * 1024 * 1024)
    machine.kernel.mmap(BASE, 64 * PAGE_SIZE)
    config = MonitorStackConfig(sample_every=SAMPLE_EVERY,
                                trend="theil-sen" if trend_on else None)
    return build_monitor_stack(config, machine=machine).start()


def _time(fn):
    start = time.perf_counter()
    ops = fn()
    return ops / (time.perf_counter() - start)


def _bench_hot_loads(machine):
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


def _synthetic_samples():
    """Noisy ramps: the heap, the watch pool and four groups."""
    rng = random.Random(0)
    samples = []
    for index in range(OBSERVE_SAMPLES):
        cycle = (index + 1) * SAMPLE_EVERY
        groups = [
            {"size": 32 << row, "call_signature": 0x100 + row,
             "live_bytes": (row + 1) * 16 * index
             + rng.randrange(4096)}
            for row in range(GROUP_ROWS)
        ]
        samples.append(Sample(
            index=index, cycle=cycle,
            metrics={"heap.live_bytes": 64 * index + rng.randrange(65536),
                     "safemem.watch.armed": rng.randrange(64)},
            spans=[], groups=groups, overhead_fraction=0.0))
    return samples


def _bench_observe():
    stack = _make_stack(trend_on=True)
    stack.stop()
    trend = stack.trend
    samples = _synthetic_samples()

    def run():
        observe = trend.observe
        for sample in samples:
            observe(sample)
        return len(samples)

    return _time(run), trend


def run_benchmark():
    off = _make_stack(trend_on=False)
    off_loads = _bench_hot_loads(off.machine)
    off_stores = _bench_hot_stores(off.machine)
    off.stop()

    on = _make_stack(trend_on=True)
    on_loads = _bench_hot_loads(on.machine)
    on_stores = _bench_hot_stores(on.machine)
    on.stop()

    observes_per_sec, observed = _bench_observe()

    report = {
        "benchmark": "trend",
        "hot_ops": HOT_OPS,
        "sample_every": SAMPLE_EVERY,
        "samples_taken": on.sampler.samples_taken,
        "trend_evaluations": on.trend.evaluations,
        "configs": {
            "trend_off": {
                "hot_loads_ops_per_sec": off_loads,
                "hot_stores_ops_per_sec": off_stores,
            },
            "trend_on": {
                "hot_loads_ops_per_sec": on_loads,
                "hot_stores_ops_per_sec": on_stores,
            },
        },
        "trend_ratio_loads": on_loads / off_loads,
        "trend_ratio_stores": on_stores / off_stores,
        "observe": {
            "samples": OBSERVE_SAMPLES,
            "series": 2 + GROUP_ROWS,
            "window": observed.window,
            "evaluations": observed.evaluations,
        },
        "trend_observes_per_sec": observes_per_sec,
    }
    write_bench_json("trend", report)
    return report


def test_bench_trend():
    report = run_benchmark()
    # The run must actually have fed the trend engine -- a zero-sample
    # run would "pass" by measuring nothing.
    assert report["samples_taken"] > 0
    assert report["trend_evaluations"] == report["samples_taken"]
    assert report["trend_ratio_loads"] >= 0.9
    assert report["trend_ratio_stores"] >= 0.9
    observe = report["observe"]
    assert observe["window"] == DEFAULT_WINDOW
    assert observe["evaluations"] == OBSERVE_SAMPLES >= 1_000
    assert report["trend_observes_per_sec"] > 0


def main():
    report = run_benchmark()
    off = report["configs"]["trend_off"]
    on = report["configs"]["trend_on"]
    print(f"wrote {RESULT_PATH}")
    for phase in ("hot_loads", "hot_stores"):
        key = f"{phase}_ops_per_sec"
        print(
            f"{phase:>10}: trend off {off[key]:>10.0f} ops/s | "
            f"on {on[key]:>10.0f} ops/s"
        )
    print(
        f"trend-on ratio: loads "
        f"{report['trend_ratio_loads']:.3f}, stores "
        f"{report['trend_ratio_stores']:.3f} "
        f"({report['samples_taken']} samples, "
        f"{report['trend_evaluations']} trend evaluations)"
    )
    observe = report["observe"]
    print(
        f"   observe: {report['trend_observes_per_sec']:>10.0f} "
        f"samples/s ({observe['series']} series, window "
        f"{observe['window']}, {observe['samples']} samples)"
    )


if __name__ == "__main__":
    main()
