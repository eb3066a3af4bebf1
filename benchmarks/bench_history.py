"""Micro-benchmark for the tiered-history hot-path cost and the
checkpoint capture/resume latency.

The :class:`HistoryStore` is a pure sample listener, exactly like the
trend engine: it runs only when the profiler captures a sample, never
on loads or stores, so its whole production cost is the per-sample
Python time spent folding the sample into the retention tiers.  The
first half of this benchmark measures simulator throughput (real
ops/sec) for the unwatched fast-path hot loop in two configurations:

- ``history_off`` -- the full sampling stack (profiler + alert engine
  on the default rules) with no history store: the PR-before baseline,
- ``history_on``  -- the same stack plus a :class:`HistoryStore`
  observing every sample at the default tier layout.

The acceptance bar is that the history-enabled hot path stays within
10% of the history-off numbers (``ratio >= 0.9``).

The second half times the long-horizon maintenance operations as plain
latencies (``*_seconds`` keys, excluded from regression comparison):
one ``capture_checkpoint`` of a monitored run (state image included),
and one verified ``resume_checkpoint`` (which restores the image, so
it costs a fixed load plus the continuation, whatever the recorded
horizon).  Writes ``BENCH_history.json`` at the repo
root.  Run directly (``python benchmarks/bench_history.py``) or
through pytest (marked ``slow``, so the tier-1 run never pays for it).
"""

import pathlib
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import pytest

from conftest import write_bench_json

from repro.analysis.runner import run_workload
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.machine.machine import Machine
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.checkpoint import (
    capture_checkpoint,
    load_checkpoint,
    resume_checkpoint,
)
from repro.obs.history import HistoryStore
from repro.obs.sampler import SamplingProfiler
from repro.obs.stack import MonitorStackConfig, build_monitor_stack

pytestmark = pytest.mark.slow

BASE = 0x4000_0000
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_history.json"

#: operations per timed phase.
HOT_OPS = 40_000

#: sampling interval under test (small enough that the timed loop
#: takes many samples, so the history store really runs).
SAMPLE_EVERY = 50_000

#: requests in the checkpointed run the latency half times.
CHECKPOINT_REQUESTS = 30


def _make_machine():
    machine = Machine(dram_size=8 * 1024 * 1024)
    machine.kernel.mmap(BASE, 64 * PAGE_SIZE)
    return machine


def _attach_stack(machine, history_on):
    sampler = SamplingProfiler(machine, interval_cycles=SAMPLE_EVERY)
    engine = AlertEngine(default_rules(), events=machine.events,
                         metrics=machine.metrics)
    history = None
    sampler.add_listener(engine.evaluate)
    if history_on:
        history = HistoryStore()
        sampler.add_listener(history.observe)
    sampler.start()
    return sampler, history


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


def _bench_checkpoint_latency():
    """Time one capture and one verified resume of a monitored run."""
    with tempfile.TemporaryDirectory() as tmp:
        config = MonitorStackConfig(
            sample_every=SAMPLE_EVERY, trend="theil-sen", history=True,
            checkpoint_every=5_000_000, checkpoint_dir=tmp)
        run_info = {"workload": "ypserv1", "monitor": "safemem",
                    "buggy": True, "requests": CHECKPOINT_REQUESTS,
                    "seed": 0}
        stack = build_monitor_stack(config, run_info=run_info)
        stack.start()
        try:
            run_workload("ypserv1", "safemem", buggy=True,
                         requests=CHECKPOINT_REQUESTS,
                         machine=stack.machine, monitor=stack.monitor,
                         request_hook=stack.request_hook)
            start = time.perf_counter()
            capture_checkpoint(
                stack.machine, monitor=stack.monitor, run_info=run_info,
                request_index=CHECKPOINT_REQUESTS,
                sampler=stack.sampler, engine=stack.engine,
                trend=stack.trend, history=stack.history)
            capture_seconds = time.perf_counter() - start
            written = sorted(pathlib.Path(tmp).glob("*.ckpt.json"))
        finally:
            stack.stop()
            stack.close()
        checkpoint = load_checkpoint(written[-1])
        start = time.perf_counter()
        resumed = resume_checkpoint(checkpoint, verify=True)
        resume_seconds = time.perf_counter() - start
        assert resumed.verified
        return capture_seconds, resume_seconds, len(written)


def run_benchmark():
    off = _make_machine()
    off_sampler, _ = _attach_stack(off, history_on=False)
    off_loads = _bench_hot_loads(off)
    off_stores = _bench_hot_stores(off)
    off_sampler.stop()

    on = _make_machine()
    on_sampler, history = _attach_stack(on, history_on=True)
    on_loads = _bench_hot_loads(on)
    on_stores = _bench_hot_stores(on)
    on_sampler.stop()

    capture_seconds, resume_seconds, checkpoints = \
        _bench_checkpoint_latency()

    report = {
        "benchmark": "history",
        "hot_ops": HOT_OPS,
        "sample_every": SAMPLE_EVERY,
        "samples_taken": on_sampler.samples_taken,
        "history_observations": history.observations,
        "configs": {
            "history_off": {
                "hot_loads_ops_per_sec": off_loads,
                "hot_stores_ops_per_sec": off_stores,
            },
            "history_on": {
                "hot_loads_ops_per_sec": on_loads,
                "hot_stores_ops_per_sec": on_stores,
            },
        },
        "history_ratio_loads": on_loads / off_loads,
        "history_ratio_stores": on_stores / off_stores,
        "checkpoint_requests": CHECKPOINT_REQUESTS,
        "checkpoints_written": checkpoints,
        "checkpoint_capture_seconds": capture_seconds,
        "checkpoint_resume_seconds": resume_seconds,
    }
    write_bench_json("history", report)
    return report


def test_bench_history():
    report = run_benchmark()
    # The run must actually have fed the history store -- a zero-sample
    # run would "pass" by measuring nothing.
    assert report["samples_taken"] > 0
    assert report["history_observations"] == report["samples_taken"]
    assert report["history_ratio_loads"] >= 0.9
    assert report["history_ratio_stores"] >= 0.9
    assert report["checkpoints_written"] > 0


def main():
    report = run_benchmark()
    off = report["configs"]["history_off"]
    on = report["configs"]["history_on"]
    print(f"wrote {RESULT_PATH}")
    for phase in ("hot_loads", "hot_stores"):
        key = f"{phase}_ops_per_sec"
        print(
            f"{phase:>10}: history off {off[key]:>10.0f} ops/s | "
            f"on {on[key]:>10.0f} ops/s"
        )
    print(
        f"history-on ratio: loads "
        f"{report['history_ratio_loads']:.3f}, stores "
        f"{report['history_ratio_stores']:.3f} "
        f"({report['samples_taken']} samples)"
    )
    print(
        f"checkpoint: capture "
        f"{report['checkpoint_capture_seconds'] * 1000:.1f} ms, "
        f"verified resume "
        f"{report['checkpoint_resume_seconds'] * 1000:.1f} ms "
        f"({report['checkpoints_written']} written over "
        f"{report['checkpoint_requests']} requests)"
    )


if __name__ == "__main__":
    main()
