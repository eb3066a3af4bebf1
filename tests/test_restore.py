"""Restore-then-continue equals the straight run, on random runs.

The differential contract of checkpoint restore: a run checkpointed at
a random request boundary and resumed from its state image must end
in exactly the state of the same run executed straight through --
metrics, the full event trace, DRAM, the cache's lines (tag, dirty
bit, LRU stamp, bytes), the TLB, the ground truth, the workload's own
state (its input RNG included) and the leak and corruption reports.
Each example draws the workload (from every workload the image
covers), buggy or normal input, the monitor, the monitoring stack on
or off and the boundary.

Restore verifies by the image alone, which cannot see state that
``capture_state`` reads but no ``state_dict`` carries.  So each
example also captures the checkpointing run's sections at the
boundary (an image-free ``capture_checkpoint``) and requires the
sections ``with_sections`` re-captures from the restored image to
equal them (``compare_checkpoints``).
"""

import gc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runner import CACHE_SIZE, run_workload
from repro.core.sampling import SamplingPolicy
from repro.machine.machine import Machine
from repro.obs.checkpoint import (
    capture_checkpoint,
    compare_checkpoints,
    resume_checkpoint,
    with_sections,
)
from repro.obs.export import snapshot_document
from repro.obs.snapshot import event_to_dict
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.obs.state import IMAGE_MONITORS
from repro.workloads.registry import WORKLOADS

#: the monitoring stack of bench's monitored workload, at a finer
#: sampling interval so short runs take several samples.
STACK = {"sample_every": 50_000, "trend": "page-hinkley", "history": True}

#: DRAM of every machine: room for the 24 MiB heap, half the default
#: 64 MiB so each example boots, digests and frees less memory.
DRAM_SIZE = 32 * 1024 * 1024


def run(workload, monitor, buggy, requests, stack, sampling,
        boundary=None):
    """One run; with ``boundary``, capture there a checkpoint and the
    image-free capture of the same state.

    Returns ``(machine, monitor, truth, captured)``, ``captured``
    holding the ``checkpoint`` and its ``sections`` twin.
    """
    machine = Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                      cache_ways=16)
    config = MonitorStackConfig(
        monitor=monitor, **(STACK if stack else {}),
        sampling=(SamplingPolicy(rate=0.5, seed=3) if sampling else None))
    run_info = {"workload": workload, "monitor": monitor, "buggy": buggy,
                "requests": requests, "seed": 0}
    live = build_monitor_stack(config, machine=machine, run_info=run_info)
    captured = {}

    def hook(index, truth):
        if index == boundary:
            capture = {
                "machine": machine, "monitor": live.monitor,
                "run_info": {**run_info,
                             "monitoring": live.monitoring_info()},
                "request_index": index, "sampler": live.sampler,
                "engine": live.engine, "trend": live.trend,
                "history": live.history}
            captured["sections"] = capture_checkpoint(**capture)
            captured["checkpoint"] = capture_checkpoint(**capture,
                                                        truth=truth)

    live.start()
    try:
        # A checkpointing run stops right after its boundary; resume
        # continues to the recorded horizon.
        result = run_workload(
            workload, monitor, buggy=buggy,
            requests=requests if boundary is None else boundary + 1,
            machine=machine, monitor=live.monitor, request_hook=hook)
    finally:
        live.stop()
    return machine, live.monitor, result.truth, captured


def cache_lines(machine):
    """The cache's lines as ``(tag, dirty, stamp, bytes)``, in set
    order, plus the LRU clock."""
    return machine.cache.lines(), machine.cache._tick


def tlb_slots(machine):
    return [None if slot is None else slot[:3] + (slot[3].vpn,)
            for slot in machine.mmu._tlb]


def workload_state(workload):
    """The workload's recorded fields plus its input RNGs, read from
    the generators themselves."""
    inner = getattr(workload, "inner", None)
    return (workload.state_dict(), workload.rng.getstate(),
            inner.rng.getstate() if inner is not None else None)


def final_state(machine, monitor, truth):
    """Everything the contract compares, as plain values."""
    return {
        "metrics": snapshot_document(machine.metrics.snapshot())["metrics"],
        "events": [event_to_dict(event)
                   for event in machine.events.query()],
        "dram": machine.dram.digest(),
        "cache": cache_lines(machine),
        "tlb": tlb_slots(machine),
        "truth": (sorted(truth.leaked_addresses), truth.corruption,
                  truth.requests_completed, truth.cycle_marks,
                  str(truth.detection)),
        "workload": workload_state(monitor.program.workload),
        "leak_reports": getattr(monitor, "leak_reports", None),
        "corruption_reports": getattr(monitor, "corruption_reports", None),
    }


@st.composite
def runs(draw):
    monitor = draw(st.sampled_from(IMAGE_MONITORS))
    requests = draw(st.integers(min_value=3, max_value=14))
    return {
        "workload": draw(st.sampled_from(sorted(WORKLOADS))),
        "monitor": monitor,
        "buggy": draw(st.booleans()),
        "requests": requests,
        "stack": draw(st.booleans()),
        "sampling": monitor != "native" and draw(st.booleans()),
        "boundary": draw(st.integers(min_value=0,
                                     max_value=requests - 2)),
    }


@settings(max_examples=36, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_restore_then_continue_equals_the_straight_run(spec):
    spec = dict(spec)
    boundary = spec.pop("boundary")
    straight = final_state(*run(**spec)[:3])
    _, _, _, captured = run(**spec, boundary=boundary)
    checkpoint = captured["checkpoint"]
    assert "state" in checkpoint
    ok, message = compare_checkpoints(captured["sections"],
                                      with_sections(checkpoint))
    assert ok, message
    resumed = resume_checkpoint(checkpoint)
    assert resumed.restored is True
    assert resumed.verified is True, resumed.verify_message
    assert final_state(resumed.machine, resumed.monitor,
                       resumed.truth) == straight
    # Machines hold reference cycles (probes, handlers); free this
    # example's three before the next boots.
    del resumed
    gc.collect()
