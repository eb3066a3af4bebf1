"""The benchmark's workload configurations keep their simulated state.

Host-time optimizations of the simulator must leave every simulated
result unchanged.  This test pins that for short runs of the
configurations ``bench/`` times, plus a codec variant they do not:
each run's cycle and idle-cycle counts, and SHA-256 digests of its
metrics snapshot, its whole event trace, and the DRAM data and check
bytes, must equal the values committed in
``tests/data/simulated_state.json``.

Each run also has a restore leg: the same run with one checkpoint
landing mid-run must reproduce the committed values (capturing a
state image is observation-only), and so must the run resumed from
that checkpoint's state image.

A change that is meant to alter simulated results (a new cost, a new
event) regenerates the file, from the repository root::

    PYTHONPATH=src python tests/test_simulated_state.py

and says in its change notes why the figures moved.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.analysis.runner import CACHE_SIZE, DRAM_SIZE, run_workload
from repro.machine.machine import Machine
from repro.obs.checkpoint import load_checkpoint, resume_checkpoint
from repro.obs.export import snapshot_document
from repro.obs.snapshot import event_to_dict
from repro.obs.stack import MonitorStackConfig, build_monitor_stack

DATA = pathlib.Path(__file__).resolve().parent / "data" \
    / "simulated_state.json"

#: the sampler, trend and history stack of bench's monitored workload;
#: its sampler timer stays armed for the whole run.
MONITORED = {"sample_every": 100_000, "trend": "page-hinkley",
             "history": True}

#: name -> (application, buggy input, requests, stack settings,
#: extra machine settings).
RUNS = {
    "gzip-safemem": ("gzip", False, 200, {}, {}),
    "gzip-safemem-buggy": ("gzip", True, 301, {}, {}),
    "squid1-safemem": ("squid1", False, 300, {}, {}),
    "squid1-safemem-buggy": ("squid1", True, 300, {}, {}),
    "ypserv1-monitored": ("ypserv1", True, 300, MONITORED, {}),
    "gzip-safemem-chipkill": ("gzip", False, 200, {},
                              {"profile": "chipkill-server"}),
}


def _sha256(document):
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run(name, checkpoint_every=None, checkpoint_dir=None):
    """Run one configuration of :data:`RUNS`; return its stack."""
    app, buggy, requests, stack, boot = RUNS[name]
    machine = Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                      cache_ways=16, **boot)
    config = MonitorStackConfig(
        **stack, checkpoint_every=checkpoint_every,
        checkpoint_dir=(str(checkpoint_dir)
                        if checkpoint_dir is not None else None))
    run_info = {"workload": app, "monitor": config.monitor,
                "buggy": buggy, "requests": requests, "seed": 0}
    monitor_stack = build_monitor_stack(config, machine=machine,
                                        run_info=run_info)
    monitor_stack.start()
    try:
        run_workload(app, config.monitor, buggy=buggy, requests=requests,
                     machine=machine, monitor=monitor_stack.monitor,
                     request_hook=monitor_stack.request_hook)
    finally:
        monitor_stack.stop()
        monitor_stack.close()
    return monitor_stack


def simulated_state(name):
    """Run one configuration of :data:`RUNS`; return its fingerprint."""
    return fingerprint(run(name).machine)


def fingerprint(machine):
    """Cycles plus digests of metrics, events and DRAM of a machine."""
    dram = machine.dram.digest()
    return {
        "cycles": machine.clock.cycles,
        "idle_cycles": machine.clock.idle_cycles,
        "metrics": _sha256(snapshot_document(machine.metrics.snapshot())),
        "events": _sha256([event_to_dict(event)
                           for event in machine.events.query()]),
        "dram_data": dram["data"],
        "dram_check": dram["check"],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_every_configuration_is_recorded(recorded):
    assert set(recorded) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulated_state_is_unchanged(recorded, name):
    assert simulated_state(name) == recorded[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_restore_reproduces_the_simulated_state(recorded, name, tmp_path):
    # One checkpoint lands once 60% of the run's cycles have passed.
    every = recorded[name]["cycles"] * 3 // 5
    stack = run(name, checkpoint_every=every, checkpoint_dir=tmp_path)
    assert fingerprint(stack.machine) == recorded[name]
    path, = stack.checkpoint_paths
    resumed = resume_checkpoint(load_checkpoint(path))
    assert resumed.restored is True
    assert resumed.verified is True, resumed.verify_message
    assert fingerprint(resumed.machine) == recorded[name]


def main():
    DATA.parent.mkdir(exist_ok=True)
    states = {name: simulated_state(name) for name in RUNS}
    DATA.write_text(json.dumps(states, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(states)} runs to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
