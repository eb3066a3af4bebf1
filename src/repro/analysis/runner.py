"""Experiment runner: drive a workload under a monitor, collect results."""

from dataclasses import dataclass, field

from repro.baselines.pageprot import PageProtGuard
from repro.baselines.purify import Purify
from repro.common.constants import CYCLES_PER_SECOND
from repro.common.errors import ConfigurationError
from repro.core.config import (
    corruption_only_config,
    full_config,
    leak_only_config,
)
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.monitor import NullMonitor
from repro.machine.program import Program
from repro.workloads.registry import get_workload

#: default machine sizing for all experiments (64 MiB "server" with a
#: 2 MiB last-level cache, so the workloads' buffer working sets fit
#: regardless of the allocator layout the attached monitor induces).
DRAM_SIZE = 64 * 1024 * 1024
HEAP_SIZE = 24 * 1024 * 1024
CACHE_SIZE = 2 * 1024 * 1024


@dataclass
class RunResult:
    """Outcome of one (workload, monitor, mode) run.

    ``cycles`` and ``metrics`` are *per-run deltas*: when a machine is
    reused across workloads they cover only this run, not the
    machine's lifetime totals.
    """

    workload: str
    monitor_name: str
    buggy: bool
    cycles: int
    truth: object
    monitor: object
    machine: object
    program: object = None
    requests: int = 0
    #: registry snapshot delta over this run (a Snapshot; counters are
    #: per-run, gauges are end-of-run values).
    metrics: object = None
    extra: dict = field(default_factory=dict)

    @property
    def cpu_seconds(self):
        return self.cycles / CYCLES_PER_SECOND


#: observers called with every finished :class:`RunResult` but a
#: baseline's (a native overhead twin's).  The fleet scheduler installs
#: a tap in each worker process to accumulate the telemetry of every
#: machine its jobs run (the machines themselves never cross the
#: process boundary; their registry dumps do).
_RUN_TAPS = []


def add_run_tap(tap):
    """Register ``tap(result)`` to observe every finished run."""
    _RUN_TAPS.append(tap)
    return tap


def remove_run_tap(tap):
    """Unregister a tap installed with :func:`add_run_tap`."""
    _RUN_TAPS.remove(tap)


#: observers called with ``(machine, monitor, run_info)`` as each run
#: starts -- before the workload's first request, after the program is
#: mapped.  Forensic auto-dump uses this to attach a recorder to every
#: machine a validation shard boots, however deep in an experiment the
#: boot happens; ``run_info`` carries exactly the fields a
#: ``repro.dump/v1`` bundle needs to make the run replayable.
_BOOT_TAPS = []


def add_boot_tap(tap):
    """Register ``tap(machine, monitor, run_info)`` on run start."""
    _BOOT_TAPS.append(tap)
    return tap


def remove_boot_tap(tap):
    """Unregister a tap installed with :func:`add_boot_tap`."""
    _BOOT_TAPS.remove(tap)


MONITOR_FACTORIES = {
    "native": lambda: NullMonitor(),
    "profiler": lambda: _make_profiler(),
    "safemem-ml": lambda: SafeMem(leak_only_config()),
    "safemem-mc": lambda: SafeMem(corruption_only_config()),
    "safemem": lambda: SafeMem(full_config()),
    "purify": lambda: Purify(),
    "pageprot": lambda: PageProtGuard(),
}

#: monitors that understand an allocation :class:`SamplingPolicy`.
SAMPLING_CONFIGS = {
    "safemem-ml": leak_only_config,
    "safemem-mc": corruption_only_config,
    "safemem": full_config,
}


def _make_profiler():
    # Local: only the profiler monitor needs it.
    from repro.core.profiler import LifetimeProfiler
    return LifetimeProfiler()


def make_monitor(name, sampling=None):
    """Instantiate a monitor by its short experiment name.

    ``sampling`` (a :class:`~repro.core.sampling.SamplingPolicy`)
    builds the SafeMem variants in sampled production mode; requesting
    it for a monitor that can't sample is a configuration error rather
    than a silent always-on run.
    """
    if sampling is not None:
        try:
            config = SAMPLING_CONFIGS[name]
        except KeyError:
            raise ConfigurationError(
                f"monitor {name!r} does not support allocation "
                f"sampling; choose from {sorted(SAMPLING_CONFIGS)}"
            ) from None
        return SafeMem(config(sampling=sampling))
    try:
        return MONITOR_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown monitor {name!r}; choose from "
            f"{sorted(MONITOR_FACTORIES)}"
        ) from None


def boot_machine(profile=None, cost_model=None):
    """The experiment machine: :data:`DRAM_SIZE` of DRAM behind a
    :data:`CACHE_SIZE` 16-way last-level cache, built for chipset
    ``profile`` (default e7500), charging ``cost_model`` (default
    :func:`~repro.common.costs.default_cost_model`)."""
    return Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                   cache_ways=16, cost_model=cost_model, profile=profile)


def run_workload(workload_name, monitor_name="native", buggy=False,
                 requests=None, seed=0, heap_size=HEAP_SIZE,
                 monitor=None, machine=None, release=False,
                 request_hook=None, restore=None, run_info=None,
                 baseline=False):
    """Run one workload under one monitor; return a :class:`RunResult`.

    ``buggy=False`` is the paper's overhead-measurement setting (normal
    inputs, the bug never fires); ``buggy=True`` is the detection run.
    Pass ``monitor`` to use a pre-built monitor instance (e.g. a
    SafeMem with a non-default config); ``monitor_name`` is then only
    used as the label.

    Pass ``machine`` to reuse a booted machine across workloads (by
    default the run boots :func:`boot_machine`).  The
    result's ``cycles`` and ``metrics`` are registry snapshot deltas
    bracketing this run, so earlier runs on the same machine cannot
    skew its accounting.  The previous program's address space must
    have been released (``release=True`` does it for this run's
    program once the workload finishes).

    ``request_hook`` is passed through to
    :meth:`~repro.workloads.base.Workload.run` -- an observation-only
    callback at each request boundary (checkpoint capture).

    ``restore(program, workload)`` continues a checkpointed run instead
    of starting one: it loads a state image into the freshly built
    program and workload (which then resumes at the captured request
    boundary), and the run goes on inside the restored
    ``workload.<name>`` span.

    ``run_info`` is the recorded run the boot taps receive; by default
    it is built from this call's arguments.
    :meth:`~repro.obs.stack.MonitorStack.run` passes its stack's, so a
    boot tap's recorder records the stack's ``monitoring`` section and
    its bundles replay under the same stack.  A ``baseline`` run (a
    monitored run's native overhead twin) boots like any other but
    reaches no run tap: it is a measurement of the run, not a machine
    of its own, so fleet telemetry must not count it.
    """
    if machine is None:
        machine = boot_machine()
    if monitor is None:
        monitor = make_monitor(monitor_name)
    start = machine.metrics.snapshot()
    program = Program(machine, monitor=monitor, heap_size=heap_size)
    workload = get_workload(workload_name, requests=requests, seed=seed)
    if _BOOT_TAPS:
        if run_info is None:
            run_info = {
                "workload": workload_name,
                "monitor": monitor_name,
                "buggy": buggy,
                "requests": workload.requests,
                "seed": seed,
                "heap_size": heap_size,
            }
        for tap in _BOOT_TAPS:
            tap(machine, monitor, run_info)
    tracer = machine.tracer
    if restore is None:
        span = tracer.start(f"workload.{workload_name}",
                            monitor=monitor_name, buggy=buggy)
    else:
        restore(program, workload)
        span = tracer.current
    try:
        truth = workload.run(program, buggy=buggy,
                             request_hook=request_hook)
    finally:
        tracer.finish(span)
    if release:
        program.release()
    end = machine.metrics.snapshot()
    result = RunResult(
        workload=workload_name,
        monitor_name=monitor_name,
        buggy=buggy,
        cycles=end.cycle - start.cycle,
        truth=truth,
        monitor=monitor,
        machine=machine,
        program=program,
        requests=workload.requests,
        metrics=end.delta(start),
    )
    if not baseline:
        for tap in _RUN_TAPS:
            tap(result)
    return result


def overhead_percent(monitored_cycles, native_cycles):
    """Overhead of a monitored run as a percentage over native."""
    if native_cycles == 0:
        return 0.0
    return (monitored_cycles - native_cycles) / native_cycles * 100.0


def slowdown_factor(monitored_cycles, native_cycles):
    """Slowdown of a monitored run as a multiplier over native."""
    if native_cycles == 0:
        return 0.0
    return monitored_cycles / native_cycles
