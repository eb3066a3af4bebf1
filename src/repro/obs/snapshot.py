"""State capture and re-execution shared by bundles and checkpoints.

Forensic bundles (``repro.dump/v1``) and checkpoints
(``repro.checkpoint/v1``) are one idea used twice: a recipe for the
run (``run`` + ``machine`` sections) plus a frozen picture of the
machine, and a way to re-drive the recipe from its seed.  This module
holds both halves once:

- :func:`capture_state` -- the sections a bundle and a checkpoint
  without a state image carry (the recipe of :func:`capture_recipe`:
  clock, run, boot config; then metrics, event tail, watches,
  interrupts, heap map, leak groups);
  :func:`~repro.obs.forensics.capture_bundle` and
  :func:`~repro.obs.checkpoint.capture_checkpoint` add only their own;
- :class:`Rerun` -- the one re-execution driver: check the document
  against its schema's field table (:data:`CAPTURE`, :data:`RUN`,
  :data:`MACHINE`), boot an identical machine, rebuild the
  monitor and the recorded monitoring stack through
  :func:`~repro.obs.stack.assemble_monitor_stack`, and run the
  workload through :meth:`~repro.obs.stack.MonitorStack.run` with a
  request hook -- from its seed, or continuing from a checkpoint's
  state image (:mod:`repro.obs.state`).
  ``replay_bundle`` arms breakpoints on it; ``resume_checkpoint``
  restores through it, or replays and verifies from its request
  hook; ``with_sections`` restores through it and breaks at once.

Capture is observation-only: it reads registries, rings and tables but
never ticks the simulated clock or emits events.
"""

import json
import pathlib
import re

from repro.analysis.runner import MONITOR_FACTORIES, make_monitor
from repro.common.errors import ConfigurationError, MachinePanic, ReproError
from repro.common.events import jsonable
from repro.common.schema import Field, Table
from repro.common.state import BOOL, INT, LIST, NULL, OBJECT, TEXT
from repro.core.sampling import SamplingPolicy
from repro.ecc.controller import EccMode
from repro.machine.machine import Machine
from repro.obs.export import METRICS, snapshot_document
from repro.obs.sampler import group_stats
from repro.obs.stack import MONITORING, assemble_monitor_stack
from repro.workloads.registry import WORKLOADS

#: events kept in a document's tail (newest; the full log stays in RAM).
EVENT_TAIL_LIMIT = 256

#: live allocations listed in a heap map (largest first).
HEAP_MAP_LIMIT = 512

#: leak groups listed in a document (largest live_bytes first).
GROUP_LIMIT = 64


def event_to_dict(event):
    """One :class:`~repro.common.events.Event` as a JSON-able record.

    The same encoding is used at capture time and at replay-verify
    time, so stream comparison is bit-exact by construction.
    """
    return {
        "kind": event.kind.value,
        "cycle": event.cycle,
        "address": event.address,
        "size": event.size,
        "detail": {key: jsonable(value)
                   for key, value in sorted(event.detail.items())},
    }


def heap_map(allocator):
    """Allocator totals plus the :data:`HEAP_MAP_LIMIT` largest live
    blocks."""
    blocks = sorted(allocator.live_allocations(),
                    key=lambda a: (-a.size, a.address))
    return {
        "live_bytes": sum(block.size for block in blocks),
        "live_blocks": len(blocks),
        "total_allocs": allocator.total_allocs,
        "total_frees": allocator.total_frees,
        "peak_live_bytes": allocator.peak_live_bytes,
        "truncated": max(0, len(blocks) - HEAP_MAP_LIMIT),
        "allocations": [
            {"address": block.address, "size": block.size,
             "requested_size": block.requested_size}
            for block in blocks[:HEAP_MAP_LIMIT]
        ],
    }


def safe_label(label):
    """A label reduced to file-name-safe characters."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", str(label)).strip("-") or "run"


#: the ``run`` section: how to re-drive the run (``workload`` and
#: ``monitor`` must also be registered names, see :func:`check_run_info`).
RUN = Table("run", {
    "workload": Field(TEXT, required=False, what="a workload name"),
    "monitor": Field(TEXT, required=False, what="a monitor name"),
    "buggy": Field(BOOL, required=False),
    "requests": Field(INT | NULL, required=False, low=1),
    "heap_size": Field(INT, required=False, low=1),
    "seed": Field(INT, required=False),
    "monitoring": Field(OBJECT, required=False, table=MONITORING),
}, label="recorded run", whole="recorded run section")

#: the ``machine`` section: ``Machine.boot_config`` (an ``ecc_mode``
#: must also be an ``EccMode``, see :func:`machine_from_config`).
MACHINE = Table("machine", {
    **{field: Field(INT, required=False)
       for field in ("dram_size", "cache_size", "cache_ways",
                     "cache_levels", "l1_size", "l1_ways")},
    "max_pinned_pages": Field(INT | NULL, required=False),
    "ecc_mode": Field(TEXT, required=False, what="an ECC mode name"),
    "profile": Field(TEXT | NULL, required=False, what="a profile name"),
}, label="recorded machine", whole="recorded machine section",
    closed=True)

#: the sections :func:`capture_state` writes into every bundle and
#: checkpoint.
CAPTURE = Table("capture", {
    "cycle": INT,
    "idle_cycles": INT,
    "run": Field(OBJECT, table=RUN),
    "machine": Field(OBJECT, table=MACHINE),
    "metrics": Field(OBJECT, table=METRICS),
    "events.total": INT,
    "events.tail": Field(LIST, items={
        "kind": TEXT, "cycle": INT, "address": INT | NULL,
        "size": INT | NULL, "detail": OBJECT}),
    "watches": Field(LIST, items={"lines": LIST}),
    "interrupts.delivered": INT,
    "interrupts.panics": INT,
    "interrupts.handler_registered": BOOL,
    "interrupts.ecc_traps": INT,
    "heap": OBJECT | NULL,
    **{f"heap.{field}": INT
       for field in ("live_bytes", "live_blocks", "total_allocs",
                     "total_frees", "peak_live_bytes", "truncated")},
    "heap.allocations": Field(LIST, items={
        "address": INT, "size": INT, "requested_size": INT}),
    "groups": Field(LIST, items=dict.fromkeys(
        ("size", "call_signature", "live_count", "live_bytes",
         "total_allocated", "total_freed", "max_lifetime",
         "stable_time"), INT)),
})


def check_run_info(run):
    """Reject a recorded workload or monitor name nothing registers,
    with a :class:`ConfigurationError` naming the field."""
    for field, names in (("workload", WORKLOADS),
                         ("monitor", MONITOR_FACTORIES)):
        if run[field] not in names:
            raise ConfigurationError(
                f"recorded run field {field!r} must be one of "
                f"{', '.join(sorted(names))}, got {run[field]!r}")


def machine_from_config(config):
    """Boot a fresh machine from a document's (checked) ``machine``
    section.

    An unknown ECC mode raises :class:`ConfigurationError` naming the
    field; values no machine can have (a cache geometry that does not
    divide, an unknown profile) raise the machine's own.
    """
    kwargs = dict(config)
    if "ecc_mode" in kwargs:
        try:
            kwargs["ecc_mode"] = EccMode(kwargs["ecc_mode"])
        except ValueError:
            raise ConfigurationError(
                f"recorded machine field 'ecc_mode' must be one of "
                f"{', '.join(mode.value for mode in EccMode)}, got "
                f"{kwargs['ecc_mode']!r}") from None
    return Machine(**kwargs)


def capture_recipe(machine, run_info=None):
    """The sections every bundle and checkpoint starts with: the clock,
    the ``run`` recipe and the boot config."""
    return {
        "cycle": machine.clock.cycles,
        "idle_cycles": machine.clock.idle_cycles,
        "run": dict(run_info or {}),
        "machine": dict(getattr(machine, "boot_config", {})),
    }


def capture_state(machine, monitor=None, run_info=None):
    """The sections a bundle and a checkpoint share, as one dict."""
    cycle = machine.clock.cycles
    kernel = machine.kernel
    irq = kernel.interrupts
    state = {
        **capture_recipe(machine, run_info),
        "metrics": snapshot_document(machine.metrics.snapshot()),
        "events": {
            "total": len(machine.events),
            "tail": [event_to_dict(event)
                     for event in machine.events.query(
                         limit=EVENT_TAIL_LIMIT)],
        },
        "watches": [
            {"vaddr": region.vaddr, "size": region.size,
             "lines": [[vline, pline]
                       for vline, pline in sorted(region.lines.items())]}
            for region in sorted(kernel.watches.all_regions(),
                                 key=lambda r: r.vaddr)
        ],
        "interrupts": {
            "delivered": irq.delivered,
            "panics": irq.panics,
            "handler_registered": irq.user_handler is not None,
            "ecc_traps": kernel.ecc_traps,
            "pinned_pages": kernel.pinned_pages,
        },
        "heap": None,
        "groups": [],
    }
    program = getattr(monitor, "program", None)
    if getattr(program, "allocator", None) is not None:
        state["heap"] = heap_map(program.allocator)
    leak = getattr(monitor, "leak", None)
    if leak is not None:
        state["groups"] = group_stats(leak.groups, limit=GROUP_LIMIT,
                                      now=cycle)
    return state


def write_document(document, path):
    """Write a document to ``path`` as indented, key-sorted JSON
    (parent directories created); returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


class RerunBreak(ReproError):
    """Control-flow exception: a rerun breakpoint was reached."""


class Rerun:
    """One re-execution of a recorded run, from its seed or a state
    image.

    ``document`` is a bundle or a checkpoint, checked against its
    schema's ``table``, whose ``run`` section names the workload and
    monitor (``verb`` words the error when it does not).  Construction
    boots an identical machine and rebuilds the monitor and the
    recorded monitoring stack, with the sampler already started -- so
    breakpoint timers armed on :attr:`machine` afterwards fire after
    the sampler at equal cycles, as they always have (:meth:`run`'s
    start is then a no-op).  ``requests`` overrides the recorded
    horizon.
    """

    def __init__(self, document, table, verb, requests=None):
        run = table.check(document)["run"]
        if "workload" not in run or "monitor" not in run:
            raise ConfigurationError(
                f"{table.label} records no run (workload/monitor); it was "
                f"captured without run_info and cannot be {verb}"
            )
        check_run_info(run)
        self.run_info = run = dict(run)
        self.requests = (requests if requests is not None
                         else run.get("requests"))
        self.machine = machine_from_config(document["machine"])
        monitoring = run.get("monitoring", {})
        self.monitor = make_monitor(
            run["monitor"],
            sampling=(SamplingPolicy.from_dict(monitoring["sampling"])
                      if "sampling" in monitoring else None))
        self.stack = assemble_monitor_stack(
            monitoring, self.machine, self.monitor,
            run_info=dict(run, requests=self.requests)).start()
        self.truth = self.panic = None
        #: event-log length and cycle at the breakpoint (None = no break).
        self.break_index = self.break_cycle = None

    def break_here(self, cycle):
        """Stop the rerun now; call from a clock timer or event hook."""
        self.break_index = len(self.machine.events)
        self.break_cycle = cycle
        raise RerunBreak(f"replay breakpoint at cycle {cycle}")

    def run(self, request_hook=None, restore=None):
        """Run the workload through :meth:`MonitorStack.run`; a panic
        or a breakpoint ends it quietly.

        ``restore`` continues from a state image instead of the seed
        (see :func:`~repro.analysis.runner.run_workload`).
        """
        try:
            self.truth = self.stack.run(request_hook=request_hook,
                                        restore=restore).truth
        except RerunBreak:
            pass
        except MachinePanic as error:
            self.panic = str(error)
        except ReproError:
            # A break raised mid-request can surface as a teardown error
            # during unwind; the breakpoint state is already recorded.
            if self.break_index is None:
                raise
        return self
