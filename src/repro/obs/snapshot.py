"""State capture and re-execution shared by bundles and checkpoints.

Forensic bundles (``repro.dump/v1``) and checkpoints
(``repro.checkpoint/v1``) are one idea used twice: a recipe for the
run (``run`` + ``machine`` sections) plus a frozen picture of the
machine, and a way to re-drive the recipe from its seed.  This module
holds both halves once:

- :func:`capture_state` -- the sections every document carries (clock,
  run, boot config, metrics, event tail, watches, interrupts, heap map,
  leak groups); :func:`~repro.obs.forensics.capture_bundle` and
  :func:`~repro.obs.checkpoint.capture_checkpoint` add only their own;
- :class:`Rerun` -- the one re-execution driver: validate the recorded
  run, boot an identical machine, rebuild the monitor and the recorded
  monitoring stack through
  :func:`~repro.obs.stack.assemble_monitor_stack`, and run the
  workload with a request hook.  ``replay_bundle`` arms breakpoints on
  it; ``resume_checkpoint`` verifies from its request hook.

Capture is observation-only: it reads registries, rings and tables but
never ticks the simulated clock or emits events.
"""

import json
import pathlib
import re

from repro.common.errors import ConfigurationError, MachinePanic, ReproError
from repro.obs.export import snapshot_document
from repro.obs.sampler import group_stats

#: events kept in a document's tail (newest; the full log stays in RAM).
EVENT_TAIL_LIMIT = 256

#: live allocations listed in a heap map (largest first).
HEAP_MAP_LIMIT = 512

#: leak groups listed in a document (largest live_bytes first).
GROUP_LIMIT = 64


def jsonable(value):
    """A scalar as-is; anything else as its string form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


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


def heap_map(allocator, limit=HEAP_MAP_LIMIT):
    """Allocator totals plus the ``limit`` largest live blocks."""
    blocks = sorted(allocator.live_allocations(),
                    key=lambda a: (-a.size, a.address))
    return {
        "live_bytes": sum(block.size for block in blocks),
        "live_blocks": len(blocks),
        "total_allocs": allocator.total_allocs,
        "total_frees": allocator.total_frees,
        "peak_live_bytes": allocator.peak_live_bytes,
        "truncated": max(0, len(blocks) - limit),
        "allocations": [
            {"address": block.address, "size": block.size,
             "requested_size": block.requested_size}
            for block in blocks[:limit]
        ],
    }


def safe_label(label):
    """A label reduced to file-name-safe characters."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", str(label)).strip("-") or "run"


def machine_from_config(config):
    """Boot a fresh machine from a document's recorded ``machine`` dict."""
    from repro.ecc.controller import EccMode
    from repro.machine.machine import Machine
    kwargs = dict(config or {})
    mode = kwargs.get("ecc_mode")
    if isinstance(mode, str):
        kwargs["ecc_mode"] = EccMode(mode)
    return Machine(**kwargs)


def capture_state(machine, monitor=None, run_info=None,
                  event_tail=EVENT_TAIL_LIMIT,
                  heap_map_limit=HEAP_MAP_LIMIT, group_limit=GROUP_LIMIT):
    """The sections a bundle and a checkpoint share, as one dict."""
    cycle = machine.clock.cycles
    kernel = machine.kernel
    irq = kernel.interrupts
    state = {
        "cycle": cycle,
        "idle_cycles": machine.clock.idle_cycles,
        "run": dict(run_info or {}),
        "machine": dict(getattr(machine, "boot_config", {})),
        "metrics": snapshot_document(machine.metrics.snapshot()),
        "events": {
            "total": len(machine.events),
            "tail": [event_to_dict(event)
                     for event in machine.events.query(limit=event_tail)],
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
        state["heap"] = heap_map(program.allocator, heap_map_limit)
    leak = getattr(monitor, "leak", None)
    if leak is not None:
        state["groups"] = group_stats(leak.groups, limit=group_limit,
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


def read_document(path, schema):
    """Load one JSON document and check its ``schema`` tag."""
    with open(path) as stream:
        document = json.load(stream)
    if not isinstance(document, dict) or document.get("schema") != schema:
        found = (document.get("schema") if isinstance(document, dict)
                 else type(document).__name__)
        raise ConfigurationError(
            f"{path}: not a {schema} document (schema={found!r})"
        )
    return document


class RerunBreak(ReproError):
    """Control-flow exception: a rerun breakpoint was reached."""


class Rerun:
    """One re-execution of a recorded run, from its seed.

    ``document`` is a bundle or a checkpoint whose ``run`` section
    names the workload and monitor (``what``/``verb`` word the error
    when it does not).  Construction boots an identical machine and
    rebuilds the monitor and the recorded monitoring stack, with the
    sampler already started -- so breakpoint timers armed on
    :attr:`machine` afterwards fire after the sampler at equal cycles,
    as they always have.  ``requests`` overrides the recorded horizon.
    """

    def __init__(self, document, what, verb, requests=None):
        from repro.analysis.runner import make_monitor
        from repro.core.sampling import SamplingPolicy
        from repro.obs.stack import assemble_monitor_stack

        run = dict(document.get("run") or {})
        if "workload" not in run or "monitor" not in run:
            raise ConfigurationError(
                f"{what} records no run (workload/monitor); it was "
                f"captured without run_info and cannot be {verb}"
            )
        self.run_info = run
        self.requests = (requests if requests is not None
                         else run.get("requests"))
        self.machine = machine_from_config(document.get("machine"))
        monitoring = run.get("monitoring") or {}
        sampling = monitoring.get("sampling")
        self.monitor = make_monitor(
            run["monitor"],
            sampling=(SamplingPolicy.from_dict(sampling)
                      if sampling is not None else None))
        self.stack = assemble_monitor_stack(monitoring, self.machine,
                                            self.monitor).start()
        self.truth = self.panic = None
        #: event-log length and cycle at the breakpoint (None = no break).
        self.break_index = self.break_cycle = None

    def break_here(self, cycle):
        """Stop the rerun now; call from a clock timer or event hook."""
        self.break_index = len(self.machine.events)
        self.break_cycle = cycle
        raise RerunBreak(f"replay breakpoint at cycle {cycle}")

    def run(self, request_hook=None):
        """Run the workload; a panic or a breakpoint ends it quietly."""
        from repro.analysis.runner import HEAP_SIZE, run_workload

        run = self.run_info
        try:
            self.truth = run_workload(
                run["workload"], run["monitor"],
                buggy=run.get("buggy", False), requests=self.requests,
                seed=run.get("seed", 0),
                heap_size=run.get("heap_size", HEAP_SIZE),
                machine=self.machine, monitor=self.monitor,
                request_hook=request_hook).truth
        except RerunBreak:
            pass
        except MachinePanic as error:
            self.panic = str(error)
        except ReproError:
            # A break raised mid-request can surface as a teardown error
            # during unwind; the breakpoint state is already recorded.
            if self.break_index is None:
                raise
        finally:
            self.stack.stop()
        return self
