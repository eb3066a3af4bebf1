"""Checkpoint/restore for long-horizon runs (``repro.checkpoint/v1``).

A multi-billion-cycle production simulation cannot restart from zero
every time the host process dies.  This module makes a run durable at
**request boundaries** -- the quiescent instants between workload
requests, where no span is mid-flight and no allocation is half done:

- :func:`capture_checkpoint` freezes the machine *and* the whole
  monitoring stack into one versioned JSON document: boot config,
  clock, DRAM/check-bit digests, the metrics snapshot, the event-log
  tail, watch registry, interrupt state, the allocator heap map and
  leak-group tables, plus the profiler ring, alert-engine state
  machines, trend-detector accumulators/latches/seasonal baselines,
  and history tiers (their ``state_dict`` payloads embedded verbatim);
- :class:`CheckpointScheduler` captures automatically every
  ``--checkpoint-every N`` cycles, evaluated at request boundaries via
  pure arithmetic -- **no clock timer is registered**, so a run
  behaves bit-identically with checkpointing on or off;
- :func:`resume_checkpoint` implements **reconstructive restore**: the
  simulation has no wall clock and no unseeded randomness, so resume
  re-executes the recorded run from its seed, *verifies* the
  reconstructed state against the checkpoint at the recorded request
  boundary (every top-level section must match bit-exactly, DRAM via
  SHA-256 digests), and then continues to the requested horizon.  The
  differential contract: run-to-N -> checkpoint -> resume-to-M equals
  a straight run to M in events, metrics, ALERT/TREND cycles, and
  verdict.

Capture is observation-only (reads registries, rings, digests; never
ticks the clock or emits events).  See docs/SCHEMAS.md for the field
table and docs/OBSERVABILITY.md for the operational story.
"""

import json
import pathlib
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.obs.snapshot import (
    EVENT_TAIL_LIMIT,
    GROUP_LIMIT,
    HEAP_MAP_LIMIT,
    Rerun,
    capture_state,
    read_document,
    safe_label,
    write_document,
)

#: schema tag of a checkpoint document.
CHECKPOINT_SCHEMA = "repro.checkpoint/v1"

#: checkpoints a scheduler writes before it starts skipping (counted,
#: never silent) -- bounds disk output on very long runs.
DEFAULT_MAX_CHECKPOINTS = 16

#: document sections compared by :func:`compare_checkpoints`.  ``run``
#: is deliberately absent: resume may override the request horizon, so
#: the recorded run spec legitimately differs from the fresh capture's.
VERIFIED_SECTIONS = (
    "cycle", "idle_cycles", "progress", "machine", "dram", "metrics",
    "events", "watches", "interrupts", "heap", "groups",
    "monitoring_state",
)


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture_checkpoint(machine, monitor=None, run_info=None,
                       request_index=None, sampler=None, engine=None,
                       trend=None, history=None,
                       event_tail=EVENT_TAIL_LIMIT,
                       heap_map_limit=HEAP_MAP_LIMIT,
                       group_limit=GROUP_LIMIT):
    """Freeze one machine + monitoring stack into a checkpoint dict.

    ``request_index`` is the zero-based index of the request boundary
    the capture sits on; ``run_info`` records how to re-drive the run
    (as in forensic bundles -- without it the checkpoint is
    inspectable but not resumable).  ``sampler``/``engine``/``trend``/
    ``history`` are the live stack components whose ``state_dict``
    payloads are embedded for durability tests and resume
    verification.
    """
    document = capture_state(machine, monitor=monitor, run_info=run_info,
                             event_tail=event_tail,
                             heap_map_limit=heap_map_limit,
                             group_limit=group_limit)
    document.update({
        "schema": CHECKPOINT_SCHEMA,
        "progress": {
            "request_index": request_index,
            "requests_completed": (request_index + 1
                                   if request_index is not None
                                   else None),
        },
        "dram": machine.dram.digest(),
        "monitoring_state": {
            "sampler": (sampler.state_dict()
                        if sampler is not None else None),
            "alerts": (engine.state_dict()
                       if engine is not None else None),
            "trend": (trend.state_dict()
                      if trend is not None else None),
            "history": (history.to_dict()
                        if history is not None else None),
        },
    })
    return document


#: write a checkpoint as indented JSON; returns the path.
write_checkpoint = write_document


def load_checkpoint(path):
    """Load and schema-check one ``repro.checkpoint/v1`` document."""
    return read_document(path, CHECKPOINT_SCHEMA)


class CheckpointScheduler:
    """Periodic checkpoint capture evaluated at request boundaries.

    Wire :meth:`on_request` as the workload's ``request_hook``.  The
    scheduler never registers a clock timer -- due-ness is pure
    arithmetic on the cycle counter at each boundary -- so the
    simulated execution is bit-identical whether or not checkpointing
    is enabled.  A boundary at or past ``next_due`` captures once and
    re-arms at the next multiple of ``every``.
    """

    def __init__(self, machine, every, monitor=None, run_info=None,
                 sampler=None, engine=None, trend=None, history=None,
                 checkpoint_dir="checkpoints", label="run",
                 max_checkpoints=DEFAULT_MAX_CHECKPOINTS):
        if every < 1:
            raise ConfigurationError(
                f"--checkpoint-every must be >= 1 cycle, got {every}"
            )
        self.machine = machine
        self.every = every
        self.monitor = monitor
        self.run_info = dict(run_info or {})
        self.sampler = sampler
        self.engine = engine
        self.trend = trend
        self.history = history
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.label = safe_label(label)
        self.max_checkpoints = max_checkpoints
        self.checkpoint_paths = []
        self.checkpoints_skipped = 0
        #: first cycle at which the next boundary will capture.
        self.next_due = every

    def on_request(self, index, truth):
        """Request-boundary hook: capture when a deadline has passed."""
        cycle = self.machine.clock.cycles
        if cycle < self.next_due:
            return None
        self.next_due = (cycle // self.every + 1) * self.every
        if len(self.checkpoint_paths) >= self.max_checkpoints:
            self.checkpoints_skipped += 1
            return None
        document = capture_checkpoint(
            self.machine, monitor=self.monitor, run_info=self.run_info,
            request_index=index, sampler=self.sampler,
            engine=self.engine, trend=self.trend, history=self.history,
        )
        path = self.checkpoint_dir / (
            f"{self.label}-c{cycle}-r{index}.ckpt.json"
        )
        write_checkpoint(document, path)
        self.checkpoint_paths.append(path)
        return path


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def _normalize(value):
    """JSON round-trip, so tuples/ints/floats compare canonically."""
    return json.loads(json.dumps(value, sort_keys=True))


def compare_checkpoints(recorded, fresh):
    """``(ok, message)``: do two checkpoints agree section by section?

    Both documents are JSON-normalized first, so a freshly captured
    in-memory document compares cleanly against one loaded from disk.
    The ``run`` section is excluded (see :data:`VERIFIED_SECTIONS`).
    """
    recorded = _normalize(recorded)
    fresh = _normalize(fresh)
    mismatched = [section for section in VERIFIED_SECTIONS
                  if recorded.get(section) != fresh.get(section)]
    if mismatched:
        return False, (
            "reconstructed state diverged from the checkpoint in: "
            + ", ".join(mismatched)
        )
    return True, (
        f"{len(VERIFIED_SECTIONS)} sections verified bit-exact at "
        f"cycle {recorded.get('cycle', 0):,}"
    )


# ----------------------------------------------------------------------
# resume (reconstructive restore)
# ----------------------------------------------------------------------
@dataclass
class ResumeResult:
    """A finished resume, live machine included."""

    machine: object
    monitor: object
    program: object
    #: GroundTruth when the workload ran to completion, else None.
    truth: object
    #: full event list of the resumed run.
    events: list = field(default_factory=list)
    #: cycle the checkpoint was recorded at.
    checkpoint_cycle: int = 0
    #: None = verification skipped; else the comparison outcome.
    verified: bool = None
    verify_message: str = ""
    #: panic message when the resumed run re-panicked.
    panic: object = None


def resume_checkpoint(checkpoint, requests=None, verify=True):
    """Resume a checkpointed run: re-execute, verify, continue.

    Re-drives the recorded workload from its seed on a freshly booted
    identical machine (deterministic, so the reconstruction is exact),
    compares the reconstructed state against the checkpoint at the
    recorded request boundary when ``verify`` is on, and continues to
    ``requests`` total requests (default: the recorded horizon).
    """
    rerun = Rerun(checkpoint, "checkpoint", "resumed", requests=requests)
    boundary = (checkpoint.get("progress") or {}).get("request_index")
    if verify and boundary is None:
        raise ConfigurationError(
            "checkpoint records no request boundary; resume it with "
            "verification disabled"
        )
    target = rerun.requests
    if verify and target is not None and boundary is not None \
            and target <= boundary:
        raise ConfigurationError(
            f"cannot verify: the checkpoint sits at request boundary "
            f"{boundary} but the resumed run stops after {target} "
            f"request(s)"
        )

    state = {"verified": None, "message": "verification disabled"}

    def _hook(index, truth):
        if not verify or index != boundary:
            return
        stack = rerun.stack
        fresh = capture_checkpoint(
            rerun.machine, monitor=rerun.monitor, run_info=rerun.run_info,
            request_index=index, sampler=stack.sampler,
            engine=stack.engine, trend=stack.trend, history=stack.history,
        )
        ok, message = compare_checkpoints(checkpoint, fresh)
        state["verified"] = ok
        state["message"] = message

    rerun.run(request_hook=_hook)
    return ResumeResult(
        machine=rerun.machine,
        monitor=rerun.monitor,
        program=getattr(rerun.monitor, "program", None),
        truth=rerun.truth,
        events=rerun.machine.events.query(),
        checkpoint_cycle=checkpoint.get("cycle", 0),
        verified=state["verified"],
        verify_message=state["message"],
        panic=rerun.panic,
    )


# ----------------------------------------------------------------------
# inspection
# ----------------------------------------------------------------------
def render_checkpoint_summary(document):
    """The `repro inspect` headline view of one checkpoint."""
    run = document.get("run") or {}
    machine = document.get("machine") or {}
    progress = document.get("progress") or {}
    events = document.get("events") or {}
    monitoring_state = document.get("monitoring_state") or {}
    lines = [
        f"checkpoint ({document['schema']}) @ cycle "
        f"{document.get('cycle', 0):,} "
        f"(+{document.get('idle_cycles', 0):,} idle)",
    ]
    if progress.get("request_index") is not None:
        lines.append(
            f"  boundary:  after request #{progress['request_index']} "
            f"({progress.get('requests_completed')} completed)"
        )
    if run:
        lines.append(
            f"  run:       {run.get('workload', '?')}/"
            f"{run.get('monitor', '?')} "
            f"({'buggy' if run.get('buggy') else 'normal'} input, "
            f"{run.get('requests', '?')} requests, "
            f"seed {run.get('seed', '?')})"
        )
    else:
        lines.append("  run:       (not recorded; checkpoint is not "
                     "resumable)")
    if machine:
        lines.append(
            f"  machine:   {machine.get('dram_size', 0) >> 20} MiB "
            f"DRAM, {machine.get('cache_size', 0) >> 10} KiB cache, "
            f"ecc={machine.get('ecc_mode', '?')}"
        )
    dram = document.get("dram") or {}
    if dram:
        lines.append(f"  dram:      data sha256 "
                     f"{dram.get('data', '?')[:16]}..., check "
                     f"{dram.get('check', '?')[:16]}...")
    lines.append(f"  events:    {events.get('total', 0):,} total, "
                 f"{len(events.get('tail', []))} in tail")
    watches = document.get("watches") or []
    armed = sum(len(region["lines"]) for region in watches)
    lines.append(f"  watches:   {len(watches)} region(s), "
                 f"{armed} armed line(s)")
    heap = document.get("heap")
    if heap:
        lines.append(
            f"  heap:      {heap['live_bytes']:,} B live in "
            f"{heap['live_blocks']} block(s)"
        )
    present = sorted(name for name, payload
                     in monitoring_state.items() if payload)
    if present:
        lines.append("  stack state: " + ", ".join(present))
        sampler_state = monitoring_state.get("sampler")
        if sampler_state:
            lines.append(
                f"    sampler: {sampler_state['samples_taken']} "
                f"sample(s) taken, {len(sampler_state['ring'])} in "
                f"ring"
            )
        trend_state = monitoring_state.get("trend")
        if trend_state:
            latched = sum(
                1 for record in trend_state["series"].values()
                for breached in record["breached"].values() if breached
            )
            lines.append(
                f"    trend: {len(trend_state['series'])} series, "
                f"{latched} latch(es) breached, "
                f"{trend_state['breach_onsets']} onset(s)"
            )
        alert_state = monitoring_state.get("alerts")
        if alert_state:
            firing = sorted(
                name for name, record in alert_state["alerts"].items()
                if record["state"] == "firing"
            )
            lines.append(
                f"    alerts: {len(alert_state['alerts'])} rule(s)"
                + (", firing: " + ", ".join(firing) if firing else "")
            )
    return "\n".join(lines)
