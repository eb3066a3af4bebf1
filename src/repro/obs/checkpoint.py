"""Checkpoint/restore for long-horizon runs (``repro.checkpoint/v1``).

A multi-billion-cycle production simulation cannot restart from zero
every time the host process dies.  This module makes a run durable at
**request boundaries** -- the quiescent instants between workload
requests, where no span is mid-flight and no allocation is half done:

- :func:`capture_checkpoint` freezes the machine *and* the whole
  monitoring stack into one versioned JSON document: boot config,
  clock, DRAM/check-bit digests, the metrics snapshot, the event-log
  tail, watch registry, interrupt state, the allocator heap map and
  leak-group tables, plus the profiler counters, alert-engine state
  machines, trend-detector accumulators/latches/seasonal baselines,
  and history tiers (their ``state_dict`` payloads embedded verbatim).
  Given the live run's ground truth, it also packs a ``state`` image
  (``repro.state/v1``, :mod:`repro.obs.state`) of everything the run
  reads after the boundary;
- :class:`CheckpointScheduler` captures automatically every
  ``--checkpoint-every N`` cycles, evaluated at request boundaries via
  pure arithmetic -- **no clock timer is registered**, so a run
  behaves bit-identically with checkpointing on or off;
- :func:`resume_checkpoint` boots the recorded machine, monitor and
  stack and, when the checkpoint carries a state image, **restores**
  it and continues from the next request; without one it **replays**
  the recorded run from its seed (the simulation has no wall clock
  and no unseeded randomness) to the boundary.  Either way it
  verifies the state at the boundary against the checkpoint (every
  verified section must match bit-exactly, DRAM via SHA-256 digests)
  and continues to the requested horizon.  The differential contract:
  run-to-N -> checkpoint -> resume-to-M equals a straight run to M in
  events, metrics, ALERT/TREND cycles, and verdict.

Capture is observation-only (reads registries, rings, digests; never
ticks the clock or emits events).  See docs/SCHEMAS.md for the field
table and docs/OBSERVABILITY.md for the operational story.
"""

import json
import pathlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.schema import Field, Table
from repro.common.state import INT, NULL, NUMBER, OBJECT, TEXT
from repro.obs import state as images
from repro.obs.snapshot import (
    CAPTURE,
    Rerun,
    capture_state,
    safe_label,
    write_document,
)

#: schema tag of a checkpoint document.
CHECKPOINT_SCHEMA = "repro.checkpoint/v1"

#: a ``repro.checkpoint/v1`` document: the capture sections plus what
#: :func:`capture_checkpoint` adds (the ``state`` image's components
#: check their own payloads when it loads, :mod:`repro.obs.state`).
CHECKPOINT = Table(CHECKPOINT_SCHEMA, {
    "schema": Field(TEXT, choices=(CHECKPOINT_SCHEMA,)),
    "progress.request_index": Field(INT | NULL, low=0),
    "progress.requests_completed": INT | NULL,
    "dram.data": TEXT,
    "dram.check": TEXT,
    "monitoring_state.sampler": OBJECT | NULL,
    "monitoring_state.sampler.samples_taken": INT,
    "monitoring_state.sampler.overhead_fraction": NUMBER,
    "monitoring_state.alerts": OBJECT | NULL,
    "monitoring_state.alerts.alerts.<name>.state": TEXT,
    "monitoring_state.trend": OBJECT | NULL,
    "monitoring_state.trend.series.<name>.breached": OBJECT,
    "monitoring_state.trend.breach_onsets": INT,
    "state": Field(OBJECT, required=False),
    "state.image": TEXT,
    "state.sha256": TEXT,
}, label="checkpoint", base=CAPTURE)

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
                       trend=None, history=None, truth=None):
    """Freeze one machine + monitoring stack into a checkpoint dict.

    ``request_index`` is the zero-based index of the request boundary
    the capture sits on; ``run_info`` records how to re-drive the run
    (as in forensic bundles -- without it the checkpoint is
    inspectable but not resumable).  ``sampler``/``engine``/``trend``/
    ``history`` are the live stack components whose ``state_dict``
    payloads are embedded for durability tests and resume
    verification.  ``truth`` is the live run's ground truth at the
    boundary: with it, a run the state image covers
    (:func:`repro.obs.state.covers`) also gets a ``state`` section, so
    resume restores instead of replaying.
    """
    document = capture_state(machine, monitor=monitor, run_info=run_info)
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
    if request_index is not None and images.covers(machine, monitor,
                                                   run_info, truth):
        document["state"] = images.encode_image(images.capture_image(
            machine, monitor, truth,
            {"sampler": sampler, "alerts": engine, "trend": trend,
             "history": history}))
    return document


#: write a checkpoint as indented JSON; returns the path.
write_checkpoint = write_document


def load_checkpoint(path):
    """Load one ``repro.checkpoint/v1`` document, checked against
    :data:`CHECKPOINT`."""
    from repro.obs.forensics import load_document
    return load_document(path, CHECKPOINT)[1]


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
            truth=truth,
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
def _canonical(document, section):
    """One section as key-sorted JSON text, so a freshly captured
    in-memory document (tuples, insertion-ordered keys) compares
    cleanly against one loaded from disk."""
    return json.dumps(document.get(section), sort_keys=True)


def compare_checkpoints(recorded, fresh):
    """``(ok, message)``: do two checkpoints agree section by section?

    Each of the :data:`VERIFIED_SECTIONS` must have the same canonical
    JSON text in both documents.  The ``run`` section and the state
    image are excluded (see :data:`VERIFIED_SECTIONS`).
    """
    mismatched = [section for section in VERIFIED_SECTIONS
                  if _canonical(recorded, section)
                  != _canonical(fresh, section)]
    if mismatched:
        return False, (
            "reconstructed state diverged from the checkpoint in: "
            + ", ".join(mismatched)
        )
    return True, (
        f"{len(VERIFIED_SECTIONS)} sections verified bit-exact at "
        f"cycle {recorded['cycle']:,}"
    )


# ----------------------------------------------------------------------
# resume (restore, or replay from the seed)
# ----------------------------------------------------------------------
@dataclass
class ResumeResult:
    """A finished resume, live machine included."""

    machine: object
    monitor: object
    program: object
    #: GroundTruth when the workload ran to completion, else None.
    truth: object
    #: every event of the resumed run, as a read-only
    #: :class:`~repro.common.events.EventView`.
    events: Sequence = ()
    #: cycle the checkpoint was recorded at.
    checkpoint_cycle: int = 0
    #: None = verification skipped; else the comparison outcome.
    verified: bool = None
    verify_message: str = ""
    #: panic message when the resumed run re-panicked.
    panic: object = None
    #: True when the run continued from the checkpoint's state image;
    #: False when it replayed the recorded prefix from the seed.
    restored: bool = False


def _capture_rerun(rerun, index):
    """The verified sections of a rerun at request boundary ``index``."""
    stack = rerun.stack
    return capture_checkpoint(
        rerun.machine, monitor=rerun.monitor, run_info=rerun.run_info,
        request_index=index, sampler=stack.sampler, engine=stack.engine,
        trend=stack.trend, history=stack.history)


def resume_checkpoint(checkpoint, requests=None, verify=True):
    """Resume a checkpointed run: restore or replay, verify, continue.

    Boots the recorded machine, monitor and monitoring stack.  A
    checkpoint with a ``state`` image is restored into them and the
    workload continues from the next request; the image's SHA-256 is
    always checked.  Without an image (or for a horizon at or before
    the boundary) the recorded workload re-runs from its seed.  With
    ``verify`` on, the state at the recorded request boundary must
    match the checkpoint's verified sections bit-exactly, and a
    restored state must also re-capture its image exactly; the run
    then continues to ``requests`` total requests (default: the
    recorded horizon).
    """
    rerun = Rerun(checkpoint, CHECKPOINT, "resumed", requests=requests)
    boundary = checkpoint["progress"]["request_index"]
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
    section = checkpoint.get("state")
    restore = (section is not None and boundary is not None
               and (target is None or target > boundary))

    def _hook(index, truth):
        if not verify or index != boundary:
            return
        ok, message = compare_checkpoints(checkpoint,
                                          _capture_rerun(rerun, index))
        state["verified"] = ok
        state["message"] = message

    def _restore(program, workload):
        stack = rerun.stack
        components = {"sampler": stack.sampler, "alerts": stack.engine,
                      "trend": stack.trend, "history": stack.history}
        truth, digests = images.load_image(
            images.unpack_image(section), rerun.machine, rerun.monitor,
            program, workload, components)
        if truth.requests_completed != boundary + 1:
            raise ConfigurationError(
                f"state image sits after {truth.requests_completed} "
                f"request(s), not at request boundary {boundary}")
        if verify:
            ok, message = compare_checkpoints(
                checkpoint, _capture_rerun(rerun, boundary))
            if ok:
                ok, diverged = images.verify_image(
                    digests, rerun.machine, rerun.monitor, truth,
                    components)
                if not ok:
                    message = ("restored state does not re-capture its "
                               "image in: " + ", ".join(diverged))
            state["verified"] = ok
            state["message"] = message

    if restore:
        rerun.run(restore=_restore)
    else:
        rerun.run(request_hook=_hook)
    return ResumeResult(
        machine=rerun.machine,
        monitor=rerun.monitor,
        program=getattr(rerun.monitor, "program", None),
        truth=rerun.truth,
        events=rerun.machine.events.view(),
        checkpoint_cycle=checkpoint["cycle"],
        verified=state["verified"],
        verify_message=state["message"],
        panic=rerun.panic,
        restored=restore,
    )


# ----------------------------------------------------------------------
# inspection
# ----------------------------------------------------------------------
def render_checkpoint_summary(document):
    """The `repro inspect` headline view of one checkpoint."""
    run = document["run"]
    machine = document["machine"]
    progress = document["progress"]
    events = document["events"]
    monitoring_state = document["monitoring_state"]
    lines = [
        f"checkpoint ({document['schema']}) @ cycle "
        f"{document['cycle']:,} (+{document['idle_cycles']:,} idle)",
    ]
    if progress["request_index"] is not None:
        lines.append(
            f"  boundary:  after request #{progress['request_index']} "
            f"({progress['requests_completed']} completed)"
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
    if "state" in document:
        lines.append(f"  restore:   state image, "
                     f"{len(document['state']['image']) // 1024:,} KiB")
    else:
        lines.append("  restore:   none (resume replays from the seed)")
    dram = document["dram"]
    lines.append(f"  dram:      data sha256 {dram['data'][:16]}..., "
                 f"check {dram['check'][:16]}...")
    lines.append(f"  events:    {events['total']:,} total, "
                 f"{len(events['tail'])} in tail")
    watches = document["watches"]
    armed = sum(len(region["lines"]) for region in watches)
    lines.append(f"  watches:   {len(watches)} region(s), "
                 f"{armed} armed line(s)")
    heap = document["heap"]
    if heap:
        lines.append(
            f"  heap:      {heap['live_bytes']:,} B live in "
            f"{heap['live_blocks']} block(s)"
        )
    present = sorted(name for name, payload
                     in monitoring_state.items() if payload)
    if present:
        lines.append("  stack state: " + ", ".join(present))
        sampler_state = monitoring_state["sampler"]
        if sampler_state:
            lines.append(
                f"    sampler: {sampler_state['samples_taken']} "
                f"sample(s) taken, overhead "
                f"{sampler_state['overhead_fraction'] * 100:.2f}%"
            )
        trend_state = monitoring_state["trend"]
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
        alert_state = monitoring_state["alerts"]
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
