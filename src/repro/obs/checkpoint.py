"""Checkpoint/restore for long-horizon runs (``repro.checkpoint/v1``).

A multi-billion-cycle production simulation cannot restart from zero
every time the host process dies.  This module makes a run durable at
**request boundaries** -- the quiescent instants between workload
requests, where no span is mid-flight and no allocation is half done:

- :func:`capture_checkpoint` freezes the machine *and* the whole
  monitoring stack into one versioned JSON document of one of two
  shapes.  Given the live run's ground truth, a run the state image
  covers (:func:`repro.obs.state.covers`) gets an *image checkpoint*:
  its recipe (clock, ``run`` section, boot config), its request
  boundary and a ``state`` image (``repro.state/v1``,
  :mod:`repro.obs.state`) of everything the run reads after the
  boundary -- the image is the checkpoint's one copy of the run.  Any
  other capture gets the :data:`SECTIONS` instead: DRAM/check-bit
  digests, the metrics snapshot, the event-log tail, watch registry,
  interrupt state, the allocator heap map and leak-group tables, plus
  the profiler counters, alert-engine state machines, trend-detector
  accumulators/latches/seasonal baselines, and history tiers (their
  ``state_dict`` payloads embedded verbatim);
- :class:`CheckpointScheduler` captures automatically every
  ``--checkpoint-every N`` cycles, evaluated at request boundaries via
  pure arithmetic -- **no clock timer is registered**, so a run
  behaves bit-identically with checkpointing on or off;
- :func:`resume_checkpoint` boots the recorded machine, monitor and
  stack.  An image checkpoint is **restored**: the image loads into
  them, the restored state must re-capture the image exactly, and the
  workload continues from the next request.  A sectioned checkpoint
  **replays** the recorded run from its seed (the simulation has no
  wall clock and no unseeded randomness) to the boundary, where every
  verified section must match bit-exactly (DRAM via SHA-256 digests).
  Either way the run continues to the requested horizon.  The
  differential contract: run-to-N -> checkpoint -> resume-to-M equals
  a straight run to M in events, metrics, ALERT/TREND cycles, and
  verdict;
- :func:`with_sections` derives an image checkpoint's sections for
  ``repro inspect``: it restores the image the way resume does and
  captures at the boundary.

Capture is observation-only (reads registries, rings, digests; never
ticks the clock or emits events).  See docs/SCHEMAS.md for the field
tables and docs/OBSERVABILITY.md for the operational story.
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
    capture_recipe,
    capture_state,
    safe_label,
    write_document,
)

#: schema tag of a checkpoint document.
CHECKPOINT_SCHEMA = "repro.checkpoint/v1"

#: a ``repro.checkpoint/v1`` document without a state image: the
#: capture sections plus what :func:`capture_checkpoint` adds.
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
}, label="checkpoint", base=CAPTURE)

#: a ``repro.checkpoint/v1`` document with a state image: its recipe,
#: its boundary and the packed image, and nothing else (the image's
#: components check their own payloads when it loads,
#: :mod:`repro.obs.state`).
IMAGE_CHECKPOINT = Table(CHECKPOINT_SCHEMA, {
    "schema": Field(TEXT, choices=(CHECKPOINT_SCHEMA,)),
    **{path: CAPTURE.rows[path]
       for path in ("cycle", "idle_cycles", "run", "machine")},
    "progress.request_index": Field(INT, low=0),
    "progress.requests_completed": INT,
    "state.image": TEXT,
    "state.sha256": TEXT,
}, label="checkpoint", closed=True)


def checkpoint_table(document):
    """The field table a checkpoint is checked against: an image
    checkpoint (one with a ``state`` section) has its own."""
    if type(document) is dict and "state" in document:
        return IMAGE_CHECKPOINT
    return CHECKPOINT


#: checkpoints a scheduler writes before it starts skipping (counted,
#: never silent) -- bounds disk output on very long runs.
DEFAULT_MAX_CHECKPOINTS = 16

#: what a checkpoint without a state image carries beyond its recipe
#: and boundary; an image checkpoint's image fixes every one of them
#: (:func:`with_sections` derives them).
SECTIONS = ("dram", "metrics", "events", "watches", "interrupts", "heap",
            "groups", "monitoring_state")

#: document sections compared by :func:`compare_checkpoints`.  ``run``
#: is deliberately absent: resume may override the request horizon, so
#: the recorded run spec legitimately differs from the fresh capture's.
VERIFIED_SECTIONS = ("cycle", "idle_cycles", "progress", "machine",
                     *SECTIONS)


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
    ``history`` are the live stack components whose state is captured.
    ``truth`` is the live run's ground truth at the boundary: with it,
    a run the state image covers (:func:`repro.obs.state.covers`) gets
    an image checkpoint (its recipe, boundary and ``state`` image, so
    resume restores); every other capture carries the
    :data:`SECTIONS`, and resume replays it.
    """
    progress = {
        "request_index": request_index,
        "requests_completed": (request_index + 1
                               if request_index is not None else None),
    }
    if request_index is not None and images.covers(machine, monitor,
                                                   run_info, truth):
        return {
            **capture_recipe(machine, run_info),
            "schema": CHECKPOINT_SCHEMA,
            "progress": progress,
            "state": images.encode_image(images.capture_image(
                machine, monitor, truth,
                {"sampler": sampler, "alerts": engine, "trend": trend,
                 "history": history})),
        }
    document = capture_state(machine, monitor=monitor, run_info=run_info)
    document.update({
        "schema": CHECKPOINT_SCHEMA,
        "progress": progress,
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
    """Load one ``repro.checkpoint/v1`` document, checked against its
    shape's field table (:func:`checkpoint_table`)."""
    # Local: obs.forensics imports this module.
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


def _stack_components(rerun):
    """A rerun's monitoring-stack components, by state-image name."""
    stack = rerun.stack
    return {"sampler": stack.sampler, "alerts": stack.engine,
            "trend": stack.trend, "history": stack.history}


def _capture_rerun(rerun, index):
    """The verified sections of a rerun at request boundary ``index``."""
    stack = rerun.stack
    return capture_checkpoint(
        rerun.machine, monitor=rerun.monitor, run_info=rerun.run_info,
        request_index=index, sampler=stack.sampler, engine=stack.engine,
        trend=stack.trend, history=stack.history)


def _where(checkpoint):
    """``(request boundary, cycle, idle cycles)`` a checkpoint records."""
    return (checkpoint["progress"]["request_index"], checkpoint["cycle"],
            checkpoint["idle_cycles"])


def _restore_image(rerun, section, where, program, workload):
    """Load a checkpoint's ``state`` section into a booted rerun.

    ``where`` is what the checkpoint records (:func:`_where`); the
    image must sit at the same request boundary and clock.  Returns
    the restored ground truth and each image member's digest, for
    :func:`~repro.obs.state.verify_image`.
    """
    boundary, cycle, idle_cycles = where
    truth, digests = images.load_image(
        images.unpack_image(section), rerun.machine, rerun.monitor,
        program, workload, _stack_components(rerun))
    if truth.requests_completed != boundary + 1:
        raise ConfigurationError(
            f"state image sits after {truth.requests_completed} "
            f"request(s), not at request boundary {boundary}")
    clock = rerun.machine.clock
    if (clock.cycles, clock.idle_cycles) != (cycle, idle_cycles):
        raise ConfigurationError(
            f"state image sits at cycle {clock.cycles} "
            f"(+{clock.idle_cycles} idle), not at the checkpoint's "
            f"cycle {cycle} (+{idle_cycles} idle)")
    return truth, digests


def resume_checkpoint(checkpoint, requests=None, verify=True):
    """Resume a checkpointed run: restore or replay, verify, continue.

    Boots the recorded machine, monitor and monitoring stack.  An image
    checkpoint is restored into them and the workload continues from
    the next request; the image's SHA-256 is always checked, and with
    ``verify`` on the restored state must re-capture the image member
    by member.  A checkpoint without an image (or a horizon at or
    before the boundary) re-runs the recorded workload from its seed;
    with ``verify`` on, the state at the recorded request boundary
    must match the checkpoint's verified sections bit-exactly.  The
    run then continues to ``requests`` total requests (default: the
    recorded horizon).
    """
    rerun = Rerun(checkpoint, checkpoint_table(checkpoint), "resumed",
                  requests=requests)
    where = _where(checkpoint)
    boundary, cycle, _ = where
    section = checkpoint.get("state")
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
    restore = section is not None and (target is None or target > boundary)

    def _hook(index, truth):
        if not verify or index != boundary:
            return
        ok, message = compare_checkpoints(checkpoint,
                                          _capture_rerun(rerun, index))
        state["verified"] = ok
        state["message"] = message

    def _restore(program, workload):
        truth, digests = _restore_image(rerun, section, where, program,
                                        workload)
        if verify:
            ok, diverged = images.verify_image(
                digests, rerun.machine, rerun.monitor, truth,
                _stack_components(rerun))
            message = (f"{len(digests)} image members verified bit-exact "
                       f"at cycle {cycle:,}")
            if not ok:
                message = ("restored state does not re-capture its image "
                           "in: " + ", ".join(diverged))
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
        checkpoint_cycle=cycle,
        verified=state["verified"],
        verify_message=state["message"],
        panic=rerun.panic,
        restored=restore,
    )


# ----------------------------------------------------------------------
# inspection
# ----------------------------------------------------------------------
def with_sections(checkpoint):
    """``checkpoint`` with its :data:`SECTIONS`.

    A checkpoint without a state image carries them.  An image
    checkpoint's are derived the way resume restores it: boot the
    recorded run, load the image at its boundary (the same checks as
    :func:`resume_checkpoint`), capture there, and stop before the next
    request.  The document itself is left as it is.
    """
    section = checkpoint.get("state")
    if section is None:
        return checkpoint
    rerun = Rerun(checkpoint, IMAGE_CHECKPOINT, "inspected")
    where = _where(checkpoint)
    captured = {}

    def _capture(program, workload):
        _restore_image(rerun, section, where, program, workload)
        captured.update(_capture_rerun(rerun, where[0]))
        rerun.break_here(rerun.machine.clock.cycles)

    rerun.run(restore=_capture)
    return {**checkpoint, **{name: captured[name] for name in SECTIONS}}


def render_checkpoint_summary(document):
    """The `repro inspect` headline view of one checkpoint: its recipe
    and boundary, then its :data:`SECTIONS` when the document has them
    (an image checkpoint has them once :func:`with_sections` derived
    them)."""
    run = document["run"]
    machine = document["machine"]
    progress = document["progress"]
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
    if "dram" not in document:
        return "\n".join(lines)
    dram = document["dram"]
    lines.append(f"  dram:      data sha256 {dram['data'][:16]}..., "
                 f"check {dram['check'][:16]}...")
    events = document["events"]
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
    monitoring_state = document["monitoring_state"]
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
