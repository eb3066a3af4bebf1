"""Streaming telemetry sinks: the ``repro.events/v1`` record stream.

End-of-run snapshots answer "what happened"; a production operator
needs "what is happening".  This module turns samples, alert
transitions, and selected event-log events into a single stream of
structured records and ships them to a **sink**:

- :class:`JsonlSink` -- one JSON object per line with size-based
  rotation (``monitor.jsonl`` -> ``monitor.jsonl.1`` -> ...), the
  format every log shipper ingests,
- :class:`MemorySink` -- an in-memory list for tests and the live CLI.

Record schema ``repro.events/v1`` (every record carries ``schema``,
``type``, and ``cycle``)::

    {"schema": "repro.events/v1", "type": "sample",  "cycle": N,
     "sample": {...Sample.to_dict()...}}
    {"schema": "repro.events/v1", "type": "alert",   "cycle": N,
     "alert": {"rule": ..., "severity": ..., "state": "firing",
               "value": ...}}
    {"schema": "repro.events/v1", "type": "event",   "cycle": N,
     "event": {"kind": ..., "address": ..., "size": ..., "detail": {...}}}
    {"schema": "repro.events/v1", "type": "run",     "cycle": N,
     "run": {...open/close marker metadata...}}

:class:`TelemetryStream` wires one sink to a machine's
:class:`~repro.common.events.EventLog` (a curated kind set by default
-- streaming every allocation would drown the signal), a
:class:`~repro.obs.sampler.SamplingProfiler`, and an
:class:`~repro.obs.alerts.AlertEngine`, and detaches cleanly on close.
"""

import json
import pathlib

from repro.common.errors import ConfigurationError
from repro.common.events import EventKind, jsonable
from repro.common.schema import Field, Table
from repro.common.state import INT, LIST, OBJECT, TEXT

EVENTS_SCHEMA = "repro.events/v1"

#: one ``repro.events/v1`` record; its payload key is named by
#: ``type``.
EVENTS = Table(EVENTS_SCHEMA, {
    "schema": Field(TEXT, choices=(EVENTS_SCHEMA,)),
    "type": Field(TEXT, choices=("run", "sample", "alert", "event")),
    "cycle": INT,
    "run": Field(OBJECT, required=False),
    "alert": Field(OBJECT, required=False),
    "alert.rule": TEXT,
    "alert.state": TEXT,
}, label="events record")

#: a ``repro.events/v1`` stream: a list of records.
STREAM = Field(LIST, items=EVENTS)

#: event kinds streamed by default: operator-signal, not per-access
#: noise (WATCH/UNWATCH/SYSCALL stay queryable in the EventLog).
DEFAULT_STREAM_KINDS = (
    EventKind.ECC_FAULT,
    EventKind.LEAK_SUSPECT,
    EventKind.LEAK_PRUNED,
    EventKind.LEAK_REPORT,
    EventKind.CORRUPTION_REPORT,
    EventKind.PANIC,
    EventKind.ALERT,
    EventKind.TREND,
)

#: default rotation threshold for JSONL sinks.
DEFAULT_MAX_BYTES = 1 << 20


def sample_record(sample):
    """A profiler :class:`~repro.obs.sampler.Sample` as a stream record."""
    return {
        "schema": EVENTS_SCHEMA,
        "type": "sample",
        "cycle": sample.cycle,
        "sample": sample.to_dict(),
    }


def alert_record(transition):
    """An :class:`~repro.obs.alerts.AlertTransition` as a stream record."""
    return {
        "schema": EVENTS_SCHEMA,
        "type": "alert",
        "cycle": transition.cycle,
        "alert": transition.to_dict(),
    }


def event_record(event):
    """An :class:`~repro.common.events.Event` as a stream record."""
    return {
        "schema": EVENTS_SCHEMA,
        "type": "event",
        "cycle": event.cycle,
        "event": {
            "kind": event.kind.value,
            "address": event.address,
            "size": event.size,
            "detail": {key: jsonable(value)
                       for key, value in event.detail.items()},
        },
    }


def run_record(cycle, **meta):
    """A run open/close marker record (workload, monitor, outcome...)."""
    return {
        "schema": EVENTS_SCHEMA,
        "type": "run",
        "cycle": cycle,
        "run": {key: jsonable(value) for key, value in meta.items()},
    }


class MemorySink:
    """Collects records in memory (tests, the live CLI panel)."""

    def __init__(self):
        self.records = []
        self.closed = False

    def write(self, record):
        self.records.append(record)

    def of_type(self, record_type):
        return [record for record in self.records
                if record["type"] == record_type]

    def close(self):
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __len__(self):
        return len(self.records)


class JsonlSink:
    """Append-only JSONL file with size-based rotation.

    When the active file would exceed ``max_bytes`` the sink rotates:
    ``path`` -> ``path.1`` -> ``path.2`` ... keeping at most
    ``max_files`` rotated generations (the oldest is dropped).  A
    record is never split across files.
    """

    def __init__(self, path, max_bytes=DEFAULT_MAX_BYTES, max_files=3):
        if max_bytes <= 0:
            raise ConfigurationError(
                f"max_bytes must be positive: {max_bytes}"
            )
        if max_files < 1:
            raise ConfigurationError(
                f"max_files must be >= 1: {max_files}"
            )
        self.path = pathlib.Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.records_written = 0
        self.rotations = 0
        self._stream = open(self.path, "w")
        self._size = 0

    def write(self, record):
        line = json.dumps(record, sort_keys=True) + "\n"
        encoded = len(line.encode())
        if self._size and self._size + encoded > self.max_bytes:
            self._rotate()
        self._stream.write(line)
        self._size += encoded
        self.records_written += 1

    def _rotate(self):
        self._stream.close()
        oldest = self.path.with_name(
            f"{self.path.name}.{self.max_files}")
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_files - 1, 0, -1):
            source = self.path.with_name(f"{self.path.name}.{index}")
            if source.exists():
                source.replace(
                    self.path.with_name(f"{self.path.name}.{index + 1}")
                )
        self.path.replace(self.path.with_name(f"{self.path.name}.1"))
        self._stream = open(self.path, "w")
        self._size = 0
        self.rotations += 1

    def paths(self):
        """Active file first, then rotated generations, newest first."""
        found = [self.path]
        for index in range(1, self.max_files + 1):
            rotated = self.path.with_name(f"{self.path.name}.{index}")
            if rotated.exists():
                found.append(rotated)
        return found

    def flush(self):
        self._stream.flush()

    @property
    def closed(self):
        return self._stream.closed

    def close(self):
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # Closing flushes, so a crash inside the ``with`` body still
        # leaves every written record on disk as complete lines.
        self.close()
        return False


def read_jsonl(path):
    """Parse one JSONL stream file back into records (test helper)."""
    records = []
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class TelemetryStream:
    """Wires events, samples, and alerts from one machine into one sink."""

    def __init__(self, sink, machine=None, sampler=None, engine=None,
                 kinds=DEFAULT_STREAM_KINDS):
        self.sink = sink
        self._event_tokens = []
        self._sampler = None
        self._engine = None
        self._machine = None
        if machine is not None:
            self._machine = machine
            for kind in kinds:
                if engine is not None and kind is EventKind.ALERT:
                    # Alert transitions already arrive as first-class
                    # "alert" records via the engine listener; a second
                    # copy through the event log would double-write.
                    continue
                self._event_tokens.append(
                    machine.events.subscribe(self._on_event, kind=kind)
                )
        if sampler is not None:
            self._sampler = sampler
            sampler.add_listener(self._on_sample)
        if engine is not None:
            self._engine = engine
            engine.add_listener(self._on_transition)

    def _on_event(self, event):
        self.sink.write(event_record(event))

    def _on_sample(self, sample):
        self.sink.write(sample_record(sample))

    def _on_transition(self, transition):
        self.sink.write(alert_record(transition))

    def mark(self, cycle, **meta):
        """Write a run marker record (start/finish metadata)."""
        self.sink.write(run_record(cycle, **meta))

    def close(self):
        """Detach every subscription and close the sink."""
        if self._machine is not None:
            for token in self._event_tokens:
                self._machine.events.unsubscribe(token)
            self._event_tokens = []
        if self._sampler is not None:
            self._sampler.remove_listener(self._on_sample)
            self._sampler = None
        if self._engine is not None:
            self._engine.remove_listener(self._on_transition)
            self._engine = None
        self.sink.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # Exception-safe teardown: detach subscriptions and close (and
        # therefore flush) the sink even when the run inside the
        # ``with`` body panics.  close() is idempotent, so an explicit
        # close before the block exits is also fine.
        self.close()
        return False
