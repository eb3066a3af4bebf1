"""Trace spans on the simulated clock, plus the PANIC flight recorder.

A :class:`Tracer` records nested spans -- workload phase, syscall, ECC
fault delivery, user handler -- stamped in simulated CPU cycles, so a
span's duration is exactly the monitoring cost the paper's tables
charge for it.  Finished spans land in a bounded ring buffer (the
"flight recorder"); when the machine panics, the tracer freezes a copy
of the ring so post-mortems can see the final approach to the crash
even though the exception already unwound the stack.

Span durations also feed ``span.<name>.cycles`` histograms in the
machine's :class:`~repro.obs.metrics.MetricsRegistry`, which is how
"how expensive is a WatchMemory call" becomes a percentile instead of
an anecdote.
"""

from collections import deque

from repro.common.events import EventKind, jsonable
from repro.common.state import (
    fields_state,
    integer,
    load_fields,
    mapping,
    optional_integer,
    record,
    scalars,
    sequence,
    text,
)

#: Finished spans retained by the flight recorder.
DEFAULT_CAPACITY = 256


class Span:
    """One timed operation; nested spans record their full path."""

    __slots__ = ("name", "path", "depth", "start_cycle", "end_cycle",
                 "attrs")

    def __init__(self, name, path, depth, start_cycle, attrs):
        self.name = name
        self.path = path
        self.depth = depth
        self.start_cycle = start_cycle
        self.end_cycle = None
        self.attrs = attrs

    @property
    def duration_cycles(self):
        if self.end_cycle is None:
            return None
        return self.end_cycle - self.start_cycle

    def to_dict(self):
        return {
            "name": self.name,
            "path": "/".join(self.path),
            "depth": self.depth,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "duration_cycles": self.duration_cycles,
            "attrs": dict(self.attrs),
        }

    def __repr__(self):
        duration = self.duration_cycles
        timing = (f"{duration} cycles" if duration is not None else "open")
        return f"Span({'/'.join(self.path)}, {timing})"


class _SpanScope:
    """The ``with`` block of :meth:`Tracer.span`: starts the span on
    entry and finishes it on exit, also when an exception unwinds."""

    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.span = self.tracer.start(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc_info):
        self.tracer.finish(self.span)


class Tracer:
    """Span recorder bound to one machine's clock and event log."""

    def __init__(self, clock, registry=None, events=None,
                 capacity=DEFAULT_CAPACITY):
        self.clock = clock
        self.registry = registry
        self._stack = []
        self._recent = deque(maxlen=capacity)
        self.spans_started = 0
        self.spans_dropped = 0
        #: span name -> its ``span.<name>.cycles`` histogram, kept
        #: after the registry lookup that registers it.
        self._histograms = {}
        #: frozen flight-recorder dump captured at the last PANIC.
        self.panic_dump = None
        if registry is not None:
            registry.probe("trace.spans", lambda: self.spans_started,
                           kind="counter",
                           description="spans started on this machine")
        if events is not None:
            events.subscribe(self._on_panic_event, kind=EventKind.PANIC)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name, **attrs):
        """Record one nested span around the ``with`` body."""
        return _SpanScope(self, name, attrs)

    def start(self, name, **attrs):
        parent_path = self._stack[-1].path if self._stack else ()
        span = Span(
            name=name,
            path=parent_path + (name,),
            depth=len(self._stack),
            start_cycle=self.clock.cycles,
            attrs=attrs,
        )
        self._stack.append(span)
        self.spans_started += 1
        return span

    def finish(self, span):
        span.end_cycle = self.clock.cycles
        # Exceptions may unwind several spans at once; close every span
        # nested inside the one being finished.
        while self._stack:
            top = self._stack.pop()
            if top.end_cycle is None:
                top.end_cycle = self.clock.cycles
            if len(self._recent) == self._recent.maxlen:
                self.spans_dropped += 1
            self._recent.append(top)
            if self.registry is not None:
                histogram = self._histograms.get(top.name)
                if histogram is None:
                    histogram = self._histograms[top.name] = \
                        self.registry.histogram(
                            f"span.{top.name}.cycles",
                            description=f"duration of {top.name} spans")
                histogram.observe(top.duration_cycles)
            if top is span:
                break

    @property
    def current(self):
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def active_spans(self):
        """Open spans, outermost first (the sampler's stack view)."""
        return list(self._stack)

    # ------------------------------------------------------------------
    # flight recorder
    # ------------------------------------------------------------------
    def flight_record(self):
        """Recent finished spans, oldest first."""
        return list(self._recent)

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    #: the counters :meth:`state_dict` records next to the spans.
    STATE_FIELDS = ("spans_started", "spans_dropped")

    def state_dict(self):
        """Counters, the flight-recorder ring, the open spans (a run
        captured at a request boundary has its ``workload.<name>``
        span open) and the frozen panic dump."""
        return {
            **fields_state(self, self.STATE_FIELDS),
            "recent": [_span_state(span) for span in self._recent],
            "open": [_span_state(span) for span in self._stack],
            "panic_dump": self.panic_dump,
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        load_fields(self, state, self.STATE_FIELDS)
        self._recent.clear()
        self._recent.extend(_load_span(item) for item in
                            sequence(state["recent"], "recent"))
        self._stack = [_load_span(item)
                       for item in sequence(state["open"], "open")]
        panic_dump = state["panic_dump"]
        self.panic_dump = (None if panic_dump is None
                           else mapping(panic_dump, "panic_dump"))

    def _on_panic_event(self, event):
        self.mark_panic(event.detail.get("reason", "panic"))

    def mark_panic(self, reason):
        """Freeze the ring buffer (called on the PANIC event)."""
        self.panic_dump = {
            "reason": reason,
            "cycle": self.clock.cycles,
            "spans": [span.to_dict() for span in self._recent],
            "open_spans": [span.to_dict() for span in self._stack],
        }
        return self.panic_dump


def _span_state(span):
    """One span as ``[name, path, depth, start, end, attrs]``."""
    return [span.name, list(span.path), span.depth, span.start_cycle,
            span.end_cycle,
            {key: jsonable(value) for key, value in span.attrs.items()}]


def _load_span(item):
    name, path, depth, start, end, attrs = record(item, 6, "span")
    span = Span(text(name, "span name"),
                tuple(text(part, "span path")
                      for part in sequence(path, "span path")),
                integer(depth, "span depth"), integer(start, "span start"),
                scalars(attrs, "span attrs"))
    span.end_cycle = optional_integer(end, "span end")
    return span
