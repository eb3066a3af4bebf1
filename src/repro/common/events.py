"""Structured event log shared by the machine and the monitoring tools.

Components append :class:`Event` records to a single :class:`EventLog`
owned by the machine.  Experiments and tests query the log instead of
scraping stdout, which keeps the harness deterministic.

Consumers have two supported access paths:

- **queries** -- :meth:`EventLog.query` (kind / since-cycle / address
  filters), plus the :meth:`of_kind` / :meth:`count` / :meth:`last`
  conveniences, all served from per-kind indices instead of scans,
- **subscriptions** -- :meth:`EventLog.subscribe` delivers events to a
  callback at emit time, so detectors and the tracer never re-scan the
  log looking for what just happened.

The log is deliberately not iterable: full scans were the pattern that
made every consumer O(total events).
"""

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from repro.common.state import INT, OBJECT, SCALAR, TEXT, table


class EventKind(Enum):
    """Categories of events the simulation records."""

    ALLOC = "alloc"
    FREE = "free"
    ECC_FAULT = "ecc_fault"
    ECC_CORRECTED = "ecc_corrected"
    WATCH = "watch"
    UNWATCH = "unwatch"
    SCRUB = "scrub"
    PAGE_SWAP_OUT = "page_swap_out"
    PAGE_SWAP_IN = "page_swap_in"
    PROTECTION_FAULT = "protection_fault"
    LEAK_SUSPECT = "leak_suspect"
    LEAK_REPORT = "leak_report"
    LEAK_PRUNED = "leak_pruned"
    CORRUPTION_REPORT = "corruption_report"
    PANIC = "panic"
    SYSCALL = "syscall"
    ALERT = "alert"
    TREND = "trend"


@dataclass
class Event:
    """One timestamped record in the event log."""

    kind: EventKind
    cycle: int
    address: int = 0
    size: int = 0
    detail: dict = field(default_factory=dict)

    def __str__(self):
        extras = "".join(f" {k}={v}" for k, v in self.detail.items())
        return (
            f"[{self.cycle:>12}] {self.kind.value:<18}"
            f" addr={self.address:#010x} size={self.size}{extras}"
        )


def jsonable(value):
    """A scalar as-is; anything else as its string form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: event kind by its value, for decoding recorded events.
_KINDS = {kind.value: kind for kind in EventKind}


class EventLog:
    """Append-only log with indexed queries and emit-time subscriptions."""

    def __init__(self, clock):
        self._clock = clock
        self._events = []
        self._by_kind = {}
        #: kind (or None for every kind) -> list of callbacks.
        self._subscribers = {}

    def emit(self, kind, address=0, size=0, **detail):
        """Append an event stamped with the current CPU cycle."""
        event = Event(
            kind=kind,
            cycle=self._clock.cycles,
            address=address,
            size=size,
            detail=detail,
        )
        self._events.append(event)
        self._by_kind.setdefault(kind, []).append(event)
        for callback in self._subscribers.get(kind, ()):
            callback(event)
        for callback in self._subscribers.get(None, ()):
            callback(event)
        return event

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, callback, kind=None):
        """Call ``callback(event)`` on every future emit.

        ``kind`` limits delivery to one :class:`EventKind`; ``None``
        subscribes to everything.  Returns a token for
        :meth:`unsubscribe`.
        """
        self._subscribers.setdefault(kind, []).append(callback)
        return (kind, callback)

    def unsubscribe(self, token):
        """Cancel a subscription made with :meth:`subscribe`."""
        kind, callback = token
        callbacks = self._subscribers.get(kind, [])
        if callback in callbacks:
            callbacks.remove(callback)

    # ------------------------------------------------------------------
    # queries (index-backed; never a full scan per kind)
    # ------------------------------------------------------------------
    def query(self, kind=None, since_cycle=None, address=None,
              limit=None):
        """Filtered view of the log, oldest first.

        ``kind`` selects one event kind (index lookup); ``since_cycle``
        keeps events stamped at or after that cycle (binary search --
        the log is appended in non-decreasing cycle order);
        ``address``/``limit`` filter and truncate the result.
        """
        events = self._by_kind.get(kind, []) if kind is not None \
            else self._events
        if since_cycle is not None:
            events = events[_first_at_or_after(events, since_cycle):]
        elif events is self._events or kind is not None:
            events = list(events)
        if address is not None:
            events = [e for e in events if e.address == address]
        if limit is not None:
            events = events[-limit:]
        return events

    def of_kind(self, kind):
        """Return all events of the given :class:`EventKind`."""
        return list(self._by_kind.get(kind, ()))

    def count(self, kind):
        """Return how many events of ``kind`` were recorded."""
        return len(self._by_kind.get(kind, ()))

    def last(self, kind=None):
        """Return the most recent event, optionally filtered by kind."""
        events = self._events if kind is None else \
            self._by_kind.get(kind, [])
        return events[-1] if events else None

    def clear(self):
        """Drop all recorded events (subscriptions stay installed)."""
        self._events.clear()
        self._by_kind.clear()

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Every event as ``[kind, cycle, address, size, detail]``, with
        non-scalar detail values in their string form (the encoding
        every event comparison uses)."""
        return {"events": [
            [event.kind.value, event.cycle, event.address, event.size,
             {key: jsonable(value) for key, value in event.detail.items()}]
            for event in self._events
        ]}

    def load_state(self, state):
        """Replace the log with :meth:`state_dict` output; nothing is
        delivered to subscribers."""
        rows = table(state["events"], (TEXT, INT, INT, INT, OBJECT),
                     "events")
        details = [row[4] for row in rows]
        if not set(map(type, chain.from_iterable(
                map(dict.values, details)))) <= SCALAR:
            raise TypeError("event details must hold only scalars")
        unknown = {row[0] for row in rows} - set(_KINDS)
        if unknown:
            raise ValueError(f"unknown event kind(s) {sorted(unknown)}")
        events = [Event(_KINDS[kind], cycle, address, size, detail)
                  for kind, cycle, address, size, detail in rows]
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        self._events = events
        self._by_kind = by_kind

    # ------------------------------------------------------------------
    # size
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self._events)


def _first_at_or_after(events, cycle):
    """Index of the first event with ``event.cycle >= cycle``."""
    lo, hi = 0, len(events)
    while lo < hi:
        mid = (lo + hi) // 2
        if events[mid].cycle < cycle:
            lo = mid + 1
        else:
            hi = mid
    return lo
