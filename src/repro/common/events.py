"""Structured event log shared by the machine and the monitoring tools.

Components append events to a single :class:`EventLog` owned by the
machine.  Experiments and tests query the log instead of scraping
stdout, which keeps the harness deterministic.

The log is stored as columns: per event a kind code, its cycle,
address and size, and a reference to its detail record.  Equal
details whose values are all strings (a syscall's name, a leak's kind)
share one record, and an empty detail is one record for the whole
log, so the tens of thousands of watch and syscall events of a
monitored run keep no Python object of their own.  An :class:`Event`
is a snapshot built when something reads it, with its own ``detail``
dict: changing it changes nothing the log returns later.

Consumers have three supported access paths:

- **queries** -- :meth:`EventLog.query` (kind / since-cycle / address
  filters, then a ``limit`` tail), plus the :meth:`of_kind` /
  :meth:`count` / :meth:`last` conveniences, all served from per-kind
  position indices instead of scans; only the events a query returns
  are built,
- **views** -- :meth:`EventLog.view` is a read-only sequence of the
  events recorded so far that builds each event when it is read,
- **subscriptions** -- :meth:`EventLog.subscribe` delivers events to a
  callback at emit time, so detectors and the tracer never re-scan the
  log looking for what just happened.

The log is deliberately not iterable: full scans were the pattern that
made every consumer O(total events).
"""

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from repro.common.state import INT, OBJECT, SCALAR, TEXT, table


class EventKind(Enum):
    """Categories of events the simulation records (the event-kind
    table in docs/OBSERVABILITY.md says who emits each one and what
    its fields hold)."""

    ECC_FAULT = "ecc_fault"
    ECC_CORRECTED = "ecc_corrected"
    WATCH = "watch"
    UNWATCH = "unwatch"
    PROTECTION_FAULT = "protection_fault"
    LEAK_SUSPECT = "leak_suspect"
    LEAK_REPORT = "leak_report"
    LEAK_PRUNED = "leak_pruned"
    CORRUPTION_REPORT = "corruption_report"
    PANIC = "panic"
    SYSCALL = "syscall"
    ALERT = "alert"
    TREND = "trend"


#: kinds by column code (definition order).  Each kind also carries its
#: code as ``kind.code``: an enum member hashes through a Python call,
#: so the log keys nothing by kind on the emit path.
_KINDS = tuple(EventKind)
for _code, _kind in enumerate(_KINDS):
    _kind.code = _code
#: column code by kind value, for decoding recorded events.
_CODES = {kind.value: kind.code for kind in _KINDS}

#: what an address or size column holds where the event's value is not
#: a plain int64 (``None``, a bool, a larger int, or this value itself);
#: the value is kept in the columns' ``spilled`` map instead.
_SPILLED = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: the one record every event without detail shares.
_NO_DETAIL = {}


@dataclass
class Event:
    """One timestamped record of the event log, as a snapshot: the log
    builds a fresh one for every read, so changing it changes nothing
    the log returns later."""

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


def _record(shared, detail):
    """The record stored for ``detail``: the log-wide empty record, the
    one ``shared`` record of an equal all-string detail, or ``detail``
    itself (read-only from here on)."""
    if not detail:
        return _NO_DETAIL
    for value in detail.values():
        if type(value) is not str:
            return detail
    return shared.setdefault(tuple(detail.items()), detail)


def _fits(values):
    """Can every int of ``values`` sit in an address or size column?"""
    return not values or (min(values) > _SPILLED
                          and max(values) <= _INT64_MAX)


class _Columns:
    """One log's events, a column each.

    Append-only: :meth:`EventLog.clear` and :meth:`EventLog.load_state`
    start a new set, so a view of this one keeps its contents.
    """

    __slots__ = ("codes", "cycles", "addresses", "sizes", "details",
                 "spilled")

    def __init__(self):
        self.codes = bytearray()
        self.cycles = array("q")
        self.addresses = array("q")
        self.sizes = array("q")
        self.details = []
        #: position -> (address, size) of events the int columns cannot
        #: hold.
        self.spilled = {}

    def append(self, code, cycle, address, size, record):
        """Add one event; returns its position."""
        position = len(self.codes)
        self.cycles.append(cycle)  # first: the one append that can fail
        if (type(address) is int and type(size) is int
                and _SPILLED < address <= _INT64_MAX
                and _SPILLED < size <= _INT64_MAX):
            self.addresses.append(address)
            self.sizes.append(size)
        else:
            self.spilled[position] = (address, size)
            self.addresses.append(_SPILLED)
            self.sizes.append(_SPILLED)
        self.codes.append(code)
        self.details.append(record)
        return position

    def address(self, position):
        """The address of the event at ``position``."""
        address = self.addresses[position]
        return (address if address != _SPILLED
                else self.spilled[position][0])

    def event(self, position):
        """A fresh :class:`Event` for the event at ``position``."""
        address = self.addresses[position]
        size = self.sizes[position]
        if address == _SPILLED:
            address, size = self.spilled[position]
        return Event(_KINDS[self.codes[position]], self.cycles[position],
                     address, size, dict(self.details[position]))


class EventView(Sequence):
    """A read-only sequence of logged events, each built when read.

    It holds positions into one column set, so it keeps its length and
    contents while the log grows, clears or loads a state image.
    Slicing gives another view.
    """

    __slots__ = ("_columns", "_positions")

    def __init__(self, columns, positions):
        self._columns = columns
        self._positions = positions

    def __len__(self):
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventView(self._columns, self._positions[index])
        return self._columns.event(self._positions[index])

    def __iter__(self):
        return map(self._columns.event, self._positions)


class EventLog:
    """Append-only columnar log with indexed queries, read-only views
    and emit-time subscriptions."""

    def __init__(self, clock):
        self._clock = clock
        #: kind code (or None for every kind) -> list of callbacks.
        self._subscribers = {}
        self.clear()

    def emit(self, kind, address=0, size=0, **detail):
        """Append an event stamped with the current CPU cycle."""
        code = kind.code
        position = self._columns.append(code, self._clock.cycles, address,
                                        size, _record(self._shared, detail))
        self._positions[code].append(position)
        subscribers = self._subscribers
        if subscribers.get(code) or subscribers.get(None):
            self._deliver(code, position)

    def _deliver(self, code, position):
        """Call the kind's subscribers, then everyone's, with one
        snapshot of the event."""
        event = self._columns.event(position)
        for callback in self._subscribers.get(code, ()):
            callback(event)
        for callback in self._subscribers.get(None, ()):
            callback(event)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, callback, kind=None):
        """Call ``callback(event)`` on every future emit.

        ``kind`` limits delivery to one :class:`EventKind`; ``None``
        subscribes to everything.  An emit's callbacks share one
        snapshot of its event.  Returns a token for
        :meth:`unsubscribe`.
        """
        key = None if kind is None else kind.code
        self._subscribers.setdefault(key, []).append(callback)
        return (kind, callback)

    def unsubscribe(self, token):
        """Cancel a subscription made with :meth:`subscribe`."""
        kind, callback = token
        callbacks = self._subscribers.get(
            None if kind is None else kind.code, [])
        if callback in callbacks:
            callbacks.remove(callback)

    # ------------------------------------------------------------------
    # queries (index-backed; never a full scan per kind)
    # ------------------------------------------------------------------
    def _of(self, kind):
        """Positions of ``kind``'s events (every event's for None)."""
        if kind is None:
            return range(len(self._columns.codes))
        return self._positions[kind.code]

    def query(self, kind=None, since_cycle=None, address=None,
              limit=None):
        """Filtered view of the log, oldest first, as fresh events.

        ``kind`` selects one event kind (index lookup); ``since_cycle``
        keeps events stamped at or after that cycle (binary search --
        the log is appended in non-decreasing cycle order);
        ``address``/``limit`` filter and truncate the result.  Only
        the returned events are built.
        """
        columns = self._columns
        positions = self._of(kind)
        if since_cycle is not None:
            positions = positions[_first_at_or_after(
                positions, columns.cycles, since_cycle):]
        if address is not None:
            positions = [position for position in positions
                         if columns.address(position) == address]
        if limit is not None:
            positions = positions[max(len(positions) - limit, 0):]
        return list(map(columns.event, positions))

    def of_kind(self, kind):
        """Return all events of the given :class:`EventKind`."""
        return list(map(self._columns.event, self._of(kind)))

    def count(self, kind):
        """Return how many events of ``kind`` were recorded."""
        return len(self._of(kind))

    def last(self, kind=None):
        """Return the most recent event, optionally filtered by kind."""
        positions = self._of(kind)
        return self._columns.event(positions[-1]) if positions else None

    def view(self):
        """A read-only :class:`EventView` of every event recorded so
        far; later emits do not join it."""
        return EventView(self._columns, self._of(None))

    def clear(self):
        """Drop all recorded events (subscriptions stay installed)."""
        self._columns = _Columns()
        #: per kind code, the positions of that kind's events.
        self._positions = [array("q") for _ in _KINDS]
        #: all-string detail items -> the record equal details share.
        self._shared = {}

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Every event as ``[kind, cycle, address, size, detail]``, with
        non-scalar detail values in their string form (the encoding
        every event comparison uses).  Events sharing a record share
        its encoded detail dict."""
        columns = self._columns
        records = {id(record): record for record in columns.details}
        encoded = {key: {name: jsonable(value)
                         for name, value in record.items()}
                   for key, record in records.items()}
        values = [kind.value for kind in _KINDS]
        rows = [[values[code], cycle, address, size, encoded[id(record)]]
                for code, cycle, address, size, record in zip(
                    columns.codes, columns.cycles, columns.addresses,
                    columns.sizes, columns.details)]
        for position, (address, size) in columns.spilled.items():
            rows[position][2:4] = address, size
        return {"events": rows}

    def load_state(self, state):
        """Replace the log with :meth:`state_dict` output; nothing is
        delivered to subscribers."""
        rows = table(state["events"], (TEXT, INT, INT, INT, OBJECT),
                     "events")
        kinds, cycles, addresses, sizes, details = (
            zip(*rows) if rows else ((),) * 5)
        if not set(map(type, chain.from_iterable(
                map(dict.values, details)))) <= SCALAR:
            raise TypeError("event details must hold only scalars")
        unknown = set(kinds) - set(_CODES)
        if unknown:
            raise ValueError(f"unknown event kind(s) {sorted(unknown)}")
        shared = {}
        records = [_record(shared, detail) for detail in details]
        codes = bytearray(map(_CODES.__getitem__, kinds))
        columns = _Columns()
        if _fits(addresses) and _fits(sizes):
            columns.codes = codes
            columns.cycles = array("q", cycles)
            columns.addresses = array("q", addresses)
            columns.sizes = array("q", sizes)
            columns.details = records
        else:
            for row in zip(codes, cycles, addresses, sizes, records):
                columns.append(*row)
        positions = [array("q") for _ in _KINDS]
        for position, code in enumerate(codes):
            positions[code].append(position)
        self._columns, self._positions, self._shared = (
            columns, positions, shared)

    # ------------------------------------------------------------------
    # size
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self._columns.codes)


def _first_at_or_after(positions, cycles, cycle):
    """Index into ``positions`` of the first event with a cycle at or
    after ``cycle``."""
    lo, hi = 0, len(positions)
    while lo < hi:
        mid = (lo + hi) // 2
        if cycles[positions[mid]] < cycle:
            lo = mid + 1
        else:
            hi = mid
    return lo
