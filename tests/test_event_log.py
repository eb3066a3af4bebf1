"""The columnar event log against a plain list of events.

``ListLog`` below is the reference: it keeps every event as one object
in a list and answers each read with a scan, and it shares no code
with :mod:`repro.common.events` (not even its JSON encoding).  A
hypothesis rule machine drives both with the same random emits --
every kind, non-decreasing cycles, addresses and sizes the int64
columns cannot hold, and details that are empty, shared, unique or
non-scalar -- interleaved with subscribe/unsubscribe (callbacks that
emit from inside delivery, callbacks that scribble on what they
receive), ``clear``, ``state_dict`` -> JSON -> ``load_state`` round
trips and read-only views.  After every step each read API must agree
with the reference, value types included, and scribbling on what a
read returned must change nothing a later read sees.
"""

import json
from enum import Enum

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.clock import VirtualClock
from repro.common.events import EventKind, EventLog

#: the kind an echoing subscriber emits (and never echoes).
ECHO = EventKind.ALERT


class Origin(Enum):
    """A non-scalar detail value (recorded by its string form)."""

    READ = "read"


class RefEvent:
    """One reference event."""

    def __init__(self, kind, cycle, address, size, detail):
        self.kind = kind
        self.cycle = cycle
        self.address = address
        self.size = size
        self.detail = detail


def encoded(value):
    """The reference's JSON form of a detail value."""
    if value is None or type(value) in (str, int, float, bool):
        return value
    return str(value)


class ListLog:
    """A list of events, scanned on every read."""

    def __init__(self, clock):
        self.clock = clock
        self.events = []
        self.subscribers = {}

    def emit(self, kind, address, size, detail):
        event = RefEvent(kind, self.clock.cycles, address, size,
                         dict(detail))
        self.events.append(event)
        delivered = RefEvent(kind, event.cycle, address, size,
                             dict(detail))
        for callback in self.subscribers.get(kind, []):
            callback(delivered)
        for callback in self.subscribers.get(None, []):
            callback(delivered)

    def subscribe(self, callback, kind):
        self.subscribers.setdefault(kind, []).append(callback)

    def unsubscribe(self, callback, kind):
        self.subscribers[kind].remove(callback)

    def query(self, kind=None, since_cycle=None, address=None,
              limit=None):
        found = [event for event in self.events
                 if (kind is None or event.kind is kind)
                 and (since_cycle is None or event.cycle >= since_cycle)
                 and (address is None or event.address == address)]
        if limit is None:
            return found
        return found[-limit:] if limit else []

    def state(self):
        return {"events": [
            [event.kind.value, event.cycle, event.address, event.size,
             {key: encoded(value) for key, value in event.detail.items()}]
            for event in self.events]}

    def load(self, state):
        kinds = {kind.value: kind for kind in EventKind}
        self.events = [RefEvent(kinds[kind], cycle, address, size, detail)
                       for kind, cycle, address, size, detail
                       in state["events"]]


def exact(value):
    """``value`` with its type, so 1, 1.0 and True differ."""
    return (type(value).__name__, repr(value))


def fingerprint(event):
    """Everything an event holds, types and detail key order included."""
    if event is None:
        return None
    return (event.kind, exact(event.cycle), exact(event.address),
            exact(event.size),
            tuple((key, exact(value))
                  for key, value in event.detail.items()))


def fingerprints(events):
    return [fingerprint(event) for event in events]


def scribble(events):
    """Change every returned event, as a careless reader would."""
    for event in events:
        if event is not None:
            event.detail["scribbled"] = True
            event.address = "scribbled"


#: addresses and sizes: small shared ints (so address queries match),
#: then what an int64 column cannot hold, its sentinel included.
INTS = (st.integers(0, 3) | st.integers(-(1 << 63), (1 << 63) - 1)
        | st.sampled_from([-(1 << 63), 1 << 63, -(1 << 70), None, True,
                           False]))
SCALARS = (st.none() | st.booleans() | st.integers(-2, 2)
           | st.sampled_from([1.0, 0.0, -0.0, 2.5]) | st.text(max_size=3))
KEYS = st.sampled_from(["name", "leak_kind", "value", "rule"])
DETAILS = st.one_of(
    st.just({}),
    st.sampled_from([{"name": "WatchMemory"},
                     {"name": "DisableWatchMemory"},
                     {"leak_kind": "lifetime", "rule": "heap"},
                     {"rule": "heap", "leak_kind": "lifetime"}]),
    st.dictionaries(KEYS, SCALARS, max_size=3),
    # equal under ==, told apart only by type
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False]).map(
        lambda value: {"value": value}),
    st.dictionaries(KEYS, st.sampled_from([Origin.READ, (1, 2), [3]]),
                    min_size=1, max_size=2),
)
KINDS = st.sampled_from(list(EventKind))


class EventLogMachine(RuleBasedStateMachine):
    """EventLog equals ListLog after every step."""

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.log = EventLog(self.clock)
        self.reference = ListLog(self.clock)
        #: (log token, reference callback, kind, log seen, reference seen)
        self.subscriptions = []
        #: (view, the reference's events when it was taken)
        self.views = []

    @rule(kind=KINDS, advance=st.integers(0, 50), address=INTS, size=INTS,
          detail=DETAILS)
    def emit(self, kind, advance, address, size, detail):
        self.clock.tick(advance)
        self.log.emit(kind, address, size, **detail)
        self.reference.emit(kind, address, size, detail)

    @staticmethod
    def _callback(emit, seen, echo, scribbles):
        def callback(event):
            seen.append(fingerprint(event))
            if scribbles:
                event.detail["scribbled"] = True
            if echo and event.kind is not ECHO:
                emit(event.address, event.size, echo=event.kind.value)
        return callback

    @rule(kind=st.none() | KINDS, echo=st.booleans(),
          scribbles=st.booleans())
    def subscribe(self, kind, echo, scribbles):
        log_seen, reference_seen = [], []
        token = self.log.subscribe(self._callback(
            lambda a, s, **d: self.log.emit(ECHO, a, s, **d),
            log_seen, echo, scribbles), kind=kind)
        callback = self._callback(
            lambda a, s, **d: self.reference.emit(ECHO, a, s, d),
            reference_seen, echo, scribbles)
        self.reference.subscribe(callback, kind)
        self.subscriptions.append(
            (token, callback, kind, log_seen, reference_seen))

    @precondition(lambda self: self.subscriptions)
    @rule(data=st.data())
    def unsubscribe(self, data):
        index = data.draw(st.integers(0, len(self.subscriptions) - 1))
        token, callback, kind, log_seen, reference_seen = \
            self.subscriptions.pop(index)
        self.log.unsubscribe(token)
        self.reference.unsubscribe(callback, kind)
        assert log_seen == reference_seen

    @rule()
    def clear(self):
        self.log.clear()
        self.reference.events = []

    @rule(into_fresh_log=st.booleans())
    def round_trip(self, into_fresh_log):
        state = self.log.state_dict()
        expected = self.reference.state()
        assert json.dumps(state) == json.dumps(expected)
        if not all(type(row[2]) is int and type(row[3]) is int
                   for row in expected["events"]):
            return  # a state image holds integer addresses and sizes
        text = json.dumps(state)
        if into_fresh_log:
            fresh = EventLog(self.clock)
            fresh.load_state(json.loads(text))
            assert json.dumps(fresh.state_dict()) == text
        self.log.load_state(json.loads(text))
        self.reference.load(json.loads(text))

    @precondition(lambda self: len(self.views) < 4)
    @rule()
    def take_view(self):
        self.views.append((self.log.view(),
                           fingerprints(self.reference.events)))

    @invariant()
    def reads_agree(self):
        for _ in range(2):  # the second pass reads after scribbling
            self._compare()

    def _compare(self):
        log, reference = self.log, self.reference
        assert len(log) == len(reference.events)
        cycles = sorted({event.cycle for event in reference.events})
        addresses = [event.address for event in reference.events][:3]
        forms = [{}]
        for kind in [None, *EventKind]:
            forms.append({"kind": kind})
            for cycle in cycles[-2:]:
                forms.append({"kind": kind, "since_cycle": cycle})
                forms.append({"kind": kind, "since_cycle": cycle,
                              "limit": 1})
        for address in [*addresses, 3]:
            if address is not None:
                forms.append({"address": address})
                forms.append({"address": address, "limit": 2})
        for limit in (0, 1, 3):
            forms.append({"limit": limit})
        returned = []
        for form in forms:
            got = log.query(**form)
            assert fingerprints(got) == \
                fingerprints(reference.query(**form)), form
            returned.extend(got)
        for kind in EventKind:
            expected = reference.query(kind=kind)
            got = log.of_kind(kind)
            assert fingerprints(got) == fingerprints(expected)
            assert log.count(kind) == len(expected)
            last = log.last(kind)
            assert fingerprint(last) == \
                (fingerprint(expected[-1]) if expected else None)
            returned.extend([*got, last])
        last = log.last()
        assert fingerprint(last) == (fingerprint(reference.events[-1])
                                     if reference.events else None)
        returned.append(last)
        for view, expected in self.views:
            assert fingerprints(view) == expected
            assert fingerprints(view[1:-1]) == expected[1:-1]
            returned.extend(view)
        assert json.dumps(log.state_dict()) == \
            json.dumps(reference.state())
        for token, callback, kind, log_seen, reference_seen in \
                self.subscriptions:
            assert log_seen == reference_seen
        scribble(returned)


EventLogMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
)

TestEventLogAgainstAList = EventLogMachine.TestCase
