"""Allocation traces: record, generate, and replay.

The paper validates its lifetime-stability observation on three real
servers (Figure 3).  To study the detector beyond seven hand-built
models, this module adds:

- :class:`Trace` -- a portable event list (malloc/free/access/compute)
  with JSONL persistence,
- :class:`TraceRecorder` -- a monitor wrapper that records whatever a
  live program does (through any inner monitor),
- :class:`TraceReplayer` -- replays a trace onto a program under any
  monitor, translating object ids to the addresses that run produced,
- :class:`SyntheticTraceGenerator` -- parameterized workload synthesis:
  configurable group populations, lifetime distributions, leak
  injection, and touch patterns.  This is what lets the benchmarks run
  the detector against hundreds of object groups.
"""

import json
import random
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.schema import Field, Table
from repro.common.state import INT, TEXT
from repro.machine.monitor import Monitor

#: event kinds understood by the replayer.
KINDS = ("malloc", "free", "store", "load", "compute")

#: one line of a trace file (:meth:`TraceEvent.to_json`): the kind and
#: the fields that are not zero.
TRACE = Table("trace", {
    "k": Field(TEXT, choices=KINDS),
    **{key: Field(INT, required=False, low=0)
       for key in ("o", "s", "f", "l", "i")},
    "c": Field(INT, required=False),
}, label="trace event", closed=True)


@dataclass
class TraceEvent:
    """One replayable event.

    Addresses never appear in traces: objects are named by the ordinal
    of their allocation (``obj``), so a trace replays identically under
    allocators that place objects differently (native vs SafeMem's
    padded layout vs Purify's red zones).
    """

    kind: str
    obj: int = None
    size: int = 0
    offset: int = 0
    length: int = 0
    instructions: int = 0
    site: int = 0

    def to_json(self):
        payload = {"k": self.kind}
        if self.obj is not None:  # object id 0 is valid
            payload["o"] = self.obj
        for attr, key in (("size", "s"), ("offset", "f"),
                          ("length", "l"), ("instructions", "i"),
                          ("site", "c")):
            value = getattr(self, attr)
            if value:
                payload[key] = value
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line):
        """Parse one trace line; a line :data:`TRACE` rejects is a
        :class:`ConfigurationError` naming the field."""
        try:
            payload = json.loads(line)
        except ValueError as error:
            raise ConfigurationError(
                f"trace event is not JSON: {error.msg}") from None
        TRACE.check(payload)
        return cls(
            kind=payload["k"],
            obj=payload.get("o"),
            size=payload.get("s", 0),
            offset=payload.get("f", 0),
            length=payload.get("l", 0),
            instructions=payload.get("i", 0),
            site=payload.get("c", 0),
        )


class Trace:
    """An ordered list of :class:`TraceEvent` with persistence."""

    def __init__(self, events=None):
        self.events = list(events or [])

    def append(self, event):
        self.events.append(event)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path):
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")

    @classmethod
    def load(cls, path):
        """Read a trace file; an unreadable file, or a malformed line,
        is a :class:`ConfigurationError` naming the file (and the
        line)."""
        try:
            with open(path) as handle:
                lines = handle.read().split("\n")
        except (OSError, ValueError) as error:
            raise ConfigurationError(f"cannot read {path}: {error}") from None
        events = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                events.append(TraceEvent.from_json(line))
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"{path} line {number}: {error}") from None
        return cls(events)

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------
    def stats(self):
        mallocs = sum(1 for e in self.events if e.kind == "malloc")
        frees = sum(1 for e in self.events if e.kind == "free")
        accesses = sum(1 for e in self.events
                       if e.kind in ("load", "store"))
        instructions = sum(e.instructions for e in self.events
                           if e.kind == "compute")
        sites = {e.site for e in self.events if e.kind == "malloc"}
        return {
            "events": len(self.events),
            "mallocs": mallocs,
            "frees": frees,
            "never_freed": mallocs - frees,
            "accesses": accesses,
            "instructions": instructions,
            "allocation_sites": len(sites),
        }


class TraceRecorder(Monitor):
    """Monitor wrapper that records a program's behaviour to a Trace.

    Wraps an inner monitor (default: pass-through) so the recorded run
    can itself be monitored.  Accesses outside heap objects (globals)
    are recorded as absolute events with ``obj=None`` and skipped on
    replay mismatch.
    """

    name = "trace-recorder"

    def __init__(self, inner=None):
        super().__init__()
        self.inner = inner
        self.trace = Trace()
        self._object_ids = {}
        self._next_id = 0

    def on_attach(self):
        if self.inner is not None:
            self.inner.attach(self.program)

    def on_exit(self):
        if self.inner is not None:
            self.inner.on_exit()

    def instruction_cost(self):
        if self.inner is not None:
            return self.inner.instruction_cost()
        return self.program.machine.costs.instruction

    # -- allocation ------------------------------------------------------
    def malloc(self, size, call_signature):
        if self.inner is not None:
            address = self.inner.malloc(size, call_signature)
        else:
            address = self.program.allocator.malloc(size)
        obj = self._next_id
        self._next_id += 1
        self._object_ids[address] = (obj, size)
        self.trace.append(TraceEvent(kind="malloc", obj=obj, size=size,
                                     site=call_signature))
        return address

    def free(self, address):
        entry = self._object_ids.pop(address, None)
        if entry is not None:
            self.trace.append(TraceEvent(kind="free", obj=entry[0]))
        if self.inner is not None:
            self.inner.free(address)
        else:
            self.program.allocator.free(address)

    # -- accesses ---------------------------------------------------------
    def before_load(self, vaddr, size):
        self._record_access("load", vaddr, size)
        if self.inner is not None:
            self.inner.before_load(vaddr, size)

    def before_store(self, vaddr, size):
        self._record_access("store", vaddr, size)
        if self.inner is not None:
            self.inner.before_store(vaddr, size)

    def _record_access(self, kind, vaddr, size):
        for address, (obj, obj_size) in self._object_ids.items():
            if address <= vaddr < address + obj_size:
                length = min(size, obj_size - (vaddr - address))
                self.trace.append(TraceEvent(
                    kind=kind, obj=obj, offset=vaddr - address,
                    length=length,
                ))
                return
        # Non-object access (globals): not replayable, skip.


class TraceReplayer:
    """Replay a trace onto a program under any monitor."""

    def __init__(self, trace):
        self.trace = trace
        self.skipped = 0

    def run(self, program):
        """Replay every event; returns a per-object address map."""
        addresses = {}
        for event in self.trace:
            if event.kind == "malloc":
                with program.frame(event.site or 0x1):
                    addresses[event.obj] = program.malloc(event.size)
            elif event.kind == "free":
                address = addresses.pop(event.obj, None)
                if address is None:
                    self.skipped += 1
                    continue
                program.free(address)
            elif event.kind in ("load", "store"):
                address = addresses.get(event.obj)
                if address is None:
                    self.skipped += 1
                    continue
                if event.kind == "load":
                    program.load(address + event.offset, event.length)
                else:
                    program.store(address + event.offset,
                                  b"\xaa" * event.length)
            elif event.kind == "compute":
                program.compute(event.instructions)
            else:
                raise ConfigurationError(
                    f"unknown trace event kind {event.kind!r}"
                )
        program.exit()
        return addresses


@dataclass
class GroupSpec:
    """Behaviour of one synthetic object group."""

    site: int
    size: int
    #: mean lifetime in *events*; None = never freed.  Lifetimes are
    #: exponential truncated at ``lifetime_cap_factor`` x mean: real
    #: object lifetimes are bounded by program structure (a request
    #: ends, a session times out), which is exactly why the paper's
    #: maximal-lifetime observation holds.  An unbounded distribution
    #: would keep setting records forever and no detector could use it.
    mean_lifetime_events: int = 40
    lifetime_cap_factor: float = 2.5
    #: probability an object of this group leaks (dropped, not freed).
    leak_probability: float = 0.0
    #: relative allocation weight.
    weight: float = 1.0
    #: long-lived resident objects allocated up front and touched
    #: every ``touch_period`` allocations of this group.
    residents: int = 0
    touch_period: int = 16


@dataclass
class SyntheticTraceGenerator:
    """Generate traces with a configurable group population.

    The default population is a caricature of a server: many
    short-lived request groups, a few mid-lived session groups, and a
    couple of resident caches.
    """

    groups: list = field(default_factory=list)
    events: int = 20_000
    compute_per_event: int = 20_000
    seed: int = 0

    def __post_init__(self):
        if not self.groups:
            self.groups = default_server_population()

    def generate(self):
        rng = random.Random(self.seed)
        trace = Trace()
        weights = [g.weight for g in self.groups]
        next_obj = 0
        #: obj -> (free_deadline_event, leaked)
        pending = []
        residents = []
        alloc_counts = {id(g): 0 for g in self.groups}
        leaked = set()

        # Resident objects up front.
        for group in self.groups:
            for _ in range(group.residents):
                trace.append(TraceEvent(kind="malloc", obj=next_obj,
                                        size=group.size, site=group.site))
                trace.append(TraceEvent(kind="store", obj=next_obj,
                                        offset=0, length=min(group.size,
                                                             32)))
                residents.append((group, next_obj))
                next_obj += 1

        for event_index in range(self.events):
            group = rng.choices(self.groups, weights=weights)[0]
            alloc_counts[id(group)] += 1

            # Allocate one object of this group.
            obj = next_obj
            next_obj += 1
            trace.append(TraceEvent(kind="malloc", obj=obj,
                                    size=group.size, site=group.site))
            trace.append(TraceEvent(kind="store", obj=obj, offset=0,
                                    length=min(group.size, 32)))
            if group.mean_lifetime_events is None:
                deadline = None
            elif rng.random() < group.leak_probability:
                deadline = None
                leaked.add(obj)
            else:
                cap = group.lifetime_cap_factor * \
                    group.mean_lifetime_events
                lifetime = max(1, int(min(
                    rng.expovariate(1.0 / group.mean_lifetime_events),
                    cap,
                )))
                deadline = event_index + lifetime
            if deadline is not None:
                pending.append((deadline, obj))

            # Touch residents on their period.
            for res_group, res_obj in residents:
                count = alloc_counts[id(res_group)]
                if count and count % res_group.touch_period == 0 and \
                        res_group is group:
                    trace.append(TraceEvent(
                        kind="load", obj=res_obj, offset=0,
                        length=min(res_group.size, 16),
                    ))

            # Free everything past its deadline.
            due = [(d, o) for d, o in pending if d <= event_index]
            for entry in due:
                pending.remove(entry)
                trace.append(TraceEvent(kind="free", obj=entry[1]))

            trace.append(TraceEvent(kind="compute",
                                    instructions=self.compute_per_event))

        # Orderly shutdown: free the remaining non-leaked objects.
        for _deadline, obj in pending:
            trace.append(TraceEvent(kind="free", obj=obj))
        return trace, leaked


def default_server_population(request_groups=24, session_groups=6,
                              cache_groups=2, leak_sites=1,
                              leak_probability=0.02, seed=0):
    """A parameterized server-like group population."""
    rng = random.Random(seed)
    groups = []
    site = 0x10_000
    for index in range(request_groups):
        groups.append(GroupSpec(
            site=site + index,
            size=rng.choice((32, 48, 64, 96, 128, 192, 256)),
            mean_lifetime_events=rng.randint(2, 12),
            weight=2.0,
        ))
    for index in range(session_groups):
        groups.append(GroupSpec(
            site=site + 0x1000 + index,
            size=rng.choice((256, 512, 1024)),
            mean_lifetime_events=rng.randint(40, 120),
            weight=0.8,
        ))
    for index in range(cache_groups):
        groups.append(GroupSpec(
            site=site + 0x2000 + index,
            size=2048,
            mean_lifetime_events=30,
            residents=3,
            touch_period=12,
            weight=0.4,
        ))
    for index in range(leak_sites):
        groups.append(GroupSpec(
            site=site + 0x3000 + index,
            size=80,
            mean_lifetime_events=6,
            leak_probability=leak_probability,
            weight=1.0,
        ))
    return groups
