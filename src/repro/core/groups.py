"""Memory object groups and per-group lifetime statistics.

Objects are grouped by ``(size, call-stack signature)`` (Section 3).
Each group tracks:

- the current **maximal lifetime** and how long it has been **stable**
  (``stable_time``) -- the basis of SLeak detection,
- live objects in allocation order (a doubly-linked list in the paper;
  an insertion-ordered dict here), so "the top few oldest" are cheap to
  find,
- usage counters (live count, total bytes, last allocation time) -- the
  basis of ALeak detection.
"""

from dataclasses import dataclass

from repro.common.state import (
    INT,
    TEXT,
    fields_state,
    integer,
    load_fields,
    sequence,
    table,
)


@dataclass(slots=True)
class LiveObject:
    """One live allocation as tracked by the leak detector (slotted:
    a run tracks thousands)."""

    address: int
    size: int
    alloc_cycle: int
    #: leak-detector state machine: "" (normal), "suspect" (watched),
    #: "reported" (leak already reported).
    state: str = ""
    watch_started_cycle: int = 0
    #: times this object was pruned (touched while watched).
    prune_count: int = 0

    def age(self, now):
        return now - self.alloc_cycle

    def as_list(self):
        return [self.address, self.size, self.alloc_cycle, self.state,
                self.watch_started_cycle, self.prune_count]

    #: the column types of :meth:`as_list` rows.
    COLUMNS = (INT, INT, INT, TEXT, INT, INT)


class MemoryObjectGroup:
    """All bookkeeping for one ``(size, callsig)`` object group."""

    #: the statistics :meth:`state_dict` records next to the objects.
    STATE_FIELDS = ("live_count", "live_bytes", "total_allocated",
                    "total_freed", "last_alloc_cycle", "max_lifetime",
                    "stable_time", "_last_stat_cycle",
                    "last_max_update_cycle", "aleak_backoff")

    def __init__(self, size, call_signature, tolerance=0.25):
        self.size = size
        self.call_signature = call_signature
        self.tolerance = tolerance
        #: insertion-ordered: oldest allocation first.
        self._live = {}
        #: objects already reported as leaks -- still allocated, but
        #: moved aside so they stop occupying the "oldest live" window.
        self._retired = {}
        self.live_count = 0
        self.live_bytes = 0
        self.total_allocated = 0
        self.total_freed = 0
        self.last_alloc_cycle = 0
        #: current maximal observed lifetime (cycles); 0 = nothing freed.
        self.max_lifetime = 0
        #: accumulated CPU time the maximum has been stable.
        self.stable_time = 0
        #: cycle of the last stability-clock update.
        self._last_stat_cycle = 0
        #: cycle at which max_lifetime last *grew* beyond tolerance --
        #: this group's WarmUpTime sample for Figure 3.
        self.last_max_update_cycle = 0
        #: per-group ALeak threshold backoff (doubles on each pruned
        #: ALeak false positive so the group is not re-flagged at once).
        self.aleak_backoff = 1

    @property
    def key(self):
        return (self.size, self.call_signature)

    def state_dict(self):
        """Key, statistics and the live and retired objects, each in
        allocation order."""
        return {
            "size": self.size,
            "call_signature": self.call_signature,
            **fields_state(self, self.STATE_FIELDS),
            "live": [obj.as_list() for obj in self._live.values()],
            "retired": [obj.as_list() for obj in self._retired.values()],
        }

    @classmethod
    def from_state(cls, state, tolerance):
        group = cls(integer(state["size"], "size"),
                    integer(state["call_signature"], "call_signature"),
                    tolerance=tolerance)
        load_fields(group, state, cls.STATE_FIELDS)
        for name in ("live", "retired"):
            objects = getattr(group, f"_{name}")
            for row in table(state[name], LiveObject.COLUMNS, name):
                objects[row[0]] = LiveObject(*row)
        return group

    @property
    def ever_freed(self):
        return self.total_freed > 0

    # ------------------------------------------------------------------
    # event recording (Step 1 of the detection process)
    # ------------------------------------------------------------------
    def record_alloc(self, address, size, now):
        """Register a new live object; returns the LiveObject."""
        obj = LiveObject(address=address, size=size, alloc_cycle=now)
        self._live[address] = obj
        self.live_count += 1
        self.live_bytes += size
        self.total_allocated += 1
        self.last_alloc_cycle = now
        return obj

    def record_free(self, address, now):
        """Unregister a live object and update lifetime statistics.

        Returns the removed LiveObject (or None for an address this
        group does not own -- the caller indexes objects globally).
        """
        obj = self._live.pop(address, None)
        if obj is None:
            obj = self._retired.pop(address, None)
        if obj is None:
            return None
        self.live_count -= 1
        self.live_bytes -= obj.size
        self.total_freed += 1
        self._observe_lifetime(obj.age(now), now)
        return obj

    def _observe_lifetime(self, lifetime, now):
        ceiling = self.max_lifetime * (1.0 + self.tolerance)
        if self.max_lifetime and lifetime <= ceiling:
            # Within the tolerable range: the maximum stays and its
            # stability clock accumulates the elapsed CPU time.
            self.stable_time += now - self._last_stat_cycle
        else:
            # A new (or first) maximum: reset stability.
            self.max_lifetime = max(self.max_lifetime, lifetime)
            self.stable_time = 0
            self.last_max_update_cycle = now
        self._last_stat_cycle = now

    # ------------------------------------------------------------------
    # queries used by the outlier detector (Step 2)
    # ------------------------------------------------------------------
    def oldest_live(self, count):
        """The ``count`` oldest live objects (allocation order)."""
        out = []
        for obj in self._live.values():
            out.append(obj)
            if len(out) == count:
                break
        return out

    def live_objects(self):
        return list(self._live.values()) + list(self._retired.values())

    def retire(self, obj):
        """Move a reported object out of the oldest-live window."""
        if obj.address in self._live:
            del self._live[obj.address]
            self._retired[obj.address] = obj

    def refresh_object(self, obj, now):
        """Move a pruned suspect to the back of the allocation order and
        restart its lifetime (paper Section 3.2.3: "this object's
        allocation time is reset to the current time")."""
        if obj.address in self._live:
            del self._live[obj.address]
            obj.alloc_cycle = now
            obj.state = ""
            self._live[obj.address] = obj

    def raise_max_lifetime(self, lifetime, now):
        """Adopt a pruned suspect's observed lifetime as the new maximum
        ("updated to be the current living time of this suspect")."""
        if lifetime > self.max_lifetime:
            self.max_lifetime = lifetime
            self.stable_time = 0
            self.last_max_update_cycle = now
            self._last_stat_cycle = now


class GroupTable:
    """All groups of one monitored program plus a global address index."""

    def __init__(self, tolerance=0.25):
        self.tolerance = tolerance
        self._groups = {}
        self._by_address = {}

    def __len__(self):
        return len(self._groups)

    def __iter__(self):
        return iter(self._groups.values())

    def group_for(self, size, call_signature):
        key = (size, call_signature)
        group = self._groups.get(key)
        if group is None:
            group = MemoryObjectGroup(size, call_signature,
                                      tolerance=self.tolerance)
            self._groups[key] = group
        return group

    def on_alloc(self, address, size, call_signature, now, key=None):
        """Register an allocation.

        ``key`` overrides the group key (used by the grouping-key
        ablation); the object itself always records its real size.
        """
        group_size, group_sig = key if key is not None \
            else (size, call_signature)
        group = self.group_for(group_size, group_sig)
        obj = group.record_alloc(address, size, now)
        self._by_address[address] = (group, obj)
        return group, obj

    def on_free(self, address, now):
        """Returns ``(group, obj)`` or ``(None, None)`` for foreign frees."""
        entry = self._by_address.pop(address, None)
        if entry is None:
            return None, None
        group, _obj = entry
        obj = group.record_free(address, now)
        return group, obj

    def lookup_address(self, address):
        return self._by_address.get(address, (None, None))

    def groups(self):
        return list(self._groups.values())

    def state_dict(self):
        """Every group in creation order (the address index is
        rebuilt from their objects)."""
        return {"groups": [group.state_dict()
                           for group in self._groups.values()]}

    def load_state(self, state):
        groups = {}
        by_address = {}
        for item in sequence(state["groups"], "groups"):
            group = MemoryObjectGroup.from_state(item, self.tolerance)
            groups[group.key] = group
            for obj in group.live_objects():
                by_address[obj.address] = (group, obj)
        self._groups = groups
        self._by_address = by_address
