"""Continuous-memory-leak detection (paper Section 3).

Three steps, all driven from malloc/free time (never per access):

1. **Behaviour collection** -- group statistics in
   :class:`~repro.core.groups.GroupTable`.
2. **Outlier detection** -- at most once per checking-period:
   ALeak (group never frees, grows fast, still allocating) and
   SLeak (object outlives ``k x`` the group's stable maximal lifetime).
3. **False-positive pruning** -- suspects get ECC watchpoints; the
   first access prunes, a confirmation timeout reports a leak.
"""

from dataclasses import dataclass, fields

from repro.common.constants import CACHE_LINE_SIZE, align_up, line_base
from repro.common.events import EventKind
from repro.common.state import INT, TEXT, integer, record, table, text
from repro.core.groups import GroupTable
from repro.core.reports import LeakReport, PrunedSuspect
from repro.core.watcher import WatchTag


@dataclass
class SuspectRecord:
    """One suspicion event (kept for the Table 5 before/after counts)."""

    object_address: int
    group_size: int
    call_signature: int
    kind: str
    flagged_at_cycle: int


def records_state(items):
    """Report dataclasses as lists of their field values."""
    return [[getattr(item, f.name) for f in fields(item)] for item in items]


def load_records(cls, items, field):
    """Rebuild :func:`records_state` output: integer fields, plus a
    ``kind`` string."""
    columns = [TEXT if f.name == "kind" else INT for f in fields(cls)]
    return [cls(*row) for row in table(items, columns, field)]


class LeakDetector:
    """Lifetime-outlier leak detection with ECC pruning."""

    def __init__(self, program, watcher, config, event_log):
        self.program = program
        self.machine = program.machine
        self.watcher = watcher
        self.config = config
        self.events = event_log
        self.groups = GroupTable(tolerance=config.lifetime_tolerance)
        self.reports = []
        self.pruned = []
        #: every suspicion ever raised -- the "before pruning" number.
        self.suspect_records = []
        self._watched = {}
        self._last_check_cycle = 0
        self.skipped_watches = 0

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Group tables, reports, pruned and suspicion records, the
        watched suspects as ``[object address, watch vaddr]`` and the
        scan clock."""
        return {
            "groups": self.groups.state_dict(),
            "reports": records_state(self.reports),
            "pruned": records_state(self.pruned),
            "suspect_records": records_state(self.suspect_records),
            "watched": [[address, watch.vaddr]
                        for address, watch in self._watched.items()],
            "last_check_cycle": self._last_check_cycle,
            "skipped_watches": self.skipped_watches,
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output, except the watched map,
        which :meth:`link_watches` fills once the watches exist."""
        self.groups.load_state(state["groups"])
        self.reports = load_records(LeakReport, state["reports"], "reports")
        self.pruned = load_records(PrunedSuspect, state["pruned"], "pruned")
        self.suspect_records = load_records(
            SuspectRecord, state["suspect_records"], "suspect_records")
        self._last_check_cycle = integer(state["last_check_cycle"],
                                         "last_check_cycle")
        self.skipped_watches = integer(state["skipped_watches"],
                                       "skipped_watches")

    def watch_reference(self, watch):
        """A suspect watch's payload as ``[object address, kind]``."""
        return [watch.payload["object"].address, watch.payload["kind"]]

    def resolve_watch(self, reference):
        """``(on_hit, payload)`` of a recorded suspect watch."""
        address, kind = record(reference, 2, "suspect watch")
        group, obj = self.groups.lookup_address(
            integer(address, "suspect address"))
        if obj is None:
            raise ValueError(f"suspect watch on untracked object "
                             f"{address:#x}")
        return self._on_suspect_hit, {"group": group, "object": obj,
                                      "kind": text(kind, "suspect kind")}

    def link_watches(self, state, watches):
        """Fill the watched map from :meth:`state_dict`'s pairs and the
        restored watches (``{vaddr: watch}``)."""
        watched = {}
        for address, vaddr in table(state["watched"], (INT, INT),
                                    "watched"):
            watch = watches.get(vaddr)
            if watch is None:
                raise ValueError(f"suspect {address:#x} has no watch")
            watched[address] = watch
        self._watched = watched

    def register_metrics(self, metrics):
        """Publish ``safemem.leak.*`` probes into a metrics registry."""
        metrics.probe("safemem.leak.suspects",
                      lambda: len(self.suspect_records), kind="counter",
                      description="suspicions ever raised (pre-pruning)")
        metrics.probe("safemem.leak.pruned",
                      lambda: len(self.pruned), kind="counter")
        metrics.probe("safemem.leak.reports",
                      lambda: len(self.reports), kind="counter")
        metrics.probe("safemem.leak.skipped_watches",
                      lambda: self.skipped_watches, kind="counter")
        metrics.probe("safemem.leak.watched",
                      lambda: len(self._watched), kind="gauge",
                      description="suspects currently under ECC watch")
        metrics.probe("safemem.leak.groups",
                      lambda: len(self.groups), kind="gauge")

    # ------------------------------------------------------------------
    # step 1: behaviour collection at allocation/deallocation time
    # ------------------------------------------------------------------
    def on_alloc(self, address, size, call_signature):
        now = self.machine.clock.cycles
        self.machine.clock.tick(self.machine.costs.safemem_alloc_update)
        self.groups.on_alloc(address, size, call_signature, now,
                             key=self._group_key(size, call_signature))
        self._maybe_scan(now)

    def _group_key(self, size, call_signature):
        """Project the (size, callsig) pair per the configured grouping.

        The paper uses both components (Section 3); the ablation modes
        collapse one of them, merging groups that the full key keeps
        apart.
        """
        if self.config.grouping == "size":
            return size, 0
        if self.config.grouping == "callsig":
            return 0, call_signature
        return size, call_signature

    def on_free(self, address):
        now = self.machine.clock.cycles
        self.machine.clock.tick(self.machine.costs.safemem_alloc_update)
        group, obj = self.groups.on_free(address, now)
        if obj is not None and obj.address in self._watched:
            # A watched suspect was freed: the program still held its
            # pointer, so it was not a leak.  Quietly disarm.
            watch = self._watched.pop(obj.address)
            self.watcher.unwatch(watch)
        self._maybe_scan(now)
        return group, obj

    # ------------------------------------------------------------------
    # step 2: periodic outlier detection
    # ------------------------------------------------------------------
    def _maybe_scan(self, now):
        if now < self.config.warmup_cycles:
            return
        if now - self._last_check_cycle < self.config.checking_period_cycles:
            return
        self._last_check_cycle = now
        self.scan(now)

    def scan(self, now=None):
        """Run one outlier-detection pass (normally period-driven)."""
        if now is None:
            now = self.machine.clock.cycles
        cost = self.machine.costs.safemem_scan_per_group
        for group in self.groups:
            self.machine.clock.tick(cost)
            if group.ever_freed:
                self._check_sleak(group, now)
            else:
                self._check_aleak(group, now)
        self._check_confirmations(now)

    def _check_aleak(self, group, now):
        threshold = self.config.aleak_live_threshold * group.aleak_backoff
        if group.live_count < threshold:
            return
        if now - group.last_alloc_cycle > \
                self.config.aleak_recent_window_cycles:
            # Not actively growing: likely init-time allocations that
            # live for the whole run (explicitly not a leak, Sec 3.2.2).
            return
        for obj in group.oldest_live(self.config.max_suspects_per_group):
            if not obj.state:
                self._suspect(group, obj, "aleak", now)

    def _check_sleak(self, group, now):
        if group.max_lifetime == 0:
            return
        if group.stable_time < self.config.sleak_stable_time_cycles:
            # Condition 2 of Section 3.2.2: without a stable maximum the
            # detection confidence is too low; flag nothing.
            return
        limit = self.config.sleak_lifetime_multiplier * group.max_lifetime
        for obj in group.oldest_live(self.config.max_suspects_per_group):
            if obj.state:
                continue
            if obj.age(now) > limit:
                self._suspect(group, obj, "sleak", now)

    # ------------------------------------------------------------------
    # step 3: ECC pruning
    # ------------------------------------------------------------------
    def _suspect(self, group, obj, kind, now):
        if len(self._watched) >= self.config.max_watched_suspects:
            self.skipped_watches += 1
            return
        start = line_base(obj.address)
        end = align_up(obj.address + obj.size, CACHE_LINE_SIZE)
        watch = self.watcher.watch(
            start, end - start, WatchTag.LEAK_SUSPECT, self._on_suspect_hit,
            payload={"group": group, "object": obj, "kind": kind},
        )
        if watch is None:
            self.skipped_watches += 1
            return
        obj.state = "suspect"
        obj.watch_started_cycle = now
        self._watched[obj.address] = watch
        self.suspect_records.append(SuspectRecord(
            object_address=obj.address,
            group_size=group.size,
            call_signature=group.call_signature,
            kind=kind,
            flagged_at_cycle=now,
        ))
        self.events.emit(EventKind.LEAK_SUSPECT, address=obj.address,
                         size=obj.size, leak_kind=kind)

    def _on_suspect_hit(self, watch, info):
        """First access to a suspect: a pruned false positive."""
        group = watch.payload["group"]
        obj = watch.payload["object"]
        kind = watch.payload["kind"]
        now = self.machine.clock.cycles
        self.watcher.unwatch(watch)
        self._watched.pop(obj.address, None)
        lived = obj.age(now)
        if kind == "sleak":
            # Adopt this lifetime as the new expected maximum so similar
            # objects do not get re-flagged (Section 3.2.3).
            group.raise_max_lifetime(lived, now)
        else:
            # An ALeak suspect that is still in use: back the group's
            # threshold off so it is not immediately re-flagged.
            group.aleak_backoff *= 2
        group.refresh_object(obj, now)
        obj.prune_count += 1
        self.pruned.append(PrunedSuspect(
            object_address=obj.address,
            group_size=group.size,
            call_signature=group.call_signature,
            kind=kind,
            watched_for_cycles=now - obj.watch_started_cycle,
        ))
        self.events.emit(EventKind.LEAK_PRUNED, address=obj.address,
                         leak_kind=kind)
        return True

    def _check_confirmations(self, now):
        confirm = self.config.leak_confirm_cycles
        for address, watch in list(self._watched.items()):
            obj = watch.payload["object"]
            if now - obj.watch_started_cycle < confirm:
                continue
            group = watch.payload["group"]
            kind = watch.payload["kind"]
            self.watcher.unwatch(watch)
            del self._watched[address]
            obj.state = "reported"
            group.retire(obj)
            report = LeakReport(
                object_address=obj.address,
                object_size=obj.size,
                group_size=group.size,
                call_signature=group.call_signature,
                kind=kind,
                allocated_at_cycle=obj.alloc_cycle,
                reported_at_cycle=now,
            )
            self.reports.append(report)
            self.events.emit(EventKind.LEAK_REPORT, address=obj.address,
                             size=obj.size, leak_kind=kind)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_exit(self):
        """Final confirmation pass, then disarm everything."""
        self._check_confirmations(self.machine.clock.cycles)
        for address, watch in list(self._watched.items()):
            self.watcher.unwatch(watch)
            watch.payload["object"].state = ""
        self._watched.clear()

    # ------------------------------------------------------------------
    # introspection for experiments
    # ------------------------------------------------------------------
    def watched_suspects(self):
        return dict(self._watched)
