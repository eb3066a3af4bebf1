"""Memory-corruption detection (paper Section 4).

Buffer overflow: every allocation is laid out as

    [guard line(s)] [cache-line-aligned user buffer] [guard line(s)]

and the guard lines carry ECC watchpoints.  The first access to a guard
is, by construction, a bug; SafeMem "pauses program execution" -- here,
raises :class:`MonitorError` carrying the report.

Access to freed memory: a freed buffer is quarantined and its user
region stays watched until the quarantine recycles it (the paper's
"until the buffer is reallocated" window).

Uninitialized reads (the Section 4 extension): each fresh buffer line
is watched; the first *write* silently disarms that line, the first
*read* is reported.
"""

from collections import deque

from repro.common.constants import CACHE_LINE_SIZE, align_up
from repro.common.errors import InvalidFree, MonitorError
from repro.common.events import EventKind
from repro.common.state import (
    INT,
    LIST,
    OBJECT,
    OPTIONAL_INT,
    TEXT,
    fields_state,
    integer,
    integers,
    load_fields,
    record,
    scalars,
    table,
    text,
)
from repro.core.reports import CorruptionKind, CorruptionReport
from repro.core.watcher import WatchTag


class BufferLayout:
    """Guarded layout of one allocation."""

    __slots__ = ("block_address", "block_size", "user_address",
                 "user_size", "user_span", "pad_bytes",
                 "left_watch", "right_watch", "uninit_watches")

    def __init__(self, block_address, block_size, user_address, user_size,
                 user_span, pad_bytes):
        self.block_address = block_address
        self.block_size = block_size
        self.user_address = user_address
        self.user_size = user_size
        self.user_span = user_span
        self.pad_bytes = pad_bytes
        self.left_watch = None
        self.right_watch = None
        self.uninit_watches = []

    @property
    def waste_bytes(self):
        """Padding + alignment bytes this layout spends on monitoring."""
        return self.block_size - self.user_size

    def as_list(self):
        """Geometry plus its watches' region starts (``None`` where a
        watch is absent)."""
        return [self.block_address, self.block_size, self.user_address,
                self.user_size, self.user_span, self.pad_bytes,
                _vaddr(self.left_watch), _vaddr(self.right_watch),
                [watch.vaddr for watch in self.uninit_watches]]

    #: the column types of :meth:`as_list` rows.
    COLUMNS = (INT,) * 6 + (OPTIONAL_INT, OPTIONAL_INT, LIST)

    @classmethod
    def from_row(cls, row):
        """The layout of a checked :meth:`as_list` row, its watches
        still unlinked; returns ``(layout, watch vaddrs)``."""
        *geometry, left, right, uninit = row
        return cls(*geometry), (left, right,
                                integers(uninit, "uninit watches"))

    def link(self, vaddrs, watches):
        """Point the layout at the restored watches by region start."""
        left, right, uninit = vaddrs
        self.left_watch = watches.get(left)
        self.right_watch = watches.get(right)
        self.uninit_watches = [watches[vaddr] for vaddr in uninit]


def _vaddr(watch):
    return None if watch is None else watch.vaddr


class CorruptionDetector:
    """Guards allocations with ECC watchpoints; reports true positives."""

    def __init__(self, program, watcher, config, event_log):
        self.program = program
        self.allocator = program.allocator
        self.watcher = watcher
        self.config = config
        self.events = event_log
        self.reports = []
        self._layouts = {}
        self._quarantine = deque()
        self._quarantine_bytes = 0
        #: cumulative space accounting for Table 4.
        self.requested_bytes = 0
        self.monitor_waste_bytes = 0

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    #: the counters :meth:`state_dict` records.
    STATE_FIELDS = ("_quarantine_bytes", "requested_bytes",
                    "monitor_waste_bytes")

    def state_dict(self):
        """Reports, live layouts in allocation order, the quarantine as
        ``[layout, freed watch vaddr]`` in release order, and the
        counters."""
        return {
            **fields_state(self, self.STATE_FIELDS),
            "reports": [[report.kind.value, report.access_address,
                         report.access_type, report.buffer_address,
                         report.buffer_size, report.detected_at_cycle,
                         dict(report.detail)]
                        for report in self.reports],
            "layouts": [layout.as_list()
                        for layout in self._layouts.values()],
            "quarantine": [[layout.as_list(), _vaddr(watch)]
                           for layout, watch in self._quarantine],
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output, except the watch links.

        Returns every restored layout with its recorded watch starts,
        for :meth:`resolve_watch` and :meth:`link_watches`.
        """
        load_fields(self, state, self.STATE_FIELDS)
        self.reports = [
            CorruptionReport(CorruptionKind(kind), access, access_type,
                             buffer, size, cycle,
                             scalars(detail, "report detail"))
            for kind, access, access_type, buffer, size, cycle, detail
            in table(state["reports"], (TEXT, OPTIONAL_INT, TEXT, INT, INT,
                                        INT, OBJECT), "reports")]
        links = []
        self._layouts = {}
        for row in table(state["layouts"], BufferLayout.COLUMNS,
                         "layouts"):
            layout, vaddrs = BufferLayout.from_row(row)
            self._layouts[layout.user_address] = layout
            links.append((layout, vaddrs))
        quarantine = table(state["quarantine"], (LIST, OPTIONAL_INT),
                           "quarantine")
        rows = table([entry for entry, _ in quarantine],
                     BufferLayout.COLUMNS, "quarantined layouts")
        self._quarantine = deque()
        for row, (_, freed) in zip(rows, quarantine):
            layout, vaddrs = BufferLayout.from_row(row)
            self._quarantine.append((layout, freed))
            links.append((layout, vaddrs))
        return links

    def watch_reference(self, watch):
        """A guard, freed or uninit watch's payload as ``[user
        address]`` plus the side of a guard."""
        reference = [watch.payload["layout"].user_address]
        if watch.tag is WatchTag.PAD:
            reference.append(watch.payload["side"])
        return reference

    def resolve_watch(self, tag, reference, layouts):
        """``(on_hit, payload)`` of a recorded guard/freed/uninit watch;
        ``layouts`` maps user addresses to the restored layouts."""
        if tag is WatchTag.PAD:
            address, side = record(reference, 2, "guard watch")
            on_hit = self._on_guard_hit
            payload = {"side": text(side, "guard side")}
        else:
            address, = record(reference, 1, f"{tag.value} watch")
            on_hit = (self._on_freed_hit if tag is WatchTag.FREED
                      else self._on_uninit_hit)
            payload = {}
        layout = layouts.get(integer(address, "watched buffer"))
        if layout is None:
            raise ValueError(f"watch on unknown buffer {address:#x}")
        return on_hit, {"layout": layout, **payload}

    def link_watches(self, links, watches):
        """Point layouts and the quarantine at the restored watches
        (``{vaddr: watch}``)."""
        for layout, vaddrs in links:
            layout.link(vaddrs, watches)
        self._quarantine = deque(
            (layout, watches.get(vaddr))
            for layout, vaddr in self._quarantine)

    def register_metrics(self, metrics):
        """Publish ``safemem.corruption.*`` probes into a registry."""
        metrics.probe("safemem.corruption.reports",
                      lambda: len(self.reports), kind="counter")
        metrics.probe("safemem.corruption.quarantine_bytes",
                      lambda: self._quarantine_bytes, kind="gauge",
                      description="freed bytes held in quarantine")

    # ------------------------------------------------------------------
    # allocation path
    # ------------------------------------------------------------------
    def allocate(self, size, call_signature):
        """Guarded malloc.  Returns the user address."""
        pad = self.config.pad_lines * CACHE_LINE_SIZE
        user_span = align_up(size, CACHE_LINE_SIZE)
        block_size = pad + user_span + pad
        block = self.allocator.malloc(block_size,
                                      alignment=CACHE_LINE_SIZE)
        user = block + pad
        layout = BufferLayout(
            block_address=block,
            block_size=block_size,
            user_address=user,
            user_size=size,
            user_span=user_span,
            pad_bytes=pad,
        )
        layout.left_watch = self.watcher.watch(
            block, pad, WatchTag.PAD, self._on_guard_hit,
            payload={"layout": layout, "side": "left"},
        )
        layout.right_watch = self.watcher.watch(
            user + user_span, pad, WatchTag.PAD, self._on_guard_hit,
            payload={"layout": layout, "side": "right"},
        )
        if self.config.detect_uninit_reads:
            self._arm_uninit(layout)
        self._layouts[user] = layout
        self.requested_bytes += size
        self.monitor_waste_bytes += layout.waste_bytes
        return user

    def release(self, user_address):
        """Guarded free: disarm guards, quarantine + watch the buffer."""
        layout = self._layouts.pop(user_address, None)
        if layout is None:
            raise InvalidFree(
                f"free of address {user_address:#x} not returned by malloc"
            )
        for watch in (layout.left_watch, layout.right_watch):
            if watch is not None:
                self.watcher.unwatch(watch)
        # A released layout holds no guard watches.
        layout.left_watch = layout.right_watch = None
        self._disarm_uninit(layout)
        freed_watch = self.watcher.watch(
            layout.user_address, layout.user_span, WatchTag.FREED,
            self._on_freed_hit, payload={"layout": layout},
        )
        self._quarantine.append((layout, freed_watch))
        self._quarantine_bytes += layout.block_size
        self._drain_quarantine()

    def owns(self, user_address):
        return user_address in self._layouts

    def layout_of(self, user_address):
        return self._layouts.get(user_address)

    def live_layouts(self):
        return list(self._layouts.values())

    # ------------------------------------------------------------------
    # fault callbacks
    # ------------------------------------------------------------------
    def _on_guard_hit(self, watch, info):
        layout = watch.payload["layout"]
        report = CorruptionReport(
            kind=CorruptionKind.BUFFER_OVERFLOW,
            access_address=info.vaddr,
            access_type=info.access,
            buffer_address=layout.user_address,
            buffer_size=layout.user_size,
            detected_at_cycle=self.program.machine.clock.cycles,
            detail={"side": watch.payload["side"]},
        )
        self._report(report)
        return True  # unreachable: _report raises

    def _on_freed_hit(self, watch, info):
        layout = watch.payload["layout"]
        report = CorruptionReport(
            kind=CorruptionKind.USE_AFTER_FREE,
            access_address=info.vaddr,
            access_type=info.access,
            buffer_address=layout.user_address,
            buffer_size=layout.user_size,
            detected_at_cycle=self.program.machine.clock.cycles,
        )
        self._report(report)
        return True

    def _on_uninit_hit(self, watch, info):
        layout = watch.payload["layout"]
        if info.access == "write":
            # First write: legitimate initialisation.  Disarm this line
            # and let the store resume.
            self.watcher.unwatch(watch)
            layout.uninit_watches.remove(watch)
            return True
        report = CorruptionReport(
            kind=CorruptionKind.UNINITIALIZED_READ,
            access_address=info.vaddr,
            access_type=info.access,
            buffer_address=layout.user_address,
            buffer_size=layout.user_size,
            detected_at_cycle=self.program.machine.clock.cycles,
        )
        self._report(report)
        return True

    def _report(self, report):
        self.reports.append(report)
        self.events.emit(
            EventKind.CORRUPTION_REPORT,
            address=report.access_address,
            size=report.buffer_size,
            bug=report.kind.value,
        )
        # "SafeMem then simply pauses program execution to allow
        # programmers to attach an interactive debugger" (Sec 2.2.1).
        raise MonitorError(report)

    # ------------------------------------------------------------------
    # uninitialized-read watches (per line, so writes disarm lazily)
    # ------------------------------------------------------------------
    def _arm_uninit(self, layout):
        for vline in range(layout.user_address,
                           layout.user_address + layout.user_span,
                           CACHE_LINE_SIZE):
            watch = self.watcher.watch(
                vline, CACHE_LINE_SIZE, WatchTag.UNINIT,
                self._on_uninit_hit, payload={"layout": layout},
            )
            if watch is not None:
                layout.uninit_watches.append(watch)

    def _disarm_uninit(self, layout):
        for watch in list(layout.uninit_watches):
            self.watcher.unwatch(watch)
        layout.uninit_watches.clear()

    # ------------------------------------------------------------------
    # quarantine of freed buffers
    # ------------------------------------------------------------------
    def _drain_quarantine(self, drain_all=False):
        limit = 0 if drain_all else self.config.freed_quarantine_bytes
        while self._quarantine and self._quarantine_bytes > limit:
            layout, freed_watch = self._quarantine.popleft()
            if freed_watch is not None:
                self.watcher.unwatch(freed_watch)
            self.allocator.free(layout.block_address)
            self._quarantine_bytes -= layout.block_size

    def on_exit(self):
        """Disarm everything and return quarantined blocks to the heap."""
        self._drain_quarantine(drain_all=True)
        for layout in self.live_layouts():
            for watch in (layout.left_watch, layout.right_watch):
                if watch is not None:
                    self.watcher.unwatch(watch)
            self._disarm_uninit(layout)
