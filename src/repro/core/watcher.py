"""User-level ECC watch manager.

This is SafeMem's private library layer over the three kernel calls
(Section 2.2): it saves the original contents of every watched region
in SafeMem's private memory, owns the single registered ECC fault
handler, and -- on each fault -- performs the paper's discrimination
step: recompute the scrambled value from the saved original and compare
it with what is actually in memory.  A match means *access fault*
(watchpoint hit, dispatched to the owner's callback); a mismatch means
a *genuine hardware error*.

For hardware errors inside watched regions the paper observes that the
stored data "is not critical" because SafeMem holds the original copy;
we follow its suggestion and transparently repair the line from the
saved original instead of panicking.
"""

from dataclasses import dataclass, field
from enum import Enum

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import PinLimitExceeded, SyscallError
from repro.common.state import (
    INT,
    LIST,
    TEXT,
    decode_bytes,
    encode_bytes,
    fields_state,
    load_fields,
    table,
)


class WatchTag(Enum):
    """Why a region is being watched."""

    LEAK_SUSPECT = "leak_suspect"
    PAD = "pad"
    FREED = "freed"
    UNINIT = "uninit"


@dataclass
class Watch:
    """One armed region plus its saved original contents."""

    vaddr: int
    size: int
    tag: WatchTag
    original: bytes
    on_hit: object
    started_cycle: int
    payload: dict = field(default_factory=dict)

    def original_line(self, vline):
        offset = vline - self.vaddr
        return self.original[offset:offset + CACHE_LINE_SIZE]


class EccWatchManager:
    """All of SafeMem's active watchpoints.

    Watches are keyed by region start; a line resolves to its region
    through the kernel's watch registry, the one line index.
    """

    def __init__(self, machine):
        self.machine = machine
        self.kernel = machine.kernel
        # Expected-scramble computation must use the same codec the
        # kernel armed the lines with (chipset profiles vary it).
        self._scramble_bytes = self.kernel.controller.codec.scramble_bytes
        self._by_region = {}
        self.arm_count = 0
        self.disarm_count = 0
        self.pin_failures = 0
        self.hardware_errors_repaired = 0
        self.unclaimed_faults = 0
        self._suspended = []
        self.kernel.register_ecc_fault_handler(self._handle_fault)
        self.kernel.add_scrub_listener(pre=self.suspend_all,
                                       post=self.resume_all)
        metrics = getattr(machine, "metrics", None)
        if metrics is not None:
            self.register_metrics(metrics)

    #: the counters :meth:`state_dict` records next to the watches.
    STATE_FIELDS = ("arm_count", "disarm_count", "pin_failures",
                    "hardware_errors_repaired", "unclaimed_faults")

    def state_dict(self, reference):
        """Counters and every armed watch as ``[vaddr, size, tag,
        original, started_cycle, ref]``, in arming order.

        ``reference(watch)`` turns a watch's payload into JSON-able
        data (the owning detector knows what its payloads point at);
        the ``on_hit`` callbacks are never stored.
        """
        return {
            **fields_state(self, self.STATE_FIELDS),
            "watches": [[watch.vaddr, watch.size, watch.tag.value,
                         encode_bytes(watch.original), watch.started_cycle,
                         reference(watch)]
                        for watch in self._by_region.values()],
        }

    def load_state(self, state, resolve):
        """Restore :meth:`state_dict` output into an empty manager.

        ``resolve(tag, ref)`` returns the ``(on_hit, payload)`` pair a
        recorded reference stands for, re-binding each callback by
        its watch tag.
        """
        if self._by_region:
            raise ValueError("the watch manager is not empty")
        load_fields(self, state, self.STATE_FIELDS)
        for vaddr, size, tag, original, started, reference in table(
                state["watches"], (INT, INT, TEXT, TEXT, INT, LIST),
                "watches"):
            tag = WatchTag(tag)
            on_hit, payload = resolve(tag, reference)
            self._by_region[vaddr] = Watch(
                vaddr=vaddr, size=size, tag=tag,
                original=decode_bytes(original, "watch original"),
                on_hit=on_hit, started_cycle=started, payload=payload)

    def register_metrics(self, metrics):
        """Publish ``safemem.watch.*`` probes into a metrics registry."""
        metrics.probe("safemem.watch.arms", lambda: self.arm_count,
                      kind="counter")
        metrics.probe("safemem.watch.disarms", lambda: self.disarm_count,
                      kind="counter")
        metrics.probe("safemem.watch.pin_failures",
                      lambda: self.pin_failures, kind="counter")
        metrics.probe("safemem.watch.hw_repaired",
                      lambda: self.hardware_errors_repaired,
                      kind="counter",
                      description="hardware errors repaired from the "
                                  "saved originals")
        metrics.probe("safemem.watch.unclaimed_faults",
                      lambda: self.unclaimed_faults, kind="counter")
        metrics.probe("safemem.watch.armed",
                      lambda: len(self._by_region), kind="gauge",
                      description="regions currently armed")

    # ------------------------------------------------------------------
    # arming / disarming
    # ------------------------------------------------------------------
    def watch(self, vaddr, size, tag, on_hit, payload=None):
        """Arm a watchpoint.  Returns the Watch, or ``None`` when the
        kernel refused (pin budget, overlap) -- monitoring degrades
        gracefully rather than breaking the program."""
        return self._arm(Watch(vaddr=vaddr, size=size, tag=tag,
                               original=b"", on_hit=on_hit,
                               started_cycle=0, payload=payload or {}))

    def _arm(self, watch):
        """Arm ``watch``'s region, saving its current contents as the
        watch's original; the watch goes last in arming order.  Re-arming
        a disarmed watch keeps its identity, so whoever holds it (a
        buffer layout, the quarantine) still holds the armed one."""
        original = self.machine.read_virtual_raw(watch.vaddr, watch.size)
        try:
            self.kernel.watch_memory(watch.vaddr, watch.size)
        except PinLimitExceeded:
            self.pin_failures += 1
            return None
        except SyscallError:
            return None
        watch.original = original
        watch.started_cycle = self.machine.clock.cycles
        self._by_region[watch.vaddr] = watch
        self.arm_count += 1
        return watch

    def unwatch(self, watch, restore=True):
        """Disarm; by default the saved original contents are restored."""
        if self._by_region.pop(watch.vaddr, None) is None:
            return
        self.kernel.disable_watch_memory(
            watch.vaddr,
            restore_data=watch.original if restore else None,
        )
        self.disarm_count += 1

    def is_watched(self, vaddr):
        return self.watch_for(vaddr) is not None

    def watch_for(self, vaddr):
        """This manager's watch over the line holding ``vaddr``."""
        region = self.kernel.watches.region_of_vline(
            vaddr - (vaddr % CACHE_LINE_SIZE))
        if region is None:
            return None
        return self._by_region.get(region.vaddr)

    def active_watches(self):
        return list(self._by_region.values())

    def unwatch_all(self, restore=True):
        for watch in self.active_watches():
            self.unwatch(watch, restore=restore)

    # ------------------------------------------------------------------
    # scrub coordination (Section 2.2.2)
    # ------------------------------------------------------------------
    def suspend_all(self):
        """Temporarily disarm everything (called before a scrub pass)."""
        self._suspended = self.active_watches()
        for watch in self._suspended:
            self.unwatch(watch, restore=True)

    def resume_all(self):
        """Re-arm the regions suspended for scrubbing."""
        suspended, self._suspended = self._suspended, []
        for watch in suspended:
            self._arm(watch)

    # ------------------------------------------------------------------
    # the user-level ECC fault handler
    # ------------------------------------------------------------------
    def _handle_fault(self, info):
        self.machine.clock.tick(self.machine.costs.safemem_handler_check)
        if not info.watched or info.vaddr is None:
            # Not one of ours: a genuine hardware error on an unwatched
            # line.  Decline; the kernel panics, as stock systems do.
            self.unclaimed_faults += 1
            return False
        vline = info.vaddr - (info.vaddr % CACHE_LINE_SIZE)
        watch = self.watch_for(vline)
        if watch is None:
            self.unclaimed_faults += 1
            return False
        current = self.kernel.peek_watched_line(vline)
        expected = self._scramble_bytes(watch.original_line(vline))
        if current != expected:
            # The line does not carry the scramble signature: a real
            # hardware error struck a watched (non-critical) region.
            # Repair it from the saved original and keep watching.
            self._repair_line(watch, vline)
            self.hardware_errors_repaired += 1
            return True
        return watch.on_hit(watch, info)

    def _repair_line(self, watch, vline):
        # Rewrite the faulted line with the scrambled original so the
        # watchpoint stays armed with consistent contents: disarm the
        # whole region and re-arm it.
        self.unwatch(watch, restore=True)
        self._arm(watch)
