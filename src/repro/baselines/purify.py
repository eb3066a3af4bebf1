"""Purify-style dynamic checker: the paper's comparison baseline.

Faithful to the mechanism the paper describes (Section 5.1):

- **two status bits per byte** of heap memory (unallocated /
  allocated-uninitialized / allocated-initialized / freed), checked on
  *every* load and store -- this per-access interception, plus the
  instrumentation dilation of ordinary computation, is where Purify's
  4.8x-49.3x slowdown comes from;
- **red zones** around each allocation so out-of-bounds accesses land
  on unallocated shadow state;
- **conservative mark-and-sweep** over the root set (globals) and the
  live heap to find unreferenced blocks, run periodically and at exit,
  pausing the program for the whole pass.
"""

from dataclasses import dataclass

from repro.common.clock import seconds_to_cycles
from repro.common.errors import MonitorError
from repro.core.reports import CorruptionKind, CorruptionReport, LeakReport
from repro.machine.monitor import Monitor

#: shadow states (2 bits per byte, stored one byte per byte for speed).
UNALLOCATED = 0
ALLOC_UNINIT = 1
ALLOC_INIT = 2
FREED = 3


@dataclass
class PurifyConfig:
    """Knobs of the Purify-style monitor."""

    #: CPU time between mark-and-sweep leak checks (0 disables periodic
    #: checks; the exit check still runs).
    sweep_interval_s: float = 0.1
    #: red-zone bytes on each side of every allocation.
    redzone_bytes: int = 16
    #: report reads of allocated-but-uninitialized bytes.
    detect_uninit: bool = True
    #: run a final mark-and-sweep when the program exits.
    leak_check_at_exit: bool = True

    @property
    def sweep_interval_cycles(self):
        return seconds_to_cycles(self.sweep_interval_s)


class Purify(Monitor):
    """Every-access shadow-memory checker with mark-and-sweep leaks."""

    name = "purify"

    def __init__(self, config=None):
        super().__init__()
        self.config = config or PurifyConfig()
        self.corruption_reports = []
        self.leak_reports = []
        self._shadow = None
        self._heap_base = 0
        self._heap_end = 0
        self._blocks = {}
        self._block_of_user = {}
        self._last_sweep_cycle = 0
        self.sweeps = 0
        self.words_swept = 0
        self.access_checks = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_attach(self):
        # numpy loads with the first Purify run, not with ``import
        # repro``: no other monitor uses it.
        import numpy as np

        program = self.program
        self._heap_base = program.heap_base
        self._heap_end = program.heap_base + program.heap_size
        self._shadow = np.zeros(program.heap_size, dtype=np.uint8)

    def on_exit(self):
        if self.config.leak_check_at_exit:
            self._mark_and_sweep(final=True)

    # ------------------------------------------------------------------
    # instrumentation dilation
    # ------------------------------------------------------------------
    def instruction_cost(self):
        return self.program.machine.costs.purify_instruction_cost()

    # ------------------------------------------------------------------
    # per-access checking
    # ------------------------------------------------------------------
    def before_load(self, vaddr, size):
        self._charge_check(size)
        states = self._states(vaddr, size)
        if states is None:
            return
        if (states == FREED).any():
            self._report(CorruptionKind.USE_AFTER_FREE, vaddr, "read", size)
        if (states == UNALLOCATED).any():
            self._report(CorruptionKind.BUFFER_OVERFLOW, vaddr, "read", size)
        if self.config.detect_uninit and (states == ALLOC_UNINIT).any():
            self._report(
                CorruptionKind.UNINITIALIZED_READ, vaddr, "read", size
            )

    def before_store(self, vaddr, size):
        self._charge_check(size)
        states = self._states(vaddr, size)
        if states is None:
            return
        if (states == FREED).any():
            self._report(CorruptionKind.USE_AFTER_FREE, vaddr, "write", size)
        if (states == UNALLOCATED).any():
            self._report(CorruptionKind.BUFFER_OVERFLOW, vaddr, "write",
                         size)
        # A store initializes the bytes it touches.
        states[states == ALLOC_UNINIT] = ALLOC_INIT

    def _states(self, vaddr, size):
        if vaddr < self._heap_base or vaddr + size > self._heap_end:
            return None  # non-heap access: checked but always legal here
        offset = vaddr - self._heap_base
        return self._shadow[offset:offset + size]

    def _charge_check(self, size):
        self.access_checks += 1
        machine = self.program.machine
        machine.clock.tick(
            machine.costs.purify_access_check
            + size * machine.costs.purify_access_check_per_byte
        )

    # ------------------------------------------------------------------
    # allocation interposition
    # ------------------------------------------------------------------
    def malloc(self, size, call_signature):
        red = self.config.redzone_bytes
        block = self.program.allocator.malloc(size + 2 * red)
        user = block + red
        self._blocks[user] = size
        self._block_of_user[user] = block
        self._set_state(user, size, ALLOC_UNINIT)
        self._charge_shadow_update(size)
        self._maybe_sweep()
        return user

    def free(self, address):
        size = self._blocks.pop(address, None)
        if size is None:
            # Let the allocator produce its usual diagnostics for a
            # wild or double free (Purify would also flag these).
            self.program.allocator.free(address)
            return
        block = self._block_of_user.pop(address)
        self._set_state(address, size, FREED)
        self._charge_shadow_update(size)
        self.program.allocator.free(block)
        self._maybe_sweep()

    def realloc(self, address, new_size, call_signature):
        if address is None:
            return self.malloc(new_size, call_signature)
        old_size = self._blocks.get(address, 0)
        keep = min(old_size, new_size)
        data = self.program.load(address, keep) if keep else b""
        self.free(address)
        new_address = self.malloc(new_size, call_signature)
        if data:
            self.program.store(new_address, data)
        return new_address

    def _set_state(self, address, size, state):
        offset = address - self._heap_base
        self._shadow[offset:offset + size] = state

    def _charge_shadow_update(self, size):
        machine = self.program.machine
        machine.clock.tick(
            size * machine.costs.purify_shadow_update_per_byte
        )

    # ------------------------------------------------------------------
    # mark-and-sweep leak detection
    # ------------------------------------------------------------------
    def _maybe_sweep(self):
        interval = self.config.sweep_interval_cycles
        if interval <= 0:
            return
        now = self.program.machine.clock.cycles
        if now - self._last_sweep_cycle >= interval:
            self._last_sweep_cycle = now
            self._mark_and_sweep()

    def _mark_and_sweep(self, final=False):
        """Conservative pointer scan; unreferenced live blocks leak.

        The program is paused for the duration: the whole cost lands on
        its CPU clock, exactly the service-time perturbation the paper
        criticises for server programs.
        """
        import numpy as np

        machine = self.program.machine
        self.sweeps += 1
        if not self._blocks:
            machine.clock.tick(machine.costs.purify_sweep_base)
            return

        starts = np.array(sorted(self._blocks), dtype=np.uint64)
        sizes = np.array([self._blocks[int(s)] for s in starts],
                         dtype=np.uint64)
        ends = starts + sizes
        reached = np.zeros(len(starts), dtype=bool)
        words_scanned = 0

        def scan(raw):
            nonlocal words_scanned
            usable = len(raw) - len(raw) % 8
            words = np.frombuffer(raw, dtype="<u8", count=usable // 8)
            words_scanned += len(words)
            candidates = words[
                (words >= self._heap_base) & (words < self._heap_end)
            ]
            return candidates

        worklist = []

        def mark(candidates):
            if len(candidates) == 0:
                return
            index = np.searchsorted(starts, candidates, side="right") - 1
            valid = index >= 0
            index = index[valid]
            candidates = candidates[valid]
            inside = candidates < ends[index]
            for i in np.unique(index[inside]):
                if not reached[i]:
                    reached[i] = True
                    worklist.append(int(starts[i]))

        roots = machine.read_virtual_raw(
            self.program.globals_base, self.program.globals_size
        )
        mark(scan(roots))
        while worklist:
            address = worklist.pop()
            size = self._blocks[address]
            mark(scan(machine.read_virtual_raw(address, size)))

        machine.clock.tick(
            machine.costs.purify_sweep_base
            + words_scanned * machine.costs.purify_sweep_per_word
        )
        self.words_swept += words_scanned

        now = machine.clock.cycles
        already = {r.object_address for r in self.leak_reports}
        for i in np.flatnonzero(~reached):
            address = int(starts[i])
            if address in already:
                continue
            self.leak_reports.append(LeakReport(
                object_address=address,
                object_size=int(sizes[i]),
                group_size=int(sizes[i]),
                call_signature=0,
                kind="mark_sweep",
                allocated_at_cycle=0,
                reported_at_cycle=now,
            ))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, kind, vaddr, access, size):
        report = CorruptionReport(
            kind=kind,
            access_address=vaddr,
            access_type=access,
            buffer_address=vaddr,
            buffer_size=size,
            detected_at_cycle=self.program.machine.clock.cycles,
        )
        self.corruption_reports.append(report)
        raise MonitorError(report)

    def statistics(self):
        return {
            "access_checks": self.access_checks,
            "sweeps": self.sweeps,
            "words_swept": self.words_swept,
            "corruption_reports": len(self.corruption_reports),
            "leak_reports": len(self.leak_reports),
        }
