"""Periodic memory scrubber (Correct-and-Scrub mode).

The paper's design issue "Dealing with ECC Memory Scrubbing"
(Section 2.2.2): a scrub pass reads every line, so it would trip every
armed watchpoint.  SafeMem therefore coordinates with the OS -- before a
scrub pass the kernel notifies listeners (SafeMem temporarily unwatches
everything and blocks the program), and re-notifies afterwards.

The :class:`Scrubber` here implements the pass itself plus the
notification hooks the kernel wires up.
"""

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.errors import ConfigurationError
from repro.common.state import (
    fields_state,
    integer,
    load_fields,
    record,
    sequence,
    text,
)
from repro.ecc.controller import EccMode
from repro.ecc.faults import EccFault, FaultOrigin, FaultSeverity


class Scrubber:
    """Walks DRAM line by line, correcting latent single-bit errors.

    ``interval_cycles`` is the chipset profile's scrub cadence: how
    many simulated cycles elapse between background passes.  The
    scrubber itself stays demand-driven (callers decide when to run a
    pass), but :meth:`due` lets schedulers honour the profile's
    cadence without reaching into the profile themselves.
    """

    def __init__(self, controller, clock=None, cost_model=None,
                 interval_cycles=None):
        self.controller = controller
        self.clock = clock
        self.cost_model = cost_model
        self.interval_cycles = interval_cycles
        self.last_pass_cycle = 0
        #: Callbacks invoked around a scrub pass; the kernel registers
        #: hooks here so user tools can unwatch/rewatch their regions.
        self.pre_scrub_hooks = []
        self.post_scrub_hooks = []
        self.passes_completed = 0
        self.lines_scrubbed = 0
        self.faults_found = []

    def due(self, cycle=None):
        """True when the profile's scrub interval has elapsed.

        Always False without an ``interval_cycles`` (no background
        cadence configured).  ``cycle`` defaults to the clock's current
        cycle when the scrubber has a clock.
        """
        if self.interval_cycles is None:
            return False
        if cycle is None:
            if self.clock is None:
                return False
            cycle = self.clock.wall_time
        return cycle - self.last_pass_cycle >= self.interval_cycles

    #: the counters :meth:`state_dict` records next to the faults.
    STATE_FIELDS = ("last_pass_cycle", "passes_completed",
                    "lines_scrubbed")

    def state_dict(self):
        """Counters and the uncorrectable faults found so far (the
        hooks are re-registered by their owners)."""
        return {
            **fields_state(self, self.STATE_FIELDS),
            "faults_found": [
                [fault.address, fault.line_address, fault.severity.value,
                 fault.origin.value, fault.syndrome, fault.codec]
                for fault in self.faults_found],
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        load_fields(self, state, self.STATE_FIELDS)
        faults = []
        for item in sequence(state["faults_found"], "faults_found"):
            address, line, severity, origin, syndrome, codec = record(
                item, 6, "fault")
            faults.append(EccFault(
                integer(address, "fault address"),
                integer(line, "fault line"),
                FaultSeverity(text(severity, "fault severity")),
                FaultOrigin(text(origin, "fault origin")),
                integer(syndrome, "fault syndrome"),
                text(codec, "fault codec")))
        self.faults_found = faults

    def add_hooks(self, pre=None, post=None):
        """Register pre/post scrub callbacks (e.g. SafeMem coordination)."""
        if pre is not None:
            self.pre_scrub_hooks.append(pre)
        if post is not None:
            self.post_scrub_hooks.append(post)

    def scrub_pass(self, start=0, length=None):
        """Run one full scrub pass over ``[start, start+length)``.

        Returns the list of uncorrectable faults discovered.  Single-bit
        errors are corrected silently by the controller.
        """
        if self.controller.mode is not EccMode.CORRECT_AND_SCRUB:
            raise ConfigurationError(
                "scrubbing requires Correct-and-Scrub mode, controller is "
                f"in {self.controller.mode.value}"
            )
        if length is None:
            length = self.controller.dram.size - start
        if start % CACHE_LINE_SIZE or length % CACHE_LINE_SIZE:
            raise ConfigurationError(
                "scrub range must be cache-line aligned"
            )

        for hook in self.pre_scrub_hooks:
            hook()
        faults = []
        try:
            for line in range(start, start + length, CACHE_LINE_SIZE):
                fault = self.controller.scrub_line(line)
                self.lines_scrubbed += 1
                self._charge_line()
                if fault is not None:
                    faults.append(fault)
        finally:
            for hook in self.post_scrub_hooks:
                hook()
        self.passes_completed += 1
        self.faults_found.extend(faults)
        if self.clock is not None:
            self.last_pass_cycle = self.clock.wall_time
        return faults

    def _charge_line(self):
        if self.clock is not None and self.cost_model is not None:
            self.clock.idle(self.cost_model.scrub_line)
