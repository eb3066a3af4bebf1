"""Workload framework: the simulated applications of the paper's Table 1.

The paper evaluates on seven real buggy programs.  We cannot run real
ypserv/squid binaries inside a Python machine model, so each workload is
a *behavioural* model: a request-driven program whose allocation
structure (object groups, lifetimes, allocation rate relative to
computation, buffer sizes, access mix) matches the published bug class
of the original application.  Every workload has:

- a **normal mode** (used for overhead/space measurements, like the
  paper's bug-free overhead runs), and
- a **buggy mode** in which the documented bug manifests (continuous
  leaks, or a corrupting access).

Workloads report **ground truth** -- exactly which objects leaked and
which access corrupted memory -- so experiments can score true/false
positives without relying on the detector under test.
"""

import random
from dataclasses import dataclass, field

from repro.common.errors import MonitorError
from repro.common.state import (
    integer,
    integers,
    load_rng_state,
    record,
    rng_state,
    text,
)
from repro.workloads.fixtures import TouchedCache


@dataclass
class GroundTruth:
    """What really happened during a workload run."""

    #: user addresses of objects the program genuinely leaked.
    leaked_addresses: set = field(default_factory=set)
    #: the corrupting access, if the bug fired: (kind, address).
    corruption: tuple = None
    #: the MonitorError raised by the attached tool, if any.
    detection: MonitorError = None
    requests_completed: int = 0
    #: cumulative CPU cycles after each completed request.  Purely
    #: cycle-derived (the simulated clock), so identical across serial
    #: and sharded runs; steady-state overhead analysis reads these.
    cycle_marks: list = field(default_factory=list)

    def state_dict(self):
        """Everything but ``detection``, which only a finished run
        has (a detection ends the request loop)."""
        return {
            "leaked_addresses": sorted(self.leaked_addresses),
            "corruption": (list(self.corruption)
                           if self.corruption is not None else None),
            "requests_completed": self.requests_completed,
            "cycle_marks": list(self.cycle_marks),
        }

    @classmethod
    def from_state(cls, state):
        corruption = state["corruption"]
        if corruption is not None:
            kind, address = record(corruption, 2, "corruption")
            corruption = (text(kind, "corruption kind"),
                          integer(address, "corruption address"))
        return cls(
            leaked_addresses=set(integers(state["leaked_addresses"],
                                          "leaked_addresses")),
            corruption=corruption,
            requests_completed=integer(state["requests_completed"],
                                       "requests_completed"),
            cycle_marks=list(integers(state["cycle_marks"], "cycle_marks")))


class Workload:
    """Base class: subclasses model one application from Table 1."""

    #: application name as in the paper's Table 1.
    name = "base"
    #: lines of code of the real application (Table 1, documentation).
    loc = 0
    #: one-line description (Table 1).
    description = ""
    #: bug class: "aleak", "sleak", "overflow", or "uaf".
    bug = None
    #: default number of requests for a full experiment run.
    default_requests = 400
    #: attributes ``setup`` fills with addresses (an int or a list of
    #: ints) that :meth:`state_dict` records.
    state_fields = ()
    #: attributes ``setup`` fills with a :class:`TouchedCache`.
    fixture_fields = ()

    def __init__(self, requests=None, seed=0):
        self.requests = requests or self.default_requests
        self.seed = seed
        self.rng = random.Random(seed)
        #: the ground truth a state image restored, or None: the next
        #: :meth:`run` skips setup and continues after its
        #: ``requests_completed`` requests.
        self.restored = None

    # ------------------------------------------------------------------
    # template method
    # ------------------------------------------------------------------
    def run(self, program, buggy=False, request_hook=None):
        """Drive the program through ``self.requests`` requests.

        In buggy corruption workloads the corrupting access raises
        :class:`MonitorError` when a detector is attached; the harness
        records it in the ground truth and stops (the paper's SafeMem
        pauses the program at the first corruption fault).

        ``request_hook(index, truth)`` runs after each completed
        request, at the quiescent boundary between requests.  Hooks
        must be observation-only (checkpoint capture, progress
        reporting): ticking the clock or touching program state from
        one would desynchronize the run from its un-hooked twin.

        A workload restored from a state image (:attr:`restored` set)
        skips setup and continues from the boundary it was captured
        at.
        """
        program.workload = self
        truth, self.restored = self.restored, None
        if truth is None:
            truth = GroundTruth()
            self.setup(program, truth)
        try:
            for index in range(truth.requests_completed, self.requests):
                self.handle_request(program, index, buggy, truth)
                truth.requests_completed = index + 1
                truth.cycle_marks.append(program.cpu_time)
                if request_hook is not None:
                    request_hook(index, truth)
        except MonitorError as error:
            truth.detection = error
        finally:
            self.teardown(program, truth)
            program.exit()
        return truth

    # durable state (repro.state/v1) ------------------------------------
    def state_dict(self):
        """The input RNG and the fields ``setup`` filled."""
        state = {"rng": rng_state(self.rng)}
        for name in self.state_fields:
            value = getattr(self, name)
            state[name] = list(value) if isinstance(value, list) else value
        for name in self.fixture_fields:
            state[name] = getattr(self, name).state_dict()
        return state

    def load_state(self, program, state):
        """Restore :meth:`state_dict` output into a fresh instance,
        in place of ``setup`` (``program`` is the restored program)."""
        load_rng_state(self.rng, state["rng"])
        for name in self.state_fields:
            value = state[name]
            setattr(self, name, list(integers(value, name))
                    if isinstance(value, list) else integer(value, name))
        for name in self.fixture_fields:
            setattr(self, name, TouchedCache.from_state(state[name]))

    # hooks -------------------------------------------------------------
    def setup(self, program, truth):
        """Allocate long-lived state before the request loop."""

    def handle_request(self, program, index, buggy, truth):
        raise NotImplementedError

    def teardown(self, program, truth):
        """Release state after the loop (default: nothing)."""


def fill(program, address, size, pattern=b"\xab"):
    """Write ``size`` patterned bytes -- a cheap 'the app used this'."""
    program.store(address, pattern * size)


def read_back(program, address, size):
    """Read ``size`` bytes -- models the app consuming a buffer."""
    return program.load(address, size)
