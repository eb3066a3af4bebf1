"""ECC interrupt delivery.

Stock operating systems panic on a multi-bit ECC error (Section 2.1).
The paper's modified kernel instead forwards the fault to a registered
user-level handler (``RegisterECCFaultHandler``).  The handler decides
whether the fault is a watchpoint hit (scramble signature matches) or a
genuine hardware error; unhandled faults still panic.
"""

from dataclasses import dataclass

from repro.common.errors import MachinePanic
from repro.common.events import EventKind
from repro.common.state import fields_state, load_fields


@dataclass
class EccFaultInfo:
    """What a user-level ECC fault handler receives.

    ``vaddr`` is the *virtual* base address of the faulting cache line
    when the kernel could attribute the physical line to a watched
    region (or to any mapped page); ``None`` otherwise.  ``watched`` is
    True when the line lies inside a registered watch region.
    """

    paddr: int
    vaddr: int
    watched: bool
    syndrome: int
    origin: str
    #: "read" or "write": what the interrupted instruction was doing.
    #: (A write still trips the watchpoint via its write-allocate line
    #: fill; the kernel knows the instruction and reports its kind.)
    access: str = "read"


class InterruptController:
    """Routes uncorrectable ECC faults to the user handler or panics."""

    def __init__(self, clock, cost_model, event_log=None, metrics=None,
                 tracer=None):
        self.clock = clock
        self.costs = cost_model
        self.event_log = event_log
        self.tracer = tracer
        self.user_handler = None
        self.delivered = 0
        self.panics = 0
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``kernel.irq.*`` probes into a metrics registry."""
        metrics.probe("kernel.irq.delivered", lambda: self.delivered,
                      kind="counter")
        metrics.probe("kernel.irq.panics", lambda: self.panics,
                      kind="counter")

    #: the counters :meth:`state_dict` records (the handler is
    #: re-registered by the monitor that owns it).
    STATE_FIELDS = ("delivered", "panics")

    def state_dict(self):
        return fields_state(self, self.STATE_FIELDS)

    def load_state(self, state):
        load_fields(self, state, self.STATE_FIELDS)

    def register_handler(self, handler):
        """Install the user-level ECC fault handler (may be ``None``)."""
        self.user_handler = handler

    def deliver(self, info):
        """Deliver one fault.  Raises :class:`MachinePanic` if unhandled.

        Returns normally when the handler claimed the fault, in which
        case the machine retries the interrupted access.
        """
        if self.event_log is not None:
            self.event_log.emit(
                EventKind.ECC_FAULT,
                address=info.vaddr if info.vaddr is not None else info.paddr,
                paddr=info.paddr,
                watched=info.watched,
                origin=info.origin,
            )
        if self.user_handler is None:
            self._panic(info, "no ECC fault handler registered")
        self.clock.tick(self.costs.fault_delivery)
        self.delivered += 1
        if self.tracer is not None:
            with self.tracer.span("ecc.handler", paddr=info.paddr,
                                  watched=info.watched):
                handled = self.user_handler(info)
        else:
            handled = self.user_handler(info)
        if not handled:
            self._panic(info, "ECC fault handler did not claim the fault")

    def _panic(self, info, reason):
        self.panics += 1
        if self.event_log is not None:
            self.event_log.emit(
                EventKind.PANIC, address=info.paddr, reason=reason
            )
        raise MachinePanic(
            f"kernel panic: uncorrectable ECC error at physical "
            f"{info.paddr:#010x} ({reason})"
        )
