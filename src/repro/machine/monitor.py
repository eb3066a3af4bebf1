"""Monitor interface: how dynamic bug-detection tools attach to a program.

A monitor interposes on exactly the two surfaces the paper's tools use:

- **allocation calls** (``malloc``/``calloc``/``realloc``/``free``) --
  both SafeMem and Purify wrap these,
- **memory accesses** (``before_load``/``before_store``) -- only
  Purify-style tools pay work here; SafeMem deliberately does *not*
  intercept accesses, which is the source of its low overhead, and
- **instruction cost** -- Purify's link-time instrumentation dilates
  ordinary computation; SafeMem leaves it untouched.

The :class:`NullMonitor` is the unmonitored baseline run against which
overhead percentages are computed.
"""

from repro.common.errors import ConfigurationError
from repro.common.state import mapping


class Monitor:
    """Base monitor: transparent pass-through to the program's allocator."""

    name = "base"

    def __init__(self):
        self.program = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, program):
        """Bind this monitor to a program.  Called once by Program."""
        if self.program is not None:
            raise ConfigurationError(
                f"monitor {self.name!r} is already attached"
            )
        self.program = program
        self.on_attach()

    def on_attach(self):
        """Hook for subclasses; runs after ``self.program`` is set."""

    def on_exit(self):
        """Hook invoked by ``Program.exit()`` (end-of-run checks)."""

    # ------------------------------------------------------------------
    # allocation interposition
    # ------------------------------------------------------------------
    def malloc(self, size, call_signature):
        return self.program.allocator.malloc(size)

    def calloc(self, count, size, call_signature):
        address = self.malloc(count * size, call_signature)
        self.program.zero_memory(address, count * size)
        return address

    def realloc(self, address, new_size, call_signature):
        return self.program.allocator.realloc(address, new_size)

    def free(self, address):
        self.program.allocator.free(address)

    # ------------------------------------------------------------------
    # access interposition
    # ------------------------------------------------------------------
    def before_load(self, vaddr, size):
        """Called before every program load.  Default: free."""

    def before_store(self, vaddr, size):
        """Called before every program store.  Default: free."""

    # ------------------------------------------------------------------
    # cost shaping
    # ------------------------------------------------------------------
    def instruction_cost(self):
        """Cycles per simulated ALU instruction under this monitor."""
        return self.program.machine.costs.instruction


class NullMonitor(Monitor):
    """The native, unmonitored run (baseline for overhead numbers)."""

    name = "native"

    def state_dict(self):
        """Nothing: the native monitor keeps no state of its own."""
        return {}

    def load_state(self, state):
        if mapping(state, "native monitor state"):
            raise ValueError(f"the native monitor keeps no state, got "
                             f"{sorted(state)}")
