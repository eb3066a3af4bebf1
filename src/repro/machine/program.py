"""Program model: the API workloads use to run on the simulated machine.

A :class:`Program` is one process: a globals region (the root set for
conservative pointer scanning), a heap arena, a call stack, and a bound
:class:`~repro.machine.monitor.Monitor`.  Every observable action --
computation, loads/stores, allocation -- flows through here so monitors
can interpose and the clock can charge cycles.
"""

import contextlib

from repro.common.clock import seconds_to_cycles
from repro.common.constants import align_up, PAGE_SIZE
from repro.common.errors import ConfigurationError
from repro.common.state import boolean
from repro.heap.allocator import Allocator
from repro.heap.callstack import CallStack
from repro.machine.monitor import Monitor, NullMonitor

#: Default address-space layout.
GLOBALS_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000

#: Word size for pointer loads/stores.
WORD_SIZE = 8


class Program:
    """One simulated process bound to a machine and a monitor."""

    def __init__(self, machine, monitor=None, heap_size=8 * 1024 * 1024,
                 globals_size=256 * 1024, entry_pc=0x400000):
        self.machine = machine
        self.globals_base = GLOBALS_BASE
        self.globals_size = align_up(globals_size, PAGE_SIZE)
        self.heap_base = HEAP_BASE
        self.heap_size = align_up(heap_size, PAGE_SIZE)
        machine.kernel.mmap(self.globals_base, self.globals_size)
        machine.kernel.mmap(self.heap_base, self.heap_size)
        self.allocator = Allocator(
            self.heap_base, self.heap_size,
            clock=machine.clock, costs=machine.costs,
            metrics=getattr(machine, "metrics", None),
        )
        self.stack = CallStack(entry_pc=entry_pc)
        self.monitor = monitor if monitor is not None else NullMonitor()
        self.monitor.attach(self)
        self.exited = False
        #: the :class:`~repro.workloads.base.Workload` driving this
        #: program, set when its run starts (checkpoint capture reads
        #: the workload's state through it).
        self.workload = None

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """The heap and the call stack (the monitor and the workload
        carry their own state)."""
        return {"exited": self.exited,
                "allocator": self.allocator.state_dict(),
                "stack": self.stack.state_dict()}

    def load_state(self, state):
        self.exited = boolean(state["exited"], "exited")
        self.allocator.load_state(state["allocator"])
        self.stack.load_state(state["stack"])

    # ------------------------------------------------------------------
    # computation and time
    # ------------------------------------------------------------------
    def compute(self, instructions):
        """Execute ``instructions`` simulated ALU instructions."""
        self.machine.clock.tick(
            int(round(instructions * self.monitor.instruction_cost()))
        )

    def idle(self, seconds):
        """Block for ``seconds`` of wall-clock time (no CPU charged).

        Models the gap between server requests; object lifetimes use
        CPU time and are unaffected (paper Section 3.1).
        """
        self.machine.clock.idle(seconds_to_cycles(seconds))

    @property
    def cpu_time(self):
        """CPU cycles this program (plus its monitor) has consumed."""
        return self.machine.clock.cycles

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------
    def load(self, vaddr, size=WORD_SIZE):
        """Load bytes; the monitor sees the access first."""
        self.monitor.before_load(vaddr, size)
        return self.machine.load(vaddr, size)

    def store(self, vaddr, data):
        """Store bytes; the monitor sees the access first."""
        self.monitor.before_store(vaddr, len(data))
        self.machine.store(vaddr, data)

    def run_ops(self, plan):
        """Execute an access plan (see ``Machine.run_ops``).

        Monitors that interpose on accesses (Purify-style
        ``before_load``/``before_store`` overrides) see every op in
        plan order through the scalar methods, exactly as if the
        workload had issued them one by one.  Monitors that do not --
        SafeMem and the native baseline -- hand the whole plan to the
        machine in one call, which moves each op through the same
        span walk and counts it under ``machine.*.batched``.
        """
        monitor_type = type(self.monitor)
        if (monitor_type.before_load is Monitor.before_load
                and monitor_type.before_store is Monitor.before_store):
            return self.machine.run_ops(plan)
        results = []
        for op in plan:
            kind = op[0]
            if kind == "load":
                results.append(self.load(op[1], op[2]))
            elif kind == "store":
                self.store(op[1], op[2])
                results.append(None)
            else:
                raise ConfigurationError(
                    f"unknown op kind {kind!r} in access plan")
        return results

    def load_word(self, vaddr):
        """Load an 8-byte little-endian word (pointer-sized)."""
        return int.from_bytes(self.load(vaddr, WORD_SIZE), "little")

    def store_word(self, vaddr, value):
        """Store an 8-byte little-endian word (pointer-sized)."""
        self.store(vaddr, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def touch(self, vaddr, size=1):
        """Read and discard -- convenience for 'the program used this'."""
        self.load(vaddr, size)

    def zero_memory(self, vaddr, size):
        """Write zeros through the normal store path (calloc backend)."""
        chunk = bytes(min(size, 4096))
        cursor = vaddr
        remaining = size
        while remaining > 0:
            take = min(remaining, len(chunk))
            self.store(cursor, chunk[:take])
            cursor += take
            remaining -= take

    # ------------------------------------------------------------------
    # globals (the conservative-scan root set)
    # ------------------------------------------------------------------
    def global_slot(self, index):
        """Address of the ``index``-th pointer-sized global slot."""
        address = self.globals_base + index * WORD_SIZE
        if address + WORD_SIZE > self.globals_base + self.globals_size:
            raise ConfigurationError(
                f"global slot {index} exceeds the globals region"
            )
        return address

    def set_global(self, index, value):
        """Store a pointer into a global slot (keeps the object reachable
        for conservative mark-and-sweep)."""
        self.store_word(self.global_slot(index), value)

    def get_global(self, index):
        return self.load_word(self.global_slot(index))

    # ------------------------------------------------------------------
    # allocation (via the monitor)
    # ------------------------------------------------------------------
    def malloc(self, size):
        return self.monitor.malloc(size, self.stack.signature())

    def calloc(self, count, size):
        return self.monitor.calloc(count, size, self.stack.signature())

    def realloc(self, address, new_size):
        return self.monitor.realloc(
            address, new_size, self.stack.signature()
        )

    def free(self, address):
        self.monitor.free(address)

    # ------------------------------------------------------------------
    # call stack
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def frame(self, return_address):
        """Enter a function frame (affects the allocation signature)."""
        self.stack.push(return_address)
        try:
            yield
        finally:
            self.stack.pop()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def exit(self):
        """Terminate the program; monitors run their end-of-run checks."""
        if not self.exited:
            self.exited = True
            self.monitor.on_exit()

    def release(self):
        """Unmap this program's address space so the machine can host
        another program.

        Watched regions must be disarmed first (``exit`` on a SafeMem
        monitor does that); ``munmap`` refuses otherwise.
        """
        self.exit()
        self.machine.kernel.munmap(self.globals_base, self.globals_size)
        self.machine.kernel.munmap(self.heap_base, self.heap_size)
