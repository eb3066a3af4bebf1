"""SafeMem (HPCA 2005) reproduction.

Public API tour:

- :class:`repro.machine.machine.Machine` -- boot a simulated
  ECC-memory system.
- :class:`repro.machine.program.Program` -- run a process on it.
- :class:`repro.core.safemem.SafeMem` -- attach the paper's detector
  as the program's monitor.
- :mod:`repro.baselines` -- Purify-style and page-protection baselines.
- :mod:`repro.workloads` -- the seven buggy applications of Table 1.
- :mod:`repro.analysis` -- harnesses that regenerate the paper's
  tables and figures.

The subpackages re-export nothing: import any name other than the
Quickstart ones below from the module that defines it.

Quickstart::

    from repro import Machine, Program, SafeMem

    machine = Machine()
    safemem = SafeMem()
    program = Program(machine, monitor=safemem)
    buf = program.malloc(100)
    program.store(buf, b"hello")
    program.free(buf)
    program.load(buf, 1)   # raises MonitorError: use-after-free
"""

from repro.core.config import SafeMemConfig
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.monitor import Monitor, NullMonitor
from repro.machine.program import Program

__version__ = "1.0.0"

__all__ = [
    "SafeMemConfig",
    "SafeMem",
    "Machine",
    "Monitor",
    "NullMonitor",
    "Program",
    "__version__",
]
