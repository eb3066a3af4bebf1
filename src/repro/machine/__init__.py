"""Machine assembly: the booted system, the program model, monitors."""

from repro.machine.machine import MAX_FAULT_RETRIES, Machine
from repro.machine.monitor import Monitor, NullMonitor
from repro.machine.program import GLOBALS_BASE, HEAP_BASE, WORD_SIZE, Program

__all__ = [
    "MAX_FAULT_RETRIES",
    "Machine",
    "Monitor",
    "NullMonitor",
    "GLOBALS_BASE",
    "HEAP_BASE",
    "WORD_SIZE",
    "Program",
]
