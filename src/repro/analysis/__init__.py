"""Experiment harnesses for the paper's tables and figures."""

from repro.analysis.runner import (
    MONITOR_FACTORIES,
    RunResult,
    make_monitor,
    overhead_percent,
    run_workload,
    slowdown_factor,
)

__all__ = [
    "MONITOR_FACTORIES",
    "RunResult",
    "make_monitor",
    "overhead_percent",
    "run_workload",
    "slowdown_factor",
]
