"""Heap-growth profiles: the paper's motivation, measured.

Section 1/3 of the paper: trivial leaks only waste memory, but
*continuous* leaks grow the heap without bound, increase paging, and
eventually crash the program -- which is why they matter for
availability and are exploited for denial of service.  This module
samples a workload's live heap over time so the ``extra_heap_growth``
experiment can show the divergence between normal and buggy runs.
"""

from dataclasses import dataclass, field

from repro.analysis.runner import boot_machine, run_workload
from repro.common.constants import CYCLES_PER_SECOND


@dataclass
class HeapProfile:
    """Samples of live heap bytes over CPU time."""

    workload: str
    buggy: bool
    #: (cpu_seconds, live_bytes) samples, one per request.
    samples: list = field(default_factory=list)

    @property
    def final_live_bytes(self):
        return self.samples[-1][1] if self.samples else 0

    def growth_rate_bytes_per_second(self):
        """Least-squares slope of live bytes over CPU time."""
        if len(self.samples) < 2:
            return 0.0
        n = len(self.samples)
        mean_t = sum(t for t, _b in self.samples) / n
        mean_b = sum(b for _t, b in self.samples) / n
        num = sum((t - mean_t) * (b - mean_b) for t, b in self.samples)
        den = sum((t - mean_t) ** 2 for t, _b in self.samples)
        return num / den if den else 0.0

    def second_half_growth(self):
        """Live-byte growth across the second half of the run.

        Steady-state servers stay flat once warmed up; continuous
        leaks keep climbing.
        """
        if len(self.samples) < 4:
            return 0
        half = len(self.samples) // 2
        return self.samples[-1][1] - self.samples[half][1]


def profile_heap(workload_name, buggy=False, requests=None):
    """Run a workload natively and sample its live heap after every
    request."""
    machine = boot_machine()
    profile = HeapProfile(workload=workload_name, buggy=buggy)

    def sample(_index, _truth):
        profile.samples.append((
            machine.clock.cycles / CYCLES_PER_SECOND,
            machine.metrics.value("heap.live_bytes"),
        ))

    run_workload(workload_name, buggy=buggy, requests=requests,
                 machine=machine, request_hook=sample)
    return profile
