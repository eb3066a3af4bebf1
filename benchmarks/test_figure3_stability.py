"""Figure 3: stability of maximal lifetime for the three leak servers.

Paper claim: "for all three programs, all memory object groups reach
their stable maximal lifetime quickly in the very beginning of the
program execution" -- the observation that makes lifetime-based SLeak
detection viable.
"""

from conftest import publish
from repro.analysis.experiments import experiment_figure3
from repro.analysis.runner import run_workload


def test_figure3_lifetime_stability(benchmark):
    result = experiment_figure3()
    publish("figure3", result.render())

    for series in result.series:
        run_s = series.run_seconds
        # Every measured group stabilizes...
        assert series.final_percent == 100.0, series.workload
        # ... and does so in the very beginning of the execution
        # (within the first 10% of the run).
        assert series.last_warmup_seconds < 0.10 * run_s, (
            f"{series.workload}: groups stabilized at "
            f"{series.last_warmup_seconds:.4f}s of a {run_s:.3f}s run"
        )
        # Enough groups for the claim to be non-trivial.
        assert series.total_groups >= 2

    benchmark(lambda: run_workload("ypserv1", "profiler", requests=60))
