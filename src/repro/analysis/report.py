"""Combined experiment report: every table and figure in one document."""

import io
import time

from repro.analysis.experiments import PAPER_EXPERIMENTS
from repro.analysis.fleet import run_suite

HEADER = """\
SafeMem reproduction -- full experiment report
===============================================

Every table and figure of "SafeMem: Exploiting ECC-Memory for Detecting
Memory Leaks and Memory Corruption During Production Runs" (HPCA 2005),
regenerated on the simulated machine.  Reference values/bands appear in
each table's note line; see EXPERIMENTS.md for the detailed
paper-vs-measured discussion.
"""


def generate_report(requests=250, stream=None):
    """Run all experiments and render one combined text report.

    ``requests`` scales the experiments declared to scale with it (the
    overhead runs of Tables 3 and 4); the others always use
    full-length inputs.  Returns the report string; also writes to
    ``stream`` if given.
    """
    out = io.StringIO()
    out.write(HEADER)
    out.write("\n")
    for experiment in PAPER_EXPERIMENTS:
        started = time.time()
        context, _outcome = run_suite([experiment], requests=requests)
        elapsed = time.time() - started
        out.write(context[experiment.name].render())
        out.write(f"\n[{experiment.title} regenerated in {elapsed:.1f}s "
                  f"wall]\n\n")

    report = out.getvalue()
    if stream is not None:
        stream.write(report)
    return report
