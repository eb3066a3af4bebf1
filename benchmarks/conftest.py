"""Shared helper of the ``bench_*`` timing scripts."""

import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from bench_check import check_report  # noqa: E402


def write_bench_json(name, report):
    """Persist a machine-readable benchmark report at the repo root.

    Convention shared by the ``bench_*`` modules: one
    ``BENCH_<name>.json`` per benchmark, overwritten on every run.
    Before overwriting, the fresh report is compared against the
    committed baseline (``tools/bench_check.py``); regressions print a
    warning, or fail the benchmark when ``REPRO_BENCH_STRICT=1``.
    """
    regressions = check_report(name, report, root=REPO_ROOT)
    if regressions and os.environ.get("REPRO_BENCH_STRICT") == "1":
        details = ", ".join(
            f"{r.path} {r.change:+.1%}" for r in regressions
        )
        raise AssertionError(
            f"benchmark {name} regressed vs committed baseline: "
            f"{details}"
        )
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
