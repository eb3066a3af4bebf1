"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 bench/compare.py A.json... -- B.json...

``A`` is the parent commit's set of ``bench/run.py --out`` documents,
``B`` the change's, in the order they ran; pair ``i`` is ``A[i]`` with
``B[i]``, so run them interleaved (A, B, A, B, ...).  For every
workload and every end-to-end metric of ``BENCHMARK.json`` the table
shows each side's median and quartiles over its runs, the change's
pair win fraction, and a verdict:

- ``improved``: at least 10 pairs, the change wins at least 9 in 10
  (ties count for neither) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
- ``unresolved``: either side's interquartile range is wider than the
  metric's bound and not every run of the change beats every run of
  the parent;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``no worse``: otherwise.

Exits 1 when any row is ``worse``.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10
WIN_FRACTION_FOR_GAIN = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """``(verdict, win_fraction)`` for one metric's two run sets."""
    sign = 1 if better == "higher" else -1
    a_q1, a_median, a_q3 = quartiles(parent)
    b_q1, b_median, b_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    win_fraction = wins / len(pairs)
    gain = sign * (b_median - a_median)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_FRACTION_FOR_GAIN * len(pairs)
            and gain > a_q3 - a_q1):
        return "improved", win_fraction
    wide = max((a_q3 - a_q1) / abs(a_median) if a_median else 0.0,
               (b_q3 - b_q1) / abs(b_median) if b_median else 0.0)
    every_run_better = (min(sign * b for b in change)
                        > max(sign * a for a in parent))
    if wide > bound and not every_run_better:
        return "unresolved", win_fraction
    if -gain > bound * abs(a_median):
        return "worse", win_fraction
    return "no worse", win_fraction


def collect(paths):
    """workload -> metric -> values, in file order."""
    values = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, summary in document["workloads"].items():
            for metric, entry in summary["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    metric, []).append(entry["value"])
    return values


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_paths, change_paths = argv[:split], argv[split + 1:]
    if not parent_paths or len(parent_paths) != len(change_paths):
        print("compare: give the same number of documents on each side "
              "of --", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = collect(parent_paths), collect(change_paths)
    rows = [("workload", "metric", "A median [q1, q3]",
             "B median [q1, q3]", "B wins", "verdict")]
    worse = False
    for workload in sorted(set(parent) & set(change)):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a, b = parent[workload][name], change[workload][name]
            result, win_fraction = verdict(a, b, entry["better"],
                                           entry["bound"])
            worse |= result == "worse"
            rows.append((workload, name, fmt(a), fmt(b),
                         f"{win_fraction:.2f}", result))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
