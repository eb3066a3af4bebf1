"""Tests of the benchmark harness (run with ``pytest bench/``)."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, scaled down, through the real code path."""
    results = tmp_path_factory.mktemp("results")
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "RESULTS_DIR", results)
    try:
        document = run.run_benchmark(list(run.WORKLOADS), trace=True,
                                     scale=0.1)
    finally:
        patch.undo()
    return document, results


def test_smoke_run_emits_every_metric(smoke):
    document, results = smoke
    assert set(document["workloads"]) == set(run.WORKLOADS)
    for name, summary in document["workloads"].items():
        assert summary["problems"] == []
        assert summary["failed"] == 0 and summary["attempted"] > 0
        for key, group in (("metrics", "end_to_end"),
                           ("layer_metrics", "per_layer")):
            emitted = summary[key]
            for entry in SPEC[group]:
                assert NAME.fullmatch(entry["name"])
                assert isinstance(emitted[entry["name"]]["value"],
                                  (int, float))
                assert emitted[entry["name"]]["unit"] == entry["unit"]
        assert (results / f"trace-{name}.json").is_file()
    line = run.result_line(document)
    assert line["correct"] and line["failed"] == 0


def test_single_workload_line_has_exactly_the_declared_metrics(smoke):
    document, _ = smoke
    one = dict(document, trace=False,
               workloads={"gzip-safemem":
                          document["workloads"]["gzip-safemem"]})
    line = run.result_line(one)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    one["trace"] = True
    assert set(run.result_line(one)["metrics"]) == \
        {e["name"] for e in SPEC["per_layer"]}


def test_traced_run_reproduces_untraced_simulation(smoke):
    document, _ = smoke
    for summary in document["workloads"].values():
        # summarize() compares every traced simulated statistic and
        # verdict with the first untraced repetition.
        assert summary["problems"] == []
        assert summary["trace"]["traced_self_s"] > 0


def report(**changes):
    outcome = {"requests": 10, "completed": 10, "verified": None,
               "leak_reports": 0, "corruption_reports": 0,
               "false_reports": 0, "alerts_fired": 0, "sim_cycles": 10**6,
               "counts": {}}
    outcome.update(changes)
    return {"setup_s": 0.3, "wall_s": 1.0, "peak_rss_mb": 100.0,
            "outcome": outcome}


def test_injected_wrong_verdict_fails_every_request_of_its_run():
    reps = [report(), report(), report(corruption_reports=1)]
    summary = run.summarize("gzip-safemem", reps, None, SPEC)
    assert summary["attempted"] == 30
    assert summary["failed"] == 10
    assert summary["error_rate"] == pytest.approx(1 / 3)
    document = {"trace": False, "workloads": {"gzip-safemem": summary}}
    assert run.result_line(document)["correct"] is False


def test_traced_divergence_is_a_failure():
    traced = dict(report(sim_cycles=10**6 + 1),
                  trace={"layers": {}, "edges": {}, "traced_self_s": 1.0})
    summary = run.summarize("gzip-safemem", [report()], traced,
                            dict(SPEC, per_layer=[]))
    assert summary["failed"] == 10
    assert any("traced" in problem for problem in summary["problems"])


def test_wrappers_are_removed_after_a_traced_run():
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.analysis.runner import run_workload

    traced = tracer.LayerTracer().install()
    try:
        wrapped = {(owner, name): vars(owner)[name]
                   for owner, name, _ in traced._originals}
        originals = {(owner, name): original
                     for owner, name, original in traced._originals}
        result = run_workload("gzip", "safemem", requests=3)
    finally:
        traced.uninstall()
    assert result.truth.requests_completed == 3
    assert len(traced.request_marks) == 3
    summary = traced.summary()["layers"]
    assert summary["ecc.codec"]["calls"] > 0
    assert summary["workloads"]["calls"] == 1
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original
        assert wrapped[(owner, name)] is not original


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gzip-safemem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("change, expected", [
    ([100.0] * 10, "no worse"),
    ([120.0 + i * 0.1 for i in range(10)], "improved"),
    ([80.0] * 10, "worse"),
    ([60.0, 140.0] * 5, "unresolved"),
])
def test_compare_verdicts(change, expected):
    parent = [100.0 + (i % 3) * 0.5 for i in range(10)]
    assert compare.verdict(parent, change, "higher", 0.1)[0] == expected
