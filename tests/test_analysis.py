"""Tests for the analysis layer: runner, experiments, tables, report.

These validate structure and invariants at reduced request counts; the
paper-shape assertions are the claims ``repro validate`` checks
(:mod:`repro.analysis.claims`).
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import paper
from repro.analysis.experiments import Table3Row, Table4Row, run_experiment
from repro.analysis.memory_profile import HeapProfile, profile_heap
from repro.analysis.runner import (
    MONITOR_FACTORIES,
    make_monitor,
    overhead_percent,
    run_workload,
    slowdown_factor,
)
from repro.analysis.tables import (
    fmt_factor,
    fmt_percent,
    render_series,
    render_table,
)
from repro.common.errors import FleetError


class TestRunner:
    def test_every_monitor_factory_builds(self):
        for name in MONITOR_FACTORIES:
            monitor = make_monitor(name)
            assert monitor is not None

    def test_unknown_monitor_rejected(self):
        with pytest.raises(KeyError):
            make_monitor("drmemory")

    def test_overhead_helpers(self):
        assert overhead_percent(110, 100) == pytest.approx(10.0)
        assert slowdown_factor(500, 100) == pytest.approx(5.0)
        assert overhead_percent(100, 0) == 0.0
        assert slowdown_factor(100, 0) == 0.0

    def test_a_run_does_not_import_the_experiment_table(self):
        """The modules every run and bench child imports leave the
        experiment table (``repro validate``'s code) unloaded."""
        probe = ("import sys, repro.obs.stack, repro.analysis.runner, "
                 "repro.obs.checkpoint; "
                 "print('repro.analysis.experiments' in sys.modules)")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]

    def test_run_result_fields(self):
        result = run_workload("gzip", "native", requests=5)
        assert result.workload == "gzip"
        assert result.monitor_name == "native"
        assert result.requests == 5
        assert result.cycles > 0
        assert result.cpu_seconds > 0
        assert result.program is not None


class TestTableRendering:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_with_note(self):
        text = render_table("T", ["x"], [("1",)], note="hello")
        assert text.endswith("note: hello")

    def test_render_empty_table(self):
        text = render_table("T", ["x", "y"], [])
        assert "== T ==" in text

    def test_render_series(self):
        text = render_series("S", [(0.5, 50.0), (1.0, 100.0)],
                             x_label="t", y_label="pct")
        assert "0.5000" in text
        assert "100.0" in text

    def test_formatters(self):
        assert fmt_percent(12.345) == "12.35%"
        assert fmt_percent(12.345, 1) == "12.3%"
        assert fmt_factor(3.21) == "3.2x"
        assert fmt_factor(64.2, 0) == "64x"


class TestExperimentStructures:
    def test_table2_rows(self):
        result = run_experiment("table2")
        assert [row[0] for row in result.rows] == [
            "WatchMemory", "DisableWatchMemory", "mprotect",
        ]
        assert "Table 2" in result.render()

    def test_table3_row_reduction(self):
        row = Table3Row(
            workload="x", bug_class="ML", detected=True,
            ml_overhead=1.0, mc_overhead=5.0, full_overhead=5.0,
            purify_slowdown=6.0,
        )
        assert row.reduction_factor == pytest.approx(100.0)

    def test_table3_zero_overhead_reduction_is_inf(self):
        row = Table3Row(
            workload="x", bug_class="ML", detected=True,
            ml_overhead=0.0, mc_overhead=0.0, full_overhead=0.0,
            purify_slowdown=6.0,
        )
        assert row.reduction_factor == float("inf")

    def test_table4_row_reduction(self):
        row = Table4Row(workload="x", ecc_overhead_pct=2.0,
                        page_overhead_pct=128.0)
        assert row.reduction_factor == pytest.approx(64.0)

    def test_table5_structure_small_runs(self):
        result = run_experiment("table5", 120)
        assert {row.workload for row in result.rows} == set(
            paper.TABLE5_FALSE_POSITIVES
        )
        text = result.render()
        assert "Table 5" in text

    def test_figure3_structure_small_runs(self):
        result = run_experiment("figure3", 80)
        assert len(result.series) == 3
        for series in result.series:
            assert series.points
            assert series.final_percent == pytest.approx(100.0)
        assert "Figure 3" in result.render()

    def test_table3_rejects_bug_firing_on_normal_input(self, monkeypatch):
        """The harness must catch a workload whose 'normal' input
        secretly triggers the detector."""
        from repro.analysis import experiments

        real_run = experiments.run_workload

        def sabotaged(name, monitor_name="native", **kwargs):
            result = real_run(name, monitor_name, **kwargs)
            if monitor_name == "safemem" and not kwargs.get("buggy"):
                result.truth.detection = RuntimeError("boom")
            return result

        monkeypatch.setattr(experiments, "run_workload", sabotaged)
        with pytest.raises(FleetError,
                           match="unexpectedly reported a bug"):
            experiments.run_experiment("table3", 5)


class TestMemoryProfile:
    def test_profile_samples_every_request(self):
        profile = profile_heap("ypserv1", requests=25)
        assert len(profile.samples) == 25
        times = [t for t, _b in profile.samples]
        assert times == sorted(times)

    def test_buggy_profile_grows(self):
        normal = profile_heap("ypserv1", requests=60)
        buggy = profile_heap("ypserv1", buggy=True, requests=60)
        assert buggy.final_live_bytes > normal.final_live_bytes
        assert buggy.growth_rate_bytes_per_second() > \
            normal.growth_rate_bytes_per_second()

    def test_growth_helpers_on_tiny_profiles(self):
        profile = HeapProfile(workload="x", buggy=False)
        assert profile.final_live_bytes == 0
        assert profile.growth_rate_bytes_per_second() == 0.0
        assert profile.second_half_growth() == 0


class TestReport:
    def test_report_contains_all_sections(self):
        from repro.analysis.report import generate_report
        report = generate_report(requests=30)
        for section in ("Table 2", "Table 3", "Table 4", "Table 5",
                        "Figure 3"):
            assert section in report
