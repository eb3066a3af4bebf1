"""Tests for the claims validation machinery (with a synthetic context,
so they run fast; the real end-to-end validation is ``repro validate``
and the differential test in tests/test_fleet.py)."""

from dataclasses import dataclass, field

import pytest

from repro.analysis import paper
from repro.analysis.ablations import (
    MeasuredRow,
    MeasuredTable,
    SyntheticFigure3,
)
from repro.analysis.claims import (
    CLAIMS,
    Claim,
    render_validation,
    validate,
)
from repro.analysis.experiments import (
    EXPERIMENTS,
    CodecMatrixResult,
    CodecTradeoffRow,
    Figure3Result,
    Figure3Series,
    SamplingCurveResult,
    SamplingPoint,
    Table2Result,
    Table3Result,
    Table3Row,
    Table4Result,
    Table4Row,
    Table5Result,
    Table5Row,
    SeasonHeadToHeadResult,
    TrendHeadToHeadResult,
    TrendScenarioRow,
)
from repro.obs.trend import DETECTORS
from repro.workloads.registry import LEAK_WORKLOADS


def measured(*rows):
    """A one-table result of ``(first cell, values)`` rows."""
    return MeasuredTable("T", ["x"], [MeasuredRow([label], values)
                                      for label, values in rows])


def good_context():
    """A hand-built context in which every claim holds."""
    table2 = Table2Result(rows=[
        ("WatchMemory", 2.0, 2.0),
        ("DisableWatchMemory", 1.5, 1.5),
        ("mprotect", 1.02, 1.02),
    ])
    table3 = Table3Result(rows=[
        Table3Row(workload=name, bug_class="ML", detected=True,
                  ml_overhead=0.2, mc_overhead=overhead - 0.2,
                  full_overhead=overhead, purify_slowdown=purify)
        for name, overhead, purify in (
            ("ypserv1", 8.2, 6.0), ("proftpd", 8.2, 6.0),
            ("squid1", 8.2, 15.0), ("ypserv2", 8.2, 6.0),
            ("gzip", 3.0, 6.0), ("tar", 8.2, 6.0), ("squid2", 8.2, 9.0))
    ])
    table4 = Table4Result(rows=[
        Table4Row(workload="gzip", ecc_overhead_pct=3.125,
                  page_overhead_pct=200.0),
        Table4Row(workload="tar", ecc_overhead_pct=20.0,
                  page_overhead_pct=1800.0),
    ])
    table5 = Table5Result(rows=[
        Table5Row(workload=app, before_pruning=before,
                  after_pruning=after, true_leaks_reported=5)
        for app, (before, after)
        in paper.TABLE5_FALSE_POSITIVES.items()
    ])
    figure3 = Figure3Result(series=[
        Figure3Series(workload=app,
                      points=[(0.001, 50.0), (0.002, 100.0)],
                      total_groups=2, run_seconds=0.1)
        for app in ("ypserv1", "proftpd", "squid1")
    ])
    sampling = SamplingCurveResult(
        workload="ypserv2", machines=8,
        points=[
            SamplingPoint(rate=0.0, machines=8, detected=0,
                          detection_probability=0.0,
                          mean_overhead_pct=0.0,
                          sampled_allocs=0, skipped_allocs=1200),
            SamplingPoint(rate=0.1, machines=8, detected=6,
                          detection_probability=0.75,
                          mean_overhead_pct=1.0,
                          sampled_allocs=120, skipped_allocs=1080),
            SamplingPoint(rate=1.0, machines=8, detected=8,
                          detection_probability=1.0,
                          mean_overhead_pct=10.0,
                          sampled_allocs=0, skipped_allocs=0),
        ],
    )
    codecs = CodecMatrixResult(rows=[
        CodecTradeoffRow(profile=profile, codec=codec, check_bits=bits,
                         overhead_pct=bits / 64 * 100, scramble="0/8/57",
                         detection_cycles=1000, scrub_faults_reported=1,
                         false_scrub_corrections=0, noise_flips=4,
                         noise_corrected=4, contract_ok=True)
        for profile, codec, bits in (
            ("e7500", "secded", 8),
            ("daec-server", "secdaec", 8),
            ("chipkill-server", "chipkill", 24),
        )
    ])
    trend = TrendHeadToHeadResult(sample_every=200_000, rows=[
        TrendScenarioRow(
            workload=name, buggy=True, cycles=100_000_000,
            samples=500, baseline_cycle=80_000_000,
            fired={detector: True for detector in DETECTORS},
            first_cycle={detector: 40_000_000
                         for detector in DETECTORS},
        )
        for name in ("ypserv1", "ypserv2")
    ] + [
        TrendScenarioRow(
            workload=name, buggy=False, cycles=100_000_000,
            samples=500, baseline_cycle=None,
            fired={detector: False for detector in DETECTORS},
            first_cycle={detector: None for detector in DETECTORS},
        )
        for name in ("ypserv1", "ypserv2")
    ])
    season = SeasonHeadToHeadResult(sample_every=200_000, rows=[
        TrendScenarioRow(
            workload=f"{name}-diurnal", buggy=True,
            cycles=400_000_000, samples=2000,
            baseline_cycle=120_000_000,
            fired={detector: detector == "cusum"
                   for detector in DETECTORS},
            first_cycle={detector: (200_000_000
                                    if detector == "cusum" else None)
                         for detector in DETECTORS},
            flat_onsets=4, flat_first_cycle=60_000_000,
        )
        for name in ("ypserv1", "ypserv2")
    ] + [
        TrendScenarioRow(
            workload=f"{name}-diurnal", buggy=False,
            cycles=400_000_000, samples=2000, baseline_cycle=None,
            fired={detector: False for detector in DETECTORS},
            first_cycle={detector: None for detector in DETECTORS},
            flat_onsets=6, flat_first_cycle=60_000_000,
        )
        for name in ("ypserv1", "ypserv2")
    ])
    return {
        "table2": table2, "table3": table3, "table4": table4,
        "table5": table5, "figure3": figure3, "codecs": codecs,
        "sampling": sampling, "trend": trend, "season": season,
        "ablation_scramble": measured(
            ("1 bit", {"outcome": "silently corrected"}),
            ("2 bits", {"outcome": "FAULT"}),
            ("3 bits (chosen)", {"outcome": "FAULT"}),
            ("3 bits (unlucky)", {"outcome": "MIS-CORRECTED"})),
        "ablation_hardware": measured(
            ("paper-hw", {"overhead": 12.0}),
            ("friendly-ecc", {"overhead": 5.0}),
            ("iwatcher", {"overhead": 0.5})),
        "ablation_period": measured(
            ("1 ms", {"overhead": 0.11, "first_report_cycle": 70}),
            ("5 ms", {"overhead": 0.10, "first_report_cycle": 72}),
            ("20 ms", {"overhead": 0.09, "first_report_cycle": 96})),
        "ablation_threshold": measured(
            ("1.2x", {"fp_flagged": 14, "true_reported": 8}),
            ("2.0x", {"fp_flagged": 13, "true_reported": 5}),
            ("6.0x", {"fp_flagged": 7, "true_reported": 0})),
        "ablation_grouping": measured(
            ("size_callsig", {"groups": 2, "true_reported": 40,
                              "false_reported": 0}),
            ("size", {"groups": 1, "true_reported": 22,
                      "false_reported": 0}),
            ("callsig", {"groups": 2, "true_reported": 40,
                         "false_reported": 0})),
        "ablation_padding": measured(*(
            (lines, {"pad_lines": lines, "reach": lines,
                     "space": 100.0 * lines})
            for lines in (1, 2, 4))),
        "extra_heap_growth": measured(*(
            (app, {"final_normal": 1000, "final_buggy": 20_000,
                   "growth_normal": 0, "growth_buggy": 9000,
                   "rate_buggy": 5000.0})
            for app in LEAK_WORKLOADS)),
        "extra_uninit_mode": measured(
            ("ml+mc", {"overhead": 10.0, "clean": True,
                       "uninit_read_caught": False}),
            ("ml+mc+uninit", {"overhead": 23.0, "clean": True,
                              "uninit_read_caught": True})),
        "figure3_synthetic": SyntheticFigure3(
            points=[(0.0005 * i, i / 30 * 100.0) for i in range(1, 31)],
            run_seconds=0.1),
    }


class TestClaimChecks:
    def test_all_claims_pass_on_good_context(self):
        results = validate(context=good_context())
        failed = [r for r in results if not r.passed]
        assert not failed, [(r.claim.ident, r.evidence) for r in failed]

    def test_missed_detection_fails_t3(self):
        context = good_context()
        context["table3"].rows[0].detected = False
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["T3-detect"].passed
        assert "ypserv1" in results["T3-detect"].evidence

    def test_overhead_out_of_band_fails(self):
        context = good_context()
        context["table3"].rows[0].full_overhead = 35.0
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["T3-band"].passed

    def test_wrong_fp_counts_fail_t5(self):
        context = good_context()
        context["table5"].rows[0].after_pruning = 5
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["T5-counts"].passed

    def test_detection_at_rate_zero_fails_f4(self):
        context = good_context()
        context["sampling"].points[0].detected = 2
        context["sampling"].points[0].detection_probability = 0.25
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["F4-sampling"].passed
        assert "rate 0.0" in results["F4-sampling"].evidence

    def test_expensive_sparse_sampling_fails_f4(self):
        # The whole point is cheapness: a sparse rate that costs more
        # than a quarter of always-on breaks the trade.
        context = good_context()
        context["sampling"].points[1].mean_overhead_pct = 9.0
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["F4-sampling"].passed

    def test_late_stability_fails_f3(self):
        context = good_context()
        context["figure3"].series[0].points[-1] = (0.09, 100.0)
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["F3-stability"].passed

    def test_crashing_check_is_a_failure_not_a_crash(self):
        context = good_context()
        del context["table2"]
        results = validate(context=context)
        t2 = [r for r in results if r.claim.source == "table2"]
        assert t2 and all(not r.passed for r in t2)
        assert "raised" in t2[0].evidence

    def test_clean_run_trend_alert_fails_trend_claim(self):
        context = good_context()
        clean = context["trend"].row("ypserv1", buggy=False)
        clean.fired["cusum"] = True
        clean.first_cycle["cusum"] = 10_000_000
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["TREND-pr"].passed
        assert "ypserv1" in results["TREND-pr"].evidence

    def test_never_winning_trend_fails_trend_claim(self):
        context = good_context()
        for row in context["trend"].rows:
            if row.buggy:
                for detector in DETECTORS:
                    row.first_cycle[detector] = row.baseline_cycle + 1
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["TREND-pr"].passed

    @pytest.mark.parametrize("ident, spoil", [
        ("T3-whole", lambda c: setattr(
            c["table3"].rows[4], "full_overhead", 6.0)),
        ("T3-purify", lambda c: setattr(
            c["table3"].rows[5], "purify_slowdown", 20.0)),
        ("T4-gzip", lambda c: setattr(
            c["table4"].rows[0], "page_overhead_pct", 230.0)),
        ("F3-stability", lambda c: setattr(
            c["figure3"].series[0], "total_groups", 1)),
        ("F3-scale", lambda c: setattr(
            c["figure3_synthetic"], "run_seconds", 0.01)),
        ("ABL-scramble", lambda c: c["ablation_scramble"].rows[0]
         .values.update(outcome="FAULT")),
        ("ABL-hardware", lambda c: c["ablation_hardware"].rows[2]
         .values.update(overhead=4.0)),
        ("ABL-period", lambda c: c["ablation_period"].rows[0]
         .values.update(first_report_cycle=None)),
        ("ABL-sleak", lambda c: c["ablation_threshold"].rows[1]
         .values.update(true_reported=0)),
        ("ABL-grouping", lambda c: c["ablation_grouping"].rows[1]
         .values.update(groups=2)),
        ("ABL-padding", lambda c: c["ablation_padding"].rows[2]
         .values.update(reach=3)),
        ("SUP-heap", lambda c: c["extra_heap_growth"].rows[0]
         .values.update(growth_normal=5000)),
        ("SUP-uninit", lambda c: c["extra_uninit_mode"].rows[1]
         .values.update(uninit_read_caught=False)),
    ])
    def test_broken_property_fails_its_claim(self, ident, spoil):
        context = good_context()
        spoil(context)
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results[ident].passed, results[ident].evidence

    def test_reduction_out_of_range_fails_t4(self):
        context = good_context()
        context["table4"].rows[0].page_overhead_pct = 40_000.0
        results = {r.claim.ident: r for r in validate(context=context)}
        assert not results["T4-reduction"].passed


class TestRendering:
    def test_render_shows_score(self):
        text = render_validation(validate(context=good_context()))
        assert f"{len(CLAIMS)}/{len(CLAIMS)} claims hold" in text
        assert "PASS" in text

    def test_render_shows_failures(self):
        context = good_context()
        context["table3"].rows[0].detected = False
        text = render_validation(validate(context=context))
        assert "FAIL" in text


class TestClaimHygiene:
    def test_unique_identifiers(self):
        idents = [claim.ident for claim in CLAIMS]
        assert len(idents) == len(set(idents))

    def test_every_claim_has_statement_and_source(self):
        for claim in CLAIMS:
            assert claim.statement
            assert claim.source in EXPERIMENTS

    def test_claims_and_experiments_match(self):
        """Every claim reads only the result of the declared experiment
        it names, and every declared experiment feeds some claim."""
        assert {claim.source for claim in CLAIMS} == set(EXPERIMENTS)
        context = good_context()
        assert set(context) == set(EXPERIMENTS)
        for claim in CLAIMS:
            passed, evidence = claim.check(
                {claim.source: context[claim.source]})
            assert passed, (claim.ident, evidence)
