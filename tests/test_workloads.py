"""Tests for the seven application models."""

import pytest

from repro.analysis.runner import run_workload
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.workloads.registry import (
    CORRUPTION_WORKLOADS,
    LEAK_WORKLOADS,
    WORKLOADS,
    all_workload_names,
    get_workload,
)

#: small request counts keep unit tests fast; detection quality is
#: checked by the claims of ``repro validate``, on full-length runs.
SMALL = 30


class TestRegistry:
    def test_seven_paper_applications(self):
        from repro.workloads.registry import PAPER_WORKLOADS
        assert len(PAPER_WORKLOADS) == 7
        assert set(LEAK_WORKLOADS) | set(CORRUPTION_WORKLOADS) == \
            set(PAPER_WORKLOADS)
        assert set(PAPER_WORKLOADS) <= set(WORKLOADS)

    def test_paper_metadata_present(self):
        for name in all_workload_names():
            workload = get_workload(name)
            assert workload.loc > 0
            assert workload.description
            assert workload.bug in ("aleak", "sleak", "overflow", "uaf")

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_workload("nginx")

    def test_requests_override(self):
        workload = get_workload("gzip", requests=5)
        assert workload.requests == 5


class TestNormalRuns:
    @pytest.mark.parametrize("name", all_workload_names())
    def test_normal_run_completes_cleanly(self, name):
        result = run_workload(name, "native", requests=SMALL)
        assert result.truth.detection is None
        assert result.truth.requests_completed == SMALL
        assert result.truth.leaked_addresses == set()
        assert result.truth.corruption is None
        assert result.cycles > 0

    @pytest.mark.parametrize("name", CORRUPTION_WORKLOADS)
    def test_no_corruption_report_on_normal_input(self, name):
        """Guard hits are true corruption by definition (paper Section
        6.4): a clean run reports nothing."""
        result = run_workload(name, "safemem-mc", requests=60)
        assert result.monitor.corruption_reports == []

    @pytest.mark.parametrize("name", all_workload_names())
    def test_normal_run_is_leak_free(self, name):
        """Normal inputs must not grow the heap without bound."""
        short = run_workload(name, "native", requests=SMALL)
        long = run_workload(name, "native", requests=3 * SMALL)
        short_live = short.program.allocator.live_bytes
        long_live = long.program.allocator.live_bytes
        assert long_live <= short_live * 1.5 + 4096

    def test_runs_are_deterministic(self):
        a = run_workload("proftpd", "native", requests=SMALL, seed=7)
        b = run_workload("proftpd", "native", requests=SMALL, seed=7)
        assert a.cycles == b.cycles


class TestBuggyLeakRuns:
    @pytest.mark.parametrize("name", LEAK_WORKLOADS)
    def test_buggy_run_actually_leaks(self, name):
        result = run_workload(name, "native", buggy=True, requests=120)
        assert result.truth.leaked_addresses

    @pytest.mark.parametrize("name", LEAK_WORKLOADS)
    def test_leaked_objects_never_freed(self, name):
        """Ground-truth sanity: a 'leaked' address must still be a
        live allocation when the run ends."""
        machine = Machine(dram_size=64 * 1024 * 1024)
        program = Program(machine, heap_size=24 * 1024 * 1024)
        workload = get_workload(name, requests=120)
        truth = workload.run(program, buggy=True)
        for address in truth.leaked_addresses:
            assert program.allocator.is_live(address)

    def test_ypserv1_leaks_every_request(self):
        result = run_workload("ypserv1", "native", buggy=True,
                              requests=50)
        assert len(result.truth.leaked_addresses) == 50

    def test_sleak_apps_leak_a_fraction(self):
        result = run_workload("ypserv2", "native", buggy=True,
                              requests=200)
        leaks = len(result.truth.leaked_addresses)
        assert 0 < leaks < 40  # ~4% error rate


class TestBuggyCorruptionRuns:
    @pytest.mark.parametrize("name", CORRUPTION_WORKLOADS)
    def test_native_run_survives_the_bug(self, name):
        """Without a detector the corruption is silent -- the paper's
        motivation for production-run monitoring."""
        workload = get_workload(name)
        trigger = _trigger_of(workload)
        result = run_workload(name, "native", buggy=True,
                              requests=trigger + 5)
        assert result.truth.detection is None
        assert result.truth.corruption is not None

    @pytest.mark.parametrize("name", CORRUPTION_WORKLOADS)
    def test_safemem_stops_at_the_bug(self, name):
        workload = get_workload(name)
        trigger = _trigger_of(workload)
        result = run_workload(name, "safemem-mc", buggy=True,
                              requests=trigger + 5)
        assert result.truth.detection is not None
        assert result.truth.requests_completed <= trigger + 1
        assert result.monitor.corruption_reports

    @pytest.mark.parametrize("name", CORRUPTION_WORKLOADS)
    def test_purify_also_detects(self, name):
        workload = get_workload(name)
        trigger = _trigger_of(workload)
        result = run_workload(name, "purify", buggy=True,
                              requests=trigger + 5)
        assert result.truth.detection is not None

    @pytest.mark.parametrize("name", ("gzip", "tar"))
    def test_pageprot_detects_page_boundary_bugs(self, name):
        workload = get_workload(name)
        trigger = _trigger_of(workload)
        result = run_workload(name, "pageprot", buggy=True,
                              requests=trigger + 5)
        assert result.truth.detection is not None

    def test_pageprot_misses_squid2_inside_page_rounding(self):
        """squid2's 1-byte overflow at offset 128 of a page-rounded
        buffer is invisible to page guards -- the granularity gap the
        paper's ECC approach closes.  SafeMem's line guards catch it
        (covered above)."""
        trigger = _trigger_of(get_workload("squid2"))
        result = run_workload("squid2", "pageprot", buggy=True,
                              requests=trigger + 5)
        assert result.truth.detection is None
        assert result.truth.corruption is not None

    def test_report_kind_matches_bug(self):
        from repro.core.reports import CorruptionKind
        result = run_workload("tar", "safemem-mc", buggy=True,
                              requests=_trigger_of(get_workload("tar")) + 2)
        kinds = {r.kind for r in result.monitor.corruption_reports}
        assert CorruptionKind.USE_AFTER_FREE in kinds


def _trigger_of(workload):
    for attribute in ("trigger_request", "trigger_block", "trigger_file"):
        if hasattr(workload, attribute):
            return getattr(workload, attribute)
    raise AssertionError(f"{workload.name} has no trigger attribute")


class TestOverheadShape:
    """Coarse overhead-band checks at reduced request counts; the
    full-length Table 3 numbers are the T3-* claims of ``repro
    validate``."""

    def test_safemem_cheaper_than_purify_everywhere(self):
        for name in ("ypserv1", "gzip", "tar"):
            native = run_workload(name, "native", requests=60)
            safemem = run_workload(name, "safemem", requests=60)
            purify = run_workload(name, "purify", requests=60)
            assert native.cycles < safemem.cycles < purify.cycles

    def test_purify_floor_is_instrumentation_dilation(self):
        native = run_workload("gzip", "native", requests=40)
        purify = run_workload("gzip", "purify", requests=40)
        assert purify.cycles / native.cycles > 4.0

    def test_safemem_overhead_single_digit_percent_for_gzip(self):
        native = run_workload("gzip", "native", requests=40)
        safemem = run_workload("gzip", "safemem", requests=40)
        overhead = (safemem.cycles - native.cycles) / native.cycles
        assert overhead < 0.10
