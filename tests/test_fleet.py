"""Tests for the sharded experiment fleet (repro.analysis.fleet).

Covers the four scheduler contracts:

- **identity**: the sharded validation produces bit-identical claim
  verdicts and rendered tables to the serial path (the acceptance
  differential, run at a reduced request count to keep tier-1 honest);
- **merge**: fleet telemetry counters sum across workers and histogram
  percentiles come from the merged observations, never from averaging
  per-worker percentiles;
- **cache**: results are keyed by (job config, code digest), hit
  without re-execution, and invalidate on any config or code change;
- **failure**: a crashed shard raises FleetError naming the shard.
"""

import json
import pathlib
from dataclasses import asdict, dataclass

import pytest

from repro.analysis import fleet
from repro.analysis.claims import render_validation, validate
from repro.analysis.experiments import (
    EXPERIMENTS,
    SAMPLING_CURVE_RATES,
    JobKind,
    run_experiment,
)
from repro.common.digest import file_digest, package_digest, tree_digest
from repro.common.errors import ConfigurationError, FleetError
from repro.obs.merge import dump_registry, merge_dumps, merge_registries
from repro.obs.metrics import MetricsRegistry
from repro.obs.stack import MonitorStackConfig

#: request count for the tier-1 differential (full-size validation is a
#: benchmark concern; identity holds at any deterministic config).
DIFF_REQUESTS = 20

#: the committed ``repro validate --write-results`` output.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


# ----------------------------------------------------------------------
# job enumeration + payload codec
# ----------------------------------------------------------------------
class TestJobEnumeration:
    def test_canonical_order_and_unique_idents(self):
        specs = fleet.enumerate_validation_jobs(requests=33)
        idents = [ident for _kind, ident, _params in specs]
        assert len(idents) == len(set(idents))
        assert idents[0] == "table2"
        assert idents.index("table3:ypserv1") < idents.index(
            "table4:ypserv1")
        assert idents.index("figure3:ypserv1") < idents.index(
            f"sampling:{SAMPLING_CURVE_RATES[0]:g}")
        assert idents.index(
            f"sampling:{SAMPLING_CURVE_RATES[-1]:g}") \
            < idents.index("trend:ypserv1:buggy")
        assert idents.index("trend:ypserv1:buggy") < idents.index(
            "season:ypserv1-diurnal:buggy")
        assert idents.index("season:ypserv2-diurnal:clean") < \
            idents.index("scramble:0")
        assert idents[-1] == "figure3-synthetic"

    def test_requests_declared_in_params(self):
        specs = fleet.enumerate_validation_jobs(requests=33)
        table3 = [params for kind, _i, params in specs
                  if kind == "table3-row"]
        assert table3 and all(p["requests"] == 33 for p in table3)
        # Table 5 / Figure 3 run full-length, exactly like the serial
        # path (requests=None).
        table5 = [params for kind, _i, params in specs
                  if kind == "table5-row"]
        assert table5 and all(p["requests"] is None for p in table5)

    def test_every_kind_round_trips_through_json(self):
        specs = fleet.enumerate_validation_jobs(requests=33)
        for kind, _ident, _params in specs:
            assert kind in fleet.JOB_KINDS
        # Every job kind is an experiment's (or the fleet machine's),
        # so the job list, the kinds and the context share one table.
        assert set(fleet.JOB_KINDS) == {
            experiment.kind.name for experiment in EXPERIMENTS.values()
        } | {"fleet-machine"}
        assert {kind for kind, _i, _p in specs} == \
            set(fleet.JOB_KINDS) - {"fleet-machine"}

        result = run_experiment("table2")
        codec = fleet.JOB_KINDS["table2"]
        wire = json.loads(json.dumps(codec.encode(result)))
        assert codec.decode(wire).render() == result.render()

    def test_job_idents_are_unchanged(self):
        idents = [ident for _kind, ident, _params
                  in fleet.enumerate_validation_jobs(requests=33)]
        assert idents[:2] == ["table2", "table3:ypserv1"]
        assert "table4:gzip" in idents and "table5:squid1" in idents
        assert "figure3:proftpd" in idents and "codec:e7500" in idents
        assert "sampling:0.02" in idents
        assert idents.index("trend:ypserv1:buggy") + 1 == \
            idents.index("trend:ypserv1:clean")
        assert idents[45] == "season:ypserv2-diurnal:clean"
        # The ablation and supplementary experiments follow.
        assert idents[46:] == [
            "scramble:0", "scramble:0-8", "scramble:0-8-57",
            "scramble:0-1-2",
            "hardware:paper-hw", "hardware:friendly-ecc",
            "hardware:iwatcher",
            "period:0.001", "period:0.005", "period:0.02",
            "multiplier:1.2", "multiplier:2", "multiplier:6",
            "grouping:size_callsig", "grouping:size", "grouping:callsig",
            "padding:1", "padding:2", "padding:4",
            "heap-growth:ypserv1", "heap-growth:proftpd",
            "heap-growth:squid1", "heap-growth:ypserv2",
            "uninit:ml+mc", "uninit:ml+mc+uninit",
            "figure3-synthetic",
        ]


# ----------------------------------------------------------------------
# cross-process telemetry merge (satellite: metrics merge coverage)
# ----------------------------------------------------------------------
def _registry_with(counter=0, gauge=0, observations=()):
    registry = MetricsRegistry()
    registry.counter("fleet.requests").inc(counter)
    registry.gauge("fleet.live").set(gauge)
    histogram = registry.histogram("fleet.latency")
    for value in observations:
        histogram.observe(value)
    return registry


class TestTelemetryMerge:
    def test_counter_totals_are_sums(self):
        merged = merge_registries([
            _registry_with(counter=3), _registry_with(counter=39),
        ])
        assert merged["fleet.requests"] == 42
        assert merged.kinds["fleet.requests"] == "counter"

    def test_gauges_sum_across_the_fleet(self):
        merged = merge_registries([
            _registry_with(gauge=10), _registry_with(gauge=5),
        ])
        assert merged["fleet.live"] == 15

    def test_histogram_percentiles_from_merged_buckets(self):
        worker_a = _registry_with(observations=range(1, 10))  # p50 = 5
        worker_b = _registry_with(observations=[100])         # p50 = 100
        merged = merge_registries([worker_a, worker_b])
        # Nearest-rank p50 of the merged [1..9, 100] is 5 -- NOT the
        # 52.5 that averaging the per-worker medians would produce.
        assert merged["fleet.latency.p50"] == 5
        assert merged["fleet.latency.count"] == 10
        assert merged["fleet.latency.sum"] == sum(range(1, 10)) + 100
        assert merged["fleet.latency.max"] == 100
        assert merged["fleet.latency.p99"] == 100

    def test_merge_is_order_independent(self):
        a = dump_registry(_registry_with(counter=1, gauge=2,
                                         observations=[3, 1]))
        b = dump_registry(_registry_with(counter=5, gauge=1,
                                         observations=[9]))
        assert merge_dumps([a, b]).values == merge_dumps([b, a]).values

    def test_probe_backed_counters_merge_too(self):
        registry = MetricsRegistry()
        registry.probe("hot.path", lambda: 7, kind="counter")
        merged = merge_registries([registry, _registry_with(counter=1)])
        assert merged["hot.path"] == 7

    def test_kind_mismatch_refuses_to_merge(self):
        one = MetricsRegistry()
        one.counter("x")
        other = MetricsRegistry()
        other.gauge("x")
        with pytest.raises(ConfigurationError):
            merge_registries([one, other])

    def test_foreign_dump_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_dumps([{"cycle": 0}])

    def test_dumps_survive_json(self):
        dump = dump_registry(_registry_with(counter=2,
                                            observations=[4, 8]))
        rehydrated = json.loads(json.dumps(dump))
        assert merge_dumps([rehydrated])["fleet.latency.count"] == 2


# ----------------------------------------------------------------------
# content digests + result cache
# ----------------------------------------------------------------------
class TestDigests:
    def test_tree_digest_changes_with_content_and_name(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        base = tree_digest(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert tree_digest(tmp_path) != base
        (tmp_path / "a.py").write_text("x = 1\n")
        assert tree_digest(tmp_path) == base
        (tmp_path / "a.py").rename(tmp_path / "b.py")
        assert tree_digest(tmp_path) != base

    def test_package_digest_is_memoized_and_stable(self):
        assert package_digest() == package_digest()
        assert len(package_digest()) == 64

    def test_file_digest(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"abc")
        assert file_digest(path) == file_digest(path)


@dataclass
class Echo:
    value: int


class TestResultCache:
    SPEC = ("table2", "table2", {})

    def test_key_depends_on_params_and_code(self, tmp_path):
        cache = fleet.ResultCache(tmp_path)
        spec_b = ("table3-row", "table3:gzip",
                  {"name": "gzip", "requests": 5})
        assert cache.key_for(self.SPEC) == cache.key_for(self.SPEC)
        assert cache.key_for(self.SPEC) != cache.key_for(spec_b)
        assert cache.key_for(self.SPEC, code_digest="aaa") != \
            cache.key_for(self.SPEC, code_digest="bbb")

    def test_store_load_round_trip(self, tmp_path):
        cache = fleet.ResultCache(tmp_path)
        key = cache.key_for(self.SPEC)
        assert cache.load(key) is None
        cache.store(key, self.SPEC, {"rows": [["w", 1.0, 2.0]]})
        entry = cache.load(key)
        assert entry["payload"] == {"rows": [["w", 1.0, 2.0]]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = fleet.ResultCache(tmp_path)
        key = cache.key_for(self.SPEC)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.load(key) is None
        (tmp_path / f"{key}.json").write_text('{"schema": "other"}')
        assert cache.load(key) is None

    def test_run_jobs_hits_cache_without_reexecuting(self, tmp_path,
                                                     monkeypatch):
        calls = []
        kind = JobKind(
            "echo",
            lambda value: calls.append(1) or Echo(value=value * 2),
            Echo,
        )
        monkeypatch.setitem(fleet.JOB_KINDS, "echo", kind)
        spec = ("echo", "echo:1", {"value": 21})
        cache = fleet.ResultCache(tmp_path)
        first = fleet.run_jobs([spec], jobs=1, cache=cache)
        second = fleet.run_jobs([spec], jobs=1, cache=cache)
        assert first.payloads["echo:1"] == Echo(value=42)
        assert second.payloads["echo:1"] == Echo(value=42)
        assert len(calls) == 1
        assert (first.cache_misses, second.cache_hits) == (1, 1)

    def test_no_cache_always_executes(self, tmp_path, monkeypatch):
        calls = []
        kind = JobKind("echo", lambda: calls.append(1) or Echo(value=1),
                       Echo)
        monkeypatch.setitem(fleet.JOB_KINDS, "echo", kind)
        spec = ("echo", "echo:1", {})
        fleet.run_jobs([spec], jobs=1, cache=None)
        fleet.run_jobs([spec], jobs=1, cache=None)
        assert len(calls) == 2


# ----------------------------------------------------------------------
# scheduler mechanics
# ----------------------------------------------------------------------
class TestScheduler:
    def test_resolve_jobs(self):
        assert fleet.resolve_jobs(3) == 3
        assert fleet.resolve_jobs(None) >= 1
        with pytest.raises(ConfigurationError):
            fleet.resolve_jobs(0)

    def test_duplicate_idents_rejected(self):
        spec = ("table2", "table2", {})
        with pytest.raises(ConfigurationError):
            fleet.run_jobs([spec, spec], jobs=1)

    def test_crashed_shard_raises_fleet_error(self):
        spec = ("table4-row", "table4:nonexistent",
                {"name": "nonexistent", "requests": 5})
        with pytest.raises(FleetError) as excinfo:
            fleet.run_jobs([spec], jobs=1)
        assert "table4:nonexistent" in str(excinfo.value)

    def test_single_job_matches_direct_call(self):
        outcome = fleet.run_jobs([("table2", "table2", {})], jobs=1)
        assert outcome.payloads["table2"].render() == \
            run_experiment("table2").render()
        # table2 drives the machine directly (no run_workload), so the
        # telemetry tap sees nothing -- documented behavior.
        assert outcome.metrics is None

    def test_workload_jobs_produce_merged_telemetry(self):
        spec = ("fleet-machine", "fleet:gzip:0",
                {"workload": "gzip", "monitor": "native", "buggy": False,
                 "requests": 5, "seed": 0, "index": 0,
                 "stack": MonitorStackConfig(monitor="native").to_dict()})
        outcome = fleet.run_jobs([spec], jobs=1)
        assert outcome.metrics is not None
        assert outcome.metrics.get("cache.l1.hit", 0) > 0


# ----------------------------------------------------------------------
# fleet scenario
# ----------------------------------------------------------------------
class TestRunFleet:
    def test_fleet_aggregates_across_machines(self):
        result = fleet.run_fleet("gzip", machines=2, monitor="native",
                                 requests=5, jobs=1)
        assert len(result.reports) == 2
        assert [r.index for r in result.reports] == [0, 1]
        assert [r.seed for r in result.reports] == [0, 1]
        # native monitor: no overhead comparison is run.
        assert result.overhead_distribution() is None
        # merged counters are fleet totals: two machines' worth of
        # traffic, i.e. exactly 2x one machine (normal-input runs are
        # seed-independent, so both machines do identical work).
        solo = fleet.run_fleet("gzip", machines=1, monitor="native",
                               requests=5, jobs=1)
        assert result.metrics["heap.allocs"] == \
            2 * solo.metrics["heap.allocs"]
        assert result.metrics["cache.l1.hit"] == \
            2 * solo.metrics["cache.l1.hit"]
        rendered = result.render()
        assert "2 machines of gzip" in rendered
        assert "fleet totals:" in rendered

    def test_fleet_overhead_distribution(self):
        result = fleet.run_fleet("gzip", machines=2, monitor="safemem",
                                 requests=5, jobs=1)
        distribution = result.overhead_distribution()
        assert distribution is not None
        low, median, high = distribution
        assert low <= median <= high

    def test_machines_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            fleet.run_fleet("gzip", machines=0)


# ----------------------------------------------------------------------
# the acceptance differential: sharded == serial, bit for bit
# ----------------------------------------------------------------------
class TestDifferentialValidation:
    def test_jobs4_matches_serial_verdicts_and_tables(self):
        """`repro validate --jobs 4` == the serial path, bit for bit.

        The serial reference calls each declared job's unit in-process
        and assembles the rows: no codec, no pool.  The sharded run
        goes through job enumeration, a real 4-worker process pool,
        the JSON payload codec, and context reassembly.  Run at a
        reduced request count -- identity is config-independent
        because both paths execute the same deterministic unit
        functions.
        """
        specs = fleet.enumerate_validation_jobs(requests=DIFF_REQUESTS)
        serial_rows = {ident: fleet.JOB_KINDS[kind].unit(**params)
                       for kind, ident, params in specs}
        serial_context = fleet.assemble_context(serial_rows)
        serial_results = validate(serial_context)

        run = fleet.run_validation(requests=DIFF_REQUESTS, jobs=4,
                                   use_cache=False)

        assert [(r.claim.ident, r.passed, r.evidence)
                for r in run.results] == \
            [(r.claim.ident, r.passed, r.evidence)
             for r in serial_results]
        # Regression: T3-band must *pass* at this short run length (it
        # used to flip to FAIL because the whole-run overhead folded
        # fixed arming costs over a small request count).
        by_ident = {r.claim.ident: r for r in run.results}
        assert by_ident["T3-band"].passed, by_ident["T3-band"].evidence
        assert render_validation(run.results) == \
            render_validation(serial_results)
        for name in fleet.RESULT_FILES:
            assert run.context[name].render() == \
                serial_context[name].render(), name
        for ident, row in serial_rows.items():
            assert asdict(run.outcome.payloads[ident]) == asdict(row), \
                ident
        # The experiments --requests does not scale ran full length
        # here: they render their committed results/ files, and their
        # claims hold.
        for name in fleet.RESULT_FILES:
            if not EXPERIMENTS[name].scales:
                assert run.context[name].render() + "\n" == \
                    (RESULTS_DIR / f"{name}.txt").read_text(), name
        for result in run.results:
            if not EXPERIMENTS[result.claim.source].scales:
                assert result.passed, (result.claim.ident,
                                       result.evidence)

    def test_t3_band_is_run_length_and_shard_independent(self):
        """The T3 production-band claim must not flip with run length.

        The whole-run overhead folds fixed arming costs over the
        request count, so short differential runs used to push squid1
        past the paper band and fail the claim that full-length runs
        passed.  The band now judges the steady-state overhead (tail
        slope of cycle_marks), which is identical serial vs sharded
        and stable at any request count.
        """
        from dataclasses import asdict

        from repro.analysis.experiments import table3_row

        names = ("gzip", "squid1")
        serial_rows = {name: table3_row(name, requests=DIFF_REQUESTS)
                       for name in names}
        specs = [("table3-row", f"table3:{name}",
                  {"name": name, "requests": DIFF_REQUESTS})
                 for name in names]
        run = fleet.run_jobs(specs, jobs=2, cache=None)
        for name in names:
            sharded = run.payloads[f"table3:{name}"]
            assert asdict(sharded) == asdict(serial_rows[name]), name
            assert sharded.steady_overhead is not None
            # The paper band (0-16%) holds per workload even at this
            # short run length -- the regression that motivated the
            # steady-state metric.
            assert 0 < sharded.steady_overhead < 16, name


    def test_write_result_artifacts_layout(self, tmp_path):
        # A cheap context: table2 is real, the other slots reuse it
        # (write_result_artifacts only needs .render()).
        run = fleet.run_jobs([("table2", "table2", {})], jobs=1)
        context = {name: run.payloads["table2"]
                   for name in fleet.RESULT_FILES}
        written = fleet.write_result_artifacts(context, tmp_path)
        assert sorted(p.name for p in written) == sorted(
            f"{name}.txt" for name in fleet.RESULT_FILES)
        for path in written:
            assert path.read_text().endswith("\n")

    def test_results_dir_holds_one_file_per_experiment(self):
        """``write_result_artifacts`` is the one writer of results/."""
        assert sorted(path.stem for path in RESULTS_DIR.glob("*.txt")) \
            == sorted(fleet.RESULT_FILES)
