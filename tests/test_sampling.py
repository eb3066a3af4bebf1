"""Tests for allocation sampling and the MonitorStackConfig front door.

Pins the production-mode contract end to end: the
:class:`SamplingPolicy` knobs and their validation, the deterministic
per-fleet-machine seed derivation, the :class:`AllocationSampler` guard
pool (budget exhaustion -> adaptive backoff -> slot reclamation), the
SafeMem fast paths (rate 0.0 never arms a watchpoint; rate 1.0 is
*bit-identical* to the classic always-on monitor), the
``MonitorStackConfig`` codec and argparse bridge, and every
deprecation shim the API redesign left behind.
"""

import dataclasses

import pytest

from repro.analysis import experiments, fleet
from repro.analysis.runner import make_monitor, run_workload
from repro.common.errors import ConfigurationError
from repro.core.config import full_config
from repro.core.safemem import SafeMem
from repro.core.sampling import (
    AllocationSampler,
    SamplingPolicy,
    machine_sample_seed,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.stack import MonitorStackConfig


# ----------------------------------------------------------------------
# SamplingPolicy: validation, degenerate modes, codec
# ----------------------------------------------------------------------
class TestSamplingPolicy:
    def test_rate_must_be_a_probability(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy(rate=-0.1).validate()
        with pytest.raises(ConfigurationError):
            SamplingPolicy(rate=1.5).validate()

    def test_budget_must_be_positive_or_none(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy(budget=0).validate()
        SamplingPolicy(budget=1).validate()
        SamplingPolicy(budget=None).validate()

    def test_backoff_bounds(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy(backoff=0.5).validate()
        with pytest.raises(ConfigurationError):
            SamplingPolicy(backoff=4.0, max_backoff=2.0).validate()

    def test_always_on_only_at_rate_one_without_budget(self):
        assert SamplingPolicy(rate=1.0, budget=None).always_on
        assert not SamplingPolicy(rate=1.0, budget=8).always_on
        assert not SamplingPolicy(rate=0.5).always_on
        assert not SamplingPolicy(rate=0.0).always_on

    def test_dict_round_trip(self):
        policy = SamplingPolicy(rate=0.25, seed=7, budget=16,
                                backoff=4.0, max_backoff=32.0)
        assert SamplingPolicy.from_dict(policy.to_dict()) == policy

    def test_for_machine_derives_seed_and_keeps_knobs(self):
        policy = SamplingPolicy(rate=0.1, seed=3, budget=8)
        derived = policy.for_machine(5)
        assert derived.seed == machine_sample_seed(3, 5)
        assert (derived.rate, derived.budget) == (0.1, 8)


class TestMachineSampleSeed:
    def test_pinned_values(self):
        # The derivation is a public fleet-reproducibility contract:
        # (base+1) * 0x9E3779B1 + index * 7919, masked to 31 bits.
        assert machine_sample_seed(0, 0) == 506952113
        assert machine_sample_seed(0, 1) == 506952113 + 7919
        assert machine_sample_seed(1, 0) == 1013904226

    def test_distinct_from_workload_seed_stream(self):
        # Workload seeds are base_seed + index; the sampling stream
        # must not collide with it, or two machines replaying the same
        # traffic would sample the same allocations.
        for index in range(16):
            assert machine_sample_seed(0, index) != \
                fleet.machine_seed(0, index)

    def test_neighbouring_machines_differ(self):
        seeds = [machine_sample_seed(0, i) for i in range(64)]
        assert len(set(seeds)) == 64


# ----------------------------------------------------------------------
# AllocationSampler: the guard-pool runtime
# ----------------------------------------------------------------------
class TestAllocationSampler:
    def test_rate_zero_never_samples(self):
        sampler = AllocationSampler(SamplingPolicy(rate=0.0))
        assert sampler.base_interval is None
        assert all(not sampler.should_sample() for _ in range(1000))
        assert sampler.sampled == 0
        assert sampler.skipped == 1000

    def test_rate_one_samples_everything(self):
        sampler = AllocationSampler(SamplingPolicy(rate=1.0, budget=10**9))
        assert all(sampler.should_sample() for _ in range(100))
        assert (sampler.sampled, sampler.skipped) == (100, 0)

    def test_decisions_are_seed_deterministic(self):
        policy = SamplingPolicy(rate=0.1, seed=42)
        a = AllocationSampler(policy)
        b = AllocationSampler(policy)
        decisions_a = [a.should_sample() for _ in range(2000)]
        decisions_b = [b.should_sample() for _ in range(2000)]
        assert decisions_a == decisions_b
        c = AllocationSampler(SamplingPolicy(rate=0.1, seed=43))
        assert decisions_a != [c.should_sample() for _ in range(2000)]

    def test_mean_interval_tracks_rate(self):
        sampler = AllocationSampler(SamplingPolicy(rate=0.01, seed=0))
        draws = 200_000
        for _ in range(draws):
            sampler.should_sample()
        observed = draws / sampler.sampled
        assert 80 < observed < 125  # mean interval ~100

    def test_budget_exhaustion_backs_off_and_reclaims(self):
        policy = SamplingPolicy(rate=1.0, budget=2, backoff=2.0,
                                max_backoff=8.0)
        sampler = AllocationSampler(policy)
        assert sampler.should_sample()
        assert sampler.should_sample()
        assert sampler.live == 2
        # Pool full: the due sample is dropped and the schedule backs
        # off one multiplicative step.
        assert not sampler.should_sample()
        assert sampler.budget_exhausted == 1
        assert sampler.backoff_factor == 2.0
        # Repeated saturation saturates at max_backoff.
        for _ in range(10):
            sampler.should_sample()
        assert sampler.backoff_factor == 8.0
        # Freeing sampled allocations reclaims slots and decays the
        # backoff one step per reclamation.
        sampler.release_slot()
        assert sampler.live == 1
        assert sampler.backoff_factor == 4.0
        before = sampler.sampled
        while sampler.sampled == before:  # backed-off interval > 1
            sampler.should_sample()
        assert sampler.live == 2

    def test_release_below_zero_is_clamped(self):
        sampler = AllocationSampler(SamplingPolicy(rate=1.0, budget=1))
        sampler.release_slot()
        assert sampler.live == 0

    def test_metrics_probes_stay_numeric_at_rate_zero(self):
        # Fleet merges sum gauges, so every probe must return a number
        # even when the policy never samples.
        registry = MetricsRegistry()
        AllocationSampler(SamplingPolicy(rate=0.0)) \
            .register_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot.get("safemem.sampling.backoff_interval") == 0.0
        assert snapshot.get("safemem.sampling.sampled") == 0


# ----------------------------------------------------------------------
# SafeMem integration: the fast paths
# ----------------------------------------------------------------------
class TestSafeMemSampling:
    def test_always_on_policy_skips_the_sampler(self):
        monitor = SafeMem(full_config(sampling=SamplingPolicy(rate=1.0)))
        assert monitor.sampler is None

    def test_rate_zero_never_arms_a_watchpoint(self):
        monitor = make_monitor("safemem",
                               sampling=SamplingPolicy(rate=0.0))
        result = run_workload("ypserv2", monitor=monitor, buggy=True)
        assert monitor.leak_reports == []
        assert monitor.corruption_reports == []
        snapshot = result.metrics
        assert snapshot.get("safemem.sampling.sampled") == 0
        assert snapshot.get("safemem.sampling.skipped") > 0
        # The watch machinery was never touched: no ECC arms at all.
        assert snapshot.get("safemem.watch.arms", 0) == 0

    def test_rate_one_is_bit_identical_to_classic_safemem(self):
        # The headline equivalence claim of the redesign: an always-on
        # policy short-circuits to the historic hot path, instruction
        # for instruction -- same cycles, same telemetry.
        classic = run_workload("ypserv2", monitor_name="safemem",
                               buggy=True)
        sampled = run_workload(
            "ypserv2", buggy=True,
            monitor=make_monitor("safemem",
                                 sampling=SamplingPolicy(rate=1.0)))
        assert sampled.cycles == classic.cycles
        assert sampled.metrics.as_dict() == classic.metrics.as_dict()
        assert [r.object_address
                for r in sampled.monitor.leak_reports] == \
            [r.object_address for r in classic.monitor.leak_reports]

    def test_non_sampling_monitor_rejects_a_policy(self):
        with pytest.raises(ConfigurationError):
            make_monitor("native", sampling=SamplingPolicy(rate=0.5))


# ----------------------------------------------------------------------
# MonitorStackConfig: codec and validation
# ----------------------------------------------------------------------
class TestMonitorStackConfig:
    def test_dict_round_trip_with_sampling(self):
        config = MonitorStackConfig(
            monitor="safemem-ml",
            sampling=SamplingPolicy(rate=0.05, seed=9, budget=32),
            sample_every=50_000, rules="none",
            stream="out.jsonl", stream_max_bytes=1024,
            dump_dir="dumps", dump_on_alert=True,
        ).validate()
        assert MonitorStackConfig.from_dict(config.to_dict()) == config

    def test_validate_rejects_bad_intervals(self):
        with pytest.raises(ConfigurationError):
            MonitorStackConfig(sample_every=0).validate()
        with pytest.raises(ConfigurationError):
            MonitorStackConfig(stream="s", stream_max_bytes=0).validate()

    def test_for_machine_derives_the_sampling_seed_only(self):
        config = MonitorStackConfig(
            sampling=SamplingPolicy(rate=0.1, seed=2))
        derived = config.for_machine(3)
        assert derived.sampling.seed == machine_sample_seed(2, 3)
        assert dataclasses.replace(derived, sampling=config.sampling) \
            == config

    def test_dump_on_alert_defaults_the_dump_dir(self):
        config = MonitorStackConfig(dump_on_alert=True)
        assert config.resolved_dump_dir() == "dumps"
        assert MonitorStackConfig().resolved_dump_dir() is None


# ----------------------------------------------------------------------
# removed PR 7 shims: the old spellings now fail fast
# ----------------------------------------------------------------------
class TestRemovedShims:
    def test_safemem_positional_config_works(self):
        assert SafeMem(full_config()).config.detect_leaks

    def test_safemem_rejects_config_keyword(self):
        with pytest.raises(TypeError):
            SafeMem(config=full_config())

    def test_run_fleet_rejects_loose_monitoring_keywords(self):
        with pytest.raises(TypeError):
            fleet.run_fleet("gzip", machines=1, jobs=1, rules="none",
                            sample_every=50_000)

    def test_run_fleet_rejects_unknown_keywords(self):
        with pytest.raises(TypeError):
            fleet.run_fleet("gzip", machines=1, jobs=1, sample_rate=0.5)

    def test_run_fleet_monitor_conflicting_with_stack(self):
        with pytest.raises(ConfigurationError):
            fleet.run_fleet("gzip", machines=1, jobs=1, monitor="native",
                            stack=MonitorStackConfig(monitor="safemem"))

    def test_run_validation_rejects_dump_dir_keyword(self):
        with pytest.raises(TypeError):
            fleet.run_validation(dump_dir="dumps")

    def test_run_validation_rejects_unknown_keywords(self):
        with pytest.raises(TypeError):
            fleet.run_validation(sample_every=1)


# ----------------------------------------------------------------------
# fleet: sampled detection probability
# ----------------------------------------------------------------------
class TestFleetSampling:
    def test_fleet_seeds_are_pinned_per_machine(self):
        result = fleet.run_fleet("gzip", machines=2, monitor="native",
                                 requests=3, jobs=1, base_seed=5)
        assert [r.seed for r in result.reports] == \
            [fleet.machine_seed(5, 0), fleet.machine_seed(5, 1)] == [5, 6]

    def test_sampled_fleet_is_reproducible(self):
        stack = MonitorStackConfig(
            monitor="safemem", sampling=SamplingPolicy(rate=0.2, seed=1))
        runs = [fleet.run_fleet("ypserv2", machines=2, requests=40,
                                buggy=True, jobs=1, stack=stack)
                for _ in range(2)]
        assert runs[0].metrics.values == runs[1].metrics.values
        assert runs[0].machines_detected == runs[1].machines_detected

    def test_detection_tally_merges_through_obs(self):
        # Full-length runs: ypserv2's SLeak needs the whole request
        # schedule before the suspect's watch window confirms it.
        stack = MonitorStackConfig(
            monitor="safemem", sampling=SamplingPolicy(rate=1.0))
        result = fleet.run_fleet("ypserv2", machines=2, buggy=True,
                                 jobs=1, stack=stack)
        # The tally rides the same merge pipeline as machine telemetry.
        assert result.metrics.get("fleet.machines.total") == 2
        assert result.metrics.get("fleet.machines.detected") == \
            result.machines_detected == 2
        assert result.detection_probability == 1.0
        assert "detection 2/2 machines" in result.render()

    def test_sampling_point_payload_round_trips(self):
        point = experiments.SamplingPoint(
            rate=0.1, machines=8, detected=6,
            detection_probability=0.75, mean_overhead_pct=1.0,
            sampled_allocs=915, skipped_allocs=8701)
        kind = fleet.JOB_KINDS["sampling-point"]
        assert kind.decode(kind.encode(point)) == point

    def test_curve_points_enumerate_into_validation_jobs(self):
        labels = [label for _kind, label, _params
                  in fleet.enumerate_validation_jobs()]
        for rate in experiments.SAMPLING_CURVE_RATES:
            assert f"sampling:{rate:g}" in labels
