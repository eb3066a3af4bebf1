"""Tests for post-mortem forensics: bundles, replay, and diffing.

Covers bundle capture (contents, observation-only invariant, JSON
round-trip), the automatic :class:`ForensicRecorder` (panic and
firing-alert triggers, per-rule dedupe, the dump budget), deterministic
replay (full-run bit-exactness, ``--until-cycle`` / ``--break-on``
breakpoints, the differential verify), the inspection renderers, the
bundle/metrics diff engine, fleet auto-dump wiring, and the end-to-end
acceptance loop: an injected leak fires ``leak-suspect-growth`` under
``--dump-on-alert``, the auto-written bundle alone surfaces the leaking
``(size, call-stack)`` group, and replay reproduces the recorded event
stream bit-identically up to the dump cycle.
"""

import io
import json

import pytest

from repro.analysis import fleet
from repro.analysis.runner import (
    CACHE_SIZE,
    DRAM_SIZE,
    make_monitor,
    run_workload,
)
from repro.cli import main
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import (
    ConfigurationError,
    FleetError,
    MachinePanic,
)
from repro.common.events import EventKind
from repro.machine.machine import Machine
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.export import snapshot_document, write_metrics_json
from repro.obs.forensics import (
    DUMP_SCHEMA,
    ForensicRecorder,
    capture_bundle,
    diff_documents,
    load_bundle,
    load_document,
    parse_breakpoint,
    render_bundle_events,
    render_bundle_groups,
    render_bundle_heap,
    render_bundle_summary,
    render_diff,
    render_stream_summary,
    replay_bundle,
    verify_replay,
    write_bundle,
)
from repro.obs.sampler import SamplingProfiler, leak_group_source
from repro.obs.snapshot import event_to_dict, machine_from_config
from repro.obs.stack import MonitorStackConfig, build_monitor_stack


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _small_run(workload="gzip", monitor="safemem", requests=10, seed=7):
    """One cheap monitored run plus the run_info that makes it
    replayable."""
    result = run_workload(workload, monitor, buggy=False,
                          requests=requests, seed=seed)
    run_info = {"workload": workload, "monitor": monitor,
                "buggy": False, "requests": requests, "seed": seed}
    return result, run_info


def _monitored_leak_run(dump_dir, requests=400,
                        sample_every=30_000_000):
    """The acceptance scenario: buggy ypserv1 under safemem-ml with the
    production monitoring stack and a --dump-on-alert recorder.  At
    this sampling interval the growing leak-suspect count fires
    ``leak-suspect-growth`` mid-run."""
    machine = Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                      cache_ways=16)
    monitor = make_monitor("safemem-ml")
    sampler = SamplingProfiler(machine, interval_cycles=sample_every,
                               group_source=leak_group_source(monitor))
    engine = AlertEngine(default_rules(), events=machine.events,
                         metrics=machine.metrics)
    sampler.add_listener(engine.evaluate)
    run_info = {
        "workload": "ypserv1", "monitor": "safemem-ml", "buggy": True,
        "requests": requests, "seed": 0,
        "monitoring": {
            "sample_every": sample_every,
            "rules": [rule.to_dict() for rule in default_rules()],
        },
    }
    recorder = ForensicRecorder(machine, monitor=monitor,
                                run_info=run_info, dump_dir=dump_dir,
                                label="ypserv1", on_alert=True)
    sampler.start()
    try:
        result = run_workload("ypserv1", "safemem-ml", buggy=True,
                              requests=requests, seed=0,
                              machine=machine, monitor=monitor)
    finally:
        sampler.stop()
        recorder.detach()
    return machine, monitor, recorder, result


def _armed_machine_without_handler():
    """A real kernel-panic recipe: armed watch, no user handler."""
    machine = Machine(dram_size=8 * 1024 * 1024)
    base = 0x4000_0000
    machine.kernel.mmap(base, 4 * PAGE_SIZE)
    machine.store(base, bytes(CACHE_LINE_SIZE))
    machine.kernel.watch_memory(base, CACHE_LINE_SIZE)
    return machine, base


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
class TestCaptureBundle:
    def test_bundle_contents(self):
        result, run_info = _small_run()
        machine = result.machine
        bundle = capture_bundle(machine, monitor=result.monitor,
                                run_info=run_info)
        assert bundle["schema"] == DUMP_SCHEMA
        assert bundle["reason"] == "manual"
        assert bundle["cycle"] == machine.clock.cycles
        assert bundle["run"] == run_info
        assert bundle["machine"] == machine.boot_config
        assert bundle["metrics"]["schema"] == "repro.metrics/v1"
        assert bundle["events"]["total"] == len(machine.events)
        assert bundle["events"]["tail"]
        assert bundle["events"]["tail"][-1] == event_to_dict(
            machine.events.query()[-1])
        heap = bundle["heap"]
        allocator = result.monitor.program.allocator
        assert heap["total_allocs"] == allocator.total_allocs
        assert heap["live_blocks"] == len(allocator.live_allocations())
        assert isinstance(bundle["groups"], list)
        assert isinstance(bundle["watches"], list)
        assert "delivered" in bundle["interrupts"]

    def test_capture_is_observation_only(self):
        result, run_info = _small_run()
        machine = result.machine
        before_cycles = machine.clock.cycles
        before_events = len(machine.events)
        capture_bundle(machine, monitor=result.monitor,
                       run_info=run_info)
        assert machine.clock.cycles == before_cycles
        assert len(machine.events) == before_events

    def test_write_load_round_trip(self, tmp_path):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        path = write_bundle(bundle, tmp_path / "a" / "b.dump.json")
        assert path.exists()  # parents created
        assert load_bundle(path) == json.loads(json.dumps(bundle))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/v9"}))
        with pytest.raises(ConfigurationError):
            load_bundle(path)

    def test_capture_without_monitor_has_no_heap(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        bundle = capture_bundle(machine)
        assert bundle["heap"] is None
        assert bundle["groups"] == []
        assert bundle["run"] == {}


# ----------------------------------------------------------------------
# the automatic recorder
# ----------------------------------------------------------------------
class TestForensicRecorder:
    def test_kernel_panic_auto_captures(self, tmp_path):
        machine, base = _armed_machine_without_handler()
        recorder = ForensicRecorder(machine, dump_dir=tmp_path,
                                    label="crash")
        with pytest.raises(MachinePanic):
            machine.load(base, 8)
        assert len(recorder.bundle_paths) == 1
        bundle = load_bundle(recorder.bundle_paths[0])
        assert bundle["reason"] == "panic"
        assert bundle["trigger"]["reason"] == \
            "no ECC fault handler registered"
        # The tracer's frozen panic dump rides along in the bundle.
        assert bundle["spans"]["panic"] is not None
        # The triggering PANIC event itself is in the captured tail.
        assert bundle["events"]["tail"][-1]["kind"] == "panic"

    def test_retry_exhaustion_panic_emits_event_and_dumps(self,
                                                          tmp_path):
        # Machine.load/store retry exhaustion must go through the same
        # PANIC-event path as the kernel's unhandled-fault panic.
        machine = Machine(dram_size=8 * 1024 * 1024)
        recorder = ForensicRecorder(machine, dump_dir=tmp_path)
        with pytest.raises(MachinePanic):
            machine._retry_panic(0x1234, 9)
        assert machine.events.last(EventKind.PANIC) is not None
        assert len(recorder.bundle_paths) == 1
        bundle = load_bundle(recorder.bundle_paths[0])
        assert bundle["trigger"]["address"] == 0x1234

    def test_alert_capture_dedupes_per_rule(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        recorder = ForensicRecorder(machine, dump_dir=tmp_path,
                                    on_alert=True)
        machine.events.emit(EventKind.ALERT, rule="hot",
                            severity="warning", state="firing", value=1)
        machine.events.emit(EventKind.ALERT, rule="hot",
                            severity="warning", state="firing", value=2)
        machine.events.emit(EventKind.ALERT, rule="hot",
                            severity="warning", state="resolved", value=0)
        assert len(recorder.bundle_paths) == 1
        machine.events.emit(EventKind.ALERT, rule="cold",
                            severity="critical", state="firing", value=9)
        assert len(recorder.bundle_paths) == 2
        second = load_bundle(recorder.bundle_paths[1])
        assert second["reason"] == "alert"
        assert second["trigger"]["rule"] == "cold"
        assert second["trigger"]["severity"] == "critical"

    def test_max_bundles_counts_skips(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        recorder = ForensicRecorder(machine, dump_dir=tmp_path,
                                    max_bundles=1)
        machine.events.emit(EventKind.PANIC, reason="one")
        machine.events.emit(EventKind.PANIC, reason="two")
        assert len(recorder.bundle_paths) == 1
        assert recorder.bundles_skipped == 1

    def test_context_manager_detaches(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        with ForensicRecorder(machine, dump_dir=tmp_path) as recorder:
            pass
        machine.events.emit(EventKind.PANIC, reason="after")
        assert recorder.bundle_paths == []


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
class TestReplay:
    def test_machine_from_config_round_trips(self):
        machine = Machine(dram_size=8 * 1024 * 1024,
                          cache_size=128 * 1024, cache_ways=4)
        rebooted = machine_from_config(dict(machine.boot_config))
        assert rebooted.boot_config == machine.boot_config

    def test_parse_breakpoint(self):
        assert parse_breakpoint("0x4000") == (None, 0x4000)
        assert parse_breakpoint("4096") == (None, 4096)
        assert parse_breakpoint("leak_report") == \
            (EventKind.LEAK_REPORT, None)
        with pytest.raises(ConfigurationError):
            parse_breakpoint("not_an_event")

    def test_full_replay_is_bit_exact(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        replay = replay_bundle(bundle)
        assert not replay.broke
        assert replay.panic is None
        assert replay.truth.requests_completed == \
            result.truth.requests_completed
        # Stronger than the tail check: the *entire* event stream of
        # the replay matches the original run, record for record.
        original = [event_to_dict(e)
                    for e in result.machine.events.query()]
        replayed = [event_to_dict(e) for e in replay.events]
        assert replayed == original
        ok, message = verify_replay(bundle, replay)
        assert ok, message

    def test_replay_keeps_history(self):
        """Regression: a bundle recorded with ``--history`` replays with
        the history store rebuilt, so its ``history.*`` metrics match."""
        config = MonitorStackConfig(sample_every=100_000, history=True)
        _, run_info = _small_run()
        stack = build_monitor_stack(config, run_info=run_info)
        stack.start()
        try:
            run_workload("gzip", "safemem", buggy=False, requests=10,
                         seed=7, machine=stack.machine,
                         monitor=stack.monitor)
        finally:
            stack.stop()
        bundle = capture_bundle(
            stack.machine, monitor=stack.monitor,
            run_info={**run_info, "monitoring": stack.monitoring_info()})
        stack.close()
        replay = replay_bundle(bundle)
        assert replay.break_cycle == bundle["cycle"]

        def history_metrics(metrics):
            return {name: value for name, value in metrics.items()
                    if name.startswith("history.")}

        recorded = history_metrics(bundle["metrics"]["metrics"])
        assert recorded["history.observations"] > 0
        replayed = snapshot_document(replay.machine.metrics.snapshot())
        assert history_metrics(replayed["metrics"]) == recorded

    def test_replay_requires_run_info(self):
        machine = Machine(dram_size=8 * 1024 * 1024)
        bundle = capture_bundle(machine)
        with pytest.raises(ConfigurationError):
            replay_bundle(bundle)

    def test_until_cycle_breaks_with_identical_prefix(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        until = bundle["cycle"] // 2
        replay = replay_bundle(bundle, until_cycle=until)
        assert replay.broke
        assert replay.break_cycle >= until
        assert replay.break_cycle < bundle["cycle"]
        ok, message = verify_replay(bundle, replay)
        assert ok, message
        # Differential pin: below the break cycle, the replayed prefix
        # equals the original stream exactly.
        cutoff = replay.break_cycle
        original = [event_to_dict(e)
                    for e in result.machine.events.query()
                    if e.cycle < cutoff]
        replayed = [event_to_dict(e) for e in replay.events
                    if e.cycle < cutoff]
        assert replayed == original

    def test_until_cycle_must_be_in_the_future(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        with pytest.raises(ConfigurationError):
            replay_bundle(bundle, until_cycle=0)

    def test_break_on_event_kind(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        replay = replay_bundle(bundle, break_on="watch")
        assert replay.broke
        first_watch = next(e for e in result.machine.events.query()
                           if e.kind is EventKind.WATCH)
        assert replay.break_cycle == first_watch.cycle

    def test_break_on_address(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        target = next(e for e in result.machine.events.query()
                      if e.kind is EventKind.WATCH)
        replay = replay_bundle(bundle, break_on=hex(target.address))
        assert replay.broke
        assert replay.break_cycle <= target.cycle

    def test_verify_detects_divergence(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        replay = replay_bundle(bundle)
        bundle["events"]["tail"][-1] = dict(
            bundle["events"]["tail"][-1], cycle=999_999_999_999)
        ok, message = verify_replay(bundle, replay)
        assert not ok
        assert "diverged" in message

    def test_verify_detects_missing_events(self):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        replay = replay_bundle(bundle)
        replay.events = replay.events[:-10]
        replay.broke = True
        replay.break_cycle = bundle["cycle"]
        ok, message = verify_replay(bundle, replay)
        assert not ok


# ----------------------------------------------------------------------
# inspection
# ----------------------------------------------------------------------
class TestInspection:
    def _bundle(self):
        result, run_info = _small_run()
        return capture_bundle(result.machine, monitor=result.monitor,
                              run_info=run_info)

    def test_summary_names_run_and_machine(self):
        rendered = render_bundle_summary(self._bundle())
        assert "gzip/safemem" in rendered
        assert "seed 7" in rendered
        assert "64 MiB DRAM" in rendered
        assert "events:" in rendered

    def test_groups_table_lists_size_and_callsig(self):
        bundle = self._bundle()
        rendered = render_bundle_groups(bundle)
        if bundle["groups"]:
            top = bundle["groups"][0]
            assert str(top["size"]) in rendered
            assert f"{top['call_signature']:#09x}" in rendered

    def test_heap_map_lists_blocks(self):
        rendered = render_bundle_heap(self._bundle())
        assert "live in" in rendered

    def test_event_tail_filters(self):
        bundle = self._bundle()
        rendered = render_bundle_events(bundle, kind="watch", limit=5)
        assert rendered.count("\n") <= 5
        assert "watch" in rendered
        nothing = render_bundle_events(bundle, kind="panic")
        assert nothing == "no matching events in the recorded tail"

    def test_load_document_dispatch(self, tmp_path):
        bundle = self._bundle()
        dump_path = write_bundle(bundle, tmp_path / "x.dump.json")
        assert load_document(dump_path)[0] == "dump"

        machine = Machine(dram_size=8 * 1024 * 1024)
        metrics_path = tmp_path / "m.json"
        write_metrics_json(metrics_path, machine.metrics.snapshot())
        assert load_document(metrics_path)[0] == "metrics"

        stream_path = tmp_path / "s.jsonl"
        stream_path.write_text(json.dumps(
            {"schema": "repro.events/v1", "type": "run", "cycle": 0,
             "run": {"marker": "start"}}) + "\n")
        kind, records = load_document(stream_path)
        assert kind == "stream"
        assert len(records) == 1

        garbage = tmp_path / "g.json"
        garbage.write_text("{\"schema\": \"wat/v0\"}")
        with pytest.raises(ConfigurationError):
            load_document(garbage)

    def test_stream_summary(self):
        records = [
            {"schema": "repro.events/v1", "type": "run", "cycle": 0,
             "run": {"marker": "start"}},
            {"schema": "repro.events/v1", "type": "sample", "cycle": 5,
             "sample": {}},
            {"schema": "repro.events/v1", "type": "alert", "cycle": 9,
             "alert": {"rule": "hot", "state": "firing"}},
        ]
        rendered = render_stream_summary(records)
        assert "3 record(s)" in rendered
        assert "alerts firing: hot" in rendered
        assert "run markers: start" in rendered


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def _metrics_doc(cycle, values, kinds):
    return {"schema": "repro.metrics/v1",
            "generated": {"cycle": cycle, "since_cycle": None},
            "metrics": values, "kinds": kinds}


class TestDiff:
    def test_counter_gauge_and_alert_changes(self):
        kinds = {"requests": "counter", "heap.live": "gauge",
                 "alerts.rule.hot.fired": "counter"}
        a = _metrics_doc(100, {"requests": 10, "heap.live": 640,
                               "alerts.rule.hot.fired": 0}, kinds)
        b = _metrics_doc(200, {"requests": 25, "heap.live": 320,
                               "alerts.rule.hot.fired": 2}, kinds)
        diff = diff_documents(a, b)
        assert diff["cycle_a"] == 100 and diff["cycle_b"] == 200
        requests = next(row for row in diff["counters"]
                        if row["name"] == "requests")
        assert requests["delta"] == 15
        assert diff["gauges"] == [{"name": "heap.live", "a": 640,
                                   "b": 320}]
        assert diff["alerts"]["appeared"] == ["hot"]
        assert diff["alerts"]["disappeared"] == []

    def test_histogram_shift_grouped_not_itemized(self):
        names = {f"lat{suffix}": "gauge" for suffix in
                 (".count", ".sum", ".min", ".max",
                  ".p50", ".p90", ".p99")}
        a = _metrics_doc(1, {"lat.count": 10, "lat.sum": 50,
                             "lat.min": 1, "lat.max": 9, "lat.p50": 5,
                             "lat.p90": 8, "lat.p99": 9}, names)
        b = _metrics_doc(2, {"lat.count": 20, "lat.sum": 300,
                             "lat.min": 1, "lat.max": 30, "lat.p50": 12,
                             "lat.p90": 25, "lat.p99": 30}, names)
        diff = diff_documents(a, b)
        assert diff["gauges"] == []  # folded into the histogram row
        assert len(diff["histograms"]) == 1
        row = diff["histograms"][0]
        assert row["name"] == "lat"
        assert row["a.p50"] == 5 and row["b.p50"] == 12

    def test_bundle_diff_includes_group_shifts(self):
        result, run_info = _small_run()
        a = capture_bundle(result.machine, monitor=result.monitor,
                           run_info=run_info)
        b = json.loads(json.dumps(a))
        if not b["groups"]:
            pytest.skip("run produced no allocation groups")
        b["groups"][0]["live_bytes"] += 4096
        diff = diff_documents(a, b)
        assert diff["groups"][0]["delta"] == 4096
        rendered = render_diff(diff)
        assert "leak-group live_bytes shifts:" in rendered

    def test_identical_documents_diff_empty(self):
        doc = _metrics_doc(5, {"x": 1}, {"x": "counter"})
        rendered = render_diff(diff_documents(doc, doc))
        assert "no differences" in rendered

    def test_rejects_unknown_schema(self):
        with pytest.raises(ConfigurationError):
            diff_documents({"schema": "nope/v1"}, {"schema": "nope/v1"})


# ----------------------------------------------------------------------
# fleet wiring
# ----------------------------------------------------------------------
class TestFleetForensics:
    def test_fleet_dump_on_alert_links_bundles(self, tmp_path):
        result = fleet.run_fleet(
            "ypserv1", machines=1, buggy=True, requests=400, jobs=1,
            stack=MonitorStackConfig(monitor="safemem-ml",
                                     sample_every=30_000_000,
                                     dump_dir=str(tmp_path),
                                     dump_on_alert=True),
        )
        report = result.reports[0]
        assert report.bundles, "no forensic bundle written"
        bundle = load_bundle(report.bundles[0])
        assert bundle["reason"] == "alert"
        assert bundle["trigger"]["rule"] == "leak-suspect-growth"
        # Fleet machines record their monitoring stack, so the bundle
        # is replayable with the same alert behaviour.
        assert bundle["run"]["monitoring"]["sample_every"] == 30_000_000
        rendered = result.render()
        assert "forensic dumps:" in rendered
        assert report.bundles[0] in rendered

    def test_fleet_without_dump_dir_writes_nothing(self):
        result = fleet.run_fleet("gzip", machines=1, monitor="native",
                                 requests=5, jobs=1)
        assert result.reports[0].bundles == []
        assert "forensic dumps:" not in result.render()

    def test_panicking_machine_becomes_report_row(self, tmp_path,
                                                  monkeypatch):
        def boom(*args, machine=None, monitor=None, **kwargs):
            # Mirror the boot-tap call the real run_workload makes, so
            # the job's ForensicRecorder attaches before the crash.
            from repro.analysis import runner
            for tap in list(runner._BOOT_TAPS):
                tap(machine, monitor,
                    {"workload": "gzip", "monitor": "native"})
            machine.events.emit(EventKind.PANIC, address=0x40,
                                reason="injected")
            raise MachinePanic("injected")

        monkeypatch.setattr(fleet, "run_workload", boom)
        spec = ("fleet-machine", "fleet:gzip:0",
                {"workload": "gzip", "monitor": "native", "buggy": False,
                 "requests": 5, "seed": 0, "index": 0,
                 "sample_every": None, "rules": "default",
                 "forensics": True})
        outcome = fleet.run_jobs([spec], jobs=1, dump_dir=tmp_path)
        report = outcome.payloads["fleet:gzip:0"]
        assert report.detection == "panic: injected"
        assert report.requests_completed == 0
        assert report.bundles and outcome.bundles == report.bundles
        assert load_bundle(report.bundles[0])["reason"] == "panic"

    def test_fleet_error_carries_bundles(self):
        spec = ("fleet-machine", "fleet:bad:0",
                {"workload": "no-such-workload", "monitor": "native",
                 "buggy": False, "requests": 1, "seed": 0, "index": 0,
                 "sample_every": None, "rules": "default"})
        with pytest.raises(FleetError) as exc_info:
            fleet.run_jobs([spec], jobs=1)
        assert exc_info.value.bundles == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestForensicsCli:
    def test_monitor_dump_on_alert_writes_bundle(self, tmp_path):
        dump_dir = tmp_path / "dumps"
        code, output = run_cli(
            "monitor", "ypserv1", "--monitor", "safemem-ml", "--buggy",
            "--requests", "400", "--sample-every", "30000000",
            "--dump-on-alert", "--dump-dir", str(dump_dir))
        assert code == 0
        assert "dump:" in output
        paths = sorted(dump_dir.glob("*.dump.json"))
        assert paths
        assert load_bundle(paths[0])["reason"] == "alert"

    def test_inspect_bundle(self, tmp_path):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        path = write_bundle(bundle, tmp_path / "x.dump.json")
        code, output = run_cli("inspect", str(path))
        assert code == 0
        assert "gzip/safemem" in output
        code, output = run_cli("inspect", str(path), "--events",
                               "--kind", "watch")
        assert code == 0
        assert "watch" in output
        code, output = run_cli("inspect", str(path), "--metrics",
                               "--prefix", "machine.")
        assert code == 0
        assert "machine.load.slow" in output

    def test_inspect_metrics_and_stream(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        metrics_path = tmp_path / "m.json"
        write_metrics_json(metrics_path, machine.metrics.snapshot())
        code, output = run_cli("inspect", str(metrics_path))
        assert code == 0
        stream_path = tmp_path / "s.jsonl"
        stream_path.write_text(json.dumps(
            {"schema": "repro.events/v1", "type": "run", "cycle": 0,
             "run": {"marker": "start"}}) + "\n")
        code, output = run_cli("inspect", str(stream_path))
        assert code == 0
        assert "events stream" in output

    def test_replay_cli_verifies(self, tmp_path):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        path = write_bundle(bundle, tmp_path / "x.dump.json")
        code, output = run_cli("replay", str(path))
        assert code == 0
        assert "verify:    OK" in output
        code, output = run_cli(
            "replay", str(path), "--until-cycle",
            str(bundle["cycle"] // 2))
        assert code == 0
        assert "break:" in output
        assert "verify:    OK" in output

    def test_replay_cli_flags_divergence(self, tmp_path):
        result, run_info = _small_run()
        bundle = capture_bundle(result.machine, monitor=result.monitor,
                                run_info=run_info)
        bundle["events"]["tail"][-1]["cycle"] = 999_999_999_999
        path = write_bundle(bundle, tmp_path / "x.dump.json")
        code, output = run_cli("replay", str(path))
        assert code == 1
        assert "DIVERGED" in output

    def test_diff_cli(self, tmp_path):
        machine = Machine(dram_size=8 * 1024 * 1024)
        a = tmp_path / "a.json"
        write_metrics_json(a, machine.metrics.snapshot())
        machine.clock.tick(1000)
        machine.events.emit(EventKind.ALLOC, address=0x40, size=64)
        b = tmp_path / "b.json"
        write_metrics_json(b, machine.metrics.snapshot())
        code, output = run_cli("diff", str(a), str(b))
        assert code == 0
        assert "machine.events" in output

    def test_validate_parser_accepts_dump_dir(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["validate", "--dump-dir", "/tmp/d"])
        assert args.dump_dir == "/tmp/d"


# ----------------------------------------------------------------------
# the end-to-end acceptance loop
# ----------------------------------------------------------------------
class TestEndToEndForensics:
    def test_leak_alert_dump_inspect_replay(self, tmp_path):
        machine, monitor, recorder, result = _monitored_leak_run(
            tmp_path)

        # 1. the injected leak fired leak-suspect-growth and the
        #    recorder auto-wrote a repro.dump/v1 bundle.
        assert recorder.bundle_paths, "alert never fired"
        bundle = load_bundle(recorder.bundle_paths[0])
        assert bundle["schema"] == DUMP_SCHEMA
        assert bundle["reason"] == "alert"
        assert bundle["trigger"]["rule"] == "leak-suspect-growth"

        # 2. the bundle ALONE surfaces the leaking (size, call-stack)
        #    group: ypserv1 leaks 48-byte TCP connection structs.
        top = bundle["groups"][0]
        assert top["size"] == 48
        assert top["live_count"] > top["total_freed"]
        rendered = render_bundle_summary(bundle)
        assert "alerts fired: leak-suspect-growth" in rendered
        assert f"size {top['size']}" in rendered
        groups_view = render_bundle_groups(bundle)
        assert f"{top['call_signature']:#09x}" in groups_view

        # 3. deterministic replay up to the dump cycle reproduces the
        #    original event stream bit-identically (the monitoring
        #    stack is recreated from the bundle, so ALERT events line
        #    up too).
        replay = replay_bundle(bundle, until_cycle=bundle["cycle"])
        ok, message = verify_replay(bundle, replay)
        assert ok, message
        cutoff = min(replay.break_cycle, bundle["cycle"])
        original = [event_to_dict(e) for e in machine.events.query()
                    if e.cycle < cutoff]
        replayed = [event_to_dict(e) for e in replay.events
                    if e.cycle < cutoff]
        assert replayed == original
        # The firing ALERT event itself replays identically (it lands
        # at the dump cycle, so look at the whole replayed stream).
        assert any(e.kind is EventKind.ALERT
                   and e.detail.get("rule") == "leak-suspect-growth"
                   for e in replay.events)
