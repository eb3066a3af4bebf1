"""Tests for the command-line interface."""

import io

import pytest

from repro.analysis import fleet, runner
from repro.analysis.claims import CLAIMS, ClaimResult
from repro.cli import build_parser, main
from repro.common.errors import MachinePanic
from repro.common.events import EventKind
from repro.core.sampling import SamplingPolicy
from repro.obs.stack import MonitorStackConfig


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nginx"])

    def test_unknown_monitor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gzip",
                                       "--monitor", "valgrind"])

    def test_every_subcommand_has_working_help(self, capsys):
        # Enumerate the registered subcommands from the parser itself
        # so a new command cannot ship without --help coverage.
        import argparse
        parser = build_parser()
        subactions = [action for action in parser._actions
                      if isinstance(action,
                                    argparse._SubParsersAction)]
        assert len(subactions) == 1
        commands = sorted(subactions[0].choices)
        expected = {"stats", "validate", "fleet", "monitor", "replay",
                    "inspect", "diff", "run", "list", "report",
                    "figure3", "table2", "table3", "table4", "table5"}
        assert expected <= set(commands)
        for command in commands:
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args([command, "--help"])
            assert exc_info.value.code == 0
            help_text = capsys.readouterr().out
            assert f"repro {command}" in help_text or command \
                in help_text

    def test_monitoring_flags_identical_across_commands(self):
        # The api_redesign contract: monitor, fleet and run all mount
        # the same shared monitoring-flags parent, so no command can
        # drift its own hand-copied flag set again.  validate mounts
        # only the forensic pair that parent includes: its shard
        # machines read nothing else.
        import argparse
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)).choices

        def monitoring_flags(command):
            return {
                option
                for group in subparsers[command]._action_groups
                if group.title == "monitoring stack"
                for action in group._group_actions
                for option in action.option_strings
            }

        expected = {"--profile", "--sample-rate", "--sample-seed",
                    "--guard-budget", "--sample-every", "--rules",
                    "--trend", "--trend-window", "--seasonal-period",
                    "--history", "--checkpoint-every",
                    "--checkpoint-dir",
                    "--stream", "--stream-max-bytes", "--dump-dir",
                    "--dump-on-alert"}
        for command in ("monitor", "fleet", "run"):
            assert monitoring_flags(command) == expected, command
        assert monitoring_flags("validate") == {"--dump-dir",
                                                "--dump-on-alert"}

    def test_monitor_keeps_its_profiler_default(self):
        # The shared parent must not leak monitor's sample-every
        # default into the other commands (argparse parents share
        # Action objects; this pins the bug fix).
        parser = build_parser()
        assert parser.parse_args(["monitor", "gzip"]).sample_every \
            == 100_000
        assert parser.parse_args(["fleet", "gzip"]).sample_every is None
        assert parser.parse_args(["run", "gzip"]).sample_every is None

    @pytest.mark.parametrize("argv", [
        *[(command, "--requests", "0")
          for command in ("table3", "table4", "report", "validate")],
        *[(command, "gzip", "--requests", "0")
          for command in ("run", "stats", "monitor", "fleet")],
        ("resume", "x.ckpt.json", "--requests", "0"),
        ("history", "h.json", "--buckets", "0"),
        ("inspect", "x.dump.json", "--limit", "0"),
        ("diff", "a.json", "b.json", "--limit", "0"),
        ("monitor", "gzip", "--top", "0"),
        ("monitor", "gzip", "--report-every", "-1"),
    ], ids=lambda argv: " ".join(argv))
    def test_count_flags_reject_values_below_their_least(self, argv,
                                                         capsys):
        # One below the least value is a usage error, never a silent
        # default (--requests 0) or a backwards slice (--buckets -1).
        with pytest.raises(SystemExit) as exc_info:
            main(list(argv))
        assert exc_info.value.code == 2
        assert f"{argv[-2]}: must be >= {int(argv[-1]) + 1}" \
            in capsys.readouterr().err

    def test_from_args_is_command_independent(self):
        parser = build_parser()
        flags = ["--sample-rate", "0.25", "--sample-seed", "3",
                 "--guard-budget", "8", "--rules", "none"]
        configs = [
            MonitorStackConfig.from_args(
                parser.parse_args([command, "gzip"] + flags))
            for command in ("fleet", "run")
        ]
        assert configs[0] == configs[1]
        assert configs[0].sampling == SamplingPolicy(rate=0.25, seed=3,
                                                     budget=8)

    def test_validate_takes_only_the_forensic_flags(self, capsys):
        # validate's shard machines read --dump-dir and --dump-on-alert
        # only, so a stack flag is a usage error, not silently ignored.
        with pytest.raises(SystemExit) as exc_info:
            main(["validate", "--sample-every", "1"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --sample-every 1" \
            in capsys.readouterr().err
        args = build_parser().parse_args(
            ["validate", "--dump-dir", "d", "--dump-on-alert"])
        assert MonitorStackConfig.from_args(args) == MonitorStackConfig(
            dump_dir="d", dump_on_alert=True)


class TestCommands:
    def test_list(self):
        code, output = run_cli("list")
        assert code == 0
        for name in ("ypserv1", "proftpd", "squid1", "ypserv2", "gzip",
                     "tar", "squid2"):
            assert name in output
        assert "safemem" in output
        assert "purify" in output

    def test_table2(self):
        code, output = run_cli("table2")
        assert code == 0
        assert "WatchMemory" in output
        assert "2.00" in output

    def test_run_native(self):
        code, output = run_cli("run", "gzip", "--monitor", "native",
                               "--requests", "10")
        assert code == 0
        assert "requests:  10/10" in output
        assert "cycles" in output

    def test_run_monitored_reports_overhead(self):
        code, output = run_cli("run", "gzip", "--monitor", "safemem",
                               "--requests", "20")
        assert code == 0
        assert "overhead:" in output

    def test_run_buggy_reports_detection(self):
        code, output = run_cli("run", "tar", "--monitor", "safemem-mc",
                               "--buggy", "--requests", "325")
        assert code == 0
        assert "use_after_free" in output
        assert "stopped at detection" in output
        # No misleading overhead line for a run that stopped early.
        assert "overhead:" not in output

    @pytest.mark.parametrize("argv", [
        ("run", "gzip", "--requests", "3"),
        ("monitor", "gzip", "--requests", "3"),
        ("fleet", "gzip", "--requests", "3", "--machines", "1",
         "--jobs", "1"),
    ], ids=lambda argv: argv[0])
    def test_profile_boots_every_machine_of_the_run(self, argv):
        # Each monitored run and its native overhead twin boot the
        # requested chipset profile, with or without other monitoring.
        profiles = []
        tap = runner.add_boot_tap(
            lambda machine, monitor, run_info:
            profiles.append(machine.profile.name))
        try:
            code, _ = run_cli(*argv, "--profile", "chipkill-server")
        finally:
            runner.remove_boot_tap(tap)
        assert code == 0
        assert profiles and set(profiles) == {"chipkill-server"}
        if argv[0] != "monitor":
            assert len(profiles) == 2  # the run and its native twin

    @pytest.mark.parametrize("command", ["run", "monitor"])
    def test_panic_is_kept_only_with_a_recorder(self, command, tmp_path,
                                                monkeypatch, capsys):
        def boom(*args, machine=None, **kwargs):
            machine.events.emit(EventKind.PANIC, address=0x40,
                                reason="injected")
            raise MachinePanic("injected")

        monkeypatch.setattr(runner, "run_workload", boom)
        code, output = run_cli(command, "gzip", "--requests", "3",
                               "--dump-dir", str(tmp_path))
        assert code == 1
        dump, = tmp_path.glob("*-panic-*.dump.json")
        assert output.endswith(f"PANIC: injected\ndump:      {dump}\n")
        # Without a forensic recorder the panic propagates.
        code, _ = run_cli(command, "gzip", "--requests", "3")
        assert code == 2
        assert capsys.readouterr().err == "repro: error: injected\n"

    def test_run_buggy_leak_lists_reports(self):
        code, output = run_cli("run", "ypserv1", "--monitor",
                               "safemem-ml", "--buggy")
        assert code == 0
        assert "leak reports:" in output
        assert "ground truth:" in output


def _canned_validation(failing_idents=()):
    """A ValidationRun without running any experiment (CLI-path tests)."""
    results = [
        ClaimResult(claim=claim,
                    passed=claim.ident not in failing_idents,
                    evidence="canned")
        for claim in CLAIMS
    ]
    outcome = fleet.FleetOutcome(payloads={}, metrics=None,
                                 cache_hits=0,
                                 cache_misses=len(CLAIMS))
    return fleet.ValidationRun(results=results, context={},
                               outcome=outcome)


class TestValidateCommand:
    def test_parser_accepts_fleet_flags(self):
        args = build_parser().parse_args(
            ["validate", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/c", "--write-results",
             "--write-experiments-md"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_failing_claim_sets_exit_code_and_names_it(self,
                                                       monkeypatch):
        monkeypatch.setattr(
            fleet, "run_validation",
            lambda **kwargs: _canned_validation(
                failing_idents=("T3-band",)))
        code, output = run_cli("validate", "--no-cache")
        assert code == 1
        assert "FAILED: T3-band" in output
        assert f"{len(CLAIMS) - 1}/{len(CLAIMS)} claims hold" in output

    def test_all_pass_exits_zero(self, monkeypatch):
        monkeypatch.setattr(fleet, "run_validation",
                            lambda **kwargs: _canned_validation())
        code, output = run_cli("validate", "--no-cache")
        assert code == 0
        assert "FAILED" not in output

    def test_cache_stats_line_only_when_caching(self, monkeypatch,
                                                tmp_path):
        monkeypatch.setattr(fleet, "run_validation",
                            lambda **kwargs: _canned_validation())
        _, cached = run_cli("validate", "--cache-dir", str(tmp_path))
        _, uncached = run_cli("validate", "--no-cache")
        assert "cache:" in cached
        assert "cache:" not in uncached

    def test_write_experiments_md_rewrites_tmp_copy(self, monkeypatch,
                                                    tmp_path):
        import pathlib
        source = pathlib.Path(__file__).resolve().parent.parent / \
            "EXPERIMENTS.md"
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text(source.read_text())
        monkeypatch.setattr(
            fleet, "run_validation",
            lambda **kwargs: _canned_validation(
                failing_idents=("T5-counts",)))
        code, output = run_cli("validate", "--no-cache",
                               "--write-experiments-md",
                               "--experiments-md", str(target))
        assert code == 1
        assert "rewrote claim matrix" in output
        assert f"{len(CLAIMS) - 1}/{len(CLAIMS)} claims hold" \
            in target.read_text()
        assert source.read_text() != target.read_text()


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet", "gzip"])
        assert args.machines == 4
        assert args.monitor == "safemem"
        assert args.jobs is None

    def test_fleet_smoke(self):
        code, output = run_cli("fleet", "gzip", "--machines", "2",
                               "--monitor", "native", "--requests", "5",
                               "--jobs", "1")
        assert code == 0
        assert "2 machines of gzip" in output
        assert "fleet totals:" in output

    def test_fleet_emit_metrics(self, tmp_path):
        import json
        path = tmp_path / "fleet.json"
        code, output = run_cli("fleet", "gzip", "--machines", "1",
                               "--monitor", "native", "--requests", "5",
                               "--jobs", "1", "--emit-metrics",
                               str(path))
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert document["meta"]["command"] == "fleet"

    def test_fleet_telemetry_counts_each_machine_once(self, tmp_path):
        # A monitored fleet machine's native overhead twin is a
        # measurement of it, not a machine: its registry stays out of
        # the fleet merge, so one machine's counters are one run's.
        import json
        fleet_path = tmp_path / "fleet.json"
        run_path = tmp_path / "run.json"
        code, _ = run_cli("fleet", "gzip", "--machines", "1", "--jobs",
                          "1", "--requests", "5", "--monitor", "safemem",
                          "--emit-metrics", str(fleet_path))
        assert code == 0
        code, _ = run_cli("run", "gzip", "--requests", "5",
                          "--emit-metrics", str(run_path))
        assert code == 0
        fleet_metrics = json.loads(fleet_path.read_text())["metrics"]
        run_metrics = json.loads(run_path.read_text())["metrics"]
        assert fleet_metrics["fleet.machines.total"] == 1
        assert fleet_metrics["heap.allocs"] == run_metrics["heap.allocs"]


class TestMonitorCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["monitor", "gzip"])
        assert args.sample_every == 100_000
        assert args.rules == "default"
        assert args.stream is None
        assert args.report_every == 0

    def test_monitor_smoke(self):
        code, output = run_cli("monitor", "gzip", "--sample-every",
                               "50000", "--requests", "10")
        assert code == 0
        assert "final: gzip/safemem" in output
        assert "samples:" in output
        assert "alerts:" in output
        assert "leak-suspect-growth" in output

    def test_monitor_streams_conformant_jsonl(self, tmp_path):
        from repro.obs.sink import EVENTS_SCHEMA, read_jsonl
        path = tmp_path / "monitor.jsonl"
        code, output = run_cli("monitor", "gzip", "--sample-every",
                               "50000", "--requests", "10",
                               "--stream", str(path))
        assert code == 0
        assert "stream:" in output
        records = read_jsonl(path)
        assert records, "stream produced no records"
        for record in records:
            assert record["schema"] == EVENTS_SCHEMA
            assert {"schema", "type", "cycle"} <= set(record)
        types = {record["type"] for record in records}
        assert "run" in types      # start/finish markers
        assert "sample" in types   # periodic profiler samples
        markers = [r["run"]["marker"] for r in records
                   if r["type"] == "run"]
        assert markers == ["start", "finish"]

    def test_monitor_stream_rotates(self, tmp_path):
        path = tmp_path / "monitor.jsonl"
        code, output = run_cli("monitor", "gzip", "--sample-every",
                               "20000", "--requests", "10",
                               "--stream", str(path),
                               "--stream-max-bytes", "4096")
        assert code == 0
        assert (tmp_path / "monitor.jsonl.1").exists()

    def test_monitor_live_report(self):
        code, output = run_cli("monitor", "gzip", "--sample-every",
                               "50000", "--requests", "10",
                               "--report-every", "5")
        assert code == 0
        assert "live monitor @ cycle" in output

    def test_monitor_rules_none(self):
        code, output = run_cli("monitor", "gzip", "--sample-every",
                               "50000", "--requests", "5",
                               "--rules", "none")
        assert code == 0
        assert "alerts:" not in output


class TestFleetSampling:
    def test_parser_accepts_sampling_flags(self):
        args = build_parser().parse_args(
            ["fleet", "gzip", "--sample-every", "50000",
             "--rules", "none"])
        assert args.sample_every == 50_000
        assert args.rules == "none"

    def test_fleet_aggregates_alert_telemetry(self):
        result = fleet.run_fleet(
            "gzip", machines=2, requests=5, jobs=1,
            stack=MonitorStackConfig(monitor="safemem",
                                     sample_every=50_000))
        assert result.sampled
        assert result.metrics.get("sampler.samples") > 0
        # two machines' engines merged: 4 default rules each.
        assert result.metrics.get("alerts.evaluations") > 0
        for report in result.reports:
            assert report.alerts_fired >= 0
        rendered = result.render()
        assert "samples" in rendered
        assert "alerts fired" in rendered

    def test_fleet_without_sampling_stays_quiet(self):
        result = fleet.run_fleet("gzip", machines=1, monitor="native",
                                 requests=5, jobs=1)
        assert not result.sampled
        assert "alerts fired" not in result.render()
