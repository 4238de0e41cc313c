"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.seed == 2025
        assert not args.screens

    def test_modes_arguments(self):
        args = build_parser().parse_args(
            ["modes", "--rtt-ms", "25", "--seed", "3"])
        assert args.rtt_ms == 25.0
        assert args.seed == 3

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.scenario == "demo"
        assert args.format == "prom"
        assert args.probe_interval == 0.02

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "--scenario", "demo", "--json"])
        assert args.json
        assert args.seed == 2025
        assert args.chrome is None

    def test_slo_defaults(self):
        args = build_parser().parse_args(["slo"])
        assert args.seed == 7

    def test_incident_arguments(self):
        args = build_parser().parse_args(
            ["incident", "--seed", "9", "--json"])
        assert args.seed == 9
        assert args.json
        assert args.dump_dir is None

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.preset == "quick"
        assert args.seed == 7
        assert not args.no_failover
        assert args.adc == []
        assert args.seeds == 1
        assert args.jobs == 1

    def test_chaos_fanout_arguments(self):
        args = build_parser().parse_args(
            ["chaos", "--preset", "soak", "--seeds", "4", "--jobs", "2"])
        assert args.preset == "soak"
        assert args.seeds == 4
        assert args.jobs == 2

    def test_perf_arguments(self):
        args = build_parser().parse_args(["perf"])
        assert (args.smoke, args.output, args.check) == (False, None, None)
        args = build_parser().parse_args(
            ["perf", "--smoke", "--output", "a.json", "--check", "b.json"])
        assert (args.smoke, args.output, args.check) == (
            True, "a.json", "b.json")

    @pytest.mark.parametrize("flag", [
        ["--quick"], ["--jobs", "2"], ["--max-regression", "0.3"]])
    def test_perf_retired_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["perf", *flag])
        assert exit_info.value.code == 2

    def test_chaos_rejects_unknown_preset(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--preset", "gentle"])

    def test_chaos_preset_argument(self):
        args = build_parser().parse_args(["chaos", "--preset", "control"])
        assert args.preset == "control"

    def test_chaos_adc_overrides_are_typed_from_the_config_fields(self):
        from repro.storage import ReductionConfig
        args = build_parser().parse_args(
            ["chaos", "--adc", "transfer_window=4", "--adc",
             "adaptive_batch=true", "--adc", "batch_target_time=0.02",
             "--adc", "reduction=on"])
        assert dict(args.adc) == {
            "transfer_window": 4, "adaptive_batch": True,
            "batch_target_time": 0.02,
            "reduction": ReductionConfig(enabled=True)}

    @pytest.mark.parametrize("override", [
        "restore_concurrency=8",     # unknown field
        "transfer_window=0",         # fails AdcConfig validation
        "transfer_window=four", "adaptive_batch=maybe",
        "reduction=zlib", "apply_lanes",
        "verify_integrity=false", "auto_repair=false"])  # no such fields
    def test_chaos_rejects_a_bad_adc_override(self, override, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["chaos", "--adc", override])
        assert exit_info.value.code == 2
        assert "--adc" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--campaign", "--soak", "--transfer-window", "--apply-lanes",
        "--reduction"])
    def test_chaos_retired_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["chaos", flag])
        assert exit_info.value.code == 2


class TestCommands:
    def test_demo_command_prints_summary(self, capsys):
        assert main(["demo", "--seed", "2025"]) == 0
        output = capsys.readouterr().out
        assert "ICDE demonstration summary" in output
        assert "Protected" in output

    def test_demo_screens_flag(self, capsys):
        assert main(["demo", "--screens"]) == 0
        output = capsys.readouterr().out
        assert "main-site console" in output
        assert "tag-namespace" in output

    def test_modes_command(self, capsys):
        assert main(["modes", "--rtt-ms", "4.0"]) == 0
        output = capsys.readouterr().out
        assert "sdc" in output
        assert "adc-cg" in output

    def test_collapse_command(self, capsys):
        assert main(["collapse", "--disasters", "2"]) == 0
        output = capsys.readouterr().out
        assert "backup recoverability" in output
        assert "adc-nocg" in output

    def test_metrics_command_prints_registry(self, capsys):
        assert main(["metrics", "--scenario", "demo"]) == 0
        output = capsys.readouterr().out
        # the acceptance criterion: host-write latency histograms,
        # journal entry-lag gauges and NSO reconcile counters all render
        assert "# TYPE repro_host_write_latency_seconds summary" in output
        assert 'repro_host_write_latency_seconds{array="G370-MAIN"' \
            in output
        assert "# TYPE repro_journal_entry_lag gauge" in output
        assert "repro_journal_entry_lag{group=" in output
        assert 'repro_reconcile_total{controller="main.namespace-' \
            'operator"}' in output
        assert "repro_nso_transitions_total{namespace=" in output

    def test_metrics_command_json_format(self, capsys):
        import json
        assert main(["metrics", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["repro_host_writes_total"]["kind"] == "counter"
        assert snapshot["repro_journal_entry_lag"]["kind"] == "gauge"

    def test_trace_command_prints_stages_and_rpo(self, capsys):
        assert main(["trace", "--scenario", "demo"]) == 0
        output = capsys.readouterr().out
        assert "host-write" in output
        assert "restore-apply" in output
        assert "transfer-batch" in output
        assert "replication lag (RPO) from spans" in output

    def test_chaos_command_runs_quick_campaign(self, capsys):
        assert main(["chaos", "--preset", "quick", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "chaos campaign 'quick' seed=7: PASS" in output
        assert "fault timeline" in output
        assert "invariant violations: none" in output

    def test_chaos_multi_seed_parallel_matches_serial(self, capsys):
        assert main(["chaos", "--seed", "7", "--seeds", "2",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["chaos", "--seed", "7", "--seeds", "2",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "chaos campaign 'quick' seed=7: PASS" in serial
        assert "chaos campaign 'quick' seed=8: PASS" in serial
        assert "campaigns: 2/2 passed" in serial

    def test_chaos_control_preset_runs_and_passes(self, capsys):
        assert main(["chaos", "--preset", "control", "--seed", "7",
                     "--no-failover"]) == 0
        output = capsys.readouterr().out
        assert "chaos campaign 'control' seed=7: PASS" in output
        assert "invariant violations: none" in output

    def test_chaos_rejects_nonpositive_seeds(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--seeds", "0"])

    @pytest.mark.parametrize("argv", [["collapse", "--disasters", "0"],
                                      ["modes", "--rtt-ms", "-5"]])
    def test_out_of_range_value_exits_with_a_message(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert str(exit_info.value).startswith(f"repro: {argv[1]} must be")

    def test_chaos_verify_determinism_passes_on_a_stable_campaign(
            self, capsys):
        assert not build_parser().parse_args(["chaos"]).verify_determinism
        assert main(["chaos", "--preset", "quick", "--seed", "7",
                     "--adc", "reduction=on", "--adc", "transfer_window=4",
                     "--verify-determinism"]) == 0
        output = capsys.readouterr().out
        assert output.count("chaos campaign 'quick' seed=7: PASS") == 1
        assert "determinism: 1 campaign(s) byte-identical across two " \
               "interpreters with different hash seeds" in output

    def test_chaos_verify_determinism_reruns_under_another_hash_seed(
            self, capsys, monkeypatch):
        """The second run is the same command, minus the flag, in a
        child interpreter whose PYTHONHASHSEED differs from ours; any
        byte of difference in its output fails the check."""
        import subprocess

        import repro.chaos

        class Report:
            passed, postmortem = True, None

            def __init__(self, seed):
                self.seed = seed

            def render(self):
                return f"seed={self.seed} digest=0"

        monkeypatch.setattr(
            repro.chaos, "run_campaigns",
            lambda seeds, **_kwargs: [Report(seed) for seed in seeds])
        children = []

        def child(command, env, **_kwargs):
            children.append((command, env))
            own = "seed=7 digest=0\n\nseed=8 digest=0\n\n" \
                  "campaigns: 2/2 passed\n"
            # the second child's report for seed 8 comes out different
            return subprocess.CompletedProcess(
                command, 0, stdout=own.replace(
                    "seed=8 digest=0", f"seed=8 digest={len(children) - 1}"))

        monkeypatch.setattr(subprocess, "run", child)
        command = ["chaos", "--seed", "7", "--seeds", "2", "--no-failover",
                   "--adc", "apply_lanes=4", "--verify-determinism"]
        for own_seed, child_seed in (("1", "2"), ("0", "1")):
            monkeypatch.setenv("PYTHONHASHSEED", own_seed)
            assert main(command) == (0 if own_seed == "1" else 1)
            argv, env = children[-1]
            assert env["PYTHONHASHSEED"] == child_seed
            assert argv[1:] == ["-m", "repro.cli", "chaos", "--preset",
                                "quick", "--seed", "7", "--seeds", "2",
                                "--jobs", "1", "--no-failover",
                                "--adc=apply_lanes=4"]
        output = capsys.readouterr().out
        assert "byte-identical across two interpreters" in output
        assert "DIFFER between two interpreters" in output

    def test_trace_chrome_export(self, capsys, tmp_path):
        import json
        path = tmp_path / "trace.json"
        assert main(["trace", "--scenario", "demo",
                     "--chrome", str(path)]) == 0
        output = capsys.readouterr().out
        assert f"[chrome trace: {path}" in output
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        names = {event["name"] for event in events}
        assert "host-write" in names
        assert all(event["ph"] == "X" for event in events[:50])

    def test_slo_command_prints_rule_table(self, capsys):
        assert main(["slo", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "SLO rules" in output
        assert "rpo-journal-lag" in output
        assert "firing" in output and "resolved" in output
        assert "incident campaign seed=7: PASS" in output

    def test_incident_command_prints_postmortem(self, capsys):
        assert main(["incident", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "# Incident postmortem:" in output
        assert "## Timeline" in output
        assert "**fault** link-partition" in output

    def test_incident_json_and_dump_dir(self, capsys, tmp_path):
        import json
        dump = tmp_path / "flights"
        assert main(["incident", "--seed", "7", "--json",
                     "--dump-dir", str(dump)]) == 0
        postmortem = json.loads(capsys.readouterr().out)
        assert postmortem["seed"] == 7
        assert postmortem["timeline"]
        dumped = list(dump.glob("flight-*.json"))
        assert dumped, "no flight-recorder snapshots were dumped"
