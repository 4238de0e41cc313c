"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``     — run the scripted three-step demonstration (Figs 2-6)
  and print its summary (optionally the console logs);
* ``collapse`` — sweep disaster instants and show recoverability with
  vs without consistency groups (the §I claim);
* ``modes``    — print the no-backup / SDC / ADC latency table (E1's
  shape) for one RTT;
* ``metrics``  — run a scenario and print its telemetry registry
  (Prometheus text or JSON);
* ``trace``    — run a scenario and print the span-stage breakdown and
  the span-derived replication-lag (RPO) report; ``--chrome out.json``
  also exports the spans as a Chrome/Perfetto trace-event file;
* ``chaos``    — run seeded fault-injection campaigns against a
  protected business process and verify the robustness invariants
  (exit 1 on any violation); ``--seeds N --jobs M`` shards consecutive
  seeds across worker processes with a deterministic seed-order merge;
  failing campaigns print their auto-generated postmortem;
* ``slo``      — run the canonical deterministic incident scenario and
  print the SLO rule table plus every alert transition;
* ``incident`` — run the same scenario and print its postmortem
  (markdown, or byte-reproducible JSON with ``--json``);
* ``perf``     — measure the five exact (simulated-time) wire-path rows
  and run ``benchmarks/e2e`` (seven end-to-end metrics and the folded
  per-layer table per workload; ``--smoke`` for tenth-size);
  ``--output FILE`` appends the run to a ``BENCH_PERF.json`` trajectory,
  ``--check FILE`` compares it with the trajectory's newest row (exit 1
  on a differing exact row, a ``worse`` end-to-end row or a failed op);
* ``report``   — regenerate every EXPERIMENTS.md table.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.scenarios import run_demo
    environment = run_demo(seed=args.seed)
    result = environment.result
    if args.screens:
        print("--- main-site console ---")
        print(result.screens["main"])
        print("--- backup-site console ---")
        print(result.screens["backup"])
        print()
    print(result.summary())
    return 0


def _cmd_collapse(args: argparse.Namespace) -> int:
    from repro.bench import run_e2_collapse
    if args.disasters < 1:
        raise SystemExit("repro: --disasters must be >= 1 "
                         f"(got {args.disasters})")
    table, facts = run_e2_collapse(
        seeds=tuple(range(args.seed, args.seed + args.disasters)),
        load_time=0.35)
    print(table.render())
    return 0


def _cmd_modes(args: argparse.Namespace) -> int:
    from repro.apps import WorkloadConfig, run_order_workload
    from repro.bench import (MODE_ADC_CG, MODE_NONE, MODE_SDC,
                             build_business_system)
    if args.rtt_ms < 0:
        raise SystemExit(f"repro: --rtt-ms must be >= 0 (got {args.rtt_ms})")
    print(f"{'mode':10} {'orders/s':>10} {'p50(ms)':>9} {'p99(ms)':>9}")
    for mode in (MODE_NONE, MODE_SDC, MODE_ADC_CG):
        experiment = build_business_system(
            seed=args.seed, mode=mode,
            link_latency=args.rtt_ms / 2 / 1e3)
        result = run_order_workload(
            experiment.sim, experiment.business.app,
            WorkloadConfig(client_count=4, duration=1.0))
        summary = result.latency_summary().as_millis()
        print(f"{mode:10} {result.throughput:10.1f} "
              f"{summary.p50:9.2f} {summary.p99:9.2f}")
    return 0


def _run_scenario(args: argparse.Namespace):
    """Run the scenario named by ``args.scenario``; returns its Simulator."""
    if args.probe_interval <= 0:
        raise SystemExit("repro: --probe-interval must be > 0 "
                         f"(got {args.probe_interval})")
    if args.scenario == "demo":
        from repro.scenarios import run_demo
        environment = run_demo(seed=args.seed,
                               probe_interval=args.probe_interval)
        return environment.sim
    raise SystemExit(f"unknown scenario: {args.scenario!r}")


def _cmd_metrics(args: argparse.Namespace) -> int:
    sim = _run_scenario(args)
    print(sim.telemetry.registry.render(format=args.format))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (chrome_trace, replication_lag_report,
                                 stage_breakdown)
    sim = _run_scenario(args)
    tracer = sim.telemetry.tracer
    if args.chrome is not None:
        import json
        document = chrome_trace(tracer)
        with open(args.chrome, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"[chrome trace: {args.chrome} "
              f"({len(document['traceEvents'])} events)]")
    if args.json:
        print(tracer.render_json())
        return 0
    print(f"{'span':18} {'count':>8} {'mean(ms)':>10} {'max(ms)':>10}")
    for stage in stage_breakdown(tracer):
        print(f"{stage.name:18} {stage.count:8d} "
              f"{stage.mean * 1e3:10.3f} {stage.maximum * 1e3:10.3f}")
    lag = replication_lag_report(tracer)
    print()
    print("replication lag (RPO) from spans:")
    print(f"  host writes applied at backup : {lag.applied}")
    print(f"  host writes not yet applied   : {lag.unapplied}")
    print(f"  worst apply lag               : {lag.worst_lag * 1e3:.3f} ms")
    print(f"  mean apply lag                : {lag.mean_lag * 1e3:.3f} ms")
    return 0


def _adc_override(text: str):
    """One ``--adc key=value`` as ``(field, value)``, the value typed
    from the ``AdcConfig`` field's default (``reduction`` takes on/off)
    and checked by the config's own validation."""
    from repro.storage import AdcConfig, ReductionConfig
    key, _, raw = text.partition("=")
    defaults = vars(AdcConfig())
    switches = {"true": True, "on": True, "false": False, "off": False}
    try:
        if key not in defaults:
            raise ValueError("no such AdcConfig field")
        if isinstance(defaults[key], ReductionConfig):
            value = ReductionConfig(enabled=switches[raw.lower()])
        elif isinstance(defaults[key], bool):
            value = switches[raw.lower()]
        else:
            value = type(defaults[key])(raw)
        AdcConfig(**{key: value})
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected one of {sorted(switches)}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return key, value


def _rerun_with_other_hash_seed(argv: List[str]) -> str:
    """Standard output of ``repro <argv>`` run in a child interpreter
    whose str/bytes hash seed differs from this one's, so an iteration
    order leaked from set/dict hashing cannot repeat by accident."""
    import repro
    own = os.environ.get("PYTHONHASHSEED")  # unset: a random seed
    env = dict(os.environ, PYTHONHASHSEED="2" if own == "1" else "1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
        env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=env, stdout=subprocess.PIPE, text=True).stdout


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_campaigns
    if args.seeds < 1:
        raise SystemExit(f"repro: --seeds must be >= 1 (got {args.seeds})")
    seeds = list(range(args.seed, args.seed + args.seeds))
    reports = run_campaigns(
        seeds, preset=args.preset, verify_failover=not args.no_failover,
        jobs=args.jobs, adc_overrides=dict(args.adc) or None)
    blocks = []
    for report in reports:
        blocks.append(report.render())
        if not report.passed and report.postmortem is not None:
            blocks.append(report.postmortem.to_markdown())
    if len(reports) > 1:
        failed = [r.seed for r in reports if not r.passed]
        blocks.append(
            f"campaigns: {len(reports) - len(failed)}/{len(reports)} "
            f"passed" + (f" (failed seeds: {failed})" if failed else ""))
    output = "\n\n".join(blocks)
    print(output)
    stable = True
    if args.verify_determinism:
        # the same command again in a second interpreter with another
        # hash seed: everything printed above (digests, counters, alert
        # transitions, postmortems) must repeat byte for byte
        rerun = ["chaos", "--preset", args.preset, "--seed", str(args.seed),
                 "--seeds", str(args.seeds), "--jobs", str(args.jobs)]
        if args.no_failover:
            rerun.append("--no-failover")
        # switches re-parse from true/false, numbers from their repr
        rerun += [f"--adc={key}={getattr(value, 'enabled', value)}".lower()
                  for key, value in args.adc]
        stable = _rerun_with_other_hash_seed(rerun) == output + "\n"
        print()
        print(f"determinism: {len(reports)} campaign(s) "
              + ("byte-identical across two interpreters with different "
                 "hash seeds" if stable else
                 "DIFFER between two interpreters with different hash "
                 "seeds — diff two separate runs of this command"))
    return 0 if all(r.passed for r in reports) and stable else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.chaos import run_incident
    run = run_incident(seed=args.seed)
    print(run.engine.slo.render())
    print()
    print(f"incident campaign seed={args.seed}: "
          f"{'PASS' if run.report.passed else 'FAIL'} "
          f"({run.report.orders_completed} orders completed through "
          f"the incident)")
    return 0 if run.report.passed else 1


def _cmd_incident(args: argparse.Namespace) -> int:
    from repro.chaos import run_incident
    run = run_incident(seed=args.seed, dump_dir=args.dump_dir)
    if args.json:
        print(run.incident.to_json())
    else:
        print(run.incident.to_markdown())
    return 0 if run.report.passed else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.bench import perf
    try:
        perf.load_suite()
        # read the records before the minutes of measurement, not after
        recorded = perf.recorded_row(args.check, args.smoke) \
            if args.check else None
        if args.output and os.path.exists(args.output):
            perf.load_rows(args.output)
    except (OSError, ValueError) as exc:
        print(f"repro perf: {exc}", file=sys.stderr)
        return 2
    row = perf.run_perf(smoke=args.smoke)
    problems = [f"{name}: {result['failed']} of {result['attempted']} "
                "operations failed"
                for name, result in row["workloads"].items()
                if result["failed"]]
    if recorded:
        problems += perf.check_row(row, recorded)
    if args.output:
        count = perf.append_row(args.output, row)
        print(f"[perf record: {args.output}, {count} row(s)]")
    for problem in problems:
        print(f"FAILED  {problem}")
    if recorded and not problems:
        print(f"perf check passed against {args.check}")
    return 1 if problems else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import main as report_main
    report_main(markdown=not args.text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Data Backup System with No Impact "
                     "on Business Processing' (ICDE 2025) on simulated "
                     "substrates"))
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the Figs 2-6 demonstration")
    demo.add_argument("--seed", type=int, default=2025)
    demo.add_argument("--screens", action="store_true",
                      help="also print both console operation logs")
    demo.set_defaults(func=_cmd_demo)

    collapse = sub.add_parser(
        "collapse", help="ADC with vs without consistency groups")
    collapse.add_argument("--seed", type=int, default=1000)
    collapse.add_argument("--disasters", type=int, default=6)
    collapse.set_defaults(func=_cmd_collapse)

    modes = sub.add_parser(
        "modes", help="latency per replication mode at one RTT")
    modes.add_argument("--seed", type=int, default=11)
    modes.add_argument("--rtt-ms", type=float, default=10.0)
    modes.set_defaults(func=_cmd_modes)

    def add_scenario_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("--scenario", choices=["demo"],
                             default="demo",
                             help="which scenario to run and observe")
        command.add_argument("--seed", type=int, default=2025)
        command.add_argument("--probe-interval", type=float, default=0.02,
                             help="telemetry probe sampling interval in "
                                  "simulated seconds")

    metrics = sub.add_parser(
        "metrics", help="run a scenario and print its metrics registry")
    add_scenario_args(metrics)
    metrics.add_argument("--format", choices=["prom", "json"],
                         default="prom")
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace", help="run a scenario and print its span statistics")
    add_scenario_args(trace)
    trace.add_argument("--json", action="store_true",
                       help="dump the raw finished spans as JSON")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also export the spans as a Chrome/Perfetto "
                            "trace-event JSON file")
    trace.set_defaults(func=_cmd_trace)

    chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection campaign and "
                      "verify the robustness invariants")
    chaos.add_argument("--preset", choices=["quick", "soak", "control"],
                       default="quick",
                       help="fault-storm preset (quick = CI-sized, "
                            "soak = longer regression hunt, control = "
                            "control-plane storm)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="master seed; the same seed replays the "
                            "exact same campaign")
    chaos.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="run N campaigns at consecutive seeds "
                            "starting from --seed (default 1)")
    chaos.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard the seeds across N worker processes "
                            "(0 = one per CPU); reports merge in seed "
                            "order, identical to --jobs 1")
    chaos.add_argument("--no-failover", action="store_true",
                       help="skip the final fail-and-recover "
                            "consistency verification")
    chaos.add_argument("--adc", action="append", default=[],
                       type=_adc_override, metavar="KEY=VALUE",
                       help="run the campaigns with this AdcConfig field "
                            "overridden (repeatable), e.g. transfer_window=4, "
                            "apply_lanes=4, adaptive_batch=true, "
                            "coalesce_overwrites=true, reduction=on")
    chaos.add_argument("--verify-determinism", action="store_true",
                       help="run the same command again in a child "
                            "interpreter with a different PYTHONHASHSEED "
                            "and exit 1 unless its output repeats byte "
                            "for byte")
    chaos.set_defaults(func=_cmd_chaos)

    slo = sub.add_parser(
        "slo", help="run the canonical incident scenario and print the "
                    "SLO rule table and alert transitions")
    slo.add_argument("--seed", type=int, default=7,
                     help="master seed; the same seed replays the exact "
                          "same incident")
    slo.set_defaults(func=_cmd_slo)

    incident = sub.add_parser(
        "incident", help="run the canonical incident scenario and print "
                         "its automated postmortem")
    incident.add_argument("--seed", type=int, default=7,
                          help="master seed; the same seed reproduces "
                               "the postmortem byte-for-byte")
    incident.add_argument("--json", action="store_true",
                          help="machine-readable postmortem instead of "
                               "markdown")
    incident.add_argument("--dump-dir", default=None, metavar="DIR",
                          help="also write every flight-recorder "
                               "snapshot as a JSON file under DIR")
    incident.set_defaults(func=_cmd_incident)

    perf = sub.add_parser(
        "perf", help="measure the five exact wire-path rows and the "
                     "end-to-end benchmark (benchmarks/e2e); optionally "
                     "record or check the run")
    perf.add_argument("--smoke", action="store_true",
                      help="tenth-size workloads, as benchmarks/e2e's own "
                           "--smoke (what CI runs)")
    perf.add_argument("--output", default=None, metavar="FILE",
                      help="append this run as one row to the trajectory "
                           "in FILE (e.g. BENCH_PERF.json); nothing is "
                           "written without it")
    perf.add_argument("--check", default=None, metavar="FILE",
                      help="compare with FILE's newest row of this size: "
                           "exact rows by equality, end-to-end rows by the "
                           "benchmark's ok/worse/unresolved verdicts (the "
                           "wall-clock ones on the same machine only); exit "
                           "1 on a difference, a `worse` or a failed "
                           "operation")
    perf.set_defaults(func=_cmd_perf)

    report = sub.add_parser(
        "report", help="regenerate every EXPERIMENTS.md table")
    report.add_argument("--text", action="store_true",
                        help="plain text instead of markdown")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
