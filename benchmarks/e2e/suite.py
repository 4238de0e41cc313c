"""Whole-benchmark runs and A/B comparison.

    PYTHONPATH=src python -m benchmarks.e2e run [--workload NAME]
        [--seed N] [--runs K] [--seconds S] [--smoke] [--output FILE]
    python -m benchmarks.e2e compare A.json B.json

``run`` executes ``run.py`` for every workload in its own sequential
child interpreter (so peak RSS is per run): ``K`` untraced runs with
seeds ``N .. N+K-1`` and one traced run, then prints every metric with
its unit, direction, median, quartiles and sample count.  ``compare``
puts two such result files side by side and gives each workload x
metric row a verdict against the bound declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from benchmarks.e2e.run import ROOT, declared

RUN_PY = pathlib.Path(__file__).with_name("run.py")


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True)
    if not done.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} printed no result:\n"
                         + done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles the way the acceptance rule computes them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def run_suite(workloads: List[str], seed: int, runs: int, seconds: float,
              smoke: bool) -> dict:
    spec = declared()
    results = {
        "benchmark": "backup_e2e",
        "seeds": list(range(seed, seed + runs)),
        "seconds": seconds, "smoke": smoke,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload in workloads:
        untraced = [_child(workload, seed + index, seconds, 0, smoke)
                    for index in range(runs)]
        traced = _child(workload, seed, seconds, 1, smoke)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"]
                      for run in untraced]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "values": values,
                **quartiles(values)}
        results["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: entry["value"] for name, entry
                          in traced["metrics"].items()},
            "attempted": sum(run["attempted"] for run in untraced)
            + traced["attempted"],
            "failed": sum(run["failed"] for run in untraced)
            + traced["failed"],
        }
        print(render_workload(workload, results["workloads"][workload],
                              spec))
    # this benchmark is the ruler, not a result: it claims no gain
    results["claim"] = None
    return results


def render_workload(workload: str, result: dict, spec: dict) -> str:
    lines = [f"== {workload}   failed_ops_share = {result['failed']} / "
             f"{result['attempted']}"]
    for name, entry in result["end_to_end"].items():
        lines.append(
            f"  {name:<24} {entry['median']:>14.4f} {entry['unit']:<9}"
            f" q1 {entry['q1']:.4f} q3 {entry['q3']:.4f}"
            f" n={len(entry['values'])}  {entry['better']} is better,"
            f" bound {entry['bound']}")
    layers = result["per_layer"]
    total = sum(value for name, value in layers.items()
                if name.endswith(".self_s")) or 1.0
    lines.append("  -- traced run: layer, self seconds, share, calls")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            lines.append(
                f"  {layer:<24} {layers[name]:>10.4f} s "
                f"{layers[name] / total:>7.1%} "
                f"{int(layers[layer + '.calls']):>10} calls")
    lines.append("  -- exact counters (untraced repeat of the traced run)")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if not name.endswith((".self_s", ".calls")):
            lines.append(f"  {name:<46} {layers[name]:>16.4f} "
                         f"{metric['unit']}")
    return "\n".join(lines)


def _worse_by(base: float, other: float, better: str) -> float:
    """Share of ``base`` by which ``other`` is worse (negative: better)."""
    if base == 0:
        return 0.0 if other == 0 else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def compare(path_a: str, path_b: str) -> int:
    """Print the A/B table; return 1 when any row is ``worse``."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    worst = 0
    print(f"A = {path_a}\nB = {path_b}\nratio = B / A (base A)")
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            print(f"== {workload}: missing from B")
            continue
        print(f"== {workload}   failed A {result_a['failed']} "
              f"B {result_b['failed']}")
        for name, ea in result_a["end_to_end"].items():
            eb = result_b["end_to_end"][name]
            bound = ea["bound"]
            spread = max(
                (entry["q3"] - entry["q1"]) / abs(entry["median"])
                if entry["median"] else 0.0 for entry in (ea, eb))
            worse_by = _worse_by(ea["median"], eb["median"], ea["better"])
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                worst = 1
            else:
                verdict = "ok"
            ratio = eb["median"] / ea["median"] if ea["median"] \
                else float("nan")
            print(f"  {name:<24} A {ea['median']:>13.4f} "
                  f"[{ea['q1']:.4f}, {ea['q3']:.4f}]  "
                  f"B {eb['median']:>13.4f} "
                  f"[{eb['q1']:.4f}, {eb['q3']:.4f}] {ea['unit']:<9} "
                  f"ratio {ratio:.4f}  bound {bound}  spread "
                  f"{spread:.4f}  {verdict}")
        if result_a["failed"] or result_b["failed"]:
            worst = 1
    return worst


def main(argv=None) -> int:
    names = [entry["name"] for entry in declared()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", action="append", choices=names,
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--runs", type=int, default=3,
                     help="untraced runs per workload, seeds N..N+K-1")
    run.add_argument("--seconds", type=float,
                     default=declared()["run_seconds"])
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--output", help="write the results JSON here")
    cmp_parser = commands.add_parser("compare",
                                     help="compare two result files")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    results = run_suite(args.workload or names, args.seed, args.runs,
                        args.seconds, args.smoke)
    text = json.dumps(results, indent=2)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 1 if any(result["failed"] for result
                    in results["workloads"].values()) else 0
