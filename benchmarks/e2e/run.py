"""``backup_e2e`` — one run of one workload.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--smoke] [--output FILE]

Prints every metric by name with its unit, direction and sample count,
then — as the last line of standard output — one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics declared in ``BENCHMARK.json``, ``--trace 1`` the
per-layer metrics.  Exits non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def declared() -> dict:
    """The benchmark's declaration (``BENCHMARK.json`` at the root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """One run; returns the result object plus a ``samples`` detail."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("backup_e2e measures the program under src/repro, "
                         f"which is not in {ROOT}")
    # the script's own directory is first on sys.path; the benchmark is
    # imported as the package it is, next to the product under src/
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e import harness

    spec = declared()
    section = spec["per_layer" if trace else "end_to_end"]
    if trace:
        outcome = harness.run_traced(workload, seed, smoke)
    else:
        outcome = harness.run_untraced(workload, seed, seconds, smoke)
    measured = outcome["metrics"]
    names = [metric["name"] for metric in section]
    if set(names) != set(measured):
        raise SystemExit(
            "metrics out of step with BENCHMARK.json: "
            f"undeclared {sorted(set(measured) - set(names))}, "
            f"missing {sorted(set(names) - set(measured))}")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {metric["name"]: {"value": measured[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in section},
        "better": {metric["name"]: metric["better"] for metric in section},
        "samples": outcome["samples"],
    }


def render(workload: str, seed: int, result: dict) -> str:
    """The human-readable table above the JSON line."""
    samples = result["samples"]
    lines = [f"backup_e2e  workload={workload}  seed={seed}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<46} {metric['value']:>16.6f} "
                     f"{metric['unit']:<10} {result['better'][name]} is "
                     "better")
    lines.append("  samples: " + ", ".join(
        f"{key}={value}" for key, value in samples.items()
        if not isinstance(value, list)))
    for key, value in samples.items():
        if isinstance(value, list):
            lines.append(f"  per-repeat {key}: "
                         + " ".join(f"{item:.4f}" for item in value))
    lines.append(f"  failed_ops_share = {result['failed']} / "
                 f"{result['attempted']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    workloads = [entry["name"] for entry in declared()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured wall seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-size workloads, two repeats")
    parser.add_argument("--output", help="also write the full result "
                        "(with per-repeat samples) to this JSON file")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke)
    print(render(args.workload, args.seed, result))
    if args.output:
        pathlib.Path(args.output).write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        **result}, indent=2) + "\n")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
