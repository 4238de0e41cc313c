"""Reachability sweep: every function under ``src/repro`` is reached by
something the product runs, or is on ``allowlist.txt`` with a reason.

    python tests/reachability/sweep.py

Runs each entry point in a child interpreter under ``cProfile``, folds
the code objects entered against the ``ast`` list of defs (dunders are
out of scope) and exits 1 when a function is unreached and unlisted, or
listed but now reached or gone — the unreached set can only shrink.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: an allowlist line is ``module:qualname  <one of these>[: detail]``
REASONS = ("abstract stub", "fault path", "test fake",
           "test observation point", "installed controller",
           "operator unprotect half", "minidb durability protocol")
_QUICK = "repro.cli chaos --preset quick --seed 7"
#: what the product runs: every subcommand with its flag variants, the
#: six CI chaos legs, the examples, the four benchmark workloads
ENTRY_POINTS = [f"repro.cli {line}" for line in (
    "demo", "demo --screens", "collapse", "modes", "metrics", "trace",
    "metrics --format json", "trace --json", "trace --chrome {tmp}/c.json",
    "slo", "incident", "incident --json --dump-dir {tmp}/dumps", "report",
    "report --text", "perf --smoke --check BENCH_PERF.json",
    "chaos --preset soak --seed 11 --adc transfer_window=4",
    "chaos --preset control --seed 7", "chaos --no-failover",
    "chaos --seeds 2 --jobs 2")] + [
    f"{_QUICK} --verify-determinism", f"{_QUICK} --adc reduction=on",
    f"{_QUICK} --adc apply_lanes=4", f"{_QUICK} --adc transfer_window=4 "
    "--adc adaptive_batch=true --adc apply_lanes=4 "
    "--adc coalesce_overwrites=true --adc reduction=on"] + [
    f"examples/{path.name}" for path in sorted(ROOT.glob("examples/*.py"))
] + [f"benchmarks/e2e/run.py --smoke --trace 1 --workload {name}"
     for name in ("oltp_business", "stream_all_on", "stream_paper_baseline",
                  "catchup_cuts")]
#: run last and in order, with nothing beside them: a same-size
#: ``perf --check`` compares wall-clock rows (the A/A probe)
A_A_PROBE = ["repro.cli perf --smoke --output {tmp}/perf.json",
             "repro.cli perf --smoke --check {tmp}/perf.json"]
#: the child: run one entry point as ``__main__`` under a profiler and
#: write ``file:firstlineno`` of every code object entered.  A traced
#: benchmark repeat profiles itself and two profilers cannot be active
#: at once, so that one and ours take turns.
CHILD = """
import cProfile, runpy, sys
out, target, sys.argv = sys.argv[1], sys.argv[2], sys.argv[2:]
ours, codes = cProfile.Profile(), set()
class TakesTurns(cProfile.Profile):
    def enable(self, *args, **kwargs):
        ours.disable()
        super().enable(*args, **kwargs)
    def disable(self):
        super().disable()
        codes.update(entry.code for entry in self.getstats())
        ours.disable()
        ours.enable()
cProfile.Profile = TakesTurns
ours.enable()
try:
    run = runpy.run_path if target.endswith(".py") else runpy.run_module
    run(target, run_name="__main__")
finally:
    ours.disable()
    codes.update(entry.code for entry in ours.getstats())
    with open(out, "w") as handle:
        handle.writelines(f"{code.co_filename}:{code.co_firstlineno}\\n"
                          for code in codes if hasattr(code, "co_filename"))
"""


def defs() -> dict:
    """``{(path, first line): "module:qualname"}`` of every non-dunder
    function under ``src/repro`` (first line as the profiler sees it:
    the first decorator's when there is one)."""
    found = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{prefix}{child.name}."
                if isinstance(child, ast.FunctionDef) and not (
                        child.name.startswith("__")
                        and child.name.endswith("__")):
                    line = min(item.lineno for item in
                               [child, *child.decorator_list])
                    found[str(path), line] = f"{module}:{prefix}{child.name}"
            visit(child, path, module, inner)

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()), path,
              module.removesuffix(".__init__"), "")
    return found


def allowlist() -> dict:
    """``{"module:qualname": reason}`` from ``allowlist.txt``."""
    lines = (HERE / "allowlist.txt").read_text().splitlines()
    return dict(line.split(None, 1) for line in lines
                if line.strip() and not line.startswith("#"))


def reached(entry: str, tmp: str) -> set:
    """Run one entry point; the ``(path, first line)`` pairs it entered."""
    handle, out = tempfile.mkstemp(dir=tmp)
    os.close(handle)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, out, *entry.format(tmp=tmp).split()],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL)
    if done.returncode:
        raise SystemExit(f"sweep: exit {done.returncode} from: {entry}")
    return {(path, int(line)) for path, _, line in (
        row.rpartition(":") for row in open(out).read().splitlines())}


def main() -> int:
    known, listed = defs(), allowlist()
    with tempfile.TemporaryDirectory() as tmp:
        with ThreadPoolExecutor(max_workers=2) as pool:
            seen = set().union(*pool.map(
                reached, ENTRY_POINTS, [tmp] * len(ENTRY_POINTS)))
        seen = seen.union(*(reached(entry, tmp) for entry in A_A_PROBE))
    unreached = {name for key, name in known.items() if key not in seen}
    problems = [f"unreached and not on the allowlist: {name}"
                for name in sorted(unreached - set(listed))] + [
        f"on the allowlist but reached or gone: {name}"
        for name in sorted(set(listed) - unreached)]
    print(f"{len(ENTRY_POINTS) + len(A_A_PROBE)} entry points, "
          f"{len(known)} functions, {len(unreached)} unreached, "
          f"{len(listed)} on the allowlist", *problems, sep="\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
