"""``repro perf`` — the one performance ruler, and the record it keeps.

* **Exact rows** — four **simulated-time** rates of the wire path and
  the wire bytes of a mixed page stream.
  Simulated time is a pure function of the code, so every run on every
  machine reads the same value and the gate is equality: they move when
  the *wire protocol* changes, never when the host gets slower.
* **Behaviour** — the campaign digest of every CI ``chaos-smoke`` leg,
  equal on every machine at one Python minor.
* **End-to-end rows** — the seven metrics of ``backup_e2e`` on its four
  workloads and, under them, the folded per-layer table that says where
  the wall time went.  Nothing of that is measured here: the front puts
  the checkout's root on ``sys.path`` and calls
  ``benchmarks.e2e.suite.run_suite``, which prints its own tables.

``BENCH_PERF.json`` is a trajectory ``{"rows": [...]}``, one row per
recorded run; docs/performance.md has the schema and how to read it.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

from repro.apps.workload import PayloadProfile
from repro.bench.setups import build_array_pair
from repro.storage.adc import AdcConfig
from repro.storage.reduction import DISABLED_REDUCTION, ReductionConfig
from repro.storage.sdc import BLOCK_SIZE_BYTES

#: the checkout this package sits in (``src/repro/bench/perf.py``)
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


# ---------------------------------------------------------------------------
# the exact rows
# ---------------------------------------------------------------------------


def _transfer_drain_run(entries: int, bandwidth: float = 200e6,
                        payload_fn=None,
                        reduction: ReductionConfig = DISABLED_REDUCTION,
                        settle: bool = False) -> Dict[str, object]:
    """Drain a pre-filled main journal over a bandwidth-bound link: the
    wire-path rows' world.  ``payload_fn(i)`` shapes the writes (default
    128 constant bytes); ``settle=True`` also waits for the restore
    side.  Returns the drain rate in entries per simulated second, the
    wire bytes the link carried, and (when settled) the secondary image.
    """
    adc = AdcConfig(
        transfer_interval=0.0005, transfer_batch=512, transfer_window=8,
        adaptive_batch=True, transfer_batch_min=256, transfer_batch_max=4096,
        transfer_batch_step=256, restore_interval=0.0005, restore_batch=4096,
        apply_lanes=8, interval_jitter=0.0, reduction=reduction)
    world = build_array_pair(11, adc, "perf-xfr",
                             journal_entries=entries + 10,
                             link_latency=0.010, bandwidth=bandwidth)
    sim, main, link, group = world.sim, world.main, world.link, world.group
    pvol, svol = world.pvols[0], world.svols[0]
    group.stop()
    if payload_fn is None:
        constant = b"\x42" * 128
        payload_fn = lambda index: constant  # noqa: E731

    def writer(sim):
        for first in range(0, entries, 256):
            count = min(256, entries - first)
            yield from main.host_write_many(
                [(pvol.volume_id, (first + offset) % 1024,
                  payload_fn(first + offset))
                 for offset in range(count)])

    sim.run_until_complete(sim.spawn(writer(sim), name="perf-xfr-writer"))
    assert len(group.main_journal) == entries
    bytes_before = link.bytes_transferred
    group.restart()
    started = sim.now
    # the main journal is trimmed only after the backup site ingested a
    # batch, so "main journal empty" means every entry crossed the wire
    while len(group.main_journal):
        sim.run(until=sim.now + 0.001)
    elapsed = sim.now - started
    wire_bytes = link.bytes_transferred - bytes_before
    image = None
    if settle:
        while group.entry_lag:
            sim.run(until=sim.now + 0.001)
        image = {block: (value.payload, value.version)
                 for block, value in svol.block_map().items()}
    return {"rate": entries / elapsed, "wire_bytes": wire_bytes,
            "image": image}


#: the duplicate-heavy seeded workload profile of the reduction rows:
#: 2 KiB pages cycling a pool of 32 distinct contents — rewritten hot
#: pages, the shape fingerprint dedup exists for
_DUPLICATES = PayloadProfile(kind="duplicate", size_bytes=2048, seed=29,
                             unique_payloads=32)


def bench_transfer_drain(entries: int = 8_000) -> float:
    """Pipelined wire-path drain rate in entries per **simulated** s:
    a pre-filled main journal over a 10 ms / 200 MB/s link, eight
    batches in flight, adaptive batch sizing on.  Moves when the
    transfer protocol (batching, pipelining, windowing) changes."""
    return _transfer_drain_run(entries)["rate"]


def bench_transfer_drain_reduced(entries: int = 6_000) -> float:
    """Reduced wire-path drain rate in entries per **simulated** s: the
    duplicate-heavy profile over a thin 20 MB/s link, reduction on.
    Almost every payload ships as a reference, so the drain runs at a
    small multiple of the link's verbatim capacity; a drop means the
    reduction protocol stopped taking bytes off the wire."""
    return _transfer_drain_run(
        entries, bandwidth=20e6, payload_fn=_DUPLICATES.payload,
        reduction=ReductionConfig(enabled=True))["rate"]


def bench_wire_bytes_per_entry(entries: int = 4_000) -> float:
    """Post-reduction wire bytes per drained entry (lower is better) of
    the duplicate-heavy drain, run reduction off, then on, over the same
    thin link: the reduced run must move at least 3x fewer wire bytes
    and converge the secondary to a bit-identical image."""
    plain, reduced = (_transfer_drain_run(
        entries, bandwidth=20e6, payload_fn=_DUPLICATES.payload,
        reduction=reduction, settle=True)
        for reduction in (DISABLED_REDUCTION, ReductionConfig(enabled=True)))
    assert reduced["image"] == plain["image"], \
        "reduction changed the converged secondary image"
    assert reduced["wire_bytes"] * 3 <= plain["wire_bytes"], \
        (reduced["wire_bytes"], plain["wire_bytes"])
    return reduced["wire_bytes"] / entries


#: the page mix of ``stream_all_on``: 1 KiB pages dealt compressible,
#: compressible, duplicate (16 distinct contents), random
_MIXED = tuple(PayloadProfile(kind=kind, size_bytes=1024, seed=31 + index,
                              unique_payloads=64)
               for index, kind in enumerate(
                   ("compressible", "compressible", "duplicate", "random")))


def bench_wire_bytes_per_entry_mixed(entries: int = 4_000) -> float:
    """Post-reduction wire bytes per drained entry of the mixed page
    stream (lower is better): half the pages deflate, a quarter dedup,
    a quarter cross verbatim, so the row moves with the codec as well
    as with the dedup protocol."""
    return _transfer_drain_run(
        entries, payload_fn=lambda index: _MIXED[index % 4].payload(index),
        reduction=ReductionConfig(enabled=True))["wire_bytes"] / entries


def bench_initial_copy(blocks: int = 1_024) -> float:
    """Delta-negotiated bulk re-copy rate in blocks per **simulated** s.

    A fully copied synchronous pair gets 10% of its blocks rewritten,
    then ``initial_copy`` runs again: the ``(version, crc32)``
    negotiation must skip the 90% the secondary holds and ship the
    stale 10% in batches, at least 5x fewer wire bytes than a full copy.
    """
    # the builder's arrays, pools and link; the pair itself is a
    # synchronous mirror of `blocks` blocks, so no async volumes
    world = build_array_pair(13, AdcConfig(), "perf-sdc", volumes=0,
                             link_latency=0.005, bandwidth=500e6)
    sim, main, backup, link = (world.sim, world.main, world.backup,
                               world.link)
    pvol = main.create_volume(world.main_pool_id, blocks)
    svol = backup.create_volume(world.backup_pool_id, blocks)
    for block in range(blocks):
        pvol.install_block(block, b"\x6b" * 128)
    mirror = main.create_sync_mirror("perf-sdc-mirror", link)
    pair = main.create_sync_pair("perf-sdc-0", "perf-sdc-mirror",
                                 pvol.volume_id, backup, svol.volume_id)
    while not pair.initial_copy_done:
        sim.run(until=sim.now + 0.05)
    for block in range(0, blocks, 10):
        pvol.install_block(block, b"\x7c" * 128)
    bytes_before = link.bytes_transferred
    started = sim.now
    sim.run_until_complete(
        sim.spawn(mirror.initial_copy("perf-sdc-0"),
                  name="perf-sdc-recopy"))
    elapsed = sim.now - started
    delta_bytes = link.bytes_transferred - bytes_before
    full_bytes = blocks * BLOCK_SIZE_BYTES
    assert delta_bytes * 5 <= full_bytes, (delta_bytes, full_bytes)
    return blocks / elapsed


#: row name -> (measure, unit), each at the one size its default names
EXACT_ROWS = {
    "transfer_drain": (bench_transfer_drain, "entries/sim-s"),
    "transfer_drain_reduced": (bench_transfer_drain_reduced,
                               "entries/sim-s"),
    "wire_bytes_per_entry": (bench_wire_bytes_per_entry, "bytes/entry"),
    "initial_copy": (bench_initial_copy, "blocks/sim-s"),
    "wire_bytes_per_entry_mixed": (bench_wire_bytes_per_entry_mixed,
                                   "bytes/entry"),
}


# ---------------------------------------------------------------------------
# the front over benchmarks/e2e
# ---------------------------------------------------------------------------


def load_suite():
    """``benchmarks.e2e.suite`` of this checkout; ``FileNotFoundError``
    when ``benchmarks/e2e`` is not next to ``src/`` (an installed copy:
    the harness is not shipped with the package)."""
    e2e = REPO_ROOT / "benchmarks" / "e2e"
    if not (e2e / "suite.py").is_file():
        raise FileNotFoundError(
            f"{e2e} not found: the end-to-end harness is part of the "
            "source checkout, next to src/ — run `repro perf` from one")
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.e2e import suite
    return suite


def _git_rev() -> str:
    import subprocess  # here and in check_row: not on `import repro.bench`
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


#: the simulated end-to-end metrics, exact per code, seed and size
SIMULATED = ("rpo_lag_p50_sim_ms", "rpo_lag_p99_sim_ms", "keep_up_ratio",
             "wire_bytes_per_write")
#: the traced run's exact counters (seed 1), exact the same way
COUNTERS = ("storage.adc.restored_entries", "storage.snapshot.cuts",
            "storage.snapshot.cow_blocks")


#: the CI ``chaos-smoke`` legs: name -> ``repro chaos`` arguments
CHAOS_LEGS = {
    "quick": "--preset quick --seed 7",
    "windowed-soak": "--preset soak --seed 11 --adc transfer_window=4",
    "reduction": "--preset quick --seed 7 --adc reduction=on",
    "lanes": "--preset quick --seed 7 --adc apply_lanes=4",
    "control": "--preset control --seed 7",
    "all-on": "--preset quick --seed 7 --adc transfer_window=4 --adc "
              "adaptive_batch=true --adc apply_lanes=4 --adc "
              "coalesce_overwrites=true --adc reduction=on",
}


def behaviour() -> Dict[str, str]:
    """``chaos.<leg>`` -> the campaign digest ``repro chaos`` prints."""
    from repro.chaos import run_campaigns
    from repro.cli import build_parser
    legs = {leg: build_parser().parse_args(["chaos", *argv.split()])
            for leg, argv in CHAOS_LEGS.items()}
    return {f"chaos.{leg}": run_campaigns(
        [args.seed], args.preset, adc_overrides=dict(args.adc) or None,
    )[0].digest for leg, args in legs.items()}


def run_perf(smoke: bool = False,
             workloads: Optional[Sequence[str]] = None) -> dict:
    """Measure everything once, printing as it goes; returns the run as
    one trajectory row.  Every workload ``BENCHMARK.json`` declares
    (or ``workloads``) runs untraced on seeds 1-3 for its
    ``run_seconds`` (``smoke``: tenth-size, two repeats) and once traced;
    seed 1's simulated metrics and traced counters join the exact rows."""
    suite = load_suite()
    print("== exact rows (simulated time: equal on every machine)")
    exact = {}
    for name, (measure, unit) in EXACT_ROWS.items():
        exact[name] = measure()
        print(f"  {name:<24} {exact[name]!r:>20} {unit}")
    spec = suite.declared()
    names = list(workloads or (entry["name"] for entry in spec["workloads"]))
    results = suite.run_suite(names, seed=1, runs=3,
                              seconds=spec["run_seconds"], smoke=smoke)
    for name, result in results["workloads"].items():  # seed 1 runs first
        exact.update((f"{name}.{metric}", result["end_to_end"][metric][
            "values"][0]) for metric in SIMULATED)
        exact.update((f"{name}.{counter}", result["per_layer"][counter])
                     for counter in COUNTERS)
    # after the suite: a child's peak RSS counts this process's at fork
    digests = behaviour()
    for name, digest in digests.items():
        print(f"  {name:<24} {digest:>20}")
    return {
        "rev": _git_rev(), "machine": results["machine"],
        "size": "smoke" if smoke else "full", "seeds": results["seeds"],
        "seconds": results["seconds"], "exact": exact, "behaviour": digests,
        "workloads": {
            name: {"attempted": result["attempted"],
                   "failed": result["failed"],
                   "end_to_end": {
                       metric: {"median": entry["median"],
                                "q1": entry["q1"], "q3": entry["q3"],
                                "n": len(entry["values"])}
                       for metric, entry in result["end_to_end"].items()}}
            for name, result in results["workloads"].items()},
    }


def load_rows(path) -> List[dict]:
    """The rows of a trajectory file, oldest first; ``ValueError`` when
    the file is something else (the retired one-run schema also has a
    ``rows`` key, holding table rows)."""
    payload = json.loads(pathlib.Path(path).read_text())
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not rows or not all(isinstance(row, dict) and "exact" in row
                           and "workloads" in row for row in rows):
        raise ValueError(f"{path} is not a `repro perf` trajectory")
    return rows


def append_row(path, row: dict) -> int:
    """Append ``row`` to the trajectory at ``path`` (created when
    missing); returns the number of rows it now holds."""
    path = pathlib.Path(path)
    rows = load_rows(path) if path.exists() else []
    rows.append(row)
    path.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return len(rows)


def _comparable(row: dict, spec: dict, metrics: Sequence[str]) -> dict:
    """``row`` in the shape ``suite.compare`` reads: its end-to-end
    entries among ``metrics``, each with the unit, direction and bound
    ``BENCHMARK.json`` declares."""
    return {"workloads": {
        name: {"failed": result["failed"],
               "end_to_end": {
                   metric["name"]: {**result["end_to_end"][metric["name"]],
                                    **metric}
                   for metric in spec["end_to_end"]
                   if metric["name"] in metrics
                   and metric["name"] in result["end_to_end"]}}
        for name, result in row["workloads"].items()}}


def recorded_row(path, smoke: bool) -> dict:
    """The newest row of a ``smoke`` run's size, else the newest row."""
    rows = load_rows(path)
    return next((row for row in reversed(rows)
                 if row["size"] == ("smoke" if smoke else "full")), rows[-1])


def check_row(row: dict, recorded: dict) -> List[str]:
    """Print ``row`` against the ``recorded`` one; returns what fails
    the check — a differing exact row (the seed-1 simulated values and
    counters only at equal size) or digest (at equal Python minor), an
    end-to-end row ``worse`` than its bound (at equal size; the
    wall-clock ones on the same machine only) — and is empty when it
    passes."""
    problems = []
    print(f"== check against the recorded row of {recorded['rev']} "
          f"({recorded['size']} size)")
    names = set(row["exact"]) | set(recorded["exact"])
    if row["size"] != recorded["size"]:  # seed-1 simulated rows: per size
        names &= set(EXACT_ROWS)
    pairs = [(name, row["exact"].get(name), recorded["exact"].get(name))
             for name in sorted(names)]
    minor = [side["machine"].get("python", "").split(".")[:2]
             for side in (row, recorded)]
    if minor[0] == minor[1]:
        digests = [side.get("behaviour", {}) for side in (row, recorded)]
        pairs += [(name, digests[0].get(name), digests[1].get(name))
                  for name in sorted(set(digests[0]) | set(digests[1]))]
    for name, value, base in pairs:
        print(f"  {name:<24} {value!r:>20} recorded {base!r:>20}  "
              f"{'equal' if value == base else 'DIFFERS'}")
        if value != base:
            problems.append(
                f"exact row {name}: {value!r} != recorded {base!r}")
    if row["size"] != recorded["size"]:
        print(f"  end-to-end rows not compared: this run is {row['size']} "
              f"size, the recorded one {recorded['size']} size")
        return problems
    import tempfile
    suite = load_suite()
    spec = suite.declared()
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    if row["machine"] != recorded["machine"]:  # proves nothing either way
        print("  wall-clock rows not compared: recorded on "
              f"{recorded['machine']}")
        metrics = SIMULATED
    with tempfile.TemporaryDirectory() as scratch:
        paths = [pathlib.Path(scratch, "recorded.json"),
                 pathlib.Path(scratch, "measured.json")]
        for path, side in zip(paths, (recorded, row)):
            path.write_text(json.dumps(_comparable(side, spec, metrics)))
        if suite.compare(*map(str, paths)):
            problems.append("end to end: a row above is `worse` than its "
                            "bound, or a side has failed operations")
    return problems
