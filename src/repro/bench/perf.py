"""``repro perf`` — the one performance ruler, and the record it keeps.

* **Exact rows** — four **simulated-time** rates of the wire path.
  Simulated time is a pure function of the code, so every run on every
  machine reads the same value and the gate is equality: they move when
  the *wire protocol* changes, never when the host gets slower.
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
    """Drain a pre-filled main journal over a bandwidth-bound link.

    The shared world of the wire-path rows: ``payload_fn(i)`` shapes the
    write stream (default a constant 128-byte payload), ``reduction``
    optionally enables the wire data-reduction engine, and
    ``settle=True`` additionally waits for the restore side so the
    secondary image can be compared.  Returns the drain rate in entries
    per simulated second, the wire bytes the link actually carried
    during the drain, and (when settled) the secondary image.
    """
    adc = AdcConfig(transfer_interval=0.0005, transfer_batch=512,
                    transfer_window=8, adaptive_batch=True,
                    transfer_batch_min=256, transfer_batch_max=4096,
                    transfer_batch_step=256,
                    restore_interval=0.0005, restore_batch=4096,
                    apply_lanes=8, interval_jitter=0.0,
                    reduction=reduction)
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
    """Pipelined wire-path drain rate in entries per **simulated** s.

    A pre-filled main journal drains over a 10 ms / 200 MB/s link with
    eight batches in flight and adaptive batch sizing on; it moves when
    the transfer protocol changes (batching, pipelining, window
    management).
    """
    return _transfer_drain_run(entries)["rate"]


def bench_transfer_drain_reduced(entries: int = 6_000) -> float:
    """Reduced wire-path drain rate in entries per **simulated** s.

    The duplicate-heavy profile drained over a deliberately thin
    20 MB/s link with the wire data-reduction engine on: almost every
    payload ships as a fingerprint reference, so the drain runs at a
    small multiple of the link's verbatim capacity.  A drop means the
    reduction protocol stopped taking bytes off the wire.
    """
    return _transfer_drain_run(
        entries, bandwidth=20e6, payload_fn=_DUPLICATES.payload,
        reduction=ReductionConfig(enabled=True))["rate"]


def bench_wire_bytes_per_entry(entries: int = 4_000) -> float:
    """Post-reduction wire bytes per drained entry (lower is better).

    Runs the duplicate-heavy drain twice — reduction off, then on —
    over the same thin link and asserts the property the reduction
    engine exists for: the reduced run must move at least 3x fewer wire
    bytes while converging the secondary to a bit-identical image.
    Returns the reduced run's bytes-per-entry.
    """
    plain = _transfer_drain_run(entries, bandwidth=20e6,
                                payload_fn=_DUPLICATES.payload, settle=True)
    reduced = _transfer_drain_run(entries, bandwidth=20e6,
                                  payload_fn=_DUPLICATES.payload,
                                  reduction=ReductionConfig(enabled=True),
                                  settle=True)
    assert reduced["image"] == plain["image"], \
        "reduction changed the converged secondary image"
    assert reduced["wire_bytes"] * 3 <= plain["wire_bytes"], \
        (reduced["wire_bytes"], plain["wire_bytes"])
    return reduced["wire_bytes"] / entries


def bench_initial_copy(blocks: int = 1_024) -> float:
    """Delta-negotiated bulk re-copy rate in blocks per **simulated** s.

    A fully copied synchronous pair gets 10% of its blocks rewritten at
    the primary, then ``initial_copy`` runs again: the per-block
    ``(version, crc32)`` negotiation must skip the 90% the secondary
    already holds and ship the stale 10% in batched payload transfers.
    Also asserts the re-copy moved at least 5x fewer wire bytes than a
    full copy would.
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


def run_perf(smoke: bool = False,
             workloads: Optional[Sequence[str]] = None) -> dict:
    """Measure everything once, printing as it goes; returns the run as
    one trajectory row.  Every workload ``BENCHMARK.json`` declares
    (or ``workloads``) runs untraced on seeds 1-3 for its
    ``run_seconds`` (``smoke``: tenth-size, two repeats) and once traced."""
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
    return {
        "rev": _git_rev(), "machine": results["machine"],
        "size": "smoke" if smoke else "full", "seeds": results["seeds"],
        "seconds": results["seconds"], "exact": exact,
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


def _comparable(row: dict, spec: dict) -> dict:
    """``row`` in the shape ``suite.compare`` reads: every end-to-end
    entry with the unit, direction and bound ``BENCHMARK.json`` declares."""
    return {"workloads": {
        name: {"failed": result["failed"],
               "end_to_end": {
                   metric["name"]: {**result["end_to_end"][metric["name"]],
                                    **metric}
                   for metric in spec["end_to_end"]
                   if metric["name"] in result["end_to_end"]}}
        for name, result in row["workloads"].items()}}


def check_row(row: dict, recorded: dict) -> List[str]:
    """Print ``row`` against the ``recorded`` one; returns what fails
    the check — an exact row that differs, an end-to-end row ``worse``
    than its bound — and is empty when it passes."""
    problems = []
    print(f"== check against the recorded row of {recorded['rev']} "
          f"({recorded['size']} size)")
    for name in sorted(set(row["exact"]) | set(recorded["exact"])):
        value, base = row["exact"].get(name), recorded["exact"].get(name)
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
    with tempfile.TemporaryDirectory() as scratch:
        paths = [pathlib.Path(scratch, "recorded.json"),
                 pathlib.Path(scratch, "measured.json")]
        for path, side in zip(paths, (recorded, row)):
            path.write_text(json.dumps(_comparable(side, spec)))
        if suite.compare(*map(str, paths)):
            problems.append("end to end: a row above is `worse` than its "
                            "bound, or a side has failed operations")
    return problems
