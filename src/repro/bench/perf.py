"""P0 — hot-path microbenchmarks (the ``repro perf`` suite).

Unlike E1–E8 (which assert *simulated* behaviour), this suite measures
**wall-clock** cost of the hot paths the replication pipeline lives on:

* ``journal_append`` / ``journal_drain`` — raw :class:`JournalVolume`
  throughput in entries per wall second (the transfer loop's peek/trim
  access pattern);
* ``kernel_events`` — discrete-event kernel scheduling throughput
  (timeout events processed per wall second);
* ``restore_drain`` — end-to-end replication drain rate: a pre-filled
  main journal shipped and applied to secondary volumes, in entries per
  wall second (the C5 insight: the backup-side apply loop must keep up
  with the primary's ack rate or lag grows without bound).  Measured
  with one restore window per batch (``AdcConfig.apply_lanes > 1``);
* ``snapshot_under_restore`` — the same drain while quiesced snapshot
  groups churn on the secondary volumes and their memoized images are
  read repeatedly: restore throughput and analytics snapshots at once,
  which is the paper's actual operating point;
* ``host_write_e2e`` — end-to-end batched host-write ingest rate at the
  main site (install + journal append + history ack per write), in
  writes per wall second — the paper's "no impact on business
  processing" claim lives or dies on this path;
* ``e1_cell`` — wall seconds for one E1 scenario cell (full business
  stack), the macro guard that micro wins actually reach the workload;
* ``transfer_drain`` / ``initial_copy`` — **simulated-time** drain
  rates of the wire path on a latency+bandwidth-bound link: how fast
  the pipelined transfer window empties a pre-filled main journal, and
  how fast the delta-negotiated SDC bulk copy re-copies a 10%-dirty
  volume.  Simulated rates are fully deterministic (same value every
  run on every machine), so the regression gate is exact for them; they
  move when the *wire protocol* changes, not when the host gets slower;
* ``transfer_drain_reduced`` / ``wire_bytes_per_entry`` — the wire
  data-reduction engine on a duplicate-heavy payload profile over a
  thin link: the reduced drain rate, and the post-reduction bytes each
  drained entry costs (asserting the >=3x saving with a bit-identical
  secondary image).  Also simulated-time, so exact.

``run_perf`` returns the usual ``(table, facts)`` pair; the facts dict
carries a ``metrics`` sub-dict with explicit ``higher_is_better``
directions so :func:`compare_perf` can gate CI on regressions against a
committed ``BENCH_PERF.json`` baseline.

The suite is regression-oriented: absolute numbers are machine-
dependent, so CI compares *ratios* against the baseline recorded on the
same code revision, with a generous tolerance (default 30%).
"""

from __future__ import annotations

import contextlib
import gc
import json
import pathlib
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.tables import Table

Facts = Dict[str, object]

#: benchmark sizes: full mode for local runs, quick mode for CI smoke
_SIZES = {
    "full": dict(journal_entries=300_000, kernel_events=300_000,
                 restore_entries=12_000, host_writes=200_000,
                 e1_duration=0.5, transfer_entries=40_000,
                 copy_blocks=4_096, reduced_entries=30_000,
                 wire_entries=20_000, snap_restore_entries=8_000),
    "quick": dict(journal_entries=100_000, kernel_events=100_000,
                  restore_entries=4_000, host_writes=60_000,
                  e1_duration=0.25, transfer_entries=8_000,
                  copy_blocks=1_024, reduced_entries=6_000,
                  wire_entries=4_000, snap_restore_entries=3_000),
}


def _disable_tracing(sim) -> None:
    """Exercise the tracer fast path when the running code has one."""
    sim.telemetry.tracer.enabled = False


@contextlib.contextmanager
def _no_gc():
    """Suppress cyclic GC inside a timed region (standard microbench
    hygiene: collection pauses otherwise dominate run-to-run noise)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# individual microbenchmarks
# ---------------------------------------------------------------------------


def bench_journal_append(entries: int) -> float:
    """Append throughput of one journal volume (entries per wall s)."""
    from repro.storage.journal import JournalVolume
    journal = JournalVolume(1, entries + 1, name="bench-append")
    payload = b"\x5a" * 128
    append = journal.append
    with _no_gc():
        started = time.perf_counter()
        for index in range(entries):
            append(7, index & 1023, payload, index + 1, 0.0)
        elapsed = time.perf_counter() - started
    return entries / elapsed


def bench_journal_drain(entries: int, batch: int = 512) -> float:
    """Transfer-style drain: peek a batch, trim through its last
    sequence, repeat until empty (entries per wall s)."""
    from repro.storage.journal import JournalVolume
    journal = JournalVolume(2, entries + 1, name="bench-drain")
    payload = b"\xa5" * 128
    for index in range(entries):
        journal.append(7, index & 1023, payload, index + 1, 0.0)
    drained = 0
    with _no_gc():
        started = time.perf_counter()
        while len(journal):
            window = journal.peek_batch(batch)
            journal.pop_through(window[-1].sequence)
            drained += len(window)
        elapsed = time.perf_counter() - started
    assert drained == entries
    return entries / elapsed


def bench_kernel_events(events: int, processes: int = 4) -> float:
    """Kernel scheduling throughput: timeout events per wall second."""
    from repro.simulation.kernel import Simulator
    sim = Simulator(seed=1)
    _disable_tracing(sim)
    per_process = events // processes

    def ticker(sim):
        for _ in range(per_process):
            yield sim.timeout(0.0001)

    for index in range(processes):
        sim.spawn(ticker(sim), name=f"bench-ticker-{index}")
    with _no_gc():
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
    return (per_process * processes) / elapsed


def _prefilled_restore_world(entries: int, volumes: int, apply_lanes: int):
    """The world of the restore benchmarks: host writes fill the main
    journal while the background loops are stopped, then the loops
    restart — the caller times the drain from there."""
    from repro.bench.setups import build_array_pair
    from repro.storage.adc import AdcConfig

    adc = AdcConfig(transfer_interval=0.0005, transfer_batch=4096,
                    restore_interval=0.0005, restore_batch=4096,
                    interval_jitter=0.0, apply_lanes=apply_lanes)
    world = build_array_pair(3, adc, "perf", volumes=volumes,
                             journal_entries=entries + 10)
    sim, main, group, pvols = world.sim, world.main, world.group, world.pvols
    _disable_tracing(sim)
    group.stop()
    payload = b"\x3c" * 128

    def writer(sim):
        for index in range(entries):
            pvol = pvols[index % volumes]
            yield from main.host_write(pvol.volume_id, index % 1024,
                                       payload)

    sim.run_until_complete(sim.spawn(writer(sim), name="perf-writer"))
    assert len(group.main_journal) == entries
    group.restart()
    return world


def bench_restore_drain(entries: int, volumes: int = 2,
                        apply_lanes: int = 8) -> float:
    """End-to-end drain rate of a pre-filled main journal.

    Timing starts when the loops start and stops when the pipeline has
    fully applied everything to the secondary volumes.  Runs with one
    restore window per batch (``apply_lanes > 1``); pass
    ``apply_lanes=1`` to measure the serial applier.
    """
    world = _prefilled_restore_world(entries, volumes, apply_lanes)
    sim, group = world.sim, world.group
    with _no_gc():
        started = time.perf_counter()
        while group.entry_lag:
            sim.run(until=sim.now + 0.05)
        elapsed = time.perf_counter() - started
    return entries / elapsed


def bench_snapshot_under_restore(entries: int, volumes: int = 2,
                                 apply_lanes: int = 8,
                                 image_reads: int = 4) -> float:
    """Drain rate while analytics snapshots churn on the backup site.

    The paper's no-impact claim needs *both* at once: the restore
    applier keeps draining the journal while quiesced snapshot groups
    are created on the secondary volumes, their images read repeatedly
    (``image_blocks``/``frozen_version_map`` — the memoized COW path),
    and the groups rotated out.  Reported as drained entries per wall
    second; exercises the batch window's single-instant commit, the
    snapshot quiesce handshake, and the COW install fast path together.
    """
    world = _prefilled_restore_world(entries, volumes, apply_lanes)
    sim, backup, group = world.sim, world.backup, world.group
    svol_ids = [svol.volume_id for svol in world.svols]

    def snapshotter(sim):
        generation = 0
        while group.entry_lag:
            generation += 1
            group_id = f"perf-sg-{generation}"
            snap_group = yield from backup.create_snapshot_group(
                group_id, svol_ids)
            for _ in range(image_reads):
                for snapshot in snap_group.snapshots:
                    # memoized materializations: O(blocks) once, O(1)
                    # on every repeated analytics read
                    snapshot.image_blocks()
                    snapshot.frozen_version_map()
            backup.delete_snapshot_group(group_id)
            yield sim.timeout(0.002)

    with _no_gc():
        started = time.perf_counter()
        snap_proc = sim.spawn(snapshotter(sim), name="perf-snapshotter")
        while group.entry_lag:
            sim.run(until=sim.now + 0.05)
        sim.run_until_complete(snap_proc)
        elapsed = time.perf_counter() - started
    return entries / elapsed


def bench_host_write_e2e(writes: int, volumes: int = 2,
                         batch: int = 64) -> float:
    """End-to-end batched host-write ingest rate (writes per wall s).

    The full main-site pipeline a business write rides: validation,
    block install, journal append and history ack, issued through
    ``host_write_many`` in ``batch``-sized batches with the background
    transfer/restore loops stopped, so the measurement isolates ingest.
    """
    from repro.bench.setups import build_array_pair
    from repro.storage.adc import AdcConfig

    world = build_array_pair(5, AdcConfig(interval_jitter=0.0),
                             "perf-ingest", volumes=volumes,
                             journal_entries=writes + 10)
    sim, main, group, pvols = world.sim, world.main, world.group, world.pvols
    _disable_tracing(sim)
    group.stop()

    payload = b"\x7e" * 128

    def writer(sim):
        for first in range(0, writes, batch):
            count = min(batch, writes - first)
            yield from main.host_write_many(
                [(pvols[(first + offset) % volumes].volume_id,
                  (first + offset) % 1024, payload)
                 for offset in range(count)])

    process = sim.spawn(writer(sim), name="perf-ingest-writer")
    with _no_gc():
        started = time.perf_counter()
        sim.run_until_complete(process)
        elapsed = time.perf_counter() - started
    assert len(group.main_journal) == writes
    assert len(main.history) == writes
    return writes / elapsed


def _transfer_drain_run(entries: int, window: int = 8,
                        bandwidth: float = 200e6,
                        payload_fn=None, reduction=None,
                        settle: bool = False) -> Dict[str, object]:
    """Drain a pre-filled main journal over a bandwidth-bound link.

    The shared world of the wire-path benchmarks: ``payload_fn(i)``
    shapes the write stream (default the historical constant 128-byte
    payload), ``reduction`` optionally enables the wire data-reduction
    engine, and ``settle=True`` additionally waits for the restore side
    so the secondary image can be compared.  Returns the drain rate in
    entries per simulated second, the wire bytes the link actually
    carried during the drain, and (when settled) the secondary image.
    """
    from repro.bench.setups import build_array_pair
    from repro.storage.adc import AdcConfig
    from repro.storage.reduction import DISABLED_REDUCTION

    adc = AdcConfig(transfer_interval=0.0005, transfer_batch=512,
                    transfer_window=window, adaptive_batch=True,
                    transfer_batch_min=256, transfer_batch_max=4096,
                    transfer_batch_step=256,
                    restore_interval=0.0005, restore_batch=4096,
                    apply_lanes=8, interval_jitter=0.0,
                    reduction=reduction or DISABLED_REDUCTION)
    world = build_array_pair(11, adc, "perf-xfr",
                             journal_entries=entries + 10,
                             link_latency=0.010, bandwidth=bandwidth)
    sim, main, link, group = world.sim, world.main, world.link, world.group
    pvol, svol = world.pvols[0], world.svols[0]
    _disable_tracing(sim)
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


#: the duplicate-heavy seeded workload profile of the reduction
#: benchmarks: 2 KiB pages cycling a pool of 32 distinct contents —
#: rewritten hot pages, the shape fingerprint dedup exists for
def _duplicate_profile():
    from repro.apps.workload import PayloadProfile
    return PayloadProfile(kind="duplicate", size_bytes=2048, seed=29,
                          unique_payloads=32)


def bench_transfer_drain(entries: int, window: int = 8) -> float:
    """Pipelined wire-path drain rate in entries per **simulated** s.

    A pre-filled main journal drains over a 10 ms / 200 MB/s link with
    ``window`` batches in flight and adaptive batch sizing on.  The
    clock is simulated time, so the value is deterministic: it moves
    when the transfer protocol changes (batching, pipelining, window
    management), never when the host machine does.  ``window=1``
    reproduces the old stop-and-wait behaviour for comparison.
    """
    return _transfer_drain_run(entries, window=window)["rate"]


def bench_transfer_drain_reduced(entries: int) -> float:
    """Reduced wire-path drain rate in entries per **simulated** s.

    The duplicate-heavy profile drained over a deliberately thin
    20 MB/s link with the wire data-reduction engine on: almost every
    payload ships as a fingerprint reference, so the drain runs at a
    small multiple of the link's verbatim capacity.  Deterministic
    (simulated time); regressions here mean the reduction protocol
    stopped taking bytes off the wire.
    """
    from repro.storage.reduction import ReductionConfig
    profile = _duplicate_profile()
    return _transfer_drain_run(
        entries, bandwidth=20e6, payload_fn=profile.payload,
        reduction=ReductionConfig(enabled=True))["rate"]


def bench_wire_bytes_per_entry(entries: int) -> float:
    """Post-reduction wire bytes per drained entry (lower is better).

    Runs the duplicate-heavy drain twice — reduction off, then on —
    over the same thin link and asserts the hypothesis property of the
    reduction engine: the reduced run must move at least 3x fewer wire
    bytes while converging the secondary to a bit-identical image.
    Returns the reduced run's bytes-per-entry.
    """
    from repro.storage.reduction import ReductionConfig
    profile = _duplicate_profile()
    plain = _transfer_drain_run(entries, bandwidth=20e6,
                                payload_fn=profile.payload, settle=True)
    reduced = _transfer_drain_run(entries, bandwidth=20e6,
                                  payload_fn=profile.payload,
                                  reduction=ReductionConfig(enabled=True),
                                  settle=True)
    assert reduced["image"] == plain["image"], \
        "reduction changed the converged secondary image"
    assert reduced["wire_bytes"] * 3 <= plain["wire_bytes"], \
        (reduced["wire_bytes"], plain["wire_bytes"])
    return reduced["wire_bytes"] / entries


def bench_initial_copy(blocks: int) -> float:
    """Delta-negotiated bulk re-copy rate in blocks per **simulated** s.

    A fully copied synchronous pair gets 10% of its blocks rewritten at
    the primary, then ``initial_copy`` runs again: the per-block
    ``(version, crc32)`` negotiation must skip the 90% the secondary
    already holds and ship the stale 10% in batched payload transfers.
    Simulated time, so deterministic; also asserts the re-copy moved at
    least 5x fewer wire bytes than a full copy would.
    """
    from repro.bench.setups import build_array_pair
    from repro.storage.adc import AdcConfig

    # the builder's arrays, pools and link; the pair itself is a
    # synchronous mirror of `blocks` blocks, so no async volumes
    world = build_array_pair(13, AdcConfig(), "perf-sdc", volumes=0,
                             link_latency=0.005, bandwidth=500e6)
    sim, main, backup, link = (world.sim, world.main, world.backup,
                               world.link)
    _disable_tracing(sim)
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
    full_bytes = blocks * mirror.config.block_size_bytes
    assert delta_bytes * 5 <= full_bytes, (delta_bytes, full_bytes)
    return blocks / elapsed


def bench_e1_cell(duration: float) -> float:
    """Wall seconds for one E1 scenario cell (lower is better)."""
    from repro.apps import WorkloadConfig, run_order_workload
    from repro.bench.setups import MODE_ADC_CG, build_business_system

    started = time.perf_counter()
    experiment = build_business_system(seed=100, mode=MODE_ADC_CG,
                                       link_latency=0.005)
    run_order_workload(
        experiment.sim, experiment.business.app,
        WorkloadConfig(client_count=4, duration=duration))
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


#: suite order: (name, size key, unit, higher_is_better).  One row per
#: microbenchmark; ``_run_one_bench`` resolves the callable, so the
#: spec stays picklable for the ``--jobs`` fan-out.
_SUITE = (
    ("journal_append", "journal_entries", "entries/s", True),
    ("journal_drain", "journal_entries", "entries/s", True),
    ("kernel_events", "kernel_events", "events/s", True),
    ("restore_drain", "restore_entries", "entries/s", True),
    ("snapshot_under_restore", "snap_restore_entries", "entries/s", True),
    ("host_write_e2e", "host_writes", "writes/s", True),
    ("e1_cell", "e1_duration", "seconds", False),
    ("transfer_drain", "transfer_entries", "entries/sim-s", True),
    ("transfer_drain_reduced", "reduced_entries", "entries/sim-s", True),
    ("wire_bytes_per_entry", "wire_entries", "bytes/entry", False),
    ("initial_copy", "copy_blocks", "blocks/sim-s", True),
)

_BENCH_FNS = {
    "journal_append": bench_journal_append,
    "journal_drain": bench_journal_drain,
    "kernel_events": bench_kernel_events,
    "restore_drain": bench_restore_drain,
    "snapshot_under_restore": bench_snapshot_under_restore,
    "host_write_e2e": bench_host_write_e2e,
    "e1_cell": bench_e1_cell,
    "transfer_drain": bench_transfer_drain,
    "transfer_drain_reduced": bench_transfer_drain_reduced,
    "wire_bytes_per_entry": bench_wire_bytes_per_entry,
    "initial_copy": bench_initial_copy,
}


def _run_one_bench(cell: Tuple[str, str, int]) -> Dict[str, object]:
    """One named microbenchmark, best-of-N (a ParallelRunner cell).

    Best-of-N: each repeat rebuilds its world from scratch, and the
    best run is the one least disturbed by allocator/page noise — the
    standard estimator for short timed regions.
    """
    name, mode, repeats = cell
    size_key, unit, higher_is_better = next(
        (spec[1], spec[2], spec[3]) for spec in _SUITE if spec[0] == name)
    measure = _BENCH_FNS[name]
    size = _SIZES[mode][size_key]
    values = [measure(size) for _ in range(repeats)]
    best = max(values) if higher_is_better else min(values)
    return {"value": best, "unit": unit,
            "higher_is_better": higher_is_better}


def run_perf(quick: bool = False, jobs: int = 1) -> Tuple[Table, Facts]:
    """Run every microbenchmark; returns ``(table, facts)``.

    ``facts["metrics"]`` maps benchmark name to ``{"value", "unit",
    "higher_is_better"}`` — the schema :func:`compare_perf` checks.

    ``jobs`` shards the benchmarks across worker processes
    (deterministic merge in suite order).  The table *structure* is
    identical for any job count, but concurrent benchmarks contend for
    the same cores, so the wall-clock *values* read lower than a
    serial run — use ``jobs>1`` for quick comparative sweeps, never to
    record a baseline.
    """
    from repro.bench.parallel import ParallelRunner

    mode = "quick" if quick else "full"
    cells = [(spec[0], mode, 3) for spec in _SUITE]
    results = ParallelRunner(jobs).map(_run_one_bench, cells)
    metrics: Dict[str, Dict[str, object]] = {
        cell[0]: result for cell, result in zip(cells, results)}

    table = Table(
        title=f"P0: hot-path microbenchmarks ({mode} mode)",
        columns=("benchmark", "value", "unit", "direction"))
    for name in sorted(metrics):
        metric = metrics[name]
        table.add_row(name, float(metric["value"]), metric["unit"],
                      "higher" if metric["higher_is_better"] else "lower")
    table.note("wall-clock measurements; compare ratios against a "
               "baseline from the same machine class, not absolutes")
    table.note("transfer_drain, transfer_drain_reduced, "
               "wire_bytes_per_entry and initial_copy are simulated-time "
               "metrics: deterministic and machine-independent")
    facts: Facts = {"mode": mode, "metrics": metrics}
    return table, facts


# ---------------------------------------------------------------------------
# baseline comparison (the CI regression gate)
# ---------------------------------------------------------------------------


def compare_perf(facts: Facts, baseline: Facts,
                 max_regression: float = 0.30) -> List[str]:
    """Regression messages for metrics worse than baseline by more than
    ``max_regression`` (fraction); empty list means the gate passes.

    Metrics present on only one side are skipped (the suite may grow),
    so a new benchmark never fails the gate retroactively.  Comparing
    across suite modes is rejected: quick and full runs amortise fixed
    pipeline costs over different workload sizes, so their absolute
    rates are not comparable (e.g. restore_drain reads ~45% lower in
    quick mode on identical code).
    """
    if not 0 < max_regression < 1:
        raise ValueError(
            f"max_regression must be in (0, 1): {max_regression}")
    mode, base_mode = facts.get("mode"), baseline.get("mode")
    if mode and base_mode and mode != base_mode:
        raise ValueError(
            f"cannot compare a {mode!r}-mode run against a "
            f"{base_mode!r}-mode baseline; rerun with matching sizes")
    problems: List[str] = []
    current = facts.get("metrics", {})
    reference = baseline.get("metrics", {})
    for name in sorted(set(current) & set(reference)):
        value = float(current[name]["value"])
        base = float(reference[name]["value"])
        if base <= 0 or value <= 0:
            continue
        if current[name].get("higher_is_better", True):
            ratio = value / base
            if ratio < 1.0 - max_regression:
                problems.append(
                    f"{name}: {value:,.0f} is {1 - ratio:.0%} below "
                    f"baseline {base:,.0f} "
                    f"(allowed {max_regression:.0%})")
        else:
            ratio = value / base
            if ratio > 1.0 + max_regression:
                problems.append(
                    f"{name}: {value:.3f}s is {ratio - 1:.0%} above "
                    f"baseline {base:.3f}s "
                    f"(allowed {max_regression:.0%})")
    return problems


def perf_delta_lines(facts: Facts, baseline: Facts) -> List[str]:
    """Per-benchmark delta vs baseline, one formatted line each.

    Printed by ``repro perf --check`` so a regression (or a win) names
    the offending benchmark even when the gate passes.  Metrics present
    on only one side are reported as such rather than skipped silently.
    """
    current = facts.get("metrics", {})
    reference = baseline.get("metrics", {})
    lines: List[str] = []
    for name in sorted(set(current) | set(reference)):
        if name not in reference:
            lines.append(f"{name:16} (new — no baseline entry)")
            continue
        if name not in current:
            lines.append(f"{name:16} (baseline only — not measured)")
            continue
        value = float(current[name]["value"])
        base = float(reference[name]["value"])
        unit = current[name].get("unit", "")
        if base <= 0 or value <= 0:
            lines.append(f"{name:16} (not comparable)")
            continue
        higher = current[name].get("higher_is_better", True)
        # delta > 0 always means "better", whichever the direction
        delta = value / base - 1.0 if higher else base / value - 1.0
        lines.append(
            f"{name:16} {value:>14,.1f} vs {base:>14,.1f} {unit:10} "
            f"{delta:+7.1%}")
    return lines


def write_perf_json(path: pathlib.Path, table: Table,
                    facts: Facts) -> pathlib.Path:
    """Write the suite's ``BENCH_PERF.json`` (same shape the E-series
    benchmarks emit via the benchmarks/ conftest)."""
    payload = {
        "experiment": "run_perf",
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
        "facts": facts,
    }
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_perf_baseline(path: pathlib.Path) -> Facts:
    """The facts dict of a previously written ``BENCH_PERF.json``."""
    payload = json.loads(pathlib.Path(path).read_text())
    return payload["facts"]
