"""The four workloads of ``backup_e2e``.

Each workload has three parts, and only the middle one is timed:

* ``setup(seed)`` generates every input from the seed and builds a
  fresh two-site world through the public API;
* ``phase(world)`` is the measured phase: load, then catch-up or
  failover, then the final backup-site cut.  The only product call the
  harness itself makes in here is ``Simulator.run*``; everything else
  happens in kernel-scheduled processes;
* ``verify(world, seen)`` checks the outputs (kept cuts are prefix cuts,
  the final image holds every acked write, business invariants hold).

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README's workload table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.apps import PayloadProfile, WorkloadConfig, run_order_workload
from repro.bench.setups import (MODE_ADC_CG, build_business_system,
                                business_journal_groups)
from repro.errors import ReproError
from repro.recovery import (check_storage_cut, fail_and_recover,
                            image_versions_from_volumes)
from repro.simulation import NetworkLink, Simulator
from repro.storage import (AdcConfig, ArrayConfig, ReductionConfig,
                           StorageArray)

from benchmarks.e2e.probes import Cutter, LagSampler

#: distinct payloads the stream generator draws from: 4x the reducer's
#: 4,096-entry fingerprint cache (a pool the cache can hold whole would
#: be deduplicated entirely after one pass)
POOL_ENTRIES = 16_384
VOLUMES = 4


@dataclass
class World:
    """One fresh two-site system plus the inputs the phase will feed it."""

    sim: Simulator
    main: StorageArray
    backup: StorageArray
    link: NetworkLink
    group: object  # the consistency group's JournalGroup
    #: (primary volume id, secondary volume id) per replication pair
    pairs: List[Tuple[int, int]]
    #: workload-specific inputs, materialised in set-up
    inputs: object = None
    #: seeded share of a period by which the RPO sampling grid is shifted
    sample_phase: float = 0.0


@dataclass
class Seen:
    """Everything one measured phase observed."""

    acked_writes: int
    #: acked writes contained in the final verified backup image
    visible_writes: int
    client_ops: int
    failed_ops: int
    #: client-visible latency of each operation, simulated seconds
    op_latencies: List[float]
    load_sim_s: float
    #: share of the phase's journal entries (acked during the load plus
    #: any backlog it started with) already restored when the load stops
    keep_up_ratio: float
    #: load stops -> complete, verified, consistent image at the backup
    recovery_sim_s: float
    sampler: LagSampler
    cutter: Cutter
    #: the final backup image as {primary id: {block: version}}
    final_versions: Dict[int, Dict[int, int]]
    #: workload-specific exact counters (per-layer rows)
    counters: Dict[str, float] = field(default_factory=dict)
    #: verification done inside the phase by the product (failover)
    checks: int = 0
    failed_checks: int = 0


def _verify_cuts(world: World, seen: Seen) -> Tuple[int, int]:
    """Kept mid-run cuts must be prefix cuts of the ack order."""
    failed = 0
    for _number, versions in seen.cutter.kept:
        report = check_storage_cut(world.main.history, versions)
        if not report.consistent:
            failed += 1
    return len(seen.cutter.kept), failed


# ---------------------------------------------------------------------------
# block-stream workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamShape:
    """Shape of a synthetic block-stream workload (all sizes fixed per
    workload; ``--smoke`` scales the write counts only)."""

    adc: AdcConfig
    link_latency: float
    link_bandwidth: float
    #: writes the clients issue during the measured phase
    writes: int
    batch: int
    clients: int
    #: simulated seconds between the batches of one client; 0 is a
    #: closed loop with zero think time
    pace: float
    blocks_per_volume: int
    #: share of writes aimed at the first ``hot_blocks`` of a volume
    hot_share: float
    hot_blocks: int
    #: payload kinds dealt round-robin over the pool
    payload_mix: Tuple[str, ...]
    payload_bytes: int
    cut_period: float
    cut_reads: int
    #: RPO sampling grid; deliberately not a divisor or multiple of the
    #: pipeline's wake-up periods, so samples sweep every phase of its
    #: cycle instead of aliasing onto a few
    sample_period: float
    #: journal entries written in set-up with the group stopped
    prefill: int = 0


def _payload_pool(seed: int, shape: StreamShape) -> List[bytes]:
    profiles = {
        kind: PayloadProfile(kind=kind, size_bytes=shape.payload_bytes,
                             seed=seed, unique_payloads=64)
        for kind in set(shape.payload_mix)}
    duplicates: Dict[int, bytes] = {}
    pool = []
    for index in range(POOL_ENTRIES):
        kind = shape.payload_mix[index % len(shape.payload_mix)]
        if kind == "duplicate":
            slot = index % 64
            if slot not in duplicates:
                duplicates[slot] = profiles[kind].payload(slot)
            # equal content, distinct object: a real host never hands
            # the array the same buffer twice
            pool.append(bytes(memoryview(duplicates[slot])))
        else:
            pool.append(profiles[kind].payload(index))
    return pool


class StreamWorkload:
    """Seeded block stream over 4 volumes in one consistency group."""

    def __init__(self, shape: StreamShape) -> None:
        self.shape = shape

    def scaled(self, factor: float) -> "StreamWorkload":
        shape = self.shape
        return StreamWorkload(replace(
            shape, writes=max(shape.batch * shape.clients,
                              int(shape.writes * factor)),
            prefill=int(shape.prefill * factor)))

    # -- set-up ---------------------------------------------------------------

    def setup(self, seed: int) -> World:
        shape = self.shape
        sim = Simulator(seed=seed)
        config = ArrayConfig(adc=shape.adc)
        main = StorageArray(sim, serial="E2E-MAIN", config=config)
        backup = StorageArray(sim, serial="E2E-BKUP", config=config)
        main_pool = main.create_pool(10_000_000)
        backup_pool = backup.create_pool(10_000_000)
        link = NetworkLink(sim, latency=shape.link_latency,
                           bandwidth_bytes_per_s=shape.link_bandwidth,
                           name="e2e-link")
        capacity = shape.writes + shape.prefill + 16
        main_journal = main.create_journal(main_pool.pool_id, capacity)
        backup_journal = backup.create_journal(backup_pool.pool_id,
                                               capacity)
        main.create_journal_group("e2e", main_journal.journal_id, backup,
                                  backup_journal.journal_id, link)
        group = main.journal_groups["e2e"]
        pairs = []
        for index in range(VOLUMES):
            pvol = main.create_volume(main_pool.pool_id,
                                      shape.blocks_per_volume)
            svol = backup.create_volume(backup_pool.pool_id,
                                        shape.blocks_per_volume)
            main.create_async_pair(f"e2e-{index}", "e2e", pvol.volume_id,
                                   backup, svol.volume_id)
            pairs.append((pvol.volume_id, svol.volume_id))
        pool = _payload_pool(seed, shape)
        rng = random.Random(seed)
        world = World(sim=sim, main=main, backup=backup, link=link,
                      group=group, pairs=pairs, sample_phase=rng.random())
        pvol_ids = [pvol_id for pvol_id, _svol in pairs]

        def draw(count: int) -> List[tuple]:
            writes = []
            for _ in range(count):
                volume_id = pvol_ids[rng.randrange(VOLUMES)]
                if rng.random() < shape.hot_share:
                    block = rng.randrange(shape.hot_blocks)
                else:
                    block = rng.randrange(shape.blocks_per_volume)
                writes.append((volume_id, block,
                               pool[rng.randrange(POOL_ENTRIES)]))
            return writes

        if shape.prefill:
            group.stop()
            backlog = [draw(256) for _ in range(shape.prefill // 256)]

            def prefill(sim):
                for batch in backlog:
                    yield from main.host_write_many(batch)

            sim.run_until_complete(sim.spawn(prefill(sim),
                                             name="e2e-prefill"))
        # every batch is materialised here so that the load generator
        # is not a layer of the measured phase
        world.inputs = [draw(shape.batch)
                        for _ in range(shape.writes // shape.batch)]
        return world

    # -- measured phase -------------------------------------------------------

    def phase(self, world: World) -> Seen:
        shape = self.shape
        sim, main, group = world.sim, world.main, world.group
        batches = world.inputs
        latencies: List[float] = []
        failed_ops = 0

        def client(sim, mine):
            nonlocal failed_ops
            due = sim.now
            for batch in mine:
                started = sim.now
                try:
                    yield from main.host_write_many(batch)
                except ReproError:
                    failed_ops += 1
                latencies.append(sim.now - started)
                if shape.pace:
                    due += shape.pace
                    if due > sim.now:
                        yield sim.timeout(due - sim.now)

        sampler = LagSampler(group, shape.sample_period,
                             world.sample_phase)
        cutter = Cutter(world.backup, world.pairs, shape.cut_period,
                        shape.cut_reads)
        load_started = sim.now
        clients = [sim.spawn(client(sim, batches[index::shape.clients]),
                             name=f"e2e-client-{index}")
                   for index in range(shape.clients)]
        sim.spawn(sampler.run(sim), name="e2e-sampler")
        cutting = sim.spawn(cutter.run(sim), name="e2e-cutter")
        if shape.prefill:
            group.restart()
        for process in clients:
            sim.run_until_complete(process)
        last_ack = sim.now
        backlog_after = group.entry_lag
        sampler.stop()

        def catch_up(sim):
            # the restore loop's own wake-up period bounds how finely
            # "lag reached zero" can be observed
            while group.entry_lag:
                yield sim.timeout(shape.adc.restore_interval / 4)
            cutter.stop()
            return (yield from world.backup.create_snapshot_group(
                "e2e-final", cutter.svol_ids))

        final = sim.run_until_complete(
            sim.spawn(catch_up(sim), name="e2e-catch-up"))
        sim.run_until_complete(cutting)
        final_versions = cutter.frozen_versions(final)
        # a pre-filled backlog was acked before the phase but becomes
        # visible at the backup site during it, so it counts
        acked = len(main.history)
        return Seen(
            acked_writes=acked, visible_writes=acked,
            client_ops=len(latencies), failed_ops=failed_ops,
            op_latencies=latencies, load_sim_s=last_ack - load_started,
            keep_up_ratio=1.0 - backlog_after / acked,
            recovery_sim_s=final.created_at - last_ack,
            sampler=sampler, cutter=cutter,
            final_versions=final_versions)

    # -- verification ---------------------------------------------------------

    def verify(self, world: World, seen: Seen) -> Tuple[int, int]:
        attempted, failed = _verify_cuts(world, seen)
        # the final cut must contain every acked write ...
        report = check_storage_cut(world.main.history, seen.final_versions)
        attempted += 1
        if not report.consistent or report.missing_count:
            failed += 1
        # ... and the secondaries must equal the primaries byte for byte
        for pvol_id, svol_id in world.pairs:
            primary = world.main.get_volume(pvol_id).block_map()
            secondary = world.backup.get_volume(svol_id).block_map()
            attempted += len(primary)
            if len(secondary) != len(primary):
                failed += abs(len(secondary) - len(primary))
            for block, value in primary.items():
                mirrored = secondary.get(block)
                if mirrored is None or mirrored.payload != value.payload \
                        or mirrored.version != value.version:
                    failed += 1
        return attempted, failed


# ---------------------------------------------------------------------------
# the paper's business process
# ---------------------------------------------------------------------------


class OltpBusiness:
    """The demonstration: NSO-tagged namespace, product-default
    pipeline, closed-loop order clients, then disaster and failover."""

    CLIENTS = 4
    CUT_PERIOD = 0.050
    SAMPLE_PERIOD = 0.0029

    def __init__(self, duration: float = 6.5) -> None:
        self.duration = duration

    def scaled(self, factor: float) -> "OltpBusiness":
        return OltpBusiness(max(0.5, self.duration * factor))

    def setup(self, seed: int) -> World:
        experiment = build_business_system(seed, MODE_ADC_CG)
        system = experiment.system
        group = business_journal_groups(experiment)[0]
        pairs = [(pair.pvol.volume_id, pair.svol.volume_id)
                 for pair in group.pairs.values()]
        return World(sim=experiment.sim, main=system.main.array,
                     backup=system.backup.array,
                     link=system.replication_link, group=group,
                     pairs=pairs, inputs=experiment,
                     sample_phase=random.Random(seed).random())

    def phase(self, world: World) -> Seen:
        sim, experiment = world.sim, world.inputs
        sampler = LagSampler(world.group, self.SAMPLE_PERIOD,
                             world.sample_phase)
        cutter = Cutter(world.backup, world.pairs, self.CUT_PERIOD, 0)
        acked_before = len(world.main.history)
        backlog_before = world.group.entry_lag
        load_started = sim.now
        sim.spawn(sampler.run(sim), name="e2e-sampler")
        sim.spawn(cutter.run(sim), name="e2e-cutter")
        outcome = run_order_workload(
            sim, experiment.business.app,
            WorkloadConfig(client_count=self.CLIENTS,
                           duration=self.duration))
        load_sim_s = sim.now - load_started
        backlog_after = world.group.entry_lag
        sampler.stop()
        cutter.stop()
        acked = len(world.main.history) - acked_before
        promoted = fail_and_recover(experiment.system, experiment.business)
        report = promoted.report
        checks = [report.succeeded,
                  report.storage_report is not None
                  and report.storage_report.consistent,
                  report.business_report is not None
                  and report.business_report.consistent]
        final_versions = image_versions_from_volumes(
            {pvol_id: world.backup.get_volume(svol_id)
             for pvol_id, svol_id in world.pairs})
        return Seen(
            acked_writes=acked,
            # acked writes lost to asynchrony at the disaster are RPO,
            # not failures: they just do not count as delivered
            visible_writes=acked - report.lost_acked_writes,
            client_ops=len(outcome.results), failed_ops=0,
            op_latencies=[result.latency for result in outcome.results],
            load_sim_s=load_sim_s,
            keep_up_ratio=1.0 - backlog_after / (acked + backlog_before),
            recovery_sim_s=report.rto_seconds,
            sampler=sampler, cutter=cutter, final_versions=final_versions,
            counters={
                "apps.ecommerce.orders": outcome.accepted,
                "recovery.drained_entries": report.drained_entries,
                "recovery.lost_acked_writes": report.lost_acked_writes,
            },
            checks=len(checks), failed_checks=checks.count(False))

    def verify(self, world: World, seen: Seen) -> Tuple[int, int]:
        attempted, failed = _verify_cuts(world, seen)
        # the promoted image is a prefix cut (checked independently of
        # the failover's own report)
        report = check_storage_cut(world.main.history, seen.final_versions)
        attempted += 1
        if not report.consistent:
            failed += 1
        return attempted, failed


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

#: every fast path on (the configuration no test or campaign runs)
_ALL_ON = AdcConfig(
    transfer_window=8, adaptive_batch=True, apply_lanes=8,
    coalesce_overwrites=True, reduction=ReductionConfig(enabled=True),
    transfer_batch=512, restore_batch=4096, transfer_interval=0.001,
    restore_interval=0.001, interval_jitter=0.0)

#: the paper's stop-and-wait, ship-everything pipeline
_PAPER_BASELINE = AdcConfig(
    transfer_window=1, adaptive_batch=False, apply_lanes=1,
    coalesce_overwrites=False, interval_jitter=0.0)

_MIXED = ("compressible", "compressible", "duplicate", "random")
_MOSTLY_DUPLICATE = ("duplicate", "duplicate", "duplicate", "duplicate",
                     "random")

WORKLOADS = {
    "oltp_business": OltpBusiness(),
    "stream_all_on": StreamWorkload(StreamShape(
        adc=_ALL_ON, link_latency=0.005, link_bandwidth=200e6,
        writes=64_000, batch=64, clients=2, pace=0.0,
        blocks_per_volume=8_192, hot_share=0.2, hot_blocks=64,
        payload_mix=_MIXED, payload_bytes=1024,
        cut_period=0.002, cut_reads=0, sample_period=0.000097)),
    "stream_paper_baseline": StreamWorkload(StreamShape(
        adc=_PAPER_BASELINE, link_latency=0.005, link_bandwidth=200e6,
        writes=48_000, batch=8, clients=2, pace=0.0125,
        blocks_per_volume=8_192, hot_share=0.2, hot_blocks=64,
        payload_mix=_MIXED, payload_bytes=1024,
        cut_period=0.250, cut_reads=1, sample_period=0.0149)),
    "catchup_cuts": StreamWorkload(StreamShape(
        adc=_ALL_ON, link_latency=0.005, link_bandwidth=20e6,
        writes=8_000, batch=8, clients=1, pace=0.0005,
        blocks_per_volume=1_024, hot_share=0.0, hot_blocks=1,
        payload_mix=_MOSTLY_DUPLICATE, payload_bytes=2048,
        cut_period=0.005, cut_reads=2, sample_period=0.000197,
        prefill=96_000)),
}
