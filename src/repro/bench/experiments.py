"""The experiment runners behind every benchmark (E1-E8, D0).

Each ``run_*`` function executes one experiment end to end on fresh
simulators and returns ``(table, facts)``:

* ``table`` — the rows the paper's narrative predicts, printable;
* ``facts`` — the derived quantities the benchmark asserts the *shape*
  of (who wins, by roughly what factor, where behaviour flips).

See DESIGN.md §4 for the experiment-to-paper-claim map and
EXPERIMENTS.md for recorded results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import (BackgroundLoad, DatabaseImage, PayloadProfile,
                        WorkloadConfig, run_analytics, run_order_workload)
from repro.apps.minidb.device import ViewBlockDevice
from repro.bench.setups import (MODE_ADC_CG, MODE_ADC_NOCG, MODE_NONE,
                                MODE_SDC, ExperimentSystem,
                                build_array_pair, build_business_system,
                                business_journal_groups,
                                experiment_config)
from repro.bench.tables import Table
from repro.errors import CollapsedBackupError, RecoveryError, ReproError
from repro.recovery import check_business_invariants, fail_and_recover
from repro.recovery.checker import check_storage_cut
from repro.scenarios.builders import build_system
from repro.simulation.kernel import Simulator

Facts = Dict[str, object]


# ---------------------------------------------------------------------------
# E1 — ADC eliminates system slowdown (§I, §III-A1)
# ---------------------------------------------------------------------------


def _e1_cell(cell: Tuple[str, float, int, float, int],
             ) -> Dict[str, float]:
    """One E1 (mode, rtt) cell on a fresh simulator.

    Top-level and tuple-argumented so :class:`ParallelRunner` can ship
    it to a worker process; everything random derives from ``seed``.
    """
    mode, rtt_ms, seed, duration, clients = cell
    experiment = build_business_system(
        seed=seed, mode=mode, link_latency=rtt_ms / 2 / 1e3)
    result = run_order_workload(
        experiment.sim, experiment.business.app,
        WorkloadConfig(client_count=clients, duration=duration))
    # order latency read back from the telemetry registry (the
    # workload published it there); identical numbers to the
    # local recorder because the summary kind keeps raw samples
    registry = experiment.sim.telemetry.registry
    summary = registry.get(
        "repro_order_latency_seconds",
        workload="workload").summary().as_millis()
    writes = registry.get(
        "repro_host_write_seconds",
        array=experiment.system.main.array.serial).summary()
    return {
        "accepted": result.accepted,
        "throughput": result.throughput,
        "p50": summary.p50, "p99": summary.p99,
        "host_write_p50_ms": writes.p50 * 1e3,
        "host_write_p95_ms": writes.p95 * 1e3,
        "host_write_p99_ms": writes.p99 * 1e3,
        "host_writes": writes.count,
    }


def run_e1_slowdown(rtt_ms_values: Sequence[float] = (1.0, 5.0, 10.0, 25.0),
                    duration: float = 1.0, clients: int = 4,
                    seed: int = 100, jobs: int = 1) -> Tuple[Table, Facts]:
    """Order latency/throughput: no-backup vs SDC vs ADC across RTT.

    ``jobs`` shards the mode × RTT grid across worker processes; the
    merge is by cell key, so the table and facts are identical for any
    job count.
    """
    from repro.bench.parallel import ParallelRunner

    table = Table(
        title="E1: transaction latency vs inter-site RTT",
        columns=("mode", "rtt_ms", "orders", "throughput_per_s",
                 "p50_ms", "p99_ms"))
    cells = [(mode, rtt_ms, seed, duration, clients)
             for mode in (MODE_NONE, MODE_SDC, MODE_ADC_CG)
             for rtt_ms in rtt_ms_values]
    results = ParallelRunner(jobs).map(_e1_cell, cells)
    measured: Dict[Tuple[str, float], Dict[str, float]] = {}
    registry_facts: Dict[str, Dict[str, float]] = {}
    for (mode, rtt_ms, _seed, _dur, _cl), outcome in zip(cells, results):
        table.add_row(mode, rtt_ms, outcome["accepted"],
                      outcome["throughput"], outcome["p50"],
                      outcome["p99"])
        measured[(mode, rtt_ms)] = {
            "p50": outcome["p50"], "p99": outcome["p99"],
            "throughput": outcome["throughput"]}
        registry_facts[f"{mode}@{rtt_ms}ms"] = {
            "host_write_p50_ms": outcome["host_write_p50_ms"],
            "host_write_p95_ms": outcome["host_write_p95_ms"],
            "host_write_p99_ms": outcome["host_write_p99_ms"],
            "host_writes": outcome["host_writes"],
        }
    max_rtt = max(rtt_ms_values)
    adc_overhead = max(
        measured[(MODE_ADC_CG, rtt)]["p50"]
        / measured[(MODE_NONE, rtt)]["p50"]
        for rtt in rtt_ms_values)
    sdc_ratio_at_max = (measured[(MODE_SDC, max_rtt)]["p50"]
                        / measured[(MODE_ADC_CG, max_rtt)]["p50"])
    sdc_growth = (measured[(MODE_SDC, max_rtt)]["p50"]
                  / measured[(MODE_SDC, min(rtt_ms_values))]["p50"])
    adc_growth = (measured[(MODE_ADC_CG, max_rtt)]["p50"]
                  / measured[(MODE_ADC_CG, min(rtt_ms_values))]["p50"])
    facts: Facts = {
        "adc_overhead_vs_none": adc_overhead,
        "sdc_over_adc_at_max_rtt": sdc_ratio_at_max,
        "sdc_p50_growth_over_rtt": sdc_growth,
        "adc_p50_growth_over_rtt": adc_growth,
        "registry": registry_facts,
    }
    table.note(f"ADC worst-case p50 overhead vs no-backup: "
               f"{(adc_overhead - 1) * 100:.1f}%")
    table.note(f"SDC p50 / ADC p50 at RTT={max_rtt}ms: "
               f"{sdc_ratio_at_max:.1f}x")
    return table, facts


# ---------------------------------------------------------------------------
# E2 — ADC without a consistency group collapses backup data (§I)
# ---------------------------------------------------------------------------


def run_e2_collapse(seeds: Sequence[int] = tuple(range(1000, 1012)),
                    load_time: float = 0.35, clients: int = 6,
                    ) -> Tuple[Table, Facts]:
    """Disaster sweep: recoverability with vs without consistency group."""
    table = Table(
        title="E2: backup recoverability at random disaster instants",
        columns=("mode", "disasters", "recovered", "collapsed",
                 "collapse_rate", "avg_lost_orders"))
    facts: Facts = {}
    for mode in (MODE_ADC_NOCG, MODE_ADC_CG):
        collapsed = 0
        lost: List[int] = []
        for seed in seeds:
            experiment = build_business_system(
                seed=seed, mode=mode,
                adc_overrides=dict(transfer_interval=0.004,
                                   interval_jitter=0.6))
            sim = experiment.sim
            load = BackgroundLoad(sim, experiment.business.app,
                                  client_count=clients)
            sim.run(until=sim.now + load_time)
            committed = load.committed_gtids
            try:
                promoted = fail_and_recover(
                    experiment.system, experiment.business,
                    expected_committed=committed)
            except CollapsedBackupError:
                collapsed += 1
                continue
            lost.append(promoted.report.lost_committed_orders)
        rate = collapsed / len(seeds)
        avg_lost = sum(lost) / len(lost) if lost else float("nan")
        table.add_row(mode, len(seeds), len(seeds) - collapsed,
                      collapsed, rate, avg_lost)
        facts[f"{mode}_collapse_rate"] = rate
        facts[f"{mode}_avg_lost_orders"] = avg_lost
    table.note("collapse = no consistent recovery exists "
               "(mutual cross-database missing transactions)")
    return table, facts


# ---------------------------------------------------------------------------
# E3 — the namespace operator automates ADC configuration (§III-B, Figs 3-4)
# ---------------------------------------------------------------------------


def run_e3_operator(volume_counts: Sequence[int] = (2, 4, 8, 16),
                    seed: int = 300) -> Tuple[Table, Facts]:
    """User operations and configuration latency: NSO vs manual."""
    from repro.csi.crds import ConsistencyGroupReplication, STATE_PAIRED
    from repro.operator import (TAG_CONSISTENT, TAG_KEY,
                                install_namespace_operator)
    from repro.platform.resources import PersistentVolumeClaim
    from repro.scenarios.builders import DEFAULT_STORAGE_CLASS

    table = Table(
        title="E3: backup configuration effort vs namespace size",
        columns=("volumes", "nso_user_ops", "nso_seconds",
                 "manual_user_ops", "manual_seconds"))
    facts: Facts = {"nso_ops": [], "manual_ops": []}

    def create_claims(system, count):
        system.main.cluster.create_namespace("bench-ns")
        for index in range(count):
            pvc = PersistentVolumeClaim()
            pvc.meta.name = f"data-{index:02d}"
            pvc.meta.namespace = "bench-ns"
            pvc.spec.storage_class = DEFAULT_STORAGE_CLASS
            pvc.spec.capacity_blocks = 64
            system.main.api.create(pvc)
        system.sim.run(until=system.sim.now + 1.0)

    for count in volume_counts:
        # --- operator path: one tag ------------------------------------
        sim = Simulator(seed=seed)
        system = build_system(sim, experiment_config())
        install_namespace_operator(system.main.cluster)
        create_claims(system, count)
        ops_before = system.main.console.operation_count()
        started = sim.now
        system.main.console.tag_namespace("bench-ns", TAG_KEY,
                                          TAG_CONSISTENT)
        deadline = sim.now + 60.0
        while sim.now < deadline:
            sim.run(until=sim.now + 0.1)
            cr = system.main.api.try_get(ConsistencyGroupReplication,
                                         "nso-bench-ns", "bench-ns")
            if cr is not None and cr.status.state == STATE_PAIRED:
                break
        else:
            raise ReproError(f"E3: NSO never paired {count} volumes")
        nso_seconds = sim.now - started
        nso_ops = system.main.console.operation_count() - ops_before

        # --- manual path: per-volume storage administration -------------
        sim = Simulator(seed=seed + 1)
        system = build_system(sim, experiment_config())
        create_claims(system, count)
        console = system.main.console
        started = sim.now
        manual = _manual_adc_configuration(system, "bench-ns")
        sim.run_until_complete(sim.spawn(manual, name="manual-admin"))
        manual_seconds = sim.now - started
        manual_ops = console.operation_count("storage-array") + \
            console.operation_count("console")

        table.add_row(count, nso_ops, nso_seconds, manual_ops,
                      manual_seconds)
        facts["nso_ops"].append(nso_ops)
        facts["manual_ops"].append(manual_ops)
    table.note("manual path counts each storage-array command and PV "
               "lookup as one user operation; human think time excluded")
    return table, facts


def _manual_adc_configuration(system, namespace):
    """The administrator's manual procedure the NSO replaces.

    Looks up every claim's volume handle, creates journals, the journal
    group and one pair per volume — each step a console / array
    operation with management latency.
    """
    from repro.csi.storage_plugin import resolve_bound_volume
    sim = system.sim
    console = system.main.console
    latency = system.config.command_latency
    claims = console.list_claims(namespace)
    handles = []
    for claim in claims:
        pv = resolve_bound_volume(system.main.api, namespace,
                                  claim.meta.name)
        console.storage_array_command(
            f"lookup volume for PV {pv.meta.name}")
        yield sim.sleep(latency)
        handles.append(pv.spec.csi.volume_handle)
    console.storage_array_command("create journal (main)")
    yield sim.sleep(latency)
    main_journal = system.main.array.create_journal(system.main.pool_id)
    console.storage_array_command("create journal (backup)")
    yield sim.sleep(latency)
    backup_journal = system.backup.array.create_journal(
        system.backup.pool_id)
    console.storage_array_command("create consistency group")
    yield sim.sleep(latency)
    system.main.array.create_journal_group(
        "manual-cg", main_journal.journal_id, system.backup.array,
        backup_journal.journal_id, system.replication_link)
    for index, handle in enumerate(handles):
        pvol_id = system.main.array.parse_handle(handle)
        pvol = system.main.array.get_volume(pvol_id)
        console.storage_array_command(f"create secondary volume {index}")
        yield sim.sleep(latency)
        svol = system.backup.array.create_volume(
            system.backup.pool_id, pvol.capacity_blocks)
        console.storage_array_command(f"create pair {index}")
        yield sim.sleep(latency)
        system.main.array.create_async_pair(
            f"manual-{index}", "manual-cg", pvol_id, system.backup.array,
            svol.volume_id)
    # wait for all pairs to reach PAIR, polling status (also an op)
    while True:
        states = {system.main.array.pair_status(f"manual-{i}").value
                  for i in range(len(handles))}
        console.storage_array_command("query pair status")
        if states == {"PAIR"}:
            return
        yield sim.sleep(0.1)


# ---------------------------------------------------------------------------
# E4 — snapshot groups stay consistent under live restore (§III-A2, Fig 5)
# ---------------------------------------------------------------------------


def run_e4_snapshot(seeds: Sequence[int] = tuple(range(400, 406)),
                    load_time: float = 0.25,
                    ) -> Tuple[Table, Facts]:
    """Snapshot-group vs per-volume snapshots under replication load."""
    table = Table(
        title="E4: snapshot consistency under live restore",
        columns=("method", "attempts", "consistent", "consistency_rate",
                 "mean_create_ms"))
    facts: Facts = {}
    for method in ("snapshot-group", "per-volume"):
        consistent = 0
        create_times: List[float] = []
        for seed in seeds:
            experiment = build_business_system(
                seed=seed, mode=MODE_ADC_CG,
                adc_overrides=dict(transfer_interval=0.004,
                                   interval_jitter=0.5))
            sim = experiment.sim
            load = BackgroundLoad(sim, experiment.business.app,
                                  client_count=6)
            sim.run(until=sim.now + load_time)
            secondary = _secondary_ids(experiment)
            started = sim.now
            if method == "snapshot-group":
                group_proc = sim.spawn(
                    experiment.system.backup.array.create_snapshot_group(
                        f"e4-{seed}", [secondary[p] for p in
                                       sorted(secondary)]))
                group = sim.run_until_complete(group_proc)
                frozen = group.frozen_versions()
            else:
                # per-volume snapshots are separate console operations:
                # each costs one management-command latency, so the
                # members freeze at different restore points
                frozen = {}
                latency = experiment.system.config.command_latency

                def per_volume(sim):
                    for pvc in sorted(secondary):
                        snapshot = experiment.system.backup.array \
                            .create_snapshot(secondary[pvc])
                        frozen[secondary[pvc]] = \
                            snapshot.frozen_version_map()
                        yield sim.sleep(latency)

                sim.run_until_complete(sim.spawn(per_volume(sim)))
            create_times.append((sim.now - started) * 1e3)
            load.drain()
            image = {
                experiment.business.volume_ids[pvc]:
                    frozen.get(svol_id, {})
                for pvc, svol_id in secondary.items()}
            report = check_storage_cut(
                experiment.system.main.array.history, image)
            if report.consistent:
                consistent += 1
        rate = consistent / len(seeds)
        table.add_row(method, len(seeds), consistent, rate,
                      sum(create_times) / len(create_times))
        facts[f"{method}_rate"] = rate
    table.note("consistent = frozen images form a prefix of the main "
               "site's ack order across all four volumes")
    return table, facts


def _secondary_ids(experiment: ExperimentSystem) -> Dict[str, int]:
    from repro.recovery.failover import FailoverManager
    manager = FailoverManager(experiment.system,
                              experiment.business.namespace)
    return manager.discover_secondary_volumes()


# ---------------------------------------------------------------------------
# E5 — analytics on snapshots does not disturb the business (§IV-D, Fig 6)
# ---------------------------------------------------------------------------


def run_e5_analytics(seed: int = 500, window: float = 1.0,
                     repeats: int = 3) -> Tuple[Table, Facts]:
    """Main-site impact and result validity per analytics placement."""
    table = Table(
        title="E5: analytics placement vs business impact and validity",
        columns=("config", "orders_per_s", "repl_lag_ms", "runs",
                 "valid", "stable"))
    facts: Facts = {}
    for config_name in ("no-analytics", "on-snapshots", "on-live-mirror"):
        experiment = build_business_system(
            seed=seed, mode=MODE_ADC_CG,
            adc_overrides=dict(transfer_interval=0.004,
                               interval_jitter=0.4))
        sim = experiment.sim
        business = experiment.business
        load = BackgroundLoad(sim, business.app, client_count=4)
        sim.run(until=sim.now + 0.2)  # warm up
        orders_at_start = business.app.orders_accepted
        window_started = sim.now
        reports = []
        valid = 0
        if config_name != "no-analytics":
            secondary = _secondary_ids(experiment)
            group = None
            if config_name == "on-snapshots":
                group_proc = sim.spawn(
                    experiment.system.backup.array.create_snapshot_group(
                        "e5-group",
                        [secondary[p] for p in sorted(secondary)]))
                group = sim.run_until_complete(group_proc)
            for repeat in range(repeats):
                try:
                    report, business_ok = _run_backup_analytics(
                        experiment, secondary, group,
                        tag=f"{config_name}-{repeat}")
                except (RecoveryError, CollapsedBackupError):
                    reports.append(None)
                    continue
                reports.append(report)
                if business_ok:
                    valid += 1
            if group is not None:
                group.delete()
        remaining = window - (sim.now - window_started)
        if remaining > 0:
            sim.run(until=sim.now + remaining)
        throughput = (business.app.orders_accepted - orders_at_start) \
            / (sim.now - window_started)
        groups = business_journal_groups(experiment)
        lag_ms = sum(g.lag_seconds.mean() for g in groups) \
            / len(groups) * 1e3
        load.drain()
        counts = [r.order_count for r in reports if r is not None]
        stable = len(set(counts)) <= 1
        runs = repeats if config_name != "no-analytics" else 0
        table.add_row(config_name, throughput, lag_ms, runs,
                      valid, stable if runs else "-")
        facts[f"{config_name}_throughput"] = throughput
        facts[f"{config_name}_lag_ms"] = lag_ms
        if runs:
            facts[f"{config_name}_valid"] = valid
            facts[f"{config_name}_stable"] = stable
    table.note("valid = recovered analytics state satisfies the business "
               "invariants; stable = repeated runs see the same orders")
    return table, facts


def _run_backup_analytics(experiment: ExperimentSystem,
                          secondary: Dict[str, int],
                          group, tag: str):
    """One analytics job at the backup site; returns (report, valid).

    ``group`` is the snapshot group to read from, or ``None`` to read
    the live mirror volumes directly.
    """
    sim = experiment.sim
    backup_array = experiment.system.backup.array
    if group is not None:
        views = group.by_base_volume()

        def device(pvc):
            return ViewBlockDevice(views[secondary[pvc]].view())
    else:
        def device(pvc):
            return ViewBlockDevice(
                backup_array.get_volume(secondary[pvc]))

    bucket_count = experiment.business.config.bucket_count
    sales_image = DatabaseImage(wal_device=device("sales-wal"),
                                data_device=device("sales-data"),
                                bucket_count=bucket_count)
    stock_image = DatabaseImage(wal_device=device("stock-wal"),
                                data_device=device("stock-data"),
                                bucket_count=bucket_count)
    report = sim.run_until_complete(sim.spawn(
        run_analytics(sim, sales_image, stock_image), name=f"e5-{tag}"))
    # validity: rebuild the business state and check the invariants
    from repro.apps.analytics import recover_business_images
    from repro.apps.ecommerce import decode_business_state
    sales_rec, stock_rec = sim.run_until_complete(sim.spawn(
        recover_business_images(sim, sales_image, stock_image)))
    business_state = decode_business_state(sales_rec.state,
                                           stock_rec.state)
    check = check_business_invariants(
        business_state, list(experiment.business.app.catalog.values()))
    return report, check.consistent


# ---------------------------------------------------------------------------
# E6 — downtime elimination: RPO/RTO per mode (§I, §V)
# ---------------------------------------------------------------------------


def run_e6_downtime(seeds: Sequence[int] = tuple(range(1000, 1006)),
                    load_time: float = 0.3) -> Tuple[Table, Facts]:
    """Recovery success, data loss and recovery time per backup mode."""
    table = Table(
        title="E6: disaster recovery per backup mode",
        columns=("mode", "disasters", "recovered", "mean_lost_orders",
                 "max_lost_orders", "mean_rpo_ms", "mean_rto_ms"))
    facts: Facts = {}
    for mode in (MODE_SDC, MODE_ADC_CG, MODE_ADC_NOCG):
        lost: List[int] = []
        rpos: List[float] = []
        rtos: List[float] = []
        recovered = 0
        for seed in seeds:
            experiment = build_business_system(
                seed=seed, mode=mode,
                adc_overrides=dict(transfer_interval=0.004,
                                   interval_jitter=0.6))
            sim = experiment.sim
            load = BackgroundLoad(sim, experiment.business.app,
                                  client_count=6)
            sim.run(until=sim.now + load_time)
            committed = load.committed_gtids
            try:
                promoted = fail_and_recover(
                    experiment.system, experiment.business,
                    expected_committed=committed)
            except CollapsedBackupError:
                continue
            recovered += 1
            lost.append(promoted.report.lost_committed_orders)
            rtos.append(promoted.report.rto_seconds * 1e3)
            if promoted.report.rpo_seconds >= 0:
                rpos.append(promoted.report.rpo_seconds * 1e3)
        mean_lost = sum(lost) / len(lost) if lost else float("nan")
        max_lost = max(lost) if lost else -1
        mean_rpo = sum(rpos) / len(rpos) if rpos else float("nan")
        mean_rto = sum(rtos) / len(rtos) if rtos else float("nan")
        table.add_row(mode, len(seeds), recovered, mean_lost, max_lost,
                      mean_rpo, mean_rto)
        facts[f"{mode}_recovered"] = recovered
        facts[f"{mode}_mean_lost"] = mean_lost
        facts[f"{mode}_max_lost"] = max_lost
        facts[f"{mode}_mean_rto_ms"] = mean_rto
        facts[f"{mode}_disasters"] = len(seeds)
    table.note("SDC: zero loss but E1's latency cost; ADC+CG: bounded "
               "loss, always recoverable; ADC without CG: may collapse")
    return table, facts


# ---------------------------------------------------------------------------
# E7 — journal transfer interval ablation (§III-A1)
# ---------------------------------------------------------------------------


def _coalesce_hotspot(cell: Tuple[float, int, int, int, bool, bool,
                                  Optional[PayloadProfile]],
                      ) -> Dict[str, float]:
    """One hotspot run for the E7 coalescing / reduction ablations.

    A block-level hotspot (round-robin overwrites of ``hot_blocks``
    blocks) drained through one ADC pair.  The order workload cannot
    exercise coalescing — minidb is log-structured, every put lands in
    a fresh block — so the ablation drives the overwrite pattern the
    optimisation targets directly at the array, the way a page-update
    OLTP volume would.  The cell is ``(interval_ms, seed, writes,
    hot_blocks, coalesce, reduced, profile)``, top-level and
    tuple-argumented for :class:`ParallelRunner`: ``coalesce`` and
    ``reduced`` switch transfer-side coalescing and the wire
    data-reduction engine on, ``profile`` shapes the payload stream
    (``None``: the tiny all-distinct ``page-NNNNNN`` tag).  Returns
    wire-side counters after a full drain — ``wire_bytes`` is what the
    link physically carried, ``transferred_bytes`` the logical
    pre-reduction volume.
    """
    from repro.storage import AdcConfig
    from repro.storage.reduction import ReductionConfig

    interval_ms, seed, writes, hot_blocks, coalesce, reduced, profile = cell
    adc = AdcConfig(transfer_interval=interval_ms / 1e3,
                    transfer_batch=1024, restore_interval=interval_ms / 1e3,
                    restore_batch=1024, interval_jitter=0.0,
                    coalesce_overwrites=coalesce,
                    reduction=ReductionConfig(enabled=reduced))
    world = build_array_pair(seed, adc, "e7-hotspot", journal_entries=50_000,
                             link_latency=0.005)
    sim, main, link, group = world.sim, world.main, world.link, world.group
    pvol, svol = world.pvols[0], world.svols[0]

    payload_fn = profile.payload if profile else (
        lambda i: b"page-%06d" % i)

    def hotspot(sim):
        for i in range(writes):
            yield from main.host_write(
                pvol.volume_id, i % hot_blocks, payload_fn(i))

    sim.run_until_complete(sim.spawn(hotspot(sim), name="hotspot"))
    deadline = sim.now + 30.0
    while group.entry_lag and sim.now < deadline:
        sim.run(until=sim.now + 0.05)
    mismatched = sum(
        1 for block in range(hot_blocks)
        if (pvol.peek(block) is None) != (svol.peek(block) is None)
        or (pvol.peek(block) is not None
            and pvol.peek(block).payload != svol.peek(block).payload))
    return {
        "transferred_entries": group.transferred_count.value,
        "transferred_bytes": group.transfer_bytes.value,
        "wire_bytes": link.bytes_transferred,
        "coalesced_entries": group.coalesced_count.value,
        "mismatched_blocks": mismatched,
    }


def _e7_cell(cell: Tuple[float, int, float]) -> Dict[str, float]:
    """One E7 (interval, seed) cell: load, disaster, registry readouts.

    Top-level and tuple-argumented for :class:`ParallelRunner`.
    """
    interval_ms, seed, load_time = cell
    experiment = build_business_system(
        seed=seed, mode=MODE_ADC_CG,
        adc_overrides=dict(transfer_interval=interval_ms / 1e3,
                           interval_jitter=0.3))
    sim = experiment.sim
    load = BackgroundLoad(sim, experiment.business.app, client_count=6)
    sim.run(until=sim.now + load_time)
    committed = load.committed_gtids
    groups = business_journal_groups(experiment)
    promoted = fail_and_recover(
        experiment.system, experiment.business,
        expected_committed=committed)
    # journal-side observables come from the telemetry registry
    # (the gauges/counters the transfer loop maintains), not from
    # reaching into the journal internals
    return {
        "throughput": len(committed) / load_time,
        "lost": promoted.report.lost_committed_orders,
        "peak": max(
            int(g.peak_entries_gauge.value)
            if g.peak_entries_gauge.points else 0 for g in groups),
        "entry_lags": [g.lag_entries.maximum() for g in groups
                       if g.lag_entries.points],
        "batches": sum(g.transfer_batches.value for g in groups),
        "wire_bytes": sum(g.transfer_bytes.value for g in groups),
    }


def run_e7_journal(intervals_ms: Sequence[float] = (1.0, 5.0, 20.0, 50.0),
                   seeds: Sequence[int] = (700, 701, 702),
                   load_time: float = 0.3, jobs: int = 1,
                   ) -> Tuple[Table, Facts]:
    """RPO vs foreground throughput as the transfer interval grows,
    plus a hotspot ablation of transfer-side write coalescing.

    ``jobs`` shards the interval × seed grid (and the four ablation
    runs) across worker processes; the merge is by cell key, so the
    table and facts are identical for any job count.
    """
    from repro.bench.parallel import ParallelRunner

    table = Table(
        title="E7: journal transfer interval trade-off (ADC+CG)",
        columns=("interval_ms", "orders_per_s", "mean_lost_orders",
                 "peak_journal_entries", "transferred_kb"))
    throughputs: List[float] = []
    mean_losses: List[float] = []
    transferred_bytes: List[float] = []
    registry_facts: Dict[str, Dict[str, float]] = {}
    runner = ParallelRunner(jobs)
    cells = [(interval_ms, seed, load_time)
             for interval_ms in intervals_ms for seed in seeds]
    outcomes = runner.map(_e7_cell, cells)
    per_interval = {
        interval_ms: outcomes[i * len(seeds):(i + 1) * len(seeds)]
        for i, interval_ms in enumerate(intervals_ms)}
    for interval_ms in intervals_ms:
        rows = per_interval[interval_ms]
        tputs = [r["throughput"] for r in rows]
        lost = [r["lost"] for r in rows]
        peaks = [r["peak"] for r in rows]
        entry_lags = [lag for r in rows for lag in r["entry_lags"]]
        batches = sum(r["batches"] for r in rows)
        wire_bytes = [r["wire_bytes"] for r in rows]
        throughput = sum(tputs) / len(tputs)
        mean_lost = sum(lost) / len(lost)
        mean_wire = sum(wire_bytes) / len(wire_bytes)
        table.add_row(interval_ms, throughput, mean_lost,
                      max(peaks), mean_wire / 1024)
        throughputs.append(throughput)
        mean_losses.append(mean_lost)
        transferred_bytes.append(mean_wire)
        registry_facts[f"{interval_ms}ms"] = {
            "max_entry_lag": max(entry_lags) if entry_lags else 0.0,
            "transfer_batches": batches,
            "peak_journal_entries": max(peaks),
            "transferred_bytes": mean_wire,
        }
    # -- two ablations on a block-overwrite hotspot at the largest
    #    (batch-building) interval.  Coalescing: drained with and
    #    without coalesce_overwrites; the win is wire entries/bytes that
    #    never ship.  Wire data reduction: the same hotspot fed a
    #    duplicate-heavy payload profile (1 KiB pages cycling a pool of
    #    16 distinct contents), drained with the reduction engine off
    #    and on; the transferred_kb column then shows the bytes the link
    #    physically carried (logical vs post-reduction)
    ablation_interval = max(intervals_ms)
    hotspot = (ablation_interval, min(seeds), 2_000, 16)
    duplicates = PayloadProfile(kind="duplicate", size_bytes=1024,
                                seed=min(seeds), unique_payloads=16)
    plain, coalesced, verbatim, reduced = runner.map(_coalesce_hotspot, [
        (*hotspot, False, False, None), (*hotspot, True, False, None),
        (*hotspot, False, False, duplicates),
        (*hotspot, False, True, duplicates)])
    for label, run_counters in (("hotspot", plain),
                                ("hotspot+coalesce", coalesced)):
        table.add_row(f"{ablation_interval:g} ({label})", 0.0, 0.0,
                      int(run_counters["transferred_entries"]),
                      run_counters["transferred_bytes"] / 1024)
    for label, run_counters in (("duplicate", verbatim),
                                ("duplicate+reduction", reduced)):
        table.add_row(f"{ablation_interval:g} ({label})", 0.0, 0.0,
                      int(run_counters["transferred_entries"]),
                      run_counters["wire_bytes"] / 1024)
    facts: Facts = {
        "throughputs": throughputs,
        "mean_losses": mean_losses,
        "loss_grows": mean_losses[-1] > mean_losses[0],
        "throughput_spread": max(throughputs) / min(throughputs),
        "transferred_bytes": transferred_bytes,
        "coalesce": {
            "interval_ms": ablation_interval,
            "bytes_plain": plain["transferred_bytes"],
            "bytes_coalesced": coalesced["transferred_bytes"],
            "entries_plain": plain["transferred_entries"],
            "entries_coalesced_away": coalesced["coalesced_entries"],
            "bytes_saved_ratio": 1.0 - (
                coalesced["transferred_bytes"]
                / plain["transferred_bytes"]) if plain["transferred_bytes"]
            else 0.0,
            "images_match": plain["mismatched_blocks"] == 0
            and coalesced["mismatched_blocks"] == 0,
        },
        "reduction": {
            "interval_ms": ablation_interval,
            "bytes_logical": reduced["transferred_bytes"],
            "bytes_wire": reduced["wire_bytes"],
            "bytes_plain_wire": verbatim["wire_bytes"],
            "bytes_saved_ratio": 1.0 - (
                reduced["wire_bytes"] / verbatim["wire_bytes"])
            if verbatim["wire_bytes"] else 0.0,
            "images_match": verbatim["mismatched_blocks"] == 0
            and reduced["mismatched_blocks"] == 0,
        },
        "registry": registry_facts,
    }
    table.note("foreground throughput stays flat (async ack path); data "
               "loss at disaster grows with the transfer interval")
    table.note("hotspot rows: 2,000 round-robin overwrites of 16 blocks; "
               "peak_journal_entries column holds entries shipped; "
               "coalesce_overwrites collapses superseded overwrites "
               "before they cross the wire")
    table.note("duplicate rows: the same hotspot with 1 KiB payloads "
               "cycling 16 distinct contents; transferred_kb is wire "
               "bytes — fingerprint dedup + compression ship repeats "
               "as references")
    return table, facts


# ---------------------------------------------------------------------------
# E8 — consistency-group size scaling (§III-A1)
# ---------------------------------------------------------------------------


def run_e8_cg_scale(volume_counts: Sequence[int] = (2, 4, 8, 16),
                    duration: float = 0.5, write_interval: float = 0.002,
                    seed: int = 800) -> Tuple[Table, Facts]:
    """One shared journal vs independent journals as group size grows."""
    table = Table(
        title="E8: consistency-group size scaling",
        columns=("layout", "volumes", "writes", "write_p99_ms",
                 "mean_lag_entries", "catchup_ms"))
    facts: Facts = {"cg_p99": [], "independent_p99": [],
                    "cg_parallel_lag": [], "cg_serial_lag": []}
    layouts = (("consistency-group", 1),
               ("cg-parallel-restore", 8),
               ("independent", 1))
    for layout, apply_lanes in layouts:
        for count in volume_counts:
            p99_ms, lag, catchup_ms, writes = _run_cg_scale_cell(
                layout, count, duration, write_interval,
                seed + count, apply_lanes)
            table.add_row(layout, count, writes, p99_ms, lag, catchup_ms)
            if layout == "consistency-group":
                facts["cg_p99"].append(p99_ms)
                facts["cg_serial_lag"].append(lag)
            elif layout == "cg-parallel-restore":
                facts["cg_parallel_lag"].append(lag)
            else:
                facts["independent_p99"].append(p99_ms)
    table.note("shared journal: one global order; independent journals: "
               "per-volume order only (E2 shows the consequence)")
    table.note("cg-parallel-restore: the shared journal applied one "
               "restore batch per window (apply_lanes > 1), media writes "
               "overlapped — consistency at window boundaries, restore "
               "throughput of the independent layout")
    return table, facts


def _run_cg_scale_cell(layout: str, count: int, duration: float,
                       write_interval: float, seed: int,
                       apply_lanes: int = 1):
    from repro.storage.adc import AdcConfig
    adc = AdcConfig(transfer_interval=0.002, transfer_batch=4096,
                    restore_interval=0.001, restore_batch=4096,
                    interval_jitter=0.3, apply_lanes=apply_lanes)
    # the independent layout is one journal group ("jg-N") per pair
    independent = layout not in ("consistency-group", "cg-parallel-restore")
    world = build_array_pair(seed, adc, "jg" if independent else "cg",
                             volumes=count, link_latency=0.0025,
                             independent=independent)
    sim, main, pvols, groups = (world.sim, world.main, world.pvols,
                                world.groups)
    deadline = sim.now + duration

    def writer(sim, pvol, index):
        block = 0
        stream = f"e8.{layout}.{index}"
        while sim.now < deadline:
            yield from main.host_write(pvol.volume_id, block % 4096,
                                       b"x" * 128)
            block += 1
            yield sim.sleep(sim.rng.jitter(stream, write_interval, 0.5))

    for index, pvol in enumerate(pvols):
        sim.spawn(writer(sim, pvol, index), name=f"e8-writer-{index}")
    sim.run(until=deadline)
    writes = main.host_writes.value
    p99_ms = main.write_latency.summary().p99 * 1e3
    lags = [g.lag_entries.mean() for g in groups if g.lag_entries.points]
    mean_lag = sum(lags) / len(lags) if lags else 0.0
    catchup_start = sim.now
    while any(g.entry_lag for g in groups):
        sim.run(until=sim.now + 0.01)
    catchup_ms = (sim.now - catchup_start) * 1e3
    return p99_ms, mean_lag, catchup_ms, writes


# ---------------------------------------------------------------------------
# D0 — the full demonstration (§IV, Figs 2-6)
# ---------------------------------------------------------------------------


def run_d0_demo(seed: int = 2025) -> Tuple[Table, Facts]:
    """The scripted three-step demonstration, summarised as a table."""
    from repro.scenarios import run_demo
    from repro.scenarios.builders import SystemConfig
    from repro.scenarios.business import BusinessConfig
    from repro.storage.adc import AdcConfig
    from repro.storage.array import ArrayConfig
    adc = AdcConfig(transfer_interval=0.002, transfer_batch=2048,
                    restore_interval=0.001, restore_batch=2048,
                    interval_jitter=0.25)
    environment = run_demo(
        seed=seed,
        system_config=SystemConfig(link_latency=0.0025,
                                   array=ArrayConfig(adc=adc),
                                   command_latency=0.010),
        business_config=BusinessConfig(wal_blocks=40_000),
        analytics_delay=0.3)
    result = environment.result
    table = Table(
        title="D0: the three-step demonstration (Figs 2-6)",
        columns=("step", "observable", "value"))
    table.add_row("backup configuration", "backup PVs before tag",
                  len(result.backup_pvs_before))
    table.add_row("backup configuration", "backup PVs after tag",
                  len(result.backup_pvs_after))
    table.add_row("backup configuration", "namespace state",
                  result.namespace_state)
    table.add_row("backup configuration", "config latency (ms)",
                  result.configuration_seconds * 1e3)
    table.add_row("snapshot development", "snapshot cut consistent",
                  result.snapshot_cut.consistent)
    table.add_row("data analytics", "orders in report",
                  result.analytics.order_count)
    table.add_row("data analytics", "revenue in report",
                  result.analytics.total_revenue)
    table.add_row("zero downtime", "orders during demo",
                  result.orders_during_demo)
    table.add_row("zero downtime", "orders after analytics",
                  result.orders_after_analytics)
    facts: Facts = {
        "pvs_before": len(result.backup_pvs_before),
        "pvs_after": len(result.backup_pvs_after),
        "namespace_state": result.namespace_state,
        "snapshot_consistent": result.snapshot_cut.consistent,
        "analytics_orders": result.analytics.order_count,
        "orders_after_analytics": result.orders_after_analytics,
    }
    return table, facts
