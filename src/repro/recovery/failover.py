"""Failover: promoting the backup site after a main-site disaster.

:class:`FailoverManager` performs the recovery the paper's DR design
enables (§I, §III-A1), using **only backup-site state** — the backup
cluster's API objects and the backup array — because the main site is
gone:

1. discover the business process's secondary volumes through the
   backup-site PVs the replication plugin registered;
2. stop the restore pipelines and **drain** the backup journals (data
   already at the backup site is never thrown away);
3. promote the secondary volumes (SSWS — host-writable);
4. recover the databases: coordinator first, then participants with the
   coordinator's 2PC decisions (presumed abort);
5. verify the business invariants; a collapsed image raises
   :class:`~repro.errors.CollapsedBackupError` — the §I failure this
   reproduction exists to demonstrate;
6. reopen the databases and the application at the backup site.

The returned :class:`FailoverReport` carries RTO (simulated seconds from
disaster to a serving application) and RPO measurements (storage writes
and committed orders lost).  RPO is measured against ground truth the
*experimenter* holds (the main array's history, the main app's committed
gtids) — the failover itself never touches main-site state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set

from repro.errors import CollapsedBackupError, FailoverError
from repro.apps.analytics import DatabaseImage, recover_business_images
from repro.apps.ecommerce import (CatalogItem, EcommerceApp,
                                  decode_business_state)
from repro.apps.minidb.device import ArrayBlockDevice
from repro.apps.minidb.recovery import reopen_database
from repro.csi.replication_plugin import SECONDARY_PV_LABEL
from repro.platform.resources import PersistentVolume
from repro.recovery.checker import (BusinessCheckReport, StorageCutReport,
                                    check_business_invariants,
                                    check_storage_cut,
                                    image_versions_from_volumes)
from repro.recovery.runbook import Runbook, RunbookJournal
from repro.scenarios.builders import TwoSiteSystem
from repro.scenarios.business import PVC_LAYOUT, BusinessProcess
from repro.storage.adc import JournalGroup


@dataclass
class FailoverReport:
    """Everything measured during one failover."""

    started_at: float
    completed_at: float = 0.0
    #: journal entries applied during the drain step
    drained_entries: int = 0
    #: storage-level prefix check over the promoted volumes
    storage_report: Optional[StorageCutReport] = None
    #: business-level invariant check after recovery
    business_report: Optional[BusinessCheckReport] = None
    #: acked-but-lost host writes (storage RPO), vs ground truth
    lost_acked_writes: int = -1
    #: age of the newest recovered write at disaster time (RPO seconds);
    #: 0.0 when nothing acked was lost, -1.0 when not measured
    rpo_seconds: float = -1.0
    #: committed orders missing after recovery (business RPO)
    lost_committed_orders: int = -1
    #: gtids of the lost orders
    lost_gtids: List[str] = field(default_factory=list)
    succeeded: bool = False
    failure_reason: str = ""
    #: per-step wall-clock accounting from the runbook checkpoints; a
    #: resumed failover reports the same durations as an uninterrupted
    #: one because completed steps carry their persisted timing
    step_durations: Dict[str, float] = field(default_factory=dict)
    #: True when this report came from a resumed (crashed) runbook
    resumed: bool = False

    @property
    def rto_seconds(self) -> float:
        """Disaster-to-serving time in simulated seconds."""
        return self.completed_at - self.started_at


@dataclass
class PromotedBusiness:
    """The recovered application serving at the backup site."""

    app: EcommerceApp
    report: FailoverReport


class FailoverManager:
    """Drives backup-site promotion for the demonstration's business
    process."""

    def __init__(self, system: TwoSiteSystem,
                 business_namespace: str = "order-processing",
                 journal: Optional[RunbookJournal] = None,
                 crash_after: Optional[str] = None) -> None:
        """``journal`` is the durable checkpoint store; pass the same
        journal to a new manager to resume a crashed failover.
        ``crash_after`` kills the runbook right after the named step's
        checkpoint (test hook for the resume-equivalence invariant)."""
        self.system = system
        self.business_namespace = business_namespace
        self.journal = journal if journal is not None else RunbookJournal()
        self.crash_after = crash_after

    # -- discovery (backup-site state only) --------------------------------

    def discover_secondary_volumes(self) -> Dict[str, int]:
        """pvc name -> backup-array volume id, from backup-site PVs."""
        backup = self.system.backup
        mapping: Dict[str, int] = {}
        for pv in backup.api.list(PersistentVolume):
            if SECONDARY_PV_LABEL not in pv.meta.labels:
                continue
            namespace, _dot, _cr = pv.meta.labels[
                SECONDARY_PV_LABEL].partition(".")
            if namespace != self.business_namespace:
                continue
            pvc_name = pv.meta.labels.get("replication.hitachi.com/pvc")
            if pvc_name:
                mapping[pvc_name] = backup.array.parse_handle(
                    pv.spec.csi.volume_handle)
        return mapping

    def _involved_groups(self, svol_ids: Sequence[int],
                         ) -> List[JournalGroup]:
        groups: List[JournalGroup] = []
        seen: Set[str] = set()
        registry = self.system.backup.array._restore_group_by_svol
        for svol_id in svol_ids:
            group = registry.get(svol_id)
            if group is not None and group.group_id not in seen:
                seen.add(group.group_id)
                groups.append(group)
        return groups

    # -- the failover procedure ------------------------------------------------

    def execute(self, catalog: Sequence[CatalogItem],
                expected_history=None,
                expected_committed_gtids: Optional[Sequence[str]] = None,
                pvol_ids: Optional[Dict[str, int]] = None,
                ) -> Generator[object, object, PromotedBusiness]:
        """Promote the backup site (process generator).

        ``catalog`` is the business catalog (needed for invariant checks
        and to resume the app).  ``expected_history`` /
        ``expected_committed_gtids`` / ``pvol_ids`` are *measurement*
        ground truth (main-array history, main app's committed orders,
        pvc→primary-volume map); recovery itself never reads them.
        Raises :class:`CollapsedBackupError` when the backup image
        admits no consistent recovery.

        The procedure is a crash-restartable runbook: every
        side-effecting step is checkpointed to the manager's journal, so
        a manager that dies mid-failover can be replaced by a new one
        holding the same journal — it resumes after the last completed
        step, never re-driving the drain or the promotion.  Read-only
        steps (measurement, database recovery and its 2PC resolution —
        pure reads of the coordinator image — verification, reopen) are
        volatile: they re-run on resume with identical results.
        """
        sim = self.system.sim
        runbook = Runbook(sim, f"failover/{self.business_namespace}",
                          journal=self.journal,
                          crash_after=self.crash_after)
        report = FailoverReport(started_at=runbook.started_at)
        report.resumed = runbook.resumed
        tracer = sim.telemetry.tracer
        recorder = sim.telemetry.recorder
        span = tracer.start("failover", namespace=self.business_namespace)
        recorder.record("failover", self.business_namespace,
                        step="start", incarnation=runbook.state.incarnation)
        secondary: Dict[str, int] = yield from runbook.step(
            "discover", self.discover_secondary_volumes)
        missing = [pvc for pvc in PVC_LAYOUT if pvc not in secondary]
        if missing:
            raise FailoverError(
                f"backup site has no secondary PVs for {missing}; was "
                "the namespace protected?")
        backup_array = self.system.backup.array
        groups = self._involved_groups(list(secondary.values()))

        # 2. stop restore, drain what already arrived
        def stop_step():
            for group in groups:
                group.stop()
            yield sim.sleep(0.010)  # let in-flight applies finish

        yield from runbook.step("stop", stop_step)

        def drain_step():
            total = 0
            for group in groups:
                drained = yield from group.drain()
                total += drained
            return total

        report.drained_entries = yield from runbook.step("drain",
                                                         drain_step)
        recorder.record("failover", self.business_namespace,
                        step="drained", entries=report.drained_entries)

        # 3. promote
        def promote_step():
            for svol_id in secondary.values():
                backup_array.promote_secondary(svol_id)
            return len(secondary)

        promoted = yield from runbook.step("promote", promote_step)
        recorder.record("failover", self.business_namespace,
                        step="promoted", volumes=promoted)

        # measurement: storage-level cut check + RPO (read-only)
        def measure_step():
            if expected_history is None or pvol_ids is None:
                return
            pair_map = {pvol_ids[pvc]: backup_array.get_volume(svol_id)
                        for pvc, svol_id in secondary.items()}
            image = image_versions_from_volumes(pair_map)
            report.storage_report = check_storage_cut(expected_history,
                                                      image)
            report.lost_acked_writes = \
                report.storage_report.missing_count
            if report.lost_acked_writes == 0:
                report.rpo_seconds = 0.0
            elif report.storage_report.prefix_seq >= 0:
                newest = expected_history.records[
                    report.storage_report.prefix_seq]
                report.rpo_seconds = max(
                    0.0, report.started_at - newest.time)

        yield from runbook.step("measure", measure_step, volatile=True)

        # 4. recover the databases from the promoted volumes
        def device(pvc_name: str) -> ArrayBlockDevice:
            return ArrayBlockDevice(backup_array, secondary[pvc_name])

        bucket_count = self._bucket_count()
        sales_image = DatabaseImage(wal_device=device("sales-wal"),
                                    data_device=device("sales-data"),
                                    bucket_count=bucket_count)
        stock_image = DatabaseImage(wal_device=device("stock-wal"),
                                    data_device=device("stock-data"),
                                    bucket_count=bucket_count)
        sales_recovered, stock_recovered = yield from runbook.step(
            "recover",
            lambda: recover_business_images(sim, sales_image, stock_image),
            volatile=True)

        # 5. verify business invariants
        def verify_step():
            business = decode_business_state(sales_recovered.state,
                                             stock_recovered.state)
            report.business_report = check_business_invariants(business,
                                                               catalog)
            if expected_committed_gtids is not None:
                recovered_gtids = set(business.orders)
                lost = [gtid for gtid in expected_committed_gtids
                        if gtid not in recovered_gtids]
                report.lost_committed_orders = len(lost)
                report.lost_gtids = lost

        yield from runbook.step("verify", verify_step, volatile=True)
        if not report.business_report.consistent:
            report.failure_reason = str(report.business_report)
            report.completed_at = sim.now
            report.step_durations = runbook.step_durations()
            self._record_outcome(report, span, collapsed=True)
            raise CollapsedBackupError(
                "backup image is not recoverable: "
                f"{report.business_report}", )

        # 6. reopen databases and the application
        def reopen_step():
            sales_db = reopen_database(
                sim, "sales", sales_image.wal_device,
                sales_image.data_device, bucket_count, sales_recovered)
            stock_db = reopen_database(
                sim, "stock", stock_image.wal_device,
                stock_image.data_device, bucket_count, stock_recovered)
            # a fresh gtid epoch: the promoted incarnation must never
            # reuse a pre-disaster global transaction id
            return EcommerceApp(sales_db, stock_db, catalog, epoch="bkup")

        app = yield from runbook.step("reopen", reopen_step, volatile=True)
        report.completed_at = sim.now
        report.succeeded = True
        report.step_durations = runbook.step_durations()
        self._record_outcome(report, span, collapsed=False)
        return PromotedBusiness(app=app, report=report)

    def _record_outcome(self, report: FailoverReport, span,
                        collapsed: bool) -> None:
        """Publish the failover outcome into the telemetry registry."""
        sim = self.system.sim
        registry = sim.telemetry.registry
        outcome = "collapsed" if collapsed else "recovered"
        registry.counter(
            "repro_failovers_total",
            help="Failover attempts by outcome", outcome=outcome,
        ).increment()
        registry.gauge(
            "repro_failover_rto_seconds",
            help="Disaster-to-serving time of the last failover",
            unit="seconds", namespace=self.business_namespace,
        ).sample(sim.now, report.rto_seconds)
        if report.rpo_seconds >= 0:
            registry.gauge(
                "repro_failover_rpo_seconds",
                help="Age of the newest recovered write at disaster time",
                unit="seconds", namespace=self.business_namespace,
            ).sample(sim.now, report.rpo_seconds)
        sim.telemetry.tracer.finish(
            span, status="error" if collapsed else "ok",
            drained_entries=report.drained_entries,
            rto_seconds=report.rto_seconds,
            rpo_seconds=report.rpo_seconds,
            lost_acked_writes=report.lost_acked_writes)
        recorder = sim.telemetry.recorder
        recorder.record(
            "failover", self.business_namespace, step=outcome,
            rto_seconds=round(report.rto_seconds, 6),
            drained_entries=report.drained_entries)
        # a failover is always snapshot-worthy: freeze the black box
        recorder.snapshot(f"failover-{outcome}")

    def _bucket_count(self) -> int:
        """Bucket count of the business databases.

        Stored in the deployed layout; the default matches
        :class:`repro.scenarios.business.BusinessConfig`.
        """
        return self._configured_bucket_count

    #: overridable without subclassing (set from the business config)
    _configured_bucket_count: int = 32

    def configure_buckets(self, bucket_count: int) -> None:
        """Set the bucket count used when reopening the databases."""
        self._configured_bucket_count = bucket_count


def fail_and_recover(system: TwoSiteSystem, business: BusinessProcess,
                     expected_committed: Optional[Sequence[str]] = None,
                     ) -> PromotedBusiness:
    """Convenience: inject the disaster and run the failover to completion.

    Raises :class:`CollapsedBackupError` when the backup collapsed.
    """
    history = system.main.array.history
    committed = (list(expected_committed)
                 if expected_committed is not None
                 else list(business.app.coordinator.committed_gtids))
    system.fail_main_site()
    manager = FailoverManager(system, business.namespace)
    manager.configure_buckets(business.config.bucket_count)
    process = system.sim.spawn(manager.execute(
        catalog=list(business.app.catalog.values()),
        expected_history=history,
        expected_committed_gtids=committed,
        pvol_ids=business.volume_ids),
        name="failover")
    return system.sim.run_until_complete(process)
