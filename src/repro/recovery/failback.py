"""Failback: returning the business to a repaired main site.

The paper's demonstration stops at running the business from the backup
site; a production deployment must eventually *fail back*.  This module
implements the standard procedure on top of the same primitives
(reverse asynchronous copy + promotion), as the natural extension of the
paper's system:

1. **repair** — the main array comes back online; its volumes still hold
   the stale pre-disaster state (including acked writes that never made
   it out — exactly the data that must *not* survive);
2. **unpair & format** — the old forward pairs are dissolved and the old
   primary volumes erased, so the reverse copy cannot collide with stale
   higher-versioned blocks;
3. **reverse replication** — a new journal group (one consistency group,
   of course) copies backup → main while the business keeps running at
   the backup site: the initial copy plus ongoing updates flow in the
   background;
4. **switchover** — once the reverse pairs are in PAIR, the business
   quiesces briefly: remaining journal entries drain, the main-side
   volumes are promoted, the databases recover (trivially — the cut is
   complete), and the application reopens at the main site.

The measured "failback downtime" is only step 4's quiesce window; steps
1-3 run entirely in the background, mirroring the paper's zero-impact
philosophy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import FailoverError
from repro.apps.analytics import DatabaseImage, recover_business_images
from repro.apps.ecommerce import CatalogItem, EcommerceApp, \
    decode_business_state
from repro.apps.minidb.device import ArrayBlockDevice
from repro.apps.minidb.recovery import reopen_database
from repro.recovery.checker import (BusinessCheckReport,
                                    check_business_invariants)
from repro.recovery.runbook import Runbook, RunbookJournal
from repro.scenarios.builders import TwoSiteSystem
from repro.storage.replication import PairState

#: id of the reverse journal group failback creates
REVERSE_GROUP_ID = "failback-reverse"


@dataclass
class FailbackReport:
    """Everything measured during one failback."""

    started_at: float
    #: background phase: repair + reverse copy until PAIR
    reverse_paired_at: float = 0.0
    #: switchover quiesce: business stopped -> serving at main
    quiesce_started_at: float = 0.0
    completed_at: float = 0.0
    business_report: Optional[BusinessCheckReport] = None
    #: orders committed at the backup site during the reverse copy
    orders_during_reverse_copy: int = 0
    succeeded: bool = False
    #: per-step wall-clock accounting from the runbook checkpoints
    step_durations: Optional[Dict[str, float]] = None
    #: True when this report came from a resumed (crashed) runbook
    resumed: bool = False

    @property
    def downtime_seconds(self) -> float:
        """Business quiesce duration (the only user-visible stop)."""
        return self.completed_at - self.quiesce_started_at


@dataclass
class FailbackResult:
    """The application serving at the repaired main site again."""

    app: EcommerceApp
    report: FailbackReport


class FailbackManager:
    """Drives the return of the business to the repaired main site."""

    def __init__(self, system: TwoSiteSystem,
                 secondary_volume_ids: Dict[str, int],
                 original_volume_ids: Dict[str, int],
                 bucket_count: int = 32,
                 journal: Optional[RunbookJournal] = None,
                 crash_after: Optional[str] = None) -> None:
        """``secondary_volume_ids``/``original_volume_ids`` map pvc name
        → backup-array (now production) / main-array volume id.
        ``journal``/``crash_after`` follow the failover manager's crash-
        restartable runbook contract."""
        if set(secondary_volume_ids) != set(original_volume_ids):
            raise FailoverError(
                "secondary and original volume maps must cover the same "
                "claims")
        self.system = system
        self.secondary = dict(secondary_volume_ids)
        self.original = dict(original_volume_ids)
        self.bucket_count = bucket_count
        self.journal = journal if journal is not None else RunbookJournal()
        self.crash_after = crash_after

    def execute(self, backup_app: EcommerceApp,
                catalog: Sequence[CatalogItem],
                pair_poll_interval: float = 0.050,
                load=None,
                ) -> Generator[object, object, FailbackResult]:
        """Run the full failback (process generator).

        ``backup_app`` is the application currently serving at the
        backup site.  Pass the running
        :class:`~repro.apps.workload.BackgroundLoad` as ``load`` and the
        manager stops it exactly at the switchover point — the business
        runs through the entire reverse copy and is quiesced only for
        the drain-promote-recover window.
        """
        sim = self.system.sim
        main = self.system.main.array
        backup = self.system.backup.array
        runbook = Runbook(sim, "failback", journal=self.journal,
                          crash_after=self.crash_after)
        report = FailbackReport(started_at=runbook.started_at)
        report.resumed = runbook.resumed

        # 1. repair the main site
        def repair_step():
            main.repair()
            self.system.network.restore()

        yield from runbook.step("repair", repair_step)

        # 2. dissolve old forward pairs, format the stale volumes
        def dissolve_step():
            self._dissolve_forward_pairs()
            for volume_id in sorted(self.original.values()):
                main.format_volume(volume_id)

        yield from runbook.step("dissolve", dissolve_step)

        # 3. reverse replication (backup -> main), one consistency group
        def reverse_step():
            reverse_journal_b = backup.create_journal(
                self.system.backup.pool_id)
            reverse_journal_m = main.create_journal(
                self.system.main.pool_id)
            backup.create_journal_group(
                REVERSE_GROUP_ID, reverse_journal_b.journal_id, main,
                reverse_journal_m.journal_id,
                self.system.network.backward)
            for pvc_name in sorted(self.secondary):
                backup.create_async_pair(
                    f"failback/{pvc_name}", REVERSE_GROUP_ID,
                    self.secondary[pvc_name], main,
                    self.original[pvc_name])
            return backup_app.orders_accepted  # orders before the copy

        orders_before = yield from runbook.step("reverse_pairs",
                                                reverse_step)

        def wait_step():
            group = backup.journal_groups[REVERSE_GROUP_ID]
            while not all(pair.state is PairState.PAIR
                          for pair in group.pairs.values()):
                if any(pair.state is PairState.PSUE
                       for pair in group.pairs.values()):
                    raise FailoverError(
                        "failback reverse copy suspended (PSUE); repair "
                        "the link/journals and retry")
                yield sim.sleep(pair_poll_interval)
            return {"reverse_paired_at": sim.now,
                    "orders_during": (backup_app.orders_accepted
                                      - orders_before)}

        paired = yield from runbook.step("wait_pair", wait_step)
        report.reverse_paired_at = paired["reverse_paired_at"]
        report.orders_during_reverse_copy = paired["orders_during"]

        # 4. switchover: quiesce, drain, promote, recover, reopen
        def quiesce_step():
            quiesce_started = sim.now
            group = backup.journal_groups[REVERSE_GROUP_ID]
            if load is not None:
                load.stop()
                while load.alive_clients:
                    yield sim.sleep(pair_poll_interval)
            # the business is quiet; wait for the pipeline to drain
            while group.entry_lag > 0:
                yield sim.sleep(pair_poll_interval)
            group.stop()
            while group.applying:
                yield sim.sleep(0.0001)
            drained = yield from group.drain()
            if drained:
                raise FailoverError(
                    "reverse journal still had entries after the drain "
                    "wait")
            # existence guards make a mid-step crash re-runnable
            for pvc_name in sorted(self.original):
                if backup.find_pair(f"failback/{pvc_name}") is not None:
                    backup.delete_pair(f"failback/{pvc_name}")
            if REVERSE_GROUP_ID in backup.journal_groups:
                backup.delete_journal_group(REVERSE_GROUP_ID, main)
            return quiesce_started

        report.quiesce_started_at = yield from runbook.step(
            "quiesce", quiesce_step)

        def device(pvc_name: str) -> ArrayBlockDevice:
            return ArrayBlockDevice(main, self.original[pvc_name])

        sales_image = DatabaseImage(wal_device=device("sales-wal"),
                                    data_device=device("sales-data"),
                                    bucket_count=self.bucket_count)
        stock_image = DatabaseImage(wal_device=device("stock-wal"),
                                    data_device=device("stock-data"),
                                    bucket_count=self.bucket_count)
        sales_rec, stock_rec = yield from runbook.step(
            "recover",
            lambda: recover_business_images(sim, sales_image, stock_image),
            volatile=True)

        def verify_step():
            business = decode_business_state(sales_rec.state,
                                             stock_rec.state)
            report.business_report = check_business_invariants(
                business, catalog)
            if not report.business_report.consistent:
                raise FailoverError(
                    f"failback image inconsistent: "
                    f"{report.business_report}")

        yield from runbook.step("verify", verify_step, volatile=True)

        def reopen_step():
            sales_db = reopen_database(
                sim, "sales", sales_image.wal_device,
                sales_image.data_device, self.bucket_count, sales_rec)
            stock_db = reopen_database(
                sim, "stock", stock_image.wal_device,
                stock_image.data_device, self.bucket_count, stock_rec)
            return EcommerceApp(sales_db, stock_db, catalog,
                                epoch="main2")

        app = yield from runbook.step("reopen", reopen_step,
                                      volatile=True)
        report.completed_at = sim.now
        report.succeeded = True
        report.step_durations = runbook.step_durations()
        return FailbackResult(app=app, report=report)

    def _dissolve_forward_pairs(self) -> None:
        """Remove the pre-disaster forward pairs and their groups."""
        main = self.system.main.array
        backup = self.system.backup.array
        for group_id in list(main.journal_groups):
            group = main.journal_groups[group_id]
            if group.main_journal not in set(main._journals.values()):
                continue  # not a forward group
            targets = {pair.svol.volume_id for pair in
                       group.pairs.values()}
            if not targets & set(self.secondary.values()):
                continue  # protects something else
            group.stop()
            for pair_id in list(group.pairs):
                main.delete_pair(pair_id)
            main.delete_journal_group(group_id, backup)
