"""Capstone integration test: the complete operational story.

deploy → protect (one tag) → orders →
snapshot rotation → analytics → disaster → failover → serve at backup →
repair → failback → serve at main again — with every consistency and
accounting invariant checked along the way.  If this test passes, every
subsystem of the reproduction interoperates.
"""

import pytest

from repro.apps import BackgroundLoad, issue_orders
from repro.csi import ConsistencyGroupReplication, STATE_PAIRED
from repro.operator import (ANNOTATION_STATE, NS_STATE_PROTECTED,
                            TAG_CONSISTENT, TAG_KEY,
                            install_namespace_operator)
from repro.platform import Namespace, PersistentVolume
from repro.recovery import (FailbackManager, FailoverManager,
                            SnapshotScheduler, fail_and_recover)
from repro.scenarios import (BusinessConfig, build_system,
                             deploy_business_process)
from repro.simulation import Simulator
from tests.csi.conftest import fast_system_config


@pytest.mark.filterwarnings("ignore")
def test_full_lifecycle():
    sim = Simulator(seed=777)
    system = build_system(sim, fast_system_config())
    install_namespace_operator(system.main.cluster)

    # --- deploy and protect --------------------------------------------------
    business = deploy_business_process(
        system, BusinessConfig(wal_blocks=40_000))
    system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                      TAG_CONSISTENT)
    sim.run(until=sim.now + 4.0)
    namespace = system.main.api.get(Namespace, business.namespace)
    assert namespace.meta.annotations[ANNOTATION_STATE] == \
        NS_STATE_PROTECTED
    assert len(system.backup.api.list(PersistentVolume)) == 4
    secondary = FailoverManager(
        system, business.namespace).discover_secondary_volumes()

    # --- normal operations ---------------------------------------------------
    first_batch = issue_orders(sim, business.app, 25, rng_stream="one")
    assert all(r.accepted for r in first_batch)
    sim.run(until=sim.now + 3.0)
    second_batch = issue_orders(sim, business.app, 10, rng_stream="two")
    assert all(r.accepted for r in second_batch)
    sim.run(until=sim.now + 5.0)
    cr = system.main.api.get(ConsistencyGroupReplication,
                             f"nso-{business.namespace}",
                             business.namespace)
    assert cr.status.state == STATE_PAIRED

    # --- snapshot rotation + analytics on a generation ---------------------
    scheduler = SnapshotScheduler(
        system.backup.array, sorted(secondary.values()),
        interval=0.15, retain=2, name="lifecycle")
    scheduler.start()
    load = BackgroundLoad(sim, business.app, client_count=3,
                          rng_prefix="during-rotation")
    sim.run(until=sim.now + 0.5)
    scheduler.stop()
    assert len(scheduler.generations) == 2
    newest = system.backup.array.get_snapshot_group(
        scheduler.latest().group_id)
    assert len(newest.snapshots) == 4

    # --- disaster and failover -------------------------------------------
    sim.run(until=sim.now + 0.2)
    committed_before_disaster = load.committed_gtids
    promoted = fail_and_recover(system, business,
                                expected_committed=committed_before_disaster)
    load.drain()
    assert promoted.report.business_report.consistent
    assert promoted.report.storage_report.consistent
    backup_batch = issue_orders(sim, promoted.app, 15,
                                rng_stream="three")
    assert all(r.accepted for r in backup_batch)

    # --- repair and failback ---------------------------------------------
    manager = FailbackManager(
        system, secondary_volume_ids=secondary,
        original_volume_ids=business.volume_ids,
        bucket_count=business.config.bucket_count)
    reverse_load = BackgroundLoad(sim, promoted.app, client_count=2,
                                  rng_prefix="during-reverse")
    result = sim.run_until_complete(sim.spawn(manager.execute(
        promoted.app, list(promoted.app.catalog.values()),
        load=reverse_load)), timeout=240.0)
    assert result.report.succeeded
    assert result.report.business_report.consistent

    # --- serving at main again, with full accounting ----------------------
    final_batch = issue_orders(sim, result.app, 10, rng_stream="four")
    assert all(r.accepted for r in final_batch)
    # everything the backup-era app committed survived the round trip,
    # plus the pre-disaster survivors
    recovered_at_failback = result.report.business_report.order_count
    # committed_gtids is coordinator-wide: it already contains the
    # sequential batches plus the background load's orders
    pre_disaster_committed = len(committed_before_disaster)
    assert pre_disaster_committed >= 25 + 10
    lost_at_disaster = promoted.report.lost_committed_orders
    backup_era_committed = promoted.app.orders_accepted
    assert recovered_at_failback == (pre_disaster_committed
                                     - lost_at_disaster
                                     + backup_era_committed)
