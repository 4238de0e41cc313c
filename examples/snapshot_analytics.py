#!/usr/bin/env python3
"""Snapshot groups and backup-site analytics (§III-A2, §IV-C/D).

Shows why the demonstration runs analytics on *snapshot* volumes rather
than on the live mirror: while the restore pipeline is applying updates,
a multi-volume read of the live mirror is torn across time, but a
snapshot group freezes one consistent instant without pausing restore —
and the business at the main site never notices either way.

Run:  python examples/snapshot_analytics.py
"""

from repro.apps import BackgroundLoad, DatabaseImage, run_analytics
from repro.apps.minidb.device import ViewBlockDevice
from repro.errors import ReproError
from repro.operator import (TAG_CONSISTENT, TAG_KEY,
                            install_namespace_operator)
from repro.recovery.failover import FailoverManager
from repro.scenarios import (BusinessConfig, build_system,
                             deploy_business_process)
from repro.simulation import Simulator


def analytics_over(sim, business, devices, label):
    """One analytics job; reports the outcome (which may be torn)."""
    sales = DatabaseImage(wal_device=devices["sales-wal"],
                          data_device=devices["sales-data"],
                          bucket_count=business.config.bucket_count)
    stock = DatabaseImage(wal_device=devices["stock-wal"],
                          data_device=devices["stock-data"],
                          bucket_count=business.config.bucket_count)
    try:
        report = sim.run_until_complete(
            sim.spawn(run_analytics(sim, sales, stock), name=label))
    except ReproError as exc:
        print(f"  {label}: FAILED ({exc})")
        return
    print(f"  {label}: {report.order_count} orders, revenue "
          f"{report.total_revenue:.2f}, scan {report.scan_seconds * 1e3:.1f} ms")


def main() -> None:
    sim = Simulator(seed=42)
    system = build_system(sim)
    install_namespace_operator(system.main.cluster)
    business = deploy_business_process(
        system, BusinessConfig(wal_blocks=20_000))
    system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                      TAG_CONSISTENT)
    sim.run(until=sim.now + 5.0)

    print("starting the transaction window (4 concurrent clients) ...")
    load = BackgroundLoad(sim, business.app, client_count=4)
    sim.run(until=sim.now + 0.5)

    secondary = FailoverManager(
        system, business.namespace).discover_secondary_volumes()
    backup_array = system.backup.array

    print("\nanalytics over the LIVE mirror volumes (repeat 3x while "
          "replication runs):")
    for attempt in range(3):
        devices = {pvc: ViewBlockDevice(backup_array.get_volume(svol_id))
                   for pvc, svol_id in secondary.items()}
        analytics_over(sim, business, devices, f"live run {attempt}")
        sim.run(until=sim.now + 0.1)
    print("  (answers drift run to run - the mirror moved underneath)")

    print("\ncutting a snapshot group (the Fig 5 operation) ...")
    group = sim.run_until_complete(sim.spawn(
        system.backup.console.storage_array_snapshot_group(
            backup_array, "analytics-group",
            [secondary[p] for p in sorted(secondary)])))
    views = group.by_base_volume()

    print("analytics over the SNAPSHOT volumes (repeat 3x):")
    for attempt in range(3):
        devices = {pvc: ViewBlockDevice(views[svol_id].view())
                   for pvc, svol_id in secondary.items()}
        analytics_over(sim, business, devices, f"snap run {attempt}")
        sim.run(until=sim.now + 0.1)
    print("  (identical answers - the snapshot is one frozen instant)")

    orders_before = business.app.orders_accepted
    sim.run(until=sim.now + 0.25)
    print(f"\nmain site processed {business.app.orders_accepted - orders_before} "
          "more orders while all of that analytics ran.")
    load.drain()


if __name__ == "__main__":
    main()
