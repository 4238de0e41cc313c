"""The scripted ICDE demonstration (§IV, Figs 2-6).

:func:`run_demo` executes the paper's three demonstration steps against
the simulated two-site system, with the console operation logs of both
sites standing in for the split demo screen (Fig 2):

* **backup configuration** (Figs 3-4) — the user tags the namespace with
  ``ConsistentCopyToCloud``; the namespace operator configures the ADC
  with a consistency group; PVs appear at the backup site;
* **snapshot development** (Fig 5) — snapshot volumes are created at the
  backup site; per the paper's §II CSI-alpha gap, the snapshot *group*
  is issued directly to the storage array from the console;
* **data analytics** (Fig 6) — two databases are brought up over the
  snapshot volumes and the analytics application reports over them,
  while the transaction window on the main site keeps running.

The returned :class:`DemoResult` carries every assertable transition so
tests and the D0 benchmark can verify the demonstration rather than just
narrate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps import AnalyticsReport, BackgroundLoad, DatabaseImage
from repro.apps.analytics import run_analytics
from repro.apps.minidb.device import ViewBlockDevice
from repro.errors import ReproError
from repro.operator import (ANNOTATION_STATE, NS_STATE_PROTECTED,
                            TAG_CONSISTENT, TAG_KEY,
                            install_namespace_operator)
from repro.platform.resources import Namespace
from repro.recovery.checker import StorageCutReport, check_storage_cut
from repro.scenarios.builders import (SystemConfig, TwoSiteSystem,
                                      build_system)
from repro.scenarios.business import (BusinessConfig, BusinessProcess,
                                      PVC_LAYOUT, deploy_business_process)
from repro.simulation.kernel import Simulator
from repro.storage.snapshot import SnapshotGroup
from repro.telemetry import start_probes


@dataclass
class DemoResult:
    """Everything the demonstration showed, in assertable form."""

    #: PVs listed at the backup site before tagging (Fig 3: none)
    backup_pvs_before: List[str] = field(default_factory=list)
    #: PVs listed at the backup site after tagging (Fig 4: four)
    backup_pvs_after: List[str] = field(default_factory=list)
    #: namespace backup state annotation after configuration
    namespace_state: str = ""
    #: seconds from tag to Protected
    configuration_seconds: float = 0.0
    #: the snapshot group cut at the backup site (Fig 5)
    snapshot_group: Optional[SnapshotGroup] = None
    #: storage-level consistency verdict of the snapshot images
    snapshot_cut: Optional[StorageCutReport] = None
    #: the analytics report computed from the snapshots (Fig 6)
    analytics: Optional[AnalyticsReport] = None
    #: orders committed while the demo ran (the transaction window)
    orders_during_demo: int = 0
    #: orders committed after the analytics step (business continued)
    orders_after_analytics: int = 0
    #: the combined console operation log ("the screen")
    screens: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable demo summary."""
        lines = [
            "=== ICDE demonstration summary ===",
            f"backup PVs before tag : {len(self.backup_pvs_before)}",
            f"backup PVs after tag  : {len(self.backup_pvs_after)}",
            f"namespace state       : {self.namespace_state}",
            f"configuration latency : {self.configuration_seconds * 1e3:.1f} ms",
            f"snapshot cut          : {self.snapshot_cut}",
            f"orders in window      : {self.orders_during_demo}",
        ]
        if self.analytics is not None:
            lines.append(
                f"analytics             : {self.analytics.order_count} "
                f"orders, revenue {self.analytics.total_revenue:.2f}, "
                f"top seller {self.analytics.top_seller()}")
        lines.append(
            f"orders after analytics: {self.orders_after_analytics}")
        return "\n".join(lines)


@dataclass
class DemoEnvironment:
    """The built demo system, exposed for further experimentation."""

    sim: Simulator
    system: TwoSiteSystem
    business: BusinessProcess
    load: BackgroundLoad
    result: DemoResult


def run_demo(seed: int = 2025,
             system_config: Optional[SystemConfig] = None,
             business_config: Optional[BusinessConfig] = None,
             configuration_timeout: float = 30.0,
             analytics_delay: float = 0.5,
             probe_interval: Optional[float] = None) -> DemoEnvironment:
    """Run the full three-step demonstration; returns the environment.

    ``probe_interval`` > 0 starts telemetry probes on both arrays, so
    the returned environment's registry carries journal-lag and
    snapshot-age gauge series (see :mod:`repro.telemetry.probes`).

    Raises :class:`ReproError` if any demonstrated transition fails to
    happen (this function *is* the demo's correctness test).
    """
    sim = Simulator(seed=seed)
    system = build_system(sim, system_config or SystemConfig())
    install_namespace_operator(system.main.cluster)
    if probe_interval is not None:
        start_probes(sim, [system.main.array, system.backup.array],
                     interval=probe_interval)
    result = DemoResult()

    # -- the stage: business process + continual transaction window --------
    business = deploy_business_process(
        system, business_config or BusinessConfig())
    load = BackgroundLoad(sim, business.app, client_count=4,
                          rng_prefix="demo-window")

    # -- step 1: backup configuration (Figs 3-4) ---------------------------
    result.backup_pvs_before = [
        pv.meta.name
        for pv in system.backup.console.list_persistent_volumes()]
    tagged_at = sim.now
    system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                      TAG_CONSISTENT)
    deadline = sim.now + configuration_timeout
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.25, deadline))
        namespace = system.main.api.get(Namespace, business.namespace)
        if namespace.meta.annotations.get(ANNOTATION_STATE) == \
                NS_STATE_PROTECTED:
            break
    else:  # pragma: no cover - defensive
        pass
    namespace = system.main.api.get(Namespace, business.namespace)
    result.namespace_state = namespace.meta.annotations.get(
        ANNOTATION_STATE, "")
    if result.namespace_state != NS_STATE_PROTECTED:
        raise ReproError(
            "demo step 1 failed: namespace never reached Protected "
            f"(state={result.namespace_state!r})")
    result.configuration_seconds = sim.now - tagged_at
    result.backup_pvs_after = [
        pv.meta.name
        for pv in system.backup.console.list_persistent_volumes()]
    if len(result.backup_pvs_after) != len(PVC_LAYOUT):
        raise ReproError(
            "demo step 1 failed: expected "
            f"{len(PVC_LAYOUT)} backup PVs, saw "
            f"{len(result.backup_pvs_after)}")

    # -- step 2: snapshot development (Fig 5) --------------------------------
    # the transaction window keeps running; snapshots must still be
    # consistent thanks to snapshot groups
    sim.run(until=sim.now + analytics_delay)
    secondary_ids = _secondary_volume_ids(system, business)
    snap_proc = sim.spawn(
        system.backup.console.storage_array_snapshot_group(
            system.backup.array, "demo-snap-group",
            [secondary_ids[pvc] for pvc in sorted(secondary_ids)]),
        name="demo-snapshot-group")
    group = sim.run_until_complete(snap_proc)
    result.snapshot_group = group
    result.snapshot_cut = _check_snapshot_cut(system, business, group,
                                              secondary_ids)
    if not result.snapshot_cut.consistent:
        raise ReproError(
            f"demo step 2 failed: snapshot group is not a consistent "
            f"cut ({result.snapshot_cut})")

    # -- step 3: data analytics (Fig 6) ------------------------------------
    views = group.by_base_volume()
    bucket_count = business.config.bucket_count
    sales_image = DatabaseImage(
        wal_device=ViewBlockDevice(views[secondary_ids["sales-wal"]].view()),
        data_device=ViewBlockDevice(views[secondary_ids["sales-data"]].view()),
        bucket_count=bucket_count)
    stock_image = DatabaseImage(
        wal_device=ViewBlockDevice(views[secondary_ids["stock-wal"]].view()),
        data_device=ViewBlockDevice(views[secondary_ids["stock-data"]].view()),
        bucket_count=bucket_count)
    orders_before_analytics = business.app.orders_accepted
    analytics_proc = sim.spawn(
        run_analytics(sim, sales_image, stock_image),
        name="demo-analytics")
    result.analytics = sim.run_until_complete(analytics_proc)
    result.orders_during_demo = business.app.orders_accepted

    # the business kept processing while analytics ran
    sim.run(until=sim.now + 0.25)
    result.orders_after_analytics = (business.app.orders_accepted
                                     - orders_before_analytics)
    load.drain()
    result.screens = {
        "main": system.main.console.screen_log(),
        "backup": system.backup.console.screen_log(),
    }
    return DemoEnvironment(sim=sim, system=system, business=business,
                           load=load, result=result)


def _secondary_volume_ids(system: TwoSiteSystem,
                          business: BusinessProcess) -> Dict[str, int]:
    """pvc name -> backup-array secondary volume id (via backup PVs)."""
    from repro.csi.replication_plugin import SECONDARY_PV_LABEL
    from repro.platform.resources import PersistentVolume
    mapping: Dict[str, int] = {}
    for pv in system.backup.api.list(PersistentVolume):
        pvc_name = pv.meta.labels.get("replication.hitachi.com/pvc")
        if pvc_name and SECONDARY_PV_LABEL in pv.meta.labels:
            mapping[pvc_name] = system.backup.array.parse_handle(
                pv.spec.csi.volume_handle)
    return mapping


def _check_snapshot_cut(system: TwoSiteSystem, business: BusinessProcess,
                        group: SnapshotGroup,
                        secondary_ids: Dict[str, int]) -> StorageCutReport:
    """Prefix-check the frozen snapshot images against the main history."""
    frozen = group.frozen_versions()
    image_versions = {}
    for pvc_name, svol_id in secondary_ids.items():
        pvol_id = business.volume_ids[pvc_name]
        image_versions[pvol_id] = frozen.get(svol_id, {})
    return check_storage_cut(system.main.array.history, image_versions)
