"""Deploying the business process onto the platform (§II's use case).

The demonstration's namespace contains the transactional application and
two databases.  :func:`deploy_business_process` creates the namespace,
its four claims (each database has a WAL volume and a data volume), the
application pods, waits for provisioning, and opens the MiniDBs over the
provisioned array volumes — returning a :class:`BusinessProcess` handle
the experiments drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.ecommerce import (CatalogItem, EcommerceApp, SALES, STOCK,
                                  default_catalog)
from repro.apps.minidb.device import ArrayBlockDevice
from repro.apps.minidb.engine import MiniDB
from repro.csi.storage_plugin import resolve_bound_volume
from repro.platform.resources import (PersistentVolumeClaim, Pod)
from repro.scenarios.builders import (DEFAULT_STORAGE_CLASS, Site,
                                      TwoSiteSystem)

#: the four claims of the business process: name -> (db, role)
PVC_LAYOUT: Dict[str, tuple] = {
    "sales-wal": (SALES, "wal"),
    "sales-data": (SALES, "data"),
    "stock-wal": (STOCK, "wal"),
    "stock-data": (STOCK, "data"),
}


@dataclass(frozen=True)
class BusinessConfig:
    """Sizing of the business process databases."""

    namespace: str = "order-processing"
    bucket_count: int = 32
    wal_blocks: int = 60_000
    data_blocks: int = 64
    item_count: int = 8
    initial_qty: int = 100_000
    #: per-key lock-wait bound for both databases (None = wait forever);
    #: crash-tolerant workloads set it so clients blocked behind an
    #: in-doubt transaction's locks can back out and drive resolution
    lock_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.data_blocks < self.bucket_count:
            raise ValueError(
                "data_blocks must cover bucket_count pages")


@dataclass
class BusinessProcess:
    """A deployed business process: namespace + databases + app."""

    namespace: str
    app: EcommerceApp
    sales_db: MiniDB
    stock_db: MiniDB
    config: BusinessConfig
    #: pvc name -> main-array volume id
    volume_ids: Dict[str, int]

    @property
    def pvc_names(self) -> List[str]:
        """The four claims, layout order."""
        return list(PVC_LAYOUT)


def deploy_business_process(system: TwoSiteSystem,
                            config: Optional[BusinessConfig] = None,
                            catalog: Optional[List[CatalogItem]] = None,
                            settle_time: float = 2.0) -> BusinessProcess:
    """Create and seed the §II business process on the main site.

    Drives the simulator until provisioning settles and the catalog is
    seeded; returns the live handle.
    """
    sim = system.sim
    config = config or BusinessConfig()
    site = system.main
    site.cluster.create_namespace(config.namespace)
    for pvc_name, (_db, role) in PVC_LAYOUT.items():
        pvc = PersistentVolumeClaim()
        pvc.meta.name = pvc_name
        pvc.meta.namespace = config.namespace
        pvc.meta.labels = {"app": "order-processing"}
        pvc.spec.storage_class = DEFAULT_STORAGE_CLASS
        pvc.spec.capacity_blocks = (config.wal_blocks if role == "wal"
                                    else config.data_blocks)
        site.api.create(pvc)
    for pod_name, image, pvcs in (
            ("transaction-app", "order-app:1.0", list(PVC_LAYOUT)),
            ("sales-db", "minidb:1.0", ["sales-wal", "sales-data"]),
            ("stock-db", "minidb:1.0", ["stock-wal", "stock-data"])):
        pod = Pod()
        pod.meta.name = pod_name
        pod.meta.namespace = config.namespace
        pod.spec.image = image
        pod.spec.pvc_names = pvcs
        site.api.create(pod)
    sim.run(until=sim.now + settle_time)

    volume_ids: Dict[str, int] = {}
    devices: Dict[str, ArrayBlockDevice] = {}
    for pvc_name in PVC_LAYOUT:
        pv = resolve_bound_volume(site.api, config.namespace, pvc_name)
        volume_id = site.array.parse_handle(pv.spec.csi.volume_handle)
        volume_ids[pvc_name] = volume_id
        devices[pvc_name] = ArrayBlockDevice(site.array, volume_id)

    sales_db = MiniDB(sim, SALES, wal_device=devices["sales-wal"],
                      data_device=devices["sales-data"],
                      bucket_count=config.bucket_count,
                      lock_timeout=config.lock_timeout)
    stock_db = MiniDB(sim, STOCK, wal_device=devices["stock-wal"],
                      data_device=devices["stock-data"],
                      bucket_count=config.bucket_count,
                      lock_timeout=config.lock_timeout)
    catalog = catalog or default_catalog(config.item_count,
                                         config.initial_qty)
    app = EcommerceApp(sales_db, stock_db, catalog)
    sim.run_until_complete(sim.spawn(app.seed(), name="seed-catalog"))
    return BusinessProcess(namespace=config.namespace, app=app,
                           sales_db=sales_db, stock_db=stock_db,
                           config=config, volume_ids=volume_ids)


def pod_phases(site: Site, namespace: str) -> Dict[str, str]:
    """Pod name -> phase for a namespace (demo display helper)."""
    return {pod.meta.name: pod.status.phase
            for pod in site.api.list(Pod, namespace=namespace)}
