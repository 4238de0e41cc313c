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
from repro.scenarios.builders import DEFAULT_STORAGE_CLASS, TwoSiteSystem

#: the four claims of the business process: name -> (db, role)
PVC_LAYOUT: Dict[str, tuple] = {
    "sales-wal": (SALES, "wal"),
    "sales-data": (SALES, "data"),
    "stock-wal": (STOCK, "wal"),
    "stock-data": (STOCK, "data"),
}


#: blocks of each database's data volume (one page per block)
DATA_BLOCKS = 64


@dataclass(frozen=True)
class BusinessConfig:
    """Sizing of the business process databases."""

    namespace: str = "order-processing"
    bucket_count: int = 32
    wal_blocks: int = 60_000
    initial_qty: int = 100_000
    #: per-key lock-wait bound for both databases (None = wait forever);
    #: crash-tolerant workloads set it so clients blocked behind an
    #: in-doubt transaction's locks can back out and drive resolution
    lock_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if DATA_BLOCKS < self.bucket_count:
            raise ValueError(
                f"bucket_count must fit the {DATA_BLOCKS}-block data "
                "volumes")


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
                                    else DATA_BLOCKS)
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
    catalog = catalog or default_catalog(initial_qty=config.initial_qty)
    app = EcommerceApp(sales_db, stock_db, catalog)
    sim.run_until_complete(sim.spawn(app.seed(), name="seed-catalog"))
    return BusinessProcess(namespace=config.namespace, app=app,
                           sales_db=sales_db, stock_db=stock_db,
                           config=config, volume_ids=volume_ids)
