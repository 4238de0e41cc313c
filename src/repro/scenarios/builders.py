"""Two-site system builder: the demonstration topology of Fig 1.

Builds, inside one simulator:

* a **main site**: storage array + container platform + CSI storage
  plugin + replication plugin + namespace operator (installed by
  :mod:`repro.operator` when requested);
* a **backup site**: storage array + container platform + CSI storage
  plugin;
* the inter-site replication network.

Every experiment and example starts from :func:`build_system`, so the
topology knobs (link latency and bandwidth, ADC tuning) live in one
:class:`SystemConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.csi.driver import HspcDriver
from repro.csi.rpc import RpcChannel
from repro.csi.replication_plugin import (ReplicationPluginContext,
                                          install_replication_plugin)
from repro.csi.storage_plugin import install_storage_plugin
from repro.platform.cluster import Cluster
from repro.platform.resources import StorageClass
from repro.simulation.kernel import Simulator
from repro.simulation.network import SitePair
from repro.storage.adc import AdcConfig
from repro.storage.array import ArrayConfig, StorageArray

#: storage class name both clusters ship
DEFAULT_STORAGE_CLASS = "hspc-replicated"


#: pool capacity per array, in blocks
POOL_BLOCKS = 2_000_000


@dataclass(frozen=True)
class SystemConfig:
    """Topology and tuning knobs for a two-site system."""

    #: one-way inter-site latency in seconds (the E1 sweep axis)
    link_latency: float = 0.005
    #: inter-site bandwidth in bytes/s (None = latency-only)
    link_bandwidth: Optional[float] = None
    #: storage array configuration (media latencies, ADC/SDC tuning)
    array: ArrayConfig = field(default_factory=ArrayConfig)
    #: storage-management REST latency per plugin command
    command_latency: float = 0.050

    def with_adc(self, **overrides) -> "SystemConfig":
        """Copy with ADC pipeline knobs overridden."""
        return replace(self, array=self.array.with_adc(**overrides))


@dataclass
class Site:
    """One site: its array, cluster, CSI driver and default pool."""

    name: str
    array: StorageArray
    cluster: Cluster
    driver: HspcDriver
    pool_id: int

    @property
    def console(self):
        """The site's web console facade."""
        return self.cluster.console

    @property
    def api(self):
        """The site's API server."""
        return self.cluster.api


@dataclass
class TwoSiteSystem:
    """The full Fig 1 topology inside one simulator."""

    sim: Simulator
    config: SystemConfig
    main: Site
    backup: Site
    network: SitePair
    replication_context: ReplicationPluginContext

    def fail_main_site(self) -> None:
        """Disaster at the main site: array down, platform down,
        inter-site network partitioned."""
        self.main.array.fail()
        self.main.cluster.stop()
        self.network.fail()

    @property
    def replication_link(self):
        """The main-to-backup link replication rides on."""
        return self.network.forward


def _build_site(sim: Simulator, name: str, serial: str,
                config: SystemConfig) -> Site:
    array = StorageArray(sim, serial=serial, config=config.array)
    pool = array.create_pool(POOL_BLOCKS)
    cluster = Cluster(sim, name=name)
    driver = HspcDriver(
        array, default_pool_id=pool.pool_id,
        management_latency=config.command_latency)
    install_storage_plugin(cluster, driver)
    storage_class = StorageClass()
    storage_class.meta.name = DEFAULT_STORAGE_CLASS
    storage_class.provisioner = driver.driver_name
    storage_class.parameters = {"poolId": str(pool.pool_id)}
    cluster.api.create(storage_class)
    return Site(name=name, array=array, cluster=cluster, driver=driver,
                pool_id=pool.pool_id)


def build_system(sim: Simulator,
                 config: Optional[SystemConfig] = None) -> TwoSiteSystem:
    """Build and start the two-site demonstration topology."""
    config = config or SystemConfig()
    main = _build_site(sim, "main", "G370-MAIN", config)
    backup = _build_site(sim, "backup", "G370-BKUP", config)
    network = SitePair(sim, latency=config.link_latency,
                       bandwidth_bytes_per_s=config.link_bandwidth,
                       name="intersite")
    context = ReplicationPluginContext(
        main_array=main.array, backup_array=backup.array,
        link=network.forward, main_pool_id=main.pool_id,
        backup_pool_id=backup.pool_id, backup_api=backup.cluster.api,
        adc_config=config.array.adc,
        rpc=RpcChannel(sim, latency=config.command_latency,
                       name="main-mgmt"))
    install_replication_plugin(main.cluster, context)
    main.cluster.start()
    backup.cluster.start()
    return TwoSiteSystem(sim=sim, config=config, main=main, backup=backup,
                         network=network, replication_context=context)
