"""CSI driver and vendor storage plugins (§II, §III-B2).

* :class:`CsiDriver`, :class:`HspcDriver` — the CSI-shaped driver over
  the simulated array;
* :func:`install_storage_plugin` — the PVC provisioner;
* :func:`install_replication_plugin`,
  :class:`ReplicationPluginContext` — the replication plugin reconciling
  :class:`ConsistencyGroupReplication` custom resources into array
  commands.
"""

from repro.csi.crds import (STATE_CONFIGURING, STATE_COPYING, STATE_PAIRED,
                            STATE_SUSPENDED, ConsistencyGroupReplication)
from repro.csi.driver import HspcDriver
from repro.csi.rpc import CsiRpcInjector, RpcChannel
from repro.csi.replication_plugin import (SECONDARY_PV_LABEL,
                                          ReplicationPluginContext,
                                          ReplicationReconciler,
                                          install_replication_plugin)
from repro.csi.spec import CsiDriver, ProvisionedVolume
from repro.csi.storage_plugin import (ProvisionerReconciler,
                                      install_storage_plugin,
                                      resolve_bound_volume)

__all__ = [
    "ConsistencyGroupReplication",
    "CsiDriver",
    "CsiRpcInjector",
    "HspcDriver",
    "ProvisionedVolume",
    "ProvisionerReconciler",
    "ReplicationPluginContext",
    "ReplicationReconciler",
    "RpcChannel",
    "SECONDARY_PV_LABEL",
    "STATE_CONFIGURING",
    "STATE_COPYING",
    "STATE_PAIRED",
    "STATE_SUSPENDED",
    "install_replication_plugin",
    "install_storage_plugin",
    "resolve_bound_volume",
]
