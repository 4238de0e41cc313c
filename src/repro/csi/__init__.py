"""CSI driver and vendor storage plugins (§II, §III-B2).

* :class:`CsiDriver`, :class:`HspcDriver` — the CSI-shaped driver over
  the simulated array;
* :func:`install_storage_plugin` — provisioner + snapshotter;
* :func:`install_replication_plugin`,
  :class:`ReplicationPluginContext` — the replication plugin reconciling
  :class:`ConsistencyGroupReplication` / :class:`VolumeReplication`
  custom resources into array commands.
"""

from repro.csi.crds import (REPLICATION_FINALIZER, STATE_CONFIGURING,
                            STATE_COPYING, STATE_PAIRED, STATE_SUSPENDED,
                            ConsistencyGroupReplication, VolumeReplication)
from repro.csi.driver import HspcDriver
from repro.csi.rpc import CsiRpcInjector, RpcChannel
from repro.csi.replication_plugin import (SECONDARY_PV_LABEL,
                                          ReplicationPluginContext,
                                          ReplicationReconciler,
                                          VolumeReplicationReconciler,
                                          install_replication_plugin)
from repro.csi.spec import (CsiDriver, ProvisionedSnapshot,
                            ProvisionedVolume, parse_snapshot_handle,
                            snapshot_handle)
from repro.csi.storage_plugin import (ProvisionerReconciler,
                                      SnapshotReconciler,
                                      install_storage_plugin,
                                      resolve_bound_volume)

__all__ = [
    "ConsistencyGroupReplication",
    "CsiDriver",
    "CsiRpcInjector",
    "HspcDriver",
    "ProvisionedSnapshot",
    "ProvisionedVolume",
    "ProvisionerReconciler",
    "REPLICATION_FINALIZER",
    "ReplicationPluginContext",
    "ReplicationReconciler",
    "RpcChannel",
    "SECONDARY_PV_LABEL",
    "STATE_CONFIGURING",
    "STATE_COPYING",
    "STATE_PAIRED",
    "STATE_SUSPENDED",
    "SnapshotReconciler",
    "VolumeReplication",
    "VolumeReplicationReconciler",
    "install_replication_plugin",
    "install_storage_plugin",
    "parse_snapshot_handle",
    "resolve_bound_volume",
    "snapshot_handle",
]
