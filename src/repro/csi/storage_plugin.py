"""The Storage Plug-in for Containers (§III-B2): provisioning and
snapshots through CSI.

Two reconcilers:

* :class:`ProvisionerReconciler` — binds Pending PVCs, preferring a
  pre-created Available PV (how replicated secondaries surface at the
  backup site) and dynamically provisioning through the CSI driver
  otherwise;
* :class:`SnapshotReconciler` — turns ``VolumeSnapshot`` objects into
  array snapshots via the driver (the Fig 5 "snapshot development on the
  web console" path).

Snapshot *groups* are not here: the CSI group-snapshot API is alpha and
the paper's plugin lacks it, so users operate the array directly (§II).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Generator, List, Type

from repro.errors import CsiError, NotFoundError
from repro.csi.driver import HspcDriver
from repro.platform.apiserver import ApiServer, WatchEvent
from repro.platform.controller import Reconciler, ReconcileResult, Requeue
from repro.platform.objects import ObjectKey
from repro.platform.resources import (PersistentVolume,
                                      PersistentVolumeClaim, StorageClass,
                                      VolumeSnapshot, claim_ref)

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster


#: finalizer protecting claims until their storage is reclaimed
PVC_PROTECTION_FINALIZER = "csi.hitachi.com/pvc-protection"

#: finalizer protecting snapshots until the array snapshot is deleted
SNAPSHOT_PROTECTION_FINALIZER = "csi.hitachi.com/snapshot-protection"


class ProvisionerReconciler(Reconciler):
    """Binds, dynamically provisions, and reclaims persistent volume
    claims (reclaim policy: Delete)."""

    kind: ClassVar[Type[PersistentVolumeClaim]] = PersistentVolumeClaim
    extra_kinds = (PersistentVolume,)

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def reconcile(self, api: ApiServer, key: ObjectKey,
                  ) -> Generator[object, object, ReconcileResult]:
        pvc = api.try_get(PersistentVolumeClaim, key.name, key.namespace)
        if pvc is None:
            return None
        if pvc.meta.deleting:
            result = yield from self._reclaim(api, pvc)
            return result
        if pvc.bound:
            return None
        storage_class = api.try_get(StorageClass, pvc.spec.storage_class)
        if storage_class is None:
            return Requeue(after=0.100)
        if not self.cluster.has_csi_driver(storage_class.provisioner):
            return None  # another plugin's class; not ours to act on
        if PVC_PROTECTION_FINALIZER not in pvc.meta.finalizers:
            pvc.meta.finalizers.append(PVC_PROTECTION_FINALIZER)
            pvc = api.update(pvc)
        ref = claim_ref(key.namespace, key.name)
        pv = self._find_bindable_pv(api, pvc, ref)
        if pv is None:
            driver = self.cluster.csi_driver(storage_class.provisioner)
            provisioned = yield from driver.create_volume(
                name=f"pvc-{pvc.meta.uid}",
                capacity_blocks=pvc.spec.capacity_blocks,
                parameters=storage_class.parameters)
            pv = PersistentVolume()
            pv.meta.name = f"pv-{pvc.meta.uid}"
            pv.spec.capacity_blocks = provisioned.capacity_blocks
            pv.spec.storage_class = storage_class.meta.name
            pv.spec.csi.driver = driver.driver_name
            pv.spec.csi.volume_handle = provisioned.volume_handle
            pv.spec.csi.array_serial = provisioned.array_serial
            pv.spec.claim_ref = ref
            pv = api.create(pv)
        self._bind(api, pvc, pv, ref)
        return None

    def _reclaim(self, api: ApiServer, pvc: PersistentVolumeClaim,
                 ) -> Generator[object, object, ReconcileResult]:
        """Delete-reclaim: release the PV and the array volume, then
        let the claim finish deleting.

        A volume still paired for replication (or still carrying
        snapshots) cannot be deleted yet — the replication plugin's own
        teardown must run first, so the reclaim retries.
        """
        if PVC_PROTECTION_FINALIZER not in pvc.meta.finalizers:
            return None
        pv = None
        if pvc.spec.volume_name:
            pv = api.try_get(PersistentVolume, pvc.spec.volume_name)
        if pv is not None:
            if not self.cluster.has_csi_driver(pv.spec.csi.driver):
                return Requeue(after=0.250)
            driver = self.cluster.csi_driver(pv.spec.csi.driver)
            from repro.errors import ArrayCommandError
            try:
                yield from driver.delete_volume(pv.spec.csi.volume_handle)
            except ArrayCommandError:
                # still replicated / still has snapshots: retry after
                # the owning controllers unwind their configuration
                return Requeue(after=0.100)
            api.delete(PersistentVolume, pv.meta.name)
        api.remove_finalizer(PersistentVolumeClaim, pvc.meta.name,
                             pvc.meta.namespace,
                             PVC_PROTECTION_FINALIZER)
        return None

    def _find_bindable_pv(self, api: ApiServer,
                          pvc: PersistentVolumeClaim,
                          ref: str) -> PersistentVolume | None:
        candidates = []
        for pv in api.list(PersistentVolume):
            if pv.spec.claim_ref == ref:
                # already (half-)bound to exactly this claim: a bind
                # whose PVC update flaked or crashed left the PV Bound
                # while the claim stayed Pending.  Adopt it — trying to
                # provision a fresh PV would livelock on the name
                return pv
            if pv.status.phase != "Available":
                continue
            if pv.spec.storage_class != pvc.spec.storage_class:
                continue
            if pv.spec.capacity_blocks < pvc.spec.capacity_blocks:
                continue
            if pv.spec.claim_ref and pv.spec.claim_ref != ref:
                continue
            candidates.append(pv)
        if not candidates:
            return None
        # prefer a PV pre-bound to exactly this claim, then smallest fit
        candidates.sort(key=lambda pv: (pv.spec.claim_ref != ref,
                                        pv.spec.capacity_blocks,
                                        pv.meta.name))
        return candidates[0]

    def _bind(self, api: ApiServer, pvc: PersistentVolumeClaim,
              pv: PersistentVolume, ref: str) -> None:
        pv.spec.claim_ref = ref
        pv.status.phase = "Bound"
        api.update(pv)
        pvc.spec.volume_name = pv.meta.name
        pvc.status.phase = "Bound"
        api.update(pvc)

    def map_event(self, api: ApiServer,
                  event: WatchEvent) -> List[ObjectKey]:
        """A new Available PV may satisfy a waiting claim."""
        pv = event.object
        if pv.spec.claim_ref:
            namespace, _slash, name = pv.spec.claim_ref.partition("/")
            return [ObjectKey(PersistentVolumeClaim.KIND, namespace, name)]
        pending = [pvc.key for pvc in api.list(PersistentVolumeClaim)
                   if not pvc.bound]
        return pending


def resolve_bound_volume(api: ApiServer, namespace: str,
                         pvc_name: str) -> PersistentVolume:
    """PV behind a bound PVC; raises CsiError when not resolvable."""
    pvc = api.try_get(PersistentVolumeClaim, pvc_name, namespace)
    if pvc is None:
        raise NotFoundError(f"PVC {namespace}/{pvc_name} not found")
    if not pvc.bound:
        raise CsiError(f"PVC {namespace}/{pvc_name} is not bound")
    pv = api.try_get(PersistentVolume, pvc.spec.volume_name)
    if pv is None:
        raise CsiError(
            f"PVC {namespace}/{pvc_name} references missing PV "
            f"{pvc.spec.volume_name!r}")
    return pv


class SnapshotReconciler(Reconciler):
    """Cuts array snapshots for ``VolumeSnapshot`` objects."""

    kind: ClassVar[Type[VolumeSnapshot]] = VolumeSnapshot

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def reconcile(self, api: ApiServer, key: ObjectKey,
                  ) -> Generator[object, object, ReconcileResult]:
        snapshot = api.try_get(VolumeSnapshot, key.name, key.namespace)
        if snapshot is None:
            return None
        if snapshot.meta.deleting:
            yield from self._delete_array_snapshot(api, snapshot)
            return None
        if snapshot.status.ready:
            return None
        if SNAPSHOT_PROTECTION_FINALIZER not in snapshot.meta.finalizers:
            snapshot.meta.finalizers.append(
                SNAPSHOT_PROTECTION_FINALIZER)
            snapshot = api.update(snapshot)
        try:
            pv = resolve_bound_volume(api, key.namespace,
                                      snapshot.spec.pvc_name)
        except (CsiError, NotFoundError) as exc:
            if snapshot.status.error != str(exc):
                snapshot.status.error = str(exc)
                api.update(snapshot)
            return Requeue(after=0.100)
        driver = self.cluster.csi_driver(pv.spec.csi.driver)
        provisioned = yield from driver.create_snapshot(
            name=f"snap-{snapshot.meta.uid}",
            source_volume_handle=pv.spec.csi.volume_handle)
        current = api.try_get(VolumeSnapshot, key.name, key.namespace)
        if current is None:
            return None
        current.status.ready = True
        current.status.snapshot_handle = provisioned.snapshot_handle
        current.status.error = ""
        api.update(current)
        return None

    def _delete_array_snapshot(self, api: ApiServer,
                               snapshot: VolumeSnapshot,
                               ) -> Generator[object, object, None]:
        if SNAPSHOT_PROTECTION_FINALIZER not in snapshot.meta.finalizers:
            return
        handle = snapshot.status.snapshot_handle
        if handle:
            from repro.csi.spec import parse_snapshot_handle
            from repro.errors import SnapshotError
            serial, _snapshot_id = parse_snapshot_handle(handle)
            for driver_name in ("hspc.hitachi.com",):
                if not self.cluster.has_csi_driver(driver_name):
                    continue
                driver = self.cluster.csi_driver(driver_name)
                if driver.array.serial != serial:
                    continue
                try:
                    yield from driver.delete_snapshot(handle)
                except SnapshotError:
                    pass  # already gone: deletion is idempotent
        api.remove_finalizer(VolumeSnapshot, snapshot.meta.name,
                             snapshot.meta.namespace,
                             SNAPSHOT_PROTECTION_FINALIZER)


def install_storage_plugin(cluster: "Cluster", driver: HspcDriver) -> None:
    """Install the Storage Plug-in for Containers on a cluster.

    Registers the CSI driver plus the provisioner and snapshotter
    controllers.
    """
    cluster.register_csi_driver(driver)
    cluster.install(ProvisionerReconciler(cluster),
                    name=f"{cluster.name}.csi-provisioner")
    cluster.install(SnapshotReconciler(cluster),
                    name=f"{cluster.name}.csi-snapshotter")
