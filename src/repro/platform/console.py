"""The web-console facade (Figs 2-5 of the paper).

The demonstration is operated entirely from the OpenShift web consoles;
this class is the programmatic equivalent.  Every method corresponds to
one *user-visible operation* (a click/form submission), and each call is
recorded in an operation log — the measurement experiment E3 uses to
compare manual storage administration against the namespace operator's
one-tag automation.

Operations the paper performs on the console:

* tag a namespace (Fig 3) — starts the backup configuration;
* list PVs / PVCs (Figs 3-4) — observe mirrored volumes appearing;
* create a volume snapshot (Fig 5) — snapshot development;
* direct array commands — the paper's §II notes that *snapshot groups*
  are not yet reachable through CSI (alpha feature), so the user must
  operate the external storage system directly; those operations are
  logged with ``surface="storage-array"`` so the automation gap is
  measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.platform.resources import (Namespace, PersistentVolume,
                                      PersistentVolumeClaim, VolumeSnapshot,
                                      VolumeSnapshotSpec)

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.storage.array import StorageArray
    from repro.storage.snapshot import SnapshotGroup


@dataclass(frozen=True)
class ConsoleOperation:
    """One user-visible operation performed on a console."""

    time: float
    surface: str  # "console" or "storage-array"
    action: str
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] ({self.surface}) {self.action} {self.detail}"


class Console:
    """Programmatic stand-in for one site's web console."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.operations: List[ConsoleOperation] = []

    # -- logging ---------------------------------------------------------

    def _log(self, action: str, detail: str = "",
             surface: str = "console") -> None:
        self.operations.append(ConsoleOperation(
            time=self.cluster.sim.now, surface=surface, action=action,
            detail=detail))

    def operation_count(self, surface: Optional[str] = None) -> int:
        """Number of logged user operations, optionally per surface."""
        if surface is None:
            return len(self.operations)
        return sum(1 for op in self.operations if op.surface == surface)

    def screen_log(self) -> str:
        """Human-readable rendering of everything the user did."""
        return "\n".join(str(op) for op in self.operations)

    # -- namespace tagging (Fig 3) -------------------------------------------

    def tag_namespace(self, namespace: str, key: str, value: str) -> None:
        """Put a tag (label) on a namespace — one user operation."""
        obj = self.cluster.api.get(Namespace, namespace)
        obj.meta.labels[key] = value
        self.cluster.api.update(obj)
        self._log("tag-namespace", f"{namespace} {key}={value}")

    def untag_namespace(self, namespace: str, key: str) -> None:
        """Remove a tag from a namespace — one user operation."""
        obj = self.cluster.api.get(Namespace, namespace)
        obj.meta.labels.pop(key, None)
        self.cluster.api.update(obj)
        self._log("untag-namespace", f"{namespace} {key}")

    # -- observation (Figs 3-4) --------------------------------------------

    def list_persistent_volumes(self) -> List[PersistentVolume]:
        """The PV list pane (lower halves of the demo screen)."""
        self._log("list-pv")
        return self.cluster.api.list(PersistentVolume)

    def list_claims(self, namespace: str) -> List[PersistentVolumeClaim]:
        """The PVC list pane for one namespace."""
        self._log("list-pvc", namespace)
        return self.cluster.api.list(PersistentVolumeClaim,
                                     namespace=namespace)

    # -- snapshot development (Fig 5) ------------------------------------

    def create_volume_snapshot(self, namespace: str, name: str,
                               pvc_name: str) -> VolumeSnapshot:
        """Create a VolumeSnapshot through the platform API — one user
        operation; the CSI snapshotter does the array work."""
        snapshot = VolumeSnapshot()
        snapshot.meta.name = name
        snapshot.meta.namespace = namespace
        snapshot.spec = VolumeSnapshotSpec(pvc_name=pvc_name)
        created = self.cluster.api.create(snapshot)
        self._log("create-volume-snapshot", f"{namespace}/{name}")
        return created

    # -- direct storage operation (the CSI alpha gap, §II) --------------------

    def storage_array_snapshot_group(self, array: "StorageArray",
                                     group_id: str,
                                     volume_ids: Sequence[int],
                                     ):
        """Create a snapshot *group* by operating the array directly.

        Returns a process generator the caller runs.  This is the manual
        step the paper says remains because the volume-group-snapshot CSI
        feature is alpha; it is logged on the ``storage-array`` surface.
        """
        self._log("create-snapshot-group",
                  f"{group_id} volumes={list(volume_ids)}",
                  surface="storage-array")
        return array.create_snapshot_group(group_id, volume_ids)

    def storage_array_command(self, description: str) -> None:
        """Record one generic manual array operation (E3's manual
        baseline uses this to count per-volume configuration steps)."""
        self._log("array-command", description, surface="storage-array")
