"""Built-in resource kinds of the simulated container platform.

These mirror the Kubernetes objects the paper's demonstration touches:
namespaces (the unit the business process lives in and the unit the
operator tags), persistent volume claims and persistent volumes (the
storage correspondence the operator unravels), storage classes (the CSI
provisioning contract), and pods (the application workloads inside the
namespace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List

from repro.errors import InvalidObjectError
from repro.platform.objects import ApiObject


# ---------------------------------------------------------------------------
# Namespace
# ---------------------------------------------------------------------------


@dataclass
class Namespace(ApiObject):
    """A namespace partitions the application environment (§II).

    The paper's user starts a backup by *tagging* the namespace; tags are
    ordinary labels here (the demonstration's
    ``ConsistentCopyToCloud`` value goes on the
    ``backup.hitachi.com/consistency-copy`` label key).
    """

    KIND: ClassVar[str] = "Namespace"
    NAMESPACED: ClassVar[bool] = False

    phase: str = "Active"


# ---------------------------------------------------------------------------
# Storage classes, claims, volumes
# ---------------------------------------------------------------------------


@dataclass
class StorageClass(ApiObject):
    """Provisioning contract between PVCs and a CSI driver."""

    KIND: ClassVar[str] = "StorageClass"
    NAMESPACED: ClassVar[bool] = False

    provisioner: str = ""
    #: driver-specific parameters, e.g. {"poolId": "1"}
    parameters: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        super().validate()
        if not self.provisioner:
            raise InvalidObjectError(
                f"StorageClass {self.meta.name!r} needs a provisioner")


@dataclass
class PvcSpec:
    """Desired state of a claim."""

    storage_class: str = ""
    capacity_blocks: int = 0
    #: set by the binder once a PV is selected
    volume_name: str = ""


@dataclass
class PvcStatus:
    """Observed state of a claim."""

    phase: str = "Pending"  # Pending -> Bound


@dataclass
class PersistentVolumeClaim(ApiObject):
    """A claim for storage by an application in a namespace."""

    KIND: ClassVar[str] = "PersistentVolumeClaim"
    NAMESPACED: ClassVar[bool] = True

    spec: PvcSpec = field(default_factory=PvcSpec)
    status: PvcStatus = field(default_factory=PvcStatus)

    def validate(self) -> None:
        super().validate()
        if self.spec.capacity_blocks < 1:
            raise InvalidObjectError(
                f"PVC {self.meta.name!r} needs capacity_blocks >= 1")
        if not self.spec.storage_class:
            raise InvalidObjectError(
                f"PVC {self.meta.name!r} needs a storage class")

    @property
    def bound(self) -> bool:
        """True once the claim is bound to a PV."""
        return self.status.phase == "Bound" and bool(self.spec.volume_name)


@dataclass
class CsiVolumeSource:
    """CSI attachment info recorded on a PV."""

    driver: str = ""
    volume_handle: str = ""
    #: serial of the array the handle belongs to
    array_serial: str = ""


@dataclass
class PvSpec:
    """Desired state of a persistent volume."""

    capacity_blocks: int = 0
    storage_class: str = ""
    csi: CsiVolumeSource = field(default_factory=CsiVolumeSource)
    #: "namespace/name" of the bound claim ("" while available)
    claim_ref: str = ""


@dataclass
class PvStatus:
    """Observed state of a persistent volume."""

    phase: str = "Available"  # Available -> Bound -> Released


@dataclass
class PersistentVolume(ApiObject):
    """A provisioned storage volume registered with the cluster.

    The Fig 3 → Fig 4 transition of the paper — "PVs appear in the
    backup site after tagging" — is the creation of these objects on the
    backup cluster by the replication plugin.
    """

    KIND: ClassVar[str] = "PersistentVolume"
    NAMESPACED: ClassVar[bool] = False

    spec: PvSpec = field(default_factory=PvSpec)
    status: PvStatus = field(default_factory=PvStatus)

    def validate(self) -> None:
        super().validate()
        if self.spec.capacity_blocks < 1:
            raise InvalidObjectError(
                f"PV {self.meta.name!r} needs capacity_blocks >= 1")


# ---------------------------------------------------------------------------
# Pods
# ---------------------------------------------------------------------------


@dataclass
class PodSpec:
    """Desired state of a pod."""

    image: str = ""
    #: names of PVCs (same namespace) the pod mounts
    pvc_names: List[str] = field(default_factory=list)


@dataclass
class PodStatus:
    """Observed state of a pod."""

    phase: str = "Pending"  # Pending -> Running


@dataclass
class Pod(ApiObject):
    """An application workload inside a namespace."""

    KIND: ClassVar[str] = "Pod"
    NAMESPACED: ClassVar[bool] = True

    spec: PodSpec = field(default_factory=PodSpec)
    status: PodStatus = field(default_factory=PodStatus)

    def validate(self) -> None:
        super().validate()
        if not self.spec.image:
            raise InvalidObjectError(
                f"Pod {self.meta.name!r} needs an image")


# ---------------------------------------------------------------------------
# Volume snapshots (the CSI snapshot API, §II)
# ---------------------------------------------------------------------------


@dataclass
class VolumeSnapshotSpec:
    """Desired state: snapshot one bound PVC."""

    pvc_name: str = ""


@dataclass
class VolumeSnapshotStatus:
    """Observed state of a volume snapshot."""

    ready: bool = False
    #: array-side snapshot handle once cut
    snapshot_handle: str = ""
    error: str = ""


@dataclass
class VolumeSnapshot(ApiObject):
    """A point-in-time copy of one PVC, cut through CSI."""

    KIND: ClassVar[str] = "VolumeSnapshot"
    NAMESPACED: ClassVar[bool] = True

    spec: VolumeSnapshotSpec = field(default_factory=VolumeSnapshotSpec)
    status: VolumeSnapshotStatus = field(
        default_factory=VolumeSnapshotStatus)

    def validate(self) -> None:
        super().validate()
        if not self.spec.pvc_name:
            raise InvalidObjectError(
                f"VolumeSnapshot {self.meta.name!r} needs spec.pvc_name")


def claim_ref(namespace: str, name: str) -> str:
    """Canonical "namespace/name" claim reference used on PVs."""
    return f"{namespace}/{name}"
