"""CSI-shaped driver interface (§II's Container Storage Interface).

The CSI "standardizes the operations of external storage systems, which
vary depending on the vendors" — here that means every storage operation
a platform controller performs goes through :class:`CsiDriver`, never
through a :class:`~repro.storage.array.StorageArray` directly.  The demo
deliberately breaks this rule in exactly one place, as the paper does:
snapshot *groups* are an alpha CSI feature the vendor plugin does not
support yet, so the console operates the array directly for them.

All driver methods are process generators (they model management-path
REST calls to the array, which take time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator


@dataclass(frozen=True)
class ProvisionedVolume:
    """Result of CreateVolume: the array-side identity of a new volume."""

    volume_handle: str
    array_serial: str
    capacity_blocks: int


@dataclass(frozen=True)
class ProvisionedSnapshot:
    """Result of CreateSnapshot."""

    snapshot_handle: str
    source_volume_handle: str
    creation_time: float


class CsiDriver:
    """Abstract CSI driver: identity + controller services.

    Concrete drivers wrap one storage array.  Method names follow the
    CSI controller-service RPCs.
    """

    #: the driver name storage classes reference as ``provisioner``
    driver_name: str = ""

    def create_volume(self, name: str, capacity_blocks: int,
                      parameters: Dict[str, str],
                      ) -> Generator[object, object, ProvisionedVolume]:
        """Provision a volume; idempotent per ``name``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def delete_volume(self, volume_handle: str,
                      ) -> Generator[object, object, None]:
        """Delete a provisioned volume."""
        raise NotImplementedError
        yield  # pragma: no cover

    def create_snapshot(self, name: str, source_volume_handle: str,
                        ) -> Generator[object, object, ProvisionedSnapshot]:
        """Cut a snapshot of one volume; idempotent per ``name``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def delete_snapshot(self, snapshot_handle: str,
                        ) -> Generator[object, object, None]:
        """Delete a snapshot."""
        raise NotImplementedError
        yield  # pragma: no cover


def snapshot_handle(array_serial: str, snapshot_id: int) -> str:
    """Canonical snapshot handle format."""
    return f"snap.{array_serial}.{snapshot_id}"


def parse_snapshot_handle(handle: str) -> tuple[str, int]:
    """Inverse of :func:`snapshot_handle`: ``(array_serial, snapshot_id)``."""
    parts = handle.split(".")
    if len(parts) != 3 or parts[0] != "snap":
        raise ValueError(f"malformed snapshot handle {handle!r}")
    return parts[1], int(parts[2])
