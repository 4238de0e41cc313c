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
