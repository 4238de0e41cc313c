"""The array-backed CSI driver (the simulated Storage Plug-in driver).

:class:`HspcDriver` wraps one :class:`~repro.storage.array.StorageArray`
and exposes the CSI controller operations.  Management calls pay a
configurable REST latency so operator-automation experiments (E3) can
compare configuration times honestly.

Idempotency: CSI requires CreateVolume/CreateSnapshot to be idempotent
per name; the driver keeps a name → handle table and returns the
existing resource on retry, as a real driver does.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.errors import CsiError
from repro.csi.spec import (CsiDriver, ProvisionedSnapshot,
                            ProvisionedVolume, snapshot_handle)
from repro.storage.array import StorageArray


class HspcDriver(CsiDriver):
    """CSI driver for the simulated enterprise array."""

    driver_name = "hspc.hitachi.com"

    def __init__(self, array: StorageArray, default_pool_id: int,
                 management_latency: float = 0.050) -> None:
        if management_latency < 0:
            raise ValueError("management_latency must be >= 0")
        self.array = array
        self.default_pool_id = default_pool_id
        self.management_latency = management_latency
        self._volumes_by_name: Dict[str, ProvisionedVolume] = {}
        self._snapshots_by_name: Dict[str, ProvisionedSnapshot] = {}

    # -- helpers -------------------------------------------------------------

    def _pool_id(self, parameters: Dict[str, str]) -> int:
        raw = parameters.get("poolId")
        if raw is None:
            return self.default_pool_id
        try:
            return int(raw)
        except ValueError as exc:
            raise CsiError(f"bad poolId parameter: {raw!r}") from exc

    def _pay_latency(self) -> Generator[object, object, None]:
        if self.management_latency > 0:
            yield self.array.sim.sleep(self.management_latency)

    # -- controller service --------------------------------------------------

    def create_volume(self, name: str, capacity_blocks: int,
                      parameters: Dict[str, str],
                      ) -> Generator[object, object, ProvisionedVolume]:
        existing = self._volumes_by_name.get(name)
        if existing is not None:
            if existing.capacity_blocks != capacity_blocks:
                raise CsiError(
                    f"CreateVolume {name!r}: incompatible capacity "
                    f"{capacity_blocks} (existing "
                    f"{existing.capacity_blocks})")
            return existing
        yield from self._pay_latency()
        volume = self.array.create_volume(
            self._pool_id(parameters), capacity_blocks, name=name)
        provisioned = ProvisionedVolume(
            volume_handle=self.array.volume_handle(volume.volume_id),
            array_serial=self.array.serial,
            capacity_blocks=capacity_blocks)
        self._volumes_by_name[name] = provisioned
        return provisioned

    def delete_volume(self, volume_handle: str,
                      ) -> Generator[object, object, None]:
        yield from self._pay_latency()
        volume_id = self.array.parse_handle(volume_handle)
        pool_id = self._pool_for_volume(volume_id)
        self.array.delete_volume(volume_id, pool_id)
        self._volumes_by_name = {
            name: vol for name, vol in self._volumes_by_name.items()
            if vol.volume_handle != volume_handle}

    def _pool_for_volume(self, volume_id: int) -> int:
        # The simulated array reserves volumes against exactly one pool;
        # resolve it by checking which pool holds the reservation.
        for pool_id, pool in self.array._pools.items():
            if pool.holds(f"volume-{volume_id}"):
                return pool_id
        raise CsiError(f"volume {volume_id} has no pool reservation")

    def create_snapshot(self, name: str, source_volume_handle: str,
                        ) -> Generator[object, object, ProvisionedSnapshot]:
        existing = self._snapshots_by_name.get(name)
        if existing is not None:
            return existing
        yield from self._pay_latency()
        volume_id = self.array.parse_handle(source_volume_handle)
        snapshot = self.array.create_snapshot(volume_id, name=name)
        provisioned = ProvisionedSnapshot(
            snapshot_handle=snapshot_handle(self.array.serial,
                                            snapshot.snapshot_id),
            source_volume_handle=source_volume_handle,
            creation_time=snapshot.created_at)
        self._snapshots_by_name[name] = provisioned
        return provisioned

    def delete_snapshot(self, handle: str,
                        ) -> Generator[object, object, None]:
        from repro.csi.spec import parse_snapshot_handle
        yield from self._pay_latency()
        serial, snapshot_id = parse_snapshot_handle(handle)
        if serial != self.array.serial:
            raise CsiError(f"snapshot {handle!r} belongs to array {serial}")
        self.array.delete_snapshot(snapshot_id)
        self._snapshots_by_name = {
            name: snap for name, snap in self._snapshots_by_name.items()
            if snap.snapshot_handle != handle}

    def __repr__(self) -> str:
        return (f"<HspcDriver array={self.array.serial!r} "
                f"volumes={len(self._volumes_by_name)}>")
