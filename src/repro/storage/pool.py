"""Storage pools: capacity accounting for volume allocation.

A pool owns a fixed number of blocks; creating a volume reserves its
capacity for the volume's lifetime.  Journal volumes draw from pools
too, so an experiment can exhaust capacity and observe the array's
behaviour (``CapacityError``), mirroring how a real array fails volume
creation rather than overcommitting.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import CapacityError


class StoragePool:
    """A named capacity pool on one array."""

    def __init__(self, pool_id: int, capacity_blocks: int,
                 name: str = "") -> None:
        if capacity_blocks < 1:
            raise CapacityError(
                f"pool capacity must be >= 1 block: {capacity_blocks}")
        self.pool_id = pool_id
        self.name = name or f"pool-{pool_id}"
        self.capacity_blocks = capacity_blocks
        self._reservations: Dict[str, int] = {}

    @property
    def reserved_blocks(self) -> int:
        """Blocks currently reserved by volumes/journals."""
        return sum(self._reservations.values())

    @property
    def free_blocks(self) -> int:
        """Blocks available for new reservations."""
        return self.capacity_blocks - self.reserved_blocks

    def reserve(self, owner: str, blocks: int) -> None:
        """Reserve ``blocks`` for ``owner``; raises CapacityError if full
        or if the owner already holds a reservation."""
        if blocks < 1:
            raise CapacityError(f"reservation must be >= 1 block: {blocks}")
        if owner in self._reservations:
            raise CapacityError(
                f"{self.name}: owner {owner!r} already has a reservation")
        if blocks > self.free_blocks:
            raise CapacityError(
                f"{self.name}: need {blocks} blocks, only "
                f"{self.free_blocks} free")
        self._reservations[owner] = blocks

    def __repr__(self) -> str:
        return (f"<StoragePool {self.name!r} "
                f"free={self.free_blocks}/{self.capacity_blocks}>")
