"""Block devices: how MiniDB reaches its storage.

MiniDB performs all durable I/O through a :class:`BlockDevice`, which has
three implementations:

* :class:`ArrayBlockDevice` — the production path: host reads/writes
  through a :class:`~repro.storage.array.StorageArray`, so every commit
  lands in the array's ack history and rides the replication pipeline;
* :class:`ViewBlockDevice` — recovery/analytics path: direct reads of a
  :class:`~repro.storage.volume.Volume` or
  :class:`~repro.storage.volume.SnapshotView` (used when mounting
  promoted secondaries or snapshot images at the backup site);
* :class:`MemoryBlockDevice` — in-memory device for unit-testing the
  database engine without a storage array.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.errors import VolumeError
from repro.storage.array import StorageArray

#: one batched write: (block, payload, tag)
WriteItem = Tuple[int, bytes, Optional[str]]


class BlockDevice:
    """Minimal block interface MiniDB runs on."""

    #: blocks available on the device
    capacity_blocks: int = 0

    def read_block(self, block: int,
                   ) -> Generator[object, object, Optional[bytes]]:
        """Read one block; None when unallocated (process generator)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def write_block(self, block: int, payload: bytes, tag: Optional[str] = None,
                    ) -> Generator[object, object, None]:
        """Durably write one block (process generator)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def write_blocks(self, items: Sequence[WriteItem],
                     ) -> Generator[object, object, None]:
        """Durably write several blocks, in order (process generator).

        Default implementation writes serially; array-backed devices
        override this with the array's batched host-write path.
        """
        for block, payload, tag in items:
            yield from self.write_block(block, payload, tag=tag)


class ArrayBlockDevice(BlockDevice):
    """Host I/O through a storage array (the replicated data path)."""

    def __init__(self, array: StorageArray, volume_id: int) -> None:
        self.array = array
        self.sim = array.sim
        self.volume_id = volume_id
        self.capacity_blocks = array.get_volume(volume_id).capacity_blocks

    def read_block(self, block: int,
                   ) -> Generator[object, object, Optional[bytes]]:
        payload = yield from self.array.host_read(self.volume_id, block)
        return payload

    def write_block(self, block: int, payload: bytes,
                    tag: Optional[str] = None,
                    ) -> Generator[object, object, None]:
        yield from self.array.host_write(self.volume_id, block, payload,
                                         tag=tag)

    def write_blocks(self, items: Sequence[WriteItem],
                     ) -> Generator[object, object, None]:
        """Batched host writes: one aggregated media wait for the whole
        flush, identical ack order (see ``StorageArray.host_write_many``)."""
        volume_id = self.volume_id
        yield from self.array.host_write_many(
            [(volume_id, block, payload, tag)
             for block, payload, tag in items])

    def __repr__(self) -> str:
        return (f"<ArrayBlockDevice {self.array.serial}:"
                f"{self.volume_id}>")


class ViewBlockDevice(BlockDevice):
    """Direct read access to a volume or snapshot view (no host path).

    Used for mounting backup images: the volume objects of a promoted
    secondary, or a snapshot view (the recovery tooling owns the
    image).
    """

    def __init__(self, view) -> None:
        # ``view`` is any object with a read_block generator and
        # capacity_blocks (Volume and SnapshotView both qualify).
        self.view = view
        self.sim = getattr(view, "sim", None)
        self.capacity_blocks = view.capacity_blocks

    def read_block(self, block: int,
                   ) -> Generator[object, object, Optional[bytes]]:
        payload = yield from self.view.read_block(block)
        return payload

    def __repr__(self) -> str:
        return f"<ViewBlockDevice over {self.view!r}>"


class MemoryBlockDevice(BlockDevice):
    """In-memory device for engine unit tests (zero latency)."""

    def __init__(self, capacity_blocks: int = 4096) -> None:
        if capacity_blocks < 1:
            raise VolumeError("capacity_blocks must be >= 1")
        self.capacity_blocks = capacity_blocks
        self.sim = None
        self._blocks: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def read_block(self, block: int,
                   ) -> Generator[object, object, Optional[bytes]]:
        self._check(block)
        self.reads += 1
        return self._blocks.get(block)
        yield  # pragma: no cover - generator marker

    def write_block(self, block: int, payload: bytes,
                    tag: Optional[str] = None,
                    ) -> Generator[object, object, None]:
        self._check(block)
        self.writes += 1
        self._blocks[block] = bytes(payload)
        return
        yield  # pragma: no cover - generator marker

    def _check(self, block: int) -> None:
        if not 0 <= block < self.capacity_blocks:
            raise VolumeError(
                f"block {block} out of range [0, {self.capacity_blocks})")
