"""Logical volumes (LDEVs) of the simulated storage array.

A :class:`Volume` is a block map with media latency, a monotone
per-volume version counter, a replication role, and copy-on-write hooks
for attached snapshots.  All I/O methods are process generators — callers
``yield from`` them inside a simulation process.

Versioning rule: every write installs a version number that is monotone
across the whole volume (not per block).  Host writes allocate the next
version; replication *applies* carry the primary's version so that the
block maps of primary and secondary stay comparable and the consistency
checker can match backup contents to history records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Generator, Iterable, List,
                    NamedTuple, Optional)

from repro.errors import IntegrityError, VolumeError
from repro.storage.journal import payload_checksum

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.storage.snapshot import Snapshot


class VolumeRole(enum.Enum):
    """Replication role of a volume."""

    #: not part of any replication pair
    SIMPLEX = "simplex"
    #: replication source (primary volume)
    PVOL = "pvol"
    #: replication target (secondary volume) — host writes rejected
    SVOL = "svol"
    #: promoted secondary after failover (writable)
    SSWS = "ssws"


class VolumeStatus(enum.Enum):
    """Availability of a volume."""

    NORMAL = "normal"
    BLOCKED = "blocked"


class BlockValue(NamedTuple):
    """Payload and version stored in one block.

    ``checksum`` is the payload's CRC32 installed by the write path;
    reads verify it so media corruption can never be returned silently.
    ``None`` (hand-built values, pre-checksum clones) skips verification.

    A NamedTuple rather than a dataclass: block installs construct one
    of these per write, and tuple construction runs at C speed while
    keeping the same field access and value equality.
    """

    payload: bytes
    version: int
    checksum: Optional[int] = None

    def intact(self) -> bool:
        """True when the payload still matches its write-time CRC32."""
        if self.checksum is None:
            return True
        return payload_checksum(self.payload) == self.checksum


@dataclass(frozen=True)
class MediaProfile:
    """Latency profile of the backing media (seconds per block I/O)."""

    read_latency: float = 0.0002
    write_latency: float = 0.0004
    cow_copy_latency: float = 0.0003

    def __post_init__(self) -> None:
        for field_name in ("read_latency", "write_latency",
                           "cow_copy_latency"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")


class Volume:
    """One logical volume on a simulated array.

    Created through :meth:`repro.storage.array.StorageArray.create_volume`;
    direct construction is for tests.
    """

    def __init__(self, sim: "Simulator", volume_id: int,
                 capacity_blocks: int, media: MediaProfile,
                 name: str = "") -> None:
        if capacity_blocks < 1:
            raise VolumeError(f"capacity_blocks must be >= 1: {capacity_blocks}")
        self.sim = sim
        self.volume_id = volume_id
        self.name = name or f"ldev-{volume_id}"
        self.capacity_blocks = capacity_blocks
        self.media = media
        self.role = VolumeRole.SIMPLEX
        self.status = VolumeStatus.NORMAL
        self._blocks: Dict[int, BlockValue] = {}
        self._version_counter = 0
        self._snapshots: List["Snapshot"] = []
        # Blocks whose pre-image every live attached snapshot already
        # holds: installs to them skip the per-snapshot COW scan, and
        # apply_delay() prices them without one.  Cleared whenever a new
        # snapshot attaches (it has no pre-images yet).
        self._cow_saved: set = set()
        #: counters for experiment reporting
        self.reads = 0
        self.writes = 0

    # -- inspection ---------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        """Number of allocated blocks."""
        return len(self._blocks)

    @property
    def writable_by_host(self) -> bool:
        """Hosts may write SIMPLEX, PVOL and promoted (SSWS) volumes."""
        return (self.status is VolumeStatus.NORMAL
                and self.role is not VolumeRole.SVOL)

    def block_map(self) -> Dict[int, BlockValue]:
        """Copy of the block map (checker/test use; no latency)."""
        return dict(self._blocks)

    def peek(self, block: int) -> Optional[BlockValue]:
        """Instant, latency-free block inspection (checker/test use)."""
        return self._blocks.get(block)

    def allocated_blocks(self) -> List[int]:
        """Sorted list of allocated block numbers."""
        return sorted(self._blocks)

    @property
    def version_counter(self) -> int:
        """Highest version installed so far."""
        return self._version_counter

    # -- validation ---------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.capacity_blocks:
            raise VolumeError(
                f"{self.name}: block {block} out of range "
                f"[0, {self.capacity_blocks})")

    def _check_online(self) -> None:
        if self.status is not VolumeStatus.NORMAL:
            raise VolumeError(f"{self.name} is {self.status.value}")

    # -- I/O (process generators) ------------------------------------------

    def read_block(self, block: int) -> Generator[object, object, Optional[bytes]]:
        """Read one block; returns its payload or None if unallocated."""
        self._check_block(block)
        self._check_online()
        if self.media.read_latency > 0:
            yield self.sim.timeout(self.media.read_latency)
        self.reads += 1
        value = self._blocks.get(block)
        if value is None:
            return None
        if not value.intact():
            raise IntegrityError(
                f"{self.name}: block {block} failed its CRC32 check "
                f"(v{value.version})")
        return value.payload

    def write_block(self, block: int, payload: bytes,
                    version: Optional[int] = None,
                    checksum: Optional[int] = None,
                    ) -> Generator[object, object, int]:
        """Write one block; returns the installed version.

        ``version=None`` allocates the next host version; an explicit
        version is a replication apply and must be newer than what the
        block currently holds (restore applies in order).  ``checksum``
        reuses a payload CRC32 the caller already computed; ``None``
        hashes here.
        """
        if not isinstance(payload, (bytes, bytearray)):
            raise VolumeError(
                f"{self.name}: payload must be bytes, got "
                f"{type(payload).__name__}")
        self._check_block(block)
        self._check_online()
        if self._snapshots:
            yield from self._copy_on_write(block)
        if self.media.write_latency > 0:
            yield self.sim.timeout(self.media.write_latency)
        if version is None:
            self._version_counter += 1
            version = self._version_counter
        else:
            current = self._blocks.get(block)
            if current is not None and current.version >= version:
                raise VolumeError(
                    f"{self.name}: out-of-order apply to block {block}: "
                    f"have v{current.version}, got v{version}")
            self._version_counter = max(self._version_counter, version)
        # materialise once and checksum the stored bytes (bytes input is
        # already immutable and passes through without a copy)
        data = payload if type(payload) is bytes else bytes(payload)
        if checksum is None:
            checksum = payload_checksum(data)
        self._blocks[block] = BlockValue(data, version, checksum)
        self.writes += 1
        return version

    # -- batched replication apply (used by the ADC restore loop) -----------

    def apply_delay(self, block: int) -> float:
        """Simulated media cost of one latency-free apply to ``block``:
        pending copy-on-write preservations plus the write itself.

        The batched restore applier — and the batched host-write path
        (:meth:`~repro.storage.array.StorageArray.host_write_many`) —
        aggregate this across a batch (``max``, since the media writes
        overlap), wait once, then install with :meth:`install_block`.
        """
        cost = self.media.write_latency
        cow = self.media.cow_copy_latency
        if cow > 0 and self._snapshots and block not in self._cow_saved:
            pending = 0
            for snap in self._snapshots:
                if not snap.deleted and not snap.has_preimage(block):
                    pending += 1
            cost += pending * cow
        return cost

    def install_block(self, block: int, payload: bytes,
                      version: Optional[int] = None,
                      checksum: Optional[int] = None) -> int:
        """Latency-free block install (the caller already waited out
        :meth:`apply_delay`).  Same validation and copy-on-write
        semantics as :meth:`write_block`: an explicit ``version`` is a
        replication apply, ``version=None`` allocates the next host
        version (the batched host-write path).  ``checksum`` reuses an
        already-computed payload CRC32 (e.g. from the journal entry)
        instead of re-hashing.
        """
        self._check_block(block)
        self._check_online()
        if self._snapshots and block not in self._cow_saved:
            blocks_get = self._blocks.get
            for snap in self._snapshots:
                if not snap.deleted and not snap.has_preimage(block):
                    snap.save_preimage(block, blocks_get(block))
            self._cow_saved.add(block)
        if version is None:
            self._version_counter += 1
            version = self._version_counter
        else:
            current = self._blocks.get(block)
            if current is not None and current.version >= version:
                raise VolumeError(
                    f"{self.name}: out-of-order apply to block {block}: "
                    f"have v{current.version}, got v{version}")
            if version > self._version_counter:
                self._version_counter = version
        data = payload if type(payload) is bytes else bytes(payload)
        if checksum is None:
            checksum = payload_checksum(data)
        self._blocks[block] = BlockValue(data, version, checksum)
        self.writes += 1
        return version

    def install_blocks(self, writes: Iterable[tuple]) -> None:
        """Latency-free install of one window of replication applies,
        ``(block, payload, version, checksum)`` rows in order: row for
        row :meth:`install_block` with an explicit version, but online
        check, snapshot-list lookup and counters are paid once.
        """
        self._check_online()
        blocks = self._blocks
        snapshots = self._snapshots
        saved = self._cow_saved
        newest = self._version_counter
        installed = 0
        try:
            for block, payload, version, checksum in writes:
                if not 0 <= block < self.capacity_blocks:
                    self._check_block(block)
                current = blocks.get(block)
                if current is not None and current.version >= version:
                    raise VolumeError(
                        f"{self.name}: out-of-order apply to block "
                        f"{block}: have v{current.version}, got v{version}")
                if snapshots and block not in saved:
                    for snap in snapshots:
                        if not snap.deleted and not snap.has_preimage(block):
                            snap.save_preimage(block, current)
                    saved.add(block)
                data = payload if type(payload) is bytes else bytes(payload)
                if checksum is None:
                    checksum = payload_checksum(data)
                blocks[block] = BlockValue(data, version, checksum)
                if version > newest:
                    newest = version
                installed += 1
        finally:
            self._version_counter = newest
            self.writes += installed

    def _copy_on_write(self, block: int) -> Generator[object, object, None]:
        """Preserve the pre-image of ``block`` in every attached snapshot.

        A snapshot can be deleted (e.g. pruned by a retention schedule)
        while this write waits out the copy latency; such snapshots are
        simply skipped — their pre-image store is gone anyway.
        """
        if block in self._cow_saved:
            return
        pending = [snap for snap in self._snapshots
                   if not snap.has_preimage(block)]
        for snap in pending:
            if snap.deleted:
                continue
            if self.media.cow_copy_latency > 0:
                yield self.sim.timeout(self.media.cow_copy_latency)
            if snap.deleted:
                continue  # pruned while we waited for the copy
            snap.save_preimage(block, self._blocks.get(block))
        # a snapshot attached while a copy above waited would have
        # cleared the set; only then could the all() below be stale
        if all(snap.deleted or snap.has_preimage(block)
               for snap in self._snapshots):
            self._cow_saved.add(block)

    # -- snapshot attachment (used by repro.storage.snapshot) ---------------

    def attach_snapshot(self, snapshot: "Snapshot") -> None:
        """Register a snapshot for copy-on-write preservation."""
        self._snapshots.append(snapshot)
        # the new snapshot holds no pre-images yet
        self._cow_saved.clear()

    def detach_snapshot(self, snapshot: "Snapshot") -> None:
        """Unregister a deleted snapshot."""
        self._snapshots = [s for s in self._snapshots if s is not snapshot]

    @property
    def snapshot_count(self) -> int:
        """Number of attached (live) snapshots."""
        return len(self._snapshots)

    # -- role management -------------------------------------------------

    def set_role(self, role: VolumeRole) -> None:
        """Change the replication role (pair lifecycle use)."""
        self.role = role

    def block_volume(self) -> None:
        """Take the volume offline (disaster injection)."""
        self.status = VolumeStatus.BLOCKED

    def unblock_volume(self) -> None:
        """Bring the volume back online."""
        self.status = VolumeStatus.NORMAL

    def __repr__(self) -> str:
        return (f"<Volume {self.name!r} id={self.volume_id} "
                f"{self.role.value}/{self.status.value} "
                f"used={self.used_blocks}/{self.capacity_blocks}>")


class SnapshotView:
    """Read/write view over a snapshot, presented like a volume.

    Reads hit the snapshot's saved pre-images first and fall through to
    the base volume for blocks never overwritten since the snapshot.
    Writes are redirected into the snapshot overlay (the simulated array
    supports writable snapshots, as Hitachi Thin Image does), so a
    database can run recovery against a snapshot without touching the
    base volume.
    """

    def __init__(self, snapshot: "Snapshot") -> None:
        self.snapshot = snapshot
        self.sim = snapshot.base.sim
        self.name = f"{snapshot.base.name}@snap{snapshot.snapshot_id}"
        self.capacity_blocks = snapshot.base.capacity_blocks
        self.reads = 0
        self.writes = 0

    @property
    def volume_id(self) -> int:
        """Snapshot views expose the snapshot id offset into a distinct
        id space so they never collide with real volume ids."""
        return self.snapshot.view_volume_id

    def read_block(self, block: int) -> Generator[object, object, Optional[bytes]]:
        """Read from the overlay, the pre-images, or the base volume."""
        media = self.snapshot.base.media
        if media.read_latency > 0:
            yield self.sim.timeout(media.read_latency)
        self.reads += 1
        return self.snapshot.read_current(block)

    def write_block(self, block: int, payload: bytes,
                    version: Optional[int] = None,
                    ) -> Generator[object, object, int]:
        """Write into the snapshot overlay (base volume untouched)."""
        media = self.snapshot.base.media
        if media.write_latency > 0:
            yield self.sim.timeout(media.write_latency)
        self.writes += 1
        return self.snapshot.write_overlay(block, bytes(payload))

    def peek(self, block: int) -> Optional[BlockValue]:
        """Latency-free inspection of the view's current content."""
        payload = self.snapshot.read_current(block)
        if payload is None:
            return None
        return BlockValue(payload, self.snapshot.version_of(block))

    def __repr__(self) -> str:
        return f"<SnapshotView {self.name!r}>"
