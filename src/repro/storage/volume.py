"""Logical volumes (LDEVs) of the simulated storage array.

A :class:`Volume` is a block map with media latency, a monotone
per-volume version counter, a replication role, and copy-on-write hooks
for attached snapshots.  A read is a process generator — callers
``yield from`` it inside a simulation process; a writer sleeps out
:meth:`Volume.apply_delay` and then calls the latency-free
:meth:`Volume.install_blocks`.

Versioning rule: every write installs a version number that is monotone
across the whole volume (not per block).  Host writes allocate the next
version; replication *applies* carry the primary's version so that the
block maps of primary and secondary stay comparable and the consistency
checker can match backup contents to history records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import (TYPE_CHECKING, Dict, Generator, Iterable, Iterator,
                    List, Mapping, NamedTuple, Optional, Sequence)

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
    """Payload and version of one block, as inspection hands it out
    (volumes store the three fields as columns).

    ``checksum`` is the payload's CRC32 installed by the write path;
    reads verify it so media corruption can never be returned silently.
    ``None`` (hand-built values) skips verification.
    """

    payload: bytes
    version: int
    checksum: Optional[int] = None

    def intact(self) -> bool:
        """True when the payload still matches its write-time CRC32."""
        if self.checksum is None:
            return True
        return payload_checksum(self.payload) == self.checksum


class _BlockMap(Mapping):
    """``block -> BlockValue`` over three block-state columns; each
    value is built when it is looked at and is garbage right after, so
    walking a volume never holds a tuple per block."""

    __slots__ = ("_columns",)

    def __init__(self, columns: Sequence[dict]) -> None:
        self._columns = columns

    def __getitem__(self, block: int) -> BlockValue:
        payloads, versions, checksums = self._columns
        return BlockValue(payloads[block], versions[block],
                          checksums[block])

    def __iter__(self) -> Iterator[int]:
        return iter(self._columns[0])

    def __len__(self) -> int:
        return len(self._columns[0])


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

    Block state is columnar: three sparse ``block -> field`` dicts in
    :class:`BlockValue` field order, so an image or version map is one
    C-level ``dict(column)`` copy.

    Copy-on-write is decided by a generation stamp.  Every snapshot
    attach opens a generation; ``_cow_stamps[block]`` is the newest
    generation whose snapshot holds the block's pre-image (snapshots
    are served oldest first, so every older live one holds it too).  A
    live snapshot is owed the pre-image iff its generation is newer
    than the stamp; a block owes nothing once its stamp reaches the
    newest live generation — one int compare, made at *install* time,
    so a snapshot attached while a write is waiting keeps the old block.
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
        self._payloads: Dict[int, bytes] = {}
        self._versions: Dict[int, int] = {}
        self._checksums: Dict[int, Optional[int]] = {}
        self._columns = (self._payloads, self._versions, self._checksums)
        #: read-only live view of the version column (versions start at
        #: 1): what the replication paths' stale-apply test reads
        self.versions = MappingProxyType(self._versions)
        self._version_counter = 0
        self._snapshots: List["Snapshot"] = []
        self._generation = 0
        #: generation of the newest live snapshot (0: none attached)
        self._newest_live = 0
        self._cow_stamps: Dict[int, int] = {}
        #: counters for experiment reporting
        self.reads = 0
        self.writes = 0

    # -- inspection ---------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        """Number of allocated blocks."""
        return len(self._payloads)

    @property
    def writable_by_host(self) -> bool:
        """Hosts may write SIMPLEX, PVOL and promoted (SSWS) volumes."""
        return (self.status is VolumeStatus.NORMAL
                and self.role is not VolumeRole.SVOL)

    def column(self, field: int) -> dict:
        """Copy of one block-state column, ``block -> field`` in
        :class:`BlockValue` field order (0 payload, 1 version, 2
        checksum).  No latency; a C-level dict copy."""
        return dict(self._columns[field])

    def block_map(self) -> Mapping[int, BlockValue]:
        """Copy of the block map (checker/test use; no latency)."""
        return _BlockMap([dict(column) for column in self._columns])

    def peek(self, block: int) -> Optional[BlockValue]:
        """Instant, latency-free block inspection (checker/test use)."""
        row = self._row(block)
        return None if row is None else BlockValue(*row)

    @property
    def version_counter(self) -> int:
        """Highest version installed so far."""
        return self._version_counter

    # -- validation ---------------------------------------------------------

    def check_access(self, block: int) -> None:
        """Raise unless ``block`` is in range and the volume online."""
        if not 0 <= block < self.capacity_blocks:
            raise VolumeError(
                f"{self.name}: block {block} out of range "
                f"[0, {self.capacity_blocks})")
        if self.status is not VolumeStatus.NORMAL:
            raise VolumeError(f"{self.name} is {self.status.value}")

    # -- I/O (process generators) ------------------------------------------

    def read_block(self, block: int) -> Generator[object, object, Optional[bytes]]:
        """Read one block; returns its payload or None if unallocated."""
        self.check_access(block)
        if self.media.read_latency > 0:
            yield self.sim.sleep(self.media.read_latency)
        self.reads += 1
        value = self.peek(block)
        if value is None:
            return None
        if not value.intact():
            raise IntegrityError(
                f"{self.name}: block {block} failed its CRC32 check "
                f"(v{value.version})")
        return value.payload

    # -- writes: wait out apply_delay, then install ---------------------------

    def apply_delay(self, writes: Iterable[tuple]) -> float:
        """Simulated media cost of one :meth:`install_blocks` of the
        same rows: the write itself plus the most copy-on-write
        preservations any one block still owes (the media writes
        overlap).  O(1) while no snapshot is attached.  Every writer —
        host writes, restore applies, SDC mirroring and copies — waits
        it out, then installs.
        """
        cost = self.media.write_latency
        cow = self.media.cow_copy_latency
        newest_live = self._newest_live
        if not newest_live or cow <= 0:
            return cost
        stamp_of = self._cow_stamps.get
        pending = 0
        for row in writes:
            stamp = stamp_of(row[0], 0)
            if stamp < newest_live:
                pending = max(pending, len(self._owed(stamp)))
                if pending == len(self._snapshots):
                    break  # every live snapshot: no block can owe more
        return cost + pending * cow

    def install_block(self, block: int, payload: bytes,
                      version: Optional[int] = None,
                      checksum: Optional[int] = None) -> int:
        """One-row :meth:`install_blocks`; returns the installed version."""
        return self.install_blocks(((block, payload, version, checksum),))[0]

    def install_blocks(self, writes: Iterable[tuple]) -> List[int]:
        """Latency-free install of ``(block, payload, version,
        checksum)`` rows in order (the caller already waited out
        :meth:`apply_delay`); returns the installed versions.

        An explicit ``version`` is a replication apply and must be newer
        than what the block holds (restore applies in order);
        ``version=None`` allocates the next host version.  ``checksum``
        reuses a payload CRC32 the caller already computed (``None``
        hashes here).  A block that still owes a pre-image to a live
        snapshot preserves it first.
        """
        if self.status is not VolumeStatus.NORMAL:
            raise VolumeError(f"{self.name} is {self.status.value}")
        payloads, versions, checksums = self._columns
        stamp_of = self._cow_stamps.get
        newest_live = self._newest_live
        capacity = self.capacity_blocks
        newest = self._version_counter
        installed = []
        try:
            for block, payload, version, checksum in writes:
                if not 0 <= block < capacity:
                    self.check_access(block)
                if version is None:
                    version = newest = newest + 1
                else:
                    current = versions.get(block)
                    if current is not None and current >= version:
                        raise VolumeError(
                            f"{self.name}: out-of-order apply to block "
                            f"{block}: have v{current}, got v{version}")
                    if version > newest:
                        newest = version
                if newest_live:
                    stamp = stamp_of(block, 0)
                    if stamp < newest_live:
                        self._preserve(block, stamp)
                # bytes input is immutable and passes through uncopied
                data = payload if type(payload) is bytes else bytes(payload)
                payloads[block] = data
                versions[block] = version
                checksums[block] = (payload_checksum(data)
                                    if checksum is None else checksum)
                installed.append(version)
        finally:
            self._version_counter = newest
            self.writes += len(installed)
        return installed

    def format(self) -> None:
        """Erase the contents (copy-target preparation).  Goes through
        the copy-on-write hook like any write: live snapshots keep the
        image they froze."""
        newest_live = self._newest_live
        if newest_live:
            stamp_of = self._cow_stamps.get
            for block in self._payloads:
                stamp = stamp_of(block, 0)
                if stamp < newest_live:
                    self._preserve(block, stamp)
        for column in self._columns:
            column.clear()
        self._version_counter = 0

    # -- copy-on-write ------------------------------------------------------

    def _owed(self, stamp: int) -> List["Snapshot"]:
        """Live snapshots owed the pre-image of a block stamped
        ``stamp``, oldest first."""
        return [snap for snap in self._snapshots if snap.generation > stamp]

    def _row(self, block: int) -> Optional[tuple]:
        """The block's ``(payload, version, checksum)``; None if empty."""
        if block not in self._payloads:
            return None
        return (self._payloads[block], self._versions[block],
                self._checksums[block])

    def _preserve(self, block: int, stamp: int) -> None:
        """Save the block's current row into the pre-image store of
        every live snapshot newer than its ``stamp``, and stamp it with
        the current generation."""
        row = self._row(block)
        for snap in self._snapshots:
            if snap.generation > stamp:
                snap.preimages[block] = row
        self._cow_stamps[block] = self._generation

    # -- snapshot attachment (used by repro.storage.snapshot) ---------------

    def attach_snapshot(self, snapshot: "Snapshot") -> int:
        """Register a snapshot for copy-on-write preservation; returns
        the generation it opens."""
        self._snapshots.append(snapshot)
        self._generation += 1
        self._newest_live = self._generation
        return self._generation

    def detach_snapshot(self, snapshot: "Snapshot") -> None:
        """Unregister a deleted snapshot."""
        self._snapshots = [s for s in self._snapshots if s is not snapshot]
        self._newest_live = (self._snapshots[-1].generation
                             if self._snapshots else 0)

    # -- role management -------------------------------------------------

    def set_role(self, role: VolumeRole) -> None:
        """Change the replication role (pair lifecycle use)."""
        self.role = role

    def block_volume(self) -> None:
        """Take the volume offline (disaster injection)."""
        self.status = VolumeStatus.BLOCKED

    def __repr__(self) -> str:
        return (f"<Volume {self.name!r} id={self.volume_id} "
                f"{self.role.value}/{self.status.value} "
                f"used={self.used_blocks}/{self.capacity_blocks}>")


class SnapshotView:
    """Read view over a snapshot, presented like a volume.

    Reads hit the snapshot's saved pre-images first and fall through to
    the base volume for blocks never overwritten since the snapshot, so
    a database can run recovery against a snapshot without touching the
    base volume.
    """

    def __init__(self, snapshot: "Snapshot") -> None:
        self.snapshot = snapshot
        self.sim = snapshot.base.sim
        self.name = f"{snapshot.base.name}@snap{snapshot.snapshot_id}"
        self.capacity_blocks = snapshot.base.capacity_blocks
        self.reads = 0

    def read_block(self, block: int) -> Generator[object, object, Optional[bytes]]:
        """Read from the pre-images or the base volume."""
        media = self.snapshot.base.media
        if media.read_latency > 0:
            yield self.sim.sleep(media.read_latency)
        self.reads += 1
        return self.snapshot.read_current(block)

    def __repr__(self) -> str:
        return f"<SnapshotView {self.name!r}>"
