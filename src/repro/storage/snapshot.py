"""Copy-on-write snapshots and snapshot groups (§III-A2).

A :class:`Snapshot` freezes the image of one volume at creation time:
subsequent base-volume writes first preserve the block's pre-image into
the snapshot store (the COW hook lives in
:meth:`repro.storage.volume.Volume.install_blocks`).

A :class:`SnapshotGroup` snapshots several volumes **at one instant, at
their journal group's restored sequence**, without stopping restore, so
the set of images is crash-consistent across volumes — the property
that lets the backup site run analytics on a usable multi-volume image
while replication continues.  Per-volume snapshots taken at different
instants do not have this property, which experiment E4 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SnapshotError
from repro.storage.volume import SnapshotView, Volume


class Snapshot:
    """A copy-on-write point-in-time image of one volume."""

    def __init__(self, snapshot_id: int, base: Volume,
                 created_at: float, name: str = "") -> None:
        self.snapshot_id = snapshot_id
        self.base = base
        self.created_at = created_at
        self.name = name or f"snap-{snapshot_id}"
        self.deleted = False
        #: The pre-image store, written by the base volume's COW hook
        #: (and by nothing else): block -> the ``(payload, version,
        #: checksum)`` row the base held when the snapshot was taken, or
        #: None when the block was unallocated then.
        self.preimages: Dict[int, Optional[tuple]] = {}
        # Memoized image_blocks()/frozen_version_map() (see image_blocks)
        self._image_cache: Optional[Dict[int, bytes]] = None
        self._frozen_cache: Optional[Dict[int, int]] = None
        #: the restored sequence the group cut froze, when group-created
        self.group_sequence: Optional[int] = None
        #: the base volume's COW generation this snapshot opened
        self.generation = base.attach_snapshot(self)

    @property
    def cow_blocks(self) -> int:
        """Number of preserved pre-images (snapshot store usage)."""
        return len(self.preimages)

    # -- image access --------------------------------------------------------

    def _row(self, block: int) -> Optional[tuple]:
        """The block as the view sees it: pre-image, or base."""
        self._check_live()
        if block in self.preimages:
            return self.preimages[block]
        return self.base.peek(block)

    def read_current(self, block: int) -> Optional[bytes]:
        """Content of ``block`` as the snapshot view sees it."""
        row = self._row(block)
        return row[0] if row is not None else None

    def _column(self, field: int) -> dict:
        """One ``block -> field`` column of the image (``BlockValue``
        field order): a C-level copy of the base volume's column,
        patched with the pre-images."""
        column = self.base.column(field)
        for block, row in self.preimages.items():
            if row is None:
                column.pop(block, None)
            else:
                column[block] = row[field]
        return column

    def image_blocks(self) -> Dict[int, bytes]:
        """The full current image of the snapshot view (checker use).

        Memoized: base ∪ pre-images is the *frozen* view, immutable
        after creation — every base mutation routes through the COW hook
        first, so the pre-image it preserves is the value this cache
        already holds.  The returned dict is the cache — callers treat
        it as read-only.
        """
        self._check_live()
        if self._image_cache is None:
            self._image_cache = self._column(0)
        return self._image_cache

    def frozen_version_map(self) -> Dict[int, int]:
        """block → version of the *frozen* image.

        This is what consistency checking compares against history: the
        state of the base volume at snapshot-creation time.  Memoized
        like :meth:`image_blocks`; the returned dict is the cache —
        callers treat it as read-only.
        """
        self._check_live()
        if self._frozen_cache is None:
            self._frozen_cache = self._column(1)
        return self._frozen_cache

    def view(self) -> SnapshotView:
        """A volume-like read handle over this snapshot."""
        self._check_live()
        return SnapshotView(self)

    # -- lifecycle -----------------------------------------------------------

    def delete(self) -> None:
        """Release the snapshot (pre-images dropped, COW hook detached)."""
        if self.deleted:
            return
        self.deleted = True
        self.base.detach_snapshot(self)
        self.preimages.clear()
        self._image_cache = None
        self._frozen_cache = None

    def _check_live(self) -> None:
        if self.deleted:
            raise SnapshotError(f"{self.name} has been deleted")

    def __repr__(self) -> str:
        state = "deleted" if self.deleted else "live"
        return (f"<Snapshot {self.name!r} of {self.base.name!r} "
                f"t={self.created_at:g} cow={self.cow_blocks} {state}>")


@dataclass
class SnapshotGroup:
    """Snapshots of several volumes taken at a single consistent instant."""

    group_id: str
    created_at: float
    snapshots: List[Snapshot] = field(default_factory=list)

    def member_ids(self) -> List[int]:
        """Snapshot ids of the members."""
        return [snap.snapshot_id for snap in self.snapshots]

    def by_base_volume(self) -> Dict[int, Snapshot]:
        """Map base volume id → member snapshot."""
        return {snap.base.volume_id: snap for snap in self.snapshots}

    def delete(self) -> None:
        """Delete every member snapshot."""
        for snap in self.snapshots:
            snap.delete()

    def frozen_versions(self) -> Dict[int, Dict[int, int]]:
        """base volume id → (block → frozen version), for the checker."""
        return {snap.base.volume_id: snap.frozen_version_map()
                for snap in self.snapshots}

