"""Scheduled snapshot generations at the backup site.

The paper's demonstration cuts a single snapshot group on demand; an
operational deployment keeps a *rotation*: a consistent snapshot group
every N seconds, retaining the last K generations, so analytics and
point-in-time restore can pick any recent instant.  This module provides
that as the natural extension of §III-A2's snapshot-group technology —
the cadence/retention knobs the paper leaves to the operator.

Each generation is a snapshot-group cut (a consistent cut of the
replicated order, taken without stopping restore) and is pruned
oldest-first once the retention limit is exceeded; pruning releases the
copy-on-write store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.errors import SnapshotError
from repro.storage.array import StorageArray
from repro.storage.snapshot import SnapshotGroup


@dataclass(frozen=True)
class SnapshotGeneration:
    """One retained generation of the rotation."""

    index: int
    group_id: str
    created_at: float
    group: SnapshotGroup


class SnapshotScheduler:
    """Cuts and rotates consistent snapshot groups of a volume set."""

    def __init__(self, array: StorageArray, volume_ids: Sequence[int],
                 interval: float, retain: int,
                 name: str = "schedule") -> None:
        if interval <= 0:
            raise SnapshotError(f"interval must be > 0: {interval}")
        if retain < 1:
            raise SnapshotError(f"retain must be >= 1: {retain}")
        if not volume_ids:
            raise SnapshotError("scheduler needs at least one volume")
        self.array = array
        self.volume_ids = list(volume_ids)
        self.interval = interval
        self.retain = retain
        self.name = name
        self._generations: List[SnapshotGeneration] = []
        self._counter = itertools.count(1)
        self._running = False
        self._process = None
        #: generations ever pruned (observability)
        self.pruned_count = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the rotation loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self._process = self.array.sim.spawn(
            self._loop(), name=f"snapshot-scheduler-{self.name}")

    def stop(self) -> None:
        """Stop cutting new generations (retained ones stay)."""
        self._running = False

    def _loop(self) -> Generator[object, object, None]:
        while self._running:
            yield self.array.sim.sleep(self.interval)
            if not self._running:
                return
            yield from self.take_generation()

    # -- operations ---------------------------------------------------------

    def take_generation(self,
                        ) -> Generator[object, object, SnapshotGeneration]:
        """Cut one generation now and prune beyond the retention limit.

        Process generator (it completes without advancing the clock).
        """
        index = next(self._counter)
        group_id = f"{self.name}-gen-{index}"
        group = yield from self.array.create_snapshot_group(
            group_id, self.volume_ids)
        generation = SnapshotGeneration(
            index=index, group_id=group_id,
            created_at=self.array.sim.now, group=group)
        self._generations.append(generation)
        while len(self._generations) > self.retain:
            oldest = self._generations.pop(0)
            self.array.delete_snapshot_group(oldest.group_id)
            self.pruned_count += 1
        return generation

    # -- access ------------------------------------------------------------

    @property
    def generations(self) -> List[SnapshotGeneration]:
        """Retained generations, oldest first."""
        return list(self._generations)

    def latest(self) -> SnapshotGeneration:
        """The newest retained generation."""
        if not self._generations:
            raise SnapshotError(f"{self.name}: no generations yet")
        return self._generations[-1]

    def __repr__(self) -> str:
        return (f"<SnapshotScheduler {self.name!r} "
                f"every={self.interval:g}s retain={self.retain} "
                f"kept={len(self._generations)}>")
