"""Replication pairs and their lifecycle states.

Terminology follows the paper's storage system (Hitachi-style):

* **P-VOL / S-VOL** — primary (main-site) and secondary (backup-site)
  volume of a pair.
* **Pair states** — ``SMPL`` (unpaired), ``COPY`` (initial copy in
  progress), ``PAIR`` (steady-state mirroring), ``PSUS`` (intentionally
  split), ``PSUE`` (suspended by error, e.g. journal full or link down
  too long), ``SSWS`` (secondary promoted after failover).

A pair belongs to exactly one replication engine: a
:class:`~repro.storage.adc.JournalGroup` for asynchronous copy or a
:class:`~repro.storage.sdc.SyncMirror` for synchronous copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Set, Tuple

from repro.errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.volume import Volume


class PairState(enum.Enum):
    """Lifecycle state of a replication pair."""

    SMPL = "SMPL"
    COPY = "COPY"
    PAIR = "PAIR"
    PSUS = "PSUS"
    PSUE = "PSUE"
    SSWS = "SSWS"


class CopyMode(enum.Enum):
    """Replication technology of a pair."""

    ASYNCHRONOUS = "asynchronous"
    SYNCHRONOUS = "synchronous"


@dataclass
class ReplicationPair:
    """One P-VOL/S-VOL mirror relationship.

    The ``state`` of an asynchronous pair is partly derived: while its
    journal group is healthy, a pair reports ``COPY`` until the restore
    pipeline has applied its initial-copy watermark and ``PAIR``
    afterwards.  Suspensions are recorded on the pair itself.
    """

    pair_id: str
    mode: CopyMode
    pvol: "Volume"
    svol: "Volume"
    created_at: float
    #: journal sequence that completes the initial copy (async pairs)
    copy_watermark: int = -1
    #: set when the pair is split or errors out
    suspended_state: Optional[PairState] = None
    suspend_reason: str = ""
    #: blocks written while unprotected, for resynchronisation
    dirty_blocks: Set[Tuple[int, int]] = field(default_factory=set)
    #: set after failover promotion
    promoted: bool = False
    #: set by the engine as restore progresses (async pairs)
    initial_copy_done: bool = False
    #: lifecycle hook ``(pair, event)`` called on suspend / resume /
    #: promote; the owning engine installs one to feed the flight
    #: recorder (pairs themselves have no telemetry access)
    observer: Optional[Callable[["ReplicationPair", str], None]] = \
        field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pvol.volume_id == self.svol.volume_id and \
                self.pvol is self.svol:
            raise ReplicationError(
                f"pair {self.pair_id}: P-VOL and S-VOL must differ")
        if self.pvol.capacity_blocks != self.svol.capacity_blocks:
            raise ReplicationError(
                f"pair {self.pair_id}: capacity mismatch "
                f"({self.pvol.capacity_blocks} vs "
                f"{self.svol.capacity_blocks} blocks)")

    @property
    def state(self) -> PairState:
        """Current pair state (derived, see class docstring)."""
        if self.promoted:
            return PairState.SSWS
        if self.suspended_state is not None:
            return self.suspended_state
        if not self.initial_copy_done:
            return PairState.COPY
        return PairState.PAIR

    def suspend(self, state: PairState, reason: str) -> None:
        """Move the pair to PSUS/PSUE."""
        if state not in (PairState.PSUS, PairState.PSUE):
            raise ReplicationError(
                f"suspend target must be PSUS or PSUE, got {state}")
        self.suspended_state = state
        self.suspend_reason = reason
        self._notify("suspend")

    def clear_suspension(self) -> None:
        """Return to COPY/PAIR after a successful resync."""
        self.suspended_state = None
        self.suspend_reason = ""
        self._notify("resume")

    def mark_dirty(self, volume_id: int, block: int) -> None:
        """Remember an unprotected write for later resynchronisation."""
        self.dirty_blocks.add((volume_id, block))

    def take_dirty(self) -> Set[Tuple[int, int]]:
        """Consume the dirty-block set (start of a resync)."""
        dirty, self.dirty_blocks = self.dirty_blocks, set()
        return dirty

    def secondary_current(self, block: int, version: int) -> bool:
        """True when the S-VOL already holds ``block`` at ``version`` or
        newer.

        The delta-negotiation step of bulk copy/resync: the per-block
        ``(version, crc32)`` metadata carried by every
        :class:`~repro.storage.volume.BlockValue` is compared *before*
        any payload is shipped, so an up-to-date secondary block never
        crosses the wire.
        """
        return self.svol.versions.get(block, 0) >= version

    def promote(self) -> None:
        """Failover: make the S-VOL writable (SSWS)."""
        self.promoted = True
        self._notify("promote")

    def _notify(self, event: str) -> None:
        if self.observer is not None:
            self.observer(self, event)

    def __repr__(self) -> str:
        return (f"<ReplicationPair {self.pair_id!r} {self.mode.value} "
                f"{self.state.value} pvol={self.pvol.volume_id} "
                f"svol={self.svol.volume_id}>")
