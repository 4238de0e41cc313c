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
:class:`~repro.storage.sdc.SyncMirror` for synchronous copy.  Both move
blocks outside the host path (SDC's initial copy, ADC's resync) through
one negotiated routine, :func:`delta_copy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Generator, List, Optional,
                    Set, Tuple)

from repro.errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.simulation.network import NetworkLink
    from repro.storage.volume import BlockValue, Volume
    from repro.telemetry.metrics import Counter


#: blocks per negotiated copy chunk: the copy negotiates (and ships)
#: this many blocks per link round trip instead of paying one
#: propagation delay per block
COPY_BATCH_BLOCKS = 32
#: wire bytes of the per-block ``(version, crc32)`` negotiation
#: metadata — the lightweight-metadata exchange that lets up-to-date
#: secondary blocks skip the payload transfer entirely
NEGOTIATE_METADATA_BYTES = 16


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


def delta_copy(sim: "Simulator", link: "NetworkLink", svol: "Volume",
               items: List[Tuple[int, "BlockValue"]], skipped: "Counter",
               sink: Callable[[List[Tuple[int, "BlockValue"]]],
                              Generator[object, object, bool]],
               ) -> Generator[object, object, None]:
    """Copy sorted ``(block, value)`` items to ``svol``, negotiated
    (process generator).

    Each chunk of ``COPY_BATCH_BLOCKS`` items ships only the per-block
    ``(version, crc32)`` metadata first and waits one propagation delay
    for the verdict, read from the S-VOL's versions: blocks it holds at
    the same or a newer version count in ``skipped`` and never cross
    the wire.  The stale rest goes to ``sink`` (a process generator),
    which moves it and returns False to stop the copy.  A link failure
    raises :class:`~repro.simulation.network.LinkDownError`.
    """
    versions = svol.versions
    for start in range(0, len(items), COPY_BATCH_BLOCKS):
        chunk = items[start:start + COPY_BATCH_BLOCKS]
        # negotiation round trip: metadata out, verdict back
        yield from link.transfer(NEGOTIATE_METADATA_BYTES * len(chunk))
        ack_delay = link.one_way_delay()
        if ack_delay > 0:
            yield sim.sleep(ack_delay)
        stale = [(block, value) for block, value in chunk
                 if versions.get(block, 0) < value.version]
        if len(stale) < len(chunk):
            skipped.increment(len(chunk) - len(stale))
        if stale and not (yield from sink(stale)):
            return
