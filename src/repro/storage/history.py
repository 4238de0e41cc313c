"""The global write history: ground truth for consistency checking.

The paper's recovery argument (§I) rests on one property of enterprise
storage: *the order of acknowledgements defines the order of data
updates*, and a backup is usable iff it corresponds to a prefix of that
order.  :class:`WriteHistory` records every **acknowledged** host write on
an array, in ack order, with a monotone sequence number.

The consistency checker (``repro.recovery.checker``) later compares a
backup image against this history: the image is *consistent* iff the set
of writes it contains is downward-closed under the history order
(restricted to the volume group under test).  This module only records;
it never influences the data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(slots=True)
class WriteRecord:
    """One acknowledged host write.

    ``version`` is the per-volume monotone version the write installed in
    ``block`` — the pair (volume_id, version) uniquely identifies a write,
    which is how backup block maps are matched back to history records.

    Not frozen: the frozen-dataclass ``__init__`` pays one
    ``object.__setattr__`` per field and the history append sits on the
    host-write ack path.  Records are immutable by convention — the
    history never hands out anything it would re-read.
    """

    seq: int
    time: float
    volume_id: int
    block: int
    version: int
    tag: Optional[str] = None

    def __str__(self) -> str:
        label = f" tag={self.tag}" if self.tag else ""
        return (f"#{self.seq} t={self.time:.6f} vol={self.volume_id} "
                f"block={self.block} v{self.version}{label}")


class WriteHistory:
    """Append-only ack-ordered log of host writes on one array."""

    def __init__(self) -> None:
        self._records: List[WriteRecord] = []
        # cached immutable view handed out by :attr:`records`;
        # invalidated on append so repeated probe/checker reads are O(1)
        self._view: Optional[Tuple[WriteRecord, ...]] = None
        #: times the view tuple was (re)built — regression-test hook
        #: proving repeated reads between appends do not copy the log
        self.view_builds = 0

    def append_many(self, time: float, writes: Sequence[tuple],
                    ) -> List[WriteRecord]:
        """Record writes acked at one instant: ``writes`` is
        ``(volume_id, block, version, tag)`` rows in ack order.  Returns
        their records, each with the next ack seq."""
        records = self._records
        new = [WriteRecord(seq, time, volume_id, block, version, tag)
               for seq, (volume_id, block, version, tag)
               in enumerate(writes, len(records))]
        records += new
        self._view = None
        return new

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[WriteRecord, ...]:
        """Immutable snapshot of the full history (cached between
        appends, so probe loops and the consistency checker never pay a
        per-read copy of the whole log)."""
        view = self._view
        if view is None:
            view = self._view = tuple(self._records)
            self.view_builds += 1
        return view

    def for_volume(self, volume_id: int) -> List[WriteRecord]:
        """History restricted to one volume (ack order preserved)."""
        return self.restricted((volume_id,))

    def restricted(self, volume_ids: Iterable[int]) -> List[WriteRecord]:
        """History restricted to a volume group (ack order preserved)."""
        wanted = set(volume_ids)
        return [r for r in self._records if r.volume_id in wanted]
