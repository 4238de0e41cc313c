"""The serial reference replicator: what a backup image must be.

The consistency group's journaled writes in sequence order — each pair's
initial copy first, then every acknowledged host write in ack order —
replayed serially, last writer wins (deterministic replay as the oracle
for a replica's state, as in HyCoR).  It reads only the main array's
:class:`WriteHistory`, never the pipeline: a backup image at restored
sequence ``s`` that differs from ``image(s)`` is a state no serial
replica passes through (docs/consistency_model.md §6).
"""

from typing import Callable, Dict, List, Tuple

from repro.storage.history import WriteHistory

#: one journal entry: (primary volume id, block, payload, version)
Entry = Tuple[int, int, bytes, int]


class ReferenceReplicator:
    """Journal order and serial replay for one consistency group."""

    def __init__(self, history: WriteHistory,
                 payload_of: Callable[[str], bytes]) -> None:
        self.history = history
        #: maps a history record's tag back to the payload it wrote
        self.payload_of = payload_of
        #: the journal, indexed by sequence
        self.entries: List[Entry] = []
        #: history ack seq -> the journal sequence that carries it (an
        #: initial-copy entry carries every pre-pairing write it covers)
        self.carried_by: Dict[int, int] = {}
        self.volumes: List[int] = []
        self._read = 0  # history records already journaled

    @property
    def newest(self) -> int:
        """Highest journaled sequence (-1 when empty)."""
        return len(self.entries) - 1

    def pair(self, volume_id: int) -> None:
        """Journal ``volume_id``'s initial copy: its current content,
        one entry per written block in block order."""
        self.sync()
        latest = {}
        for record in self.history.records[:self._read]:
            if record.volume_id == volume_id:
                latest.setdefault(record.block, []).append(record)
        for block in sorted(latest):
            newest = latest[block][-1]
            for record in latest[block]:
                self.carried_by[record.seq] = len(self.entries)
            self.entries.append((volume_id, block,
                                 self.payload_of(newest.tag),
                                 newest.version))
        self.volumes.append(volume_id)

    def sync(self) -> None:
        """Journal the host writes acknowledged since the last call."""
        records = self.history.records
        for record in records[self._read:]:
            if record.volume_id in self.volumes:
                self.carried_by[record.seq] = len(self.entries)
                self.entries.append((record.volume_id, record.block,
                                     self.payload_of(record.tag),
                                     record.version))
        self._read = len(records)

    def image(self, through: int) -> Dict[int, Dict[int, tuple]]:
        """Per volume, ``block -> (payload, version)`` after serially
        applying every entry with sequence <= ``through``."""
        images = {volume_id: {} for volume_id in self.volumes}
        for volume_id, block, payload, version in \
                self.entries[:through + 1]:
            images[volume_id][block] = (payload, version)
        return images

    def missing(self, through: int) -> int:
        """Acknowledged writes an image at ``through`` does not hold."""
        return sum(sequence > through
                   for sequence in self.carried_by.values())
