"""Journal volumes for asynchronous data copy.

The ADC (§III-A1 of the paper) stores update logs in a *journal volume*
at the main site, ships them to the journal volume at the backup site,
and applies ("restores") them to the secondary volumes **in sequence
order**.  The journal's monotone sequence number is what turns a set of
volumes sharing one journal into a *consistency group*: the restore order
at the backup equals the ack order at the main site.

:class:`JournalVolume` is a bounded FIFO of :class:`JournalEntry` with a
per-journal sequence counter.  Overflow (host writing faster than the
link drains, or the link being down) is reported to the owner, which
suspends the pair — mirroring how a real array drops to PSUE when a
journal fills.

Storage is a *sequence-indexed ring*: a list plus a head offset, kept
sorted by sequence (appends are monotone by construction).  Every hot
operation is O(1) amortised per entry — ``peek_batch`` is one slice,
``pop_through`` advances the head after a binary search on the sequence
column, and the oldest entry / retained byte total are direct reads —
so the transfer loop never pays a per-index deque walk or a full-journal
copy just to sample lag.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, List, Optional, Sequence


def payload_checksum(payload: bytes) -> int:
    """CRC32 of a payload, the integrity metadata of the data path.

    Accepts any buffer (``bytes``, ``bytearray``, ``memoryview``)
    without copying it first — ``zlib.crc32`` reads the buffer in place.
    """
    return zlib.crc32(payload) & 0xFFFFFFFF


_entry_sequence = attrgetter("sequence")

#: the fixed entry header of the journal volume and the unreduced wire
ENTRY_HEADER_BYTES = 64


@dataclass(slots=True)
class JournalEntry:
    """One journaled host write.

    ``sequence`` orders entries within one journal; ``version`` is the
    per-volume version installed by the write (used when applying to the
    secondary so block maps stay comparable).  ``checksum`` is the CRC32
    of the payload computed at append time; it travels with the entry so
    the transfer-receive and restore-apply sides can detect corruption
    picked up on the wire or in the journal volume.  Every entry has
    one: there is no unchecked entry.

    Not frozen: a frozen dataclass ``__init__`` pays one
    ``object.__setattr__`` per field, which dominated the ingest hot
    path.  Treat entries as immutable anyway — only the fault-injection
    hooks (:meth:`JournalVolume.corrupt_entry`) may replace one.
    """

    sequence: int
    volume_id: int
    block: int
    payload: bytes
    version: int
    created_at: float
    #: CRC32 of ``payload`` at append time
    checksum: int
    #: telemetry trace context riding with the entry across the
    #: site-to-site hop (None when the write was not traced), so the
    #: restore apply at the backup can parent its span to the
    #: originating host write
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    @property
    def size_bytes(self) -> int:
        """Journal-volume footprint: payload plus the fixed header.  The
        wire size only without reduction, which packs a shipment's
        headers into one block (:mod:`repro.storage.reduction`)."""
        return len(self.payload) + ENTRY_HEADER_BYTES

    def verify_checksum(self) -> bool:
        """True when the payload still matches its append-time CRC32."""
        return payload_checksum(self.payload) == self.checksum


class JournalFullError(Exception):
    """Raised by :meth:`JournalVolume.ingest_batch` when a batch does
    not fit.

    Deliberately not part of the public error hierarchy: the ADC receive
    path sizes every batch to the free capacity, so user code should
    never see it.
    """


#: dead ring slots tolerated before the head offset is compacted away
_COMPACT_THRESHOLD = 4096


class JournalVolume:
    """Bounded FIFO of journal entries with a monotone sequence counter."""

    __slots__ = ("journal_id", "name", "capacity_entries", "_ring",
                 "_sizes", "_head", "_next_sequence", "head_sequence",
                 "peak_entries", "bytes_retained", "mutations")

    def __init__(self, journal_id: int, capacity_entries: int,
                 name: str = "") -> None:
        if capacity_entries < 1:
            raise ValueError(
                f"journal capacity must be >= 1 entry: {capacity_entries}")
        self.journal_id = journal_id
        self.name = name or f"journal-{journal_id}"
        self.capacity_entries = capacity_entries
        #: the ring: retained entries live at ``_ring[_head:]``, sorted
        #: by sequence; the dead prefix is compacted away once it
        #: dominates the list.  ``_sizes`` mirrors the ring index-for-
        #: index with each entry's wire size, so trims can subtract a
        #: whole window's bytes with one C-level ``sum``.
        self._ring: List[JournalEntry] = []
        self._sizes: List[int] = []
        self._head = 0
        self._next_sequence = 0
        #: highest sequence ever appended (-1 when none)
        self.head_sequence = -1
        #: peak occupancy, for capacity-planning experiments
        self.peak_entries = 0
        #: wire bytes of all retained entries, maintained incrementally
        #: so byte-lag probes never walk the journal
        self.bytes_retained = 0
        #: in-place payload mutations injected by fault hooks
        #: (:meth:`corrupt_entry`); a non-zero count tells the restore
        #: side it can no longer trust the receive-time verification
        self.mutations = 0

    def __len__(self) -> int:
        return len(self._ring) - self._head

    @property
    def free_entries(self) -> int:
        """Remaining capacity in entries."""
        return self.capacity_entries - len(self)

    def append_many(self, writes: Sequence[tuple], time: float,
                    trace_id: Optional[str] = None,
                    span_id: Optional[str] = None) -> int:
        """Append ``(volume_id, block, payload, version, checksum)``
        rows in order, each with the next sequence number, for **as many
        as fit**; returns that count (rows that do not fit consume no
        sequence number; the caller reports the overflow).  ``checksum``
        is a payload CRC32 the caller already computed, ``None``
        computes it here.
        """
        ring = self._ring
        occupancy = len(ring) - self._head
        count = min(len(writes), self.capacity_entries - occupancy)
        if count <= 0:
            return 0
        first = self._next_sequence
        sizes = []
        for sequence, (volume_id, block, payload, version, checksum) \
                in enumerate(writes[:count], first):
            data = payload if type(payload) is bytes else bytes(payload)
            if checksum is None:
                checksum = payload_checksum(data)
            ring.append(JournalEntry(
                sequence, volume_id, block, data, version, time,
                checksum, trace_id, span_id))
            sizes.append(len(data) + ENTRY_HEADER_BYTES)
        self._sizes += sizes
        self.bytes_retained += sum(sizes)
        self._next_sequence = first + count
        self.head_sequence = first + count - 1
        if occupancy + count > self.peak_entries:
            self.peak_entries = occupancy + count
        return count

    def ingest_batch(self, entries: List[JournalEntry]) -> int:
        """Accept one transferred batch at the backup site; returns the
        journal bytes admitted.

        Entries must arrive in sequence order (the transfer process
        ships them FIFO over one link) — ``entries`` is a
        :meth:`peek_batch` slice of the shipping journal, sorted by
        construction, so only its first entry is checked against the
        ring tail.  All-or-nothing: order and capacity are checked
        *before* any mutation (the receive path sizes its batch to
        :attr:`free_entries`).
        """
        if not entries:
            return 0
        ring = self._ring
        if len(ring) > self._head \
                and entries[0].sequence <= ring[-1].sequence:
            raise ValueError(
                f"{self.name}: out-of-order ingest "
                f"seq={entries[0].sequence} after {ring[-1].sequence}")
        occupancy = len(ring) - self._head
        if occupancy + len(entries) > self.capacity_entries:
            raise JournalFullError(f"{self.name} full on ingest")
        ring.extend(entries)
        sizes = [len(entry.payload) + ENTRY_HEADER_BYTES
                 for entry in entries]
        self._sizes.extend(sizes)
        admitted = sum(sizes)
        self.bytes_retained += admitted
        self.head_sequence = entries[-1].sequence
        occupancy += len(entries)
        if occupancy > self.peak_entries:
            self.peak_entries = occupancy
        return admitted

    def peek_batch(self, limit: int, offset: int = 0) -> List[JournalEntry]:
        """The oldest ``limit`` entries without removing them.

        ``offset`` skips that many retained entries first: the windowed
        transfer loop peeks the batch *behind* its in-flight shipments
        without trimming anything, so a failed shipment leaves the
        journal untouched and simply re-ships.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1: {limit}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0: {offset}")
        start = self._head + offset
        return self._ring[start:start + limit]

    def pop_through(self, sequence: int) -> List[JournalEntry]:
        """Remove and return all entries with ``sequence <=`` the given
        sequence (journal trim after successful transfer/restore).

        O(log n) to locate the cut plus O(removed) to hand the removed
        entries back; the dead prefix is only compacted once it is both
        large and at least half the list (it then at least doubles
        before the next compaction), so the amortised shift cost per
        retained entry is constant.
        """
        ring = self._ring
        head = self._head
        if len(ring) <= head or ring[head].sequence > sequence:
            return []
        size = len(ring)
        if ring[-1].sequence <= sequence:  # full drain: the common case
            cut = size
        else:
            # sequences are contiguous unless entries were skipped
            # (quarantine, coalescing), so index distance == sequence
            # distance is an exact guess almost always; verify with two
            # probes and fall back to binary search on gaps
            cut = head + (sequence - ring[head].sequence) + 1
            if cut >= size or ring[cut].sequence <= sequence \
                    or ring[cut - 1].sequence > sequence:
                cut = bisect_right(ring, sequence, lo=head, hi=min(cut, size),
                                   key=_entry_sequence)
        removed = ring[head:cut]
        if cut == len(ring):
            # everything retained was consumed: drop storage outright
            ring.clear()
            self._sizes.clear()
            self._head = 0
            self.bytes_retained = 0
        else:
            self.bytes_retained -= sum(self._sizes[head:cut])
            self._head = cut
            if cut >= _COMPACT_THRESHOLD and cut * 2 >= len(ring):
                del ring[:cut]
                del self._sizes[:cut]
                self._head = 0
        return removed

    def oldest_sequence(self) -> Optional[int]:
        """Sequence of the oldest retained entry, or None when empty."""
        ring = self._ring
        return ring[self._head].sequence if len(ring) > self._head else None

    def oldest_entry(self) -> Optional[JournalEntry]:
        """The oldest retained entry itself, or None when empty (O(1);
        lag probes use this instead of copying the whole journal)."""
        ring = self._ring
        return ring[self._head] if len(ring) > self._head else None

    def corrupt_entry(self, index: int,
                      mutate: Optional[Callable[[bytes], bytes]] = None,
                      ) -> Optional[JournalEntry]:
        """Fault injection: corrupt the payload of the ``index``-th
        retained entry *in place* without updating its checksum.

        Models a torn/bit-rotted write inside the journal volume medium.
        ``mutate`` transforms the payload (default flips the first byte
        and truncates — a torn write).  Returns the corrupted entry, or
        None when the journal holds fewer than ``index + 1`` entries.
        Bumps :attr:`mutations`, which re-arms restore-apply checksum
        verification for the journal's consumers.
        """
        if index < 0 or index >= len(self):
            return None
        slot = self._head + index
        entry = self._ring[slot]
        if mutate is None:
            payload = entry.payload
            flipped = bytes([payload[0] ^ 0xFF]) + payload[1:] \
                if payload else b"\xff"
            mutated = flipped[:max(1, len(flipped) - 1)]
        else:
            mutated = bytes(mutate(entry.payload))
        corrupted = replace(entry, payload=mutated)
        self._ring[slot] = corrupted
        self._sizes[slot] = corrupted.size_bytes
        self.bytes_retained += corrupted.size_bytes - entry.size_bytes
        self.mutations += 1
        return corrupted

    def clear(self) -> None:
        """Drop every retained entry (pair deletion)."""
        self._ring.clear()
        self._sizes.clear()
        self._head = 0
        self.bytes_retained = 0

    def __repr__(self) -> str:
        return (f"<JournalVolume {self.name!r} "
                f"{len(self)}/{self.capacity_entries} "
                f"head={self.head_sequence}>")
