"""Page format of MiniDB's data volume.

The key space is hash-partitioned into fixed buckets, one page (= one
storage block) per bucket.  A page serialises to a self-describing JSON
payload with a CRC32 checksum and the LSN of the last update it
contains; readers verify the checksum and raise
:class:`~repro.errors.CorruptPageError` on mismatch, so storage-level
corruption can never silently enter query results.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CorruptPageError

#: page format version, checked on load
PAGE_FORMAT = 1


@dataclass
class Page:
    """One hash bucket of key/value pairs."""

    page_id: int
    #: LSN of the newest update reflected in this page image
    lsn: int = -1
    data: Dict[str, str] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Serialise with checksum; the inverse of :meth:`from_bytes`."""
        body = json.dumps({
            "format": PAGE_FORMAT,
            "page_id": self.page_id,
            "lsn": self.lsn,
            "data": self.data,
        }, sort_keys=True, separators=(",", ":")).encode()
        checksum = zlib.crc32(body)
        return checksum.to_bytes(4, "big") + body

    @classmethod
    def from_bytes(cls, page_id: int, payload: Optional[bytes]) -> "Page":
        """Deserialise a page; ``None`` payload yields an empty page."""
        if payload is None:
            return cls(page_id=page_id)
        if len(payload) < 5:
            raise CorruptPageError(
                f"page {page_id}: truncated payload ({len(payload)} bytes)")
        checksum = int.from_bytes(payload[:4], "big")
        body = payload[4:]
        if zlib.crc32(body) != checksum:
            raise CorruptPageError(f"page {page_id}: checksum mismatch")
        try:
            decoded = json.loads(body)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise CorruptPageError(
                f"page {page_id}: undecodable body") from exc
        if not isinstance(decoded, dict) or "lsn" not in decoded or \
                not isinstance(decoded.get("data"), dict):
            raise CorruptPageError(f"page {page_id}: malformed body")
        if decoded.get("format") != PAGE_FORMAT:
            raise CorruptPageError(
                f"page {page_id}: unknown format {decoded.get('format')}")
        if decoded.get("page_id") != page_id:
            raise CorruptPageError(
                f"page {page_id}: payload belongs to page "
                f"{decoded.get('page_id')}")
        return cls(page_id=page_id, lsn=decoded["lsn"],
                   data=dict(decoded["data"]))

    def apply(self, key: str, value: Optional[str], lsn: int) -> None:
        """Apply one update (None value = delete) and advance the LSN."""
        if value is None:
            self.data.pop(key, None)
        else:
            self.data[key] = value
        self.lsn = max(self.lsn, lsn)


def bucket_for_key(key: str, bucket_count: int) -> int:
    """Stable hash partitioning (CRC32, not ``hash()`` which is salted)."""
    if bucket_count < 1:
        raise ValueError(f"bucket_count must be >= 1: {bucket_count}")
    return zlib.crc32(key.encode()) % bucket_count
