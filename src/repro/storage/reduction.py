"""Wire data reduction: inline compression + fingerprint dedup.

PR 8 attacked wire *latency* (pipelining, delta-negotiated copy); this
module attacks wire *volume*.  The journal transfer path — and the
initial copy and resync riding it — can pass its payloads through one
:class:`WireReducer`, which
charges :class:`~repro.simulation.network.NetworkLink` the
*post-reduction* byte count while the logical-byte counters keep their
pre-reduction meaning.  Every entry header of a shipment travels as
one header block, and two mechanisms are tried cheapest-first per
payload:

* **fingerprint dedup** — a bounded :class:`FingerprintCache` on each
  side of the link, keyed on
  lightweight ``(crc32, length)`` fingerprints (no cryptographic
  hashing, following the DR-path argument of "Optimized Disaster
  Recovery for Distributed Storage Systems").  A payload whose
  fingerprint the receiver is known to hold ships as a small reference
  instead of bytes.  The sender byte-compares its cached payload before
  referencing (a crc32 collision can therefore never *send* a wrong
  reference), and the receiver re-verifies every resolved reference
  against the entry CRC32 — a corrupted cache entry falls back to the
  full payload, counted in ``repro_reduction_ref_fallbacks_total``, so
  dedup can never silently corrupt;
* **inline compression** — :class:`ReductionCodec` raw-deflates each
  payload with the payload shipped just before it in the same batch as
  a preset dictionary, whatever form that one took (raw, compressed or
  a reference: the receiver holds it decoded one step earlier either
  way; the first payload of a batch has none), and ships the
  compressed form only when it beats the ratio threshold (the skip-if-
  incompressible flag); already-dense payloads cross the wire verbatim
  (a density probe turns most away before deflate is paid for).  The
  dictionary is chosen by position, never by another payload's verdict,
  so the probe's call on one payload changes how no other compresses.
  The entry CRC32 checked at receive covers every decoded payload, so
  the wire form carries no zlib header or checksum of its own.

**The header block** (:func:`pack_header`) replaces the fixed 64-byte
entry headers with plain columns, built and read without a per-row
Python loop, then raw-deflated in one pass (``zlib.compress``): the
sequence as ``(first, count)`` and a gap column (all 1 when the
shipment is contiguous); ``block``, ``version``, payload length and
``volume_id`` each behind a byte naming the narrowest unsigned width
holding the column's maximum; ``checksum`` at u32; ``created_at`` as
doubles; a byte a row saying raw, compressed or referenced — a
reference's fingerprint is its row's ``(checksum, length)``.  Deflate
removes the repetition (unit gaps, a constant length, the time one
journal append's rows share); there is no flag byte, since deflate's
stored-block fallback caps an incompressible block's growth at a few
bytes.  The link is charged the block plus the payloads.  The trace
context is telemetry, not replicated data: the receive side takes it
from the shipment's own entries, so switching the tracer off moves no
simulated time.

**Cache synchronisation.**  Sender and receiver caches commit *only at
receive time*, in receive order, each payload in the class its wire
form shows: compressed or raw.  Compressed entries are evicted before
raw ones (a hit on a page deflate already shrank saves little), the
oldest first within a class.  Both sides see the same commits and
classes, so they stay byte-identical by construction; all-raw traffic
evicts plain FIFO.  Encode-time decisions read the sender cache and
the full payloads of the batch itself and of the batches in flight
ahead of it, which are received first (a failed head voids everything
behind it).  **Every reference is bounded to resolve**: a sender-cache
entry only if the evictions the full payloads committing before the
reference can cause do not reach its eviction rank
(:meth:`FingerprintCache.survives`); an in-flight or in-batch raw copy
only if too few commits follow to evict it, a compressed one only if
those evictions do not reach the compressed entries cached now, which
all go before it.  Nothing is committed at encode time, so discarding
an in-flight shipment rolls the cache state back for free
(:meth:`WireReducer.discard` just counts it).  A fallback therefore
means a cache entry failed re-verification.
:meth:`WireReducer.invalidate` drops both sides wholesale on
link-down, integrity quarantine and array restart.

Everything is deterministic, and the reducer adds no simulated-time
events of its own — with ``enabled=False`` (the default) no call site
changes behaviour at all.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import attrgetter, sub
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)
from zlib import (DEFLATED, compress, compressobj, crc32, decompress,
                  decompressobj)

from repro.storage.journal import ENTRY_HEADER_BYTES, JournalEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.telemetry.registry import MetricsRegistry

#: framing bytes prepended to a compressed payload on the wire (the
#: skip-if-incompressible flag plus the compressed length)
COMPRESS_FRAME_BYTES = 2

#: zlib compression level (1 fastest .. 9 densest)
COMPRESS_LEVEL = 6
#: zlib level of the header block's deflate pass: about half level 6's
#: deflate time, for 0.15 bytes more a row
HEADER_LEVEL = 1
#: ``wbits`` of raw deflate: no zlib header, no Adler-32 trailer
RAW_DEFLATE = -15
#: ship the compressed form only when ``compressed <= threshold * raw``
#: — the skip-if-incompressible flag
RATIO_THRESHOLD = 0.9
#: payloads smaller than this skip the compression attempt (the zlib
#: header alone would eat the win)
MIN_COMPRESS_BYTES = 32

#: density probe (docs/performance.md): deflate is skipped when, of at
#: most PROBE_SAMPLE_BYTES bytes taken at an even stride over the
#: payload, at least PROBE_DENSE_DISTINCT per 64 are distinct values.
#: Uniform bytes show 56.7 +- 2.2 in 64; text, hex, padded rows < 40.
PROBE_SAMPLE_BYTES = 64
PROBE_DENSE_DISTINCT = 46

#: :attr:`EncodedBatch.forms` marker of a payload shipped as a
#: fingerprint reference (compared by identity)
REFERENCE = object()

#: a ``(crc32, length)`` payload fingerprint
Fingerprint = Tuple[int, int]

# -- the header block ---------------------------------------------------------

#: a row's wire form in the header block's forms column
RAW, COMPRESSED, REFERENCED = 0, 1, 2
#: :attr:`EncodedBatch.forms` entry type -> forms-column code
_FORM_CODES = {type(None): RAW, bytes: COMPRESSED, type(REFERENCE): REFERENCED}
#: unsigned ``array`` typecodes, narrowest first, with the bound of each
_WIDTHS = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")
_TYPECODES = "".join(code for code, _bound in _WIDTHS)
_SEQUENCE, _VOLUME, _BLOCK, _VERSION, _CREATED, _PAYLOAD, _CHECKSUM = map(
    attrgetter, ("sequence", "volume_id", "block", "version", "created_at",
                 "payload", "checksum"))


def _narrow(values: Iterable[int]) -> bytes:
    """A byte naming the narrowest unsigned width holding ``values``'
    maximum, then the values at that width."""
    values = list(values)
    top = max(values, default=0)
    for index, (code, bound) in enumerate(_WIDTHS):
        if top < bound:  # (bytes() packs a byte column fastest)
            return bytes((index,)) + (
                array(code, values).tobytes() if index else bytes(values))
    raise OverflowError(f"header value {top} needs more than 64 bits")


def pack_header(entries: Sequence[JournalEntry], checksums: Sequence[int],
                lengths: Sequence[int], forms: Sequence[object]) -> bytes:
    """The header block of one shipment, in this column order:
    ``(first, count)`` and the gap column (``count - 1`` steps between
    sequences); ``block``, ``version``, length and ``volume_id``, each
    behind its width byte; ``checksum`` u32; ``created_at`` doubles;
    the forms column — then one raw deflate at :data:`HEADER_LEVEL`
    over all of it, through the one-shot ``zlib.compress`` (the layer
    table's ``zlib.compress`` row, one call a shipment)."""
    sequences = list(map(_SEQUENCE, entries))
    columns = [_narrow((sequences[0], len(sequences))),
               _narrow(map(sub, islice(sequences, 1, None), sequences))]
    columns += map(_narrow, (map(_BLOCK, entries), map(_VERSION, entries),
                             lengths, map(_VOLUME, entries)))
    columns += (array("I", checksums).tobytes(),
                array("d", map(_CREATED, entries)).tobytes(),
                bytes(map(_FORM_CODES.__getitem__, map(type, forms))))
    # raw deflate: the zlib stream less its 2-byte header and Adler-32
    # (``compress`` takes no ``wbits`` before Python 3.11)
    return compress(b"".join(columns), HEADER_LEVEL)[2:-4]


def unpack_header(block: bytes) -> Tuple[Iterable, ...]:
    """Inverse of :func:`pack_header`: an iterable a column (``sequence,
    volume_id, block, version, created_at, checksum, length, form``)."""
    block = decompress(block, RAW_DEFLATE)
    at = 0

    def take(items: int, code: str = "") -> array:
        """The next column of ``items`` values: of typecode ``code``, or
        of the width its leading byte names."""
        nonlocal at
        if not code:
            code, at = _TYPECODES[block[at]], at + 1
        column = array(code)
        end = at + items * column.itemsize
        column.frombytes(block[at:end])
        at = end
        return column

    first, count = take(2)
    sequences = accumulate(take(count - 1), initial=first)
    blocks, versions, lengths, volumes = (take(count) for _ in range(4))
    checksums, created = take(count, "I"), take(count, "d")
    return (sequences, volumes, blocks, versions, created, checksums,
            lengths, take(count, "B"))


@dataclass(frozen=True)
class ReductionConfig:
    """Tuning knobs of the wire data-reduction engine.

    Off by default: with ``enabled=False`` every wire path behaves (and
    accounts) exactly as before.  ``cache_entries=0`` disables dedup
    while keeping compression.
    """

    enabled: bool = False
    #: bounded fingerprint-cache capacity per side, in payloads
    cache_entries: int = 4096

    def __post_init__(self) -> None:
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")


#: the "reduction off" default of ``AdcConfig.reduction``
DISABLED_REDUCTION = ReductionConfig()


class ReductionCodec:
    """Deterministic raw-deflate compressor with a skip flag.

    Each payload is deflated with the payload shipped just before it in
    its batch as a preset dictionary (``zdict``): neighbouring pages
    share their record layout, so the second pays no cold start.  The
    wire form is therefore a function of the payload and its batch
    position, deterministic for a given batch, so two runs of one seed
    stay byte-identical; the only state is a tally.  Raw deflate carries
    no zlib header or Adler-32: the receive side checks every decoded
    payload against the entry CRC32 anyway.
    """

    def __init__(self) -> None:
        #: payloads the density probe turned away before deflate
        self.probe_skips = 0

    def compress(self, payload: bytes, previous: bytes = b"",
                 ) -> Optional[bytes]:
        """The compressed wire form, deflated against ``previous`` (the
        payload shipped just before it in its batch, empty for the
        first), or None when the payload is too small or too dense to
        be worth shipping compressed.  The probe errs one way only: a
        payload wrongly called dense ships raw (and so is cached in the
        raw eviction class); every other payload gets deflate's exact
        verdict."""
        size = len(payload)
        if size < MIN_COMPRESS_BYTES:
            return None
        stride = size // PROBE_SAMPLE_BYTES or 1
        sample = payload[:stride * PROBE_SAMPLE_BYTES:stride]
        if len(set(sample)) * PROBE_SAMPLE_BYTES \
                >= PROBE_DENSE_DISTINCT * len(sample):
            self.probe_skips += 1
            return None
        packer = compressobj(COMPRESS_LEVEL, DEFLATED, RAW_DEFLATE,
                             zdict=previous)
        packed = packer.compress(payload) + packer.flush()
        if len(packed) + COMPRESS_FRAME_BYTES \
                <= RATIO_THRESHOLD * len(payload):
            return packed
        return None

    @staticmethod
    def decompress(packed: bytes, previous: bytes = b"") -> bytes:
        """Inverse of :meth:`compress` for shipped-compressed payloads:
        ``previous`` must be the dictionary it was deflated against."""
        return decompressobj(RAW_DEFLATE, zdict=previous).decompress(packed)


class FingerprintCache:
    """Bounded ``(crc32, length) -> payload`` map with two FIFO
    eviction classes.

    A payload that crossed the wire compressed is evicted before any
    that crossed raw (a hit on it saves a few dozen bytes, a hit on an
    incompressible page a whole page); within a class the oldest
    insertion goes first.  No recency promotion, deliberately: sender
    and receiver apply the same commit stream with the same classes,
    so insertion-order eviction keeps the two caches identical even
    though the sender *reads* at encode time and the receiver at
    receive time — an LRU would let those differently-ordered reads
    desynchronise the evictions.  All-raw traffic evicts plain FIFO.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0: {capacity}")
        self.capacity = capacity
        self._entries: Dict[Fingerprint, bytes] = {}
        #: per class (compressed, raw): fingerprint -> insertion serial,
        #: oldest first; a class loses its oldest entries only, so
        #: ``serial - removed`` is an entry's place in its class
        self._order: Tuple["OrderedDict[Fingerprint, int]", ...] = (
            OrderedDict(), OrderedDict())
        self._removed = [0, 0]
        #: ``get(fingerprint)``: the cached payload, or None (the map's
        #: own bound method — one lookup per payload on the wire path)
        self.get = self._entries.get
        #: payloads dropped to keep the cache within capacity
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._entries

    def put(self, fingerprint: Fingerprint, payload: bytes,
            raw: bool = True) -> None:
        """Insert a payload in its class (``raw``: it crossed the wire
        uncompressed); a present fingerprint keeps its slot and class
        (the first insertion wins, preserving symmetry across sides)."""
        entries = self._entries
        if fingerprint in entries or not self.capacity:
            return
        if len(entries) >= self.capacity:  # grows one entry at a time
            victim = 0 if self._order[0] else 1  # compressed go first
            del entries[self._order[victim].popitem(last=False)[0]]
            self._removed[victim] += 1
            self.evictions += 1
        order = self._order[raw]
        order[fingerprint] = self._removed[raw] + len(order)
        entries[fingerprint] = payload

    def survives(self, fingerprint: Fingerprint, raw: int,
                 compressed: int) -> bool:
        """Whether the cached ``fingerprint`` is still held after at most
        ``raw`` and ``compressed`` more insertions of each class.  The
        evictions they can cause must not reach its rank, the entries
        evicted before it whatever is inserted meanwhile: the older
        entries of its class, plus every compressed entry if it is raw.
        A raw entry goes only once no compressed entry is left, and
        compressed insertions evict each other, so against it they
        count once.  An uncached ``fingerprint`` stands for a copy those
        insertions commit compressed: it ranks behind every compressed
        entry cached now, and each eviction before it takes at most one
        of them, so it survives if all the evictions do not reach that
        rank."""
        evictions = len(self._entries) + raw - self.capacity
        if evictions + compressed <= 0:  # room for every insertion
            return True
        order_compressed, order_raw = self._order
        serial = order_raw.get(fingerprint)
        if serial is None:
            evictions += compressed
            serial = order_compressed.get(fingerprint)
            rank = len(order_compressed) if serial is None \
                else serial - self._removed[0]
        else:
            evictions += compressed > 0
            rank = len(order_compressed) + serial - self._removed[1]
        return evictions <= rank

    def clear(self) -> None:
        """Drop every cached payload (invalidation)."""
        self._entries.clear()
        for order in self._order:
            order.clear()
        self._removed = [0, 0]


@dataclass(slots=True)
class EncodedBatch:
    """One outgoing batch's wire form, decided at encode (launch) time:
    its header block (:func:`pack_header`) and its payload section."""

    header: bytes
    #: ``64 x rows`` minus the header block's length
    saved_header: int
    #: the sender's payloads: what a raw row or a fallback retransmits
    payloads: List[bytes]
    #: per payload: None raw, ``bytes`` compressed, :data:`REFERENCE`
    forms: List[object]
    #: what the link is charged: the header block plus the payloads
    wire_bytes: int
    #: payload bytes the references / compressed payloads saved
    saved_dedup: int
    saved_compress: int
    #: fingerprint -> (payload, shipped raw) of what ships in full,
    #: first copy only: exactly what this batch's receive commits to
    #: both caches, and in which class
    full: Dict[Fingerprint, Tuple[bytes, bool]]
    #: how many of ``full`` ship compressed
    full_compressed: int


def _survives(ahead: Sequence[EncodedBatch], fingerprint: Fingerprint,
              room: int) -> bool:
    """Whether fewer than ``room`` full payloads commit from the earliest
    ``ahead`` batch carrying ``fingerprint`` on (all of it counted), so
    that batch's raw copy (the first commit keeps the slot) stays
    cached: a fresh raw entry outlives as many commits as under FIFO."""
    for index, batch in enumerate(ahead):
        if fingerprint in batch.full:
            return sum(len(later.full) for later in ahead[index:]) < room
    return False


class WireReducer:
    """One wire path's reduction engine: codec + synchronized caches.

    Owned by a :class:`~repro.storage.adc.JournalGroup`; both ends of
    the (simulated) link live in one process, so the reducer holds the
    sender *and* receiver cache and commits them in lockstep at receive
    time.  With ``enabled=False`` it registers no instruments and every
    call site skips it entirely.
    """

    def __init__(self, sim: "Simulator", config: ReductionConfig,
                 group: str) -> None:
        self.sim = sim
        self.config = config
        self.enabled = config.enabled
        if not self.enabled:
            return
        registry: "MetricsRegistry" = sim.telemetry.registry
        # labelled by journal group, like the group's other families
        scope = self._scope = {"group": group}
        self._registry = registry
        self.codec = ReductionCodec()
        self.sender = FingerprintCache(config.cache_entries)
        self.receiver = FingerprintCache(config.cache_entries)
        #: encode-time dedup lookups and hits (drives the hit-ratio gauge)
        self.lookups = 0
        self.hits = 0
        self._wire_counters: Dict[str, object] = {}
        #: payload sizes retransmitted by the current receive pass
        self._fallbacks: List[int] = []
        self.saved_dedup, self.saved_compress, self.saved_header = (
            registry.counter(
                "repro_wire_bytes_saved_total",
                help="Wire bytes that never crossed the link, by reduction "
                     "mechanism", unit="bytes", mechanism=mechanism, **scope)
            for mechanism in ("dedup", "compress", "header"))
        self.hit_ratio = registry.gauge(
            "repro_dedup_hit_ratio",
            help="Fraction of encode-time fingerprint lookups answered "
                 "from the cache", **scope)
        self.ref_fallbacks = registry.counter(
            "repro_reduction_ref_fallbacks_total",
            help="References that failed receive-side re-verification "
                 "and fell back to the full payload", **scope)
        self.invalidations = registry.counter(
            "repro_reduction_cache_invalidations_total",
            help="Wholesale fingerprint-cache invalidations (link down, "
                 "quarantine, array restart)", **scope)
        self.discarded_shipments = registry.counter(
            "repro_reduction_shipments_discarded_total",
            help="In-flight encoded shipments discarded before receive "
                 "(their cache commits were never applied)", **scope)
        self.deflate_skipped = registry.counter(
            "repro_reduction_deflate_skipped_total",
            help="Payloads the density probe shipped raw without "
                 "running deflate", **scope)

    # -- sender side ---------------------------------------------------------

    def encode_batch(self, entries: Sequence[JournalEntry],
                     trusted: bool = False,
                     ahead: Sequence[EncodedBatch] = (),
                     ) -> EncodedBatch:
        """Decide the wire form of one outgoing batch against the
        current caches.

        A payload's fingerprint is its header row's ``(checksum,
        length)``.  ``trusted`` says every checksum is its payload's
        CRC32 for certain; otherwise each payload is hashed, and one
        that does not match ships in full and is never referenced.  The
        cheapest mechanism wins.  Nothing is committed here.  Every
        reference is bounded to resolve.  A sender-cache entry is
        referenced only if the full payloads committing before the
        reference cannot evict it (:meth:`FingerprintCache.survives`).
        Otherwise a payload dedups against an earlier full copy in the
        ``ahead`` batches (in flight in front of it, in launch order),
        or failing that in this batch, whose receive commits that copy
        first.  A raw copy is referenced only while the full payloads
        committed from its batch on, plus this batch's fresh ones
        before the reference, number fewer than ``cache_entries``; a
        compressed one only while all of them cannot evict past the
        compressed entries cached now.  Each payload is compressed
        against the one before it in ``entries``.  No undo log:
        receive is head-first and a failed head voids every shipment
        behind it, so one that never lands leaves no state behind.
        """
        capacity = self.config.cache_entries
        dedup = capacity > 0
        sender_get = self.sender.get
        survives = self.sender.survives
        compress = self.codec.compress
        payloads = list(map(_PAYLOAD, entries))
        checksums = list(map(_CHECKSUM, entries))
        lengths = list(map(len, payloads))
        fingerprints = list(zip(checksums, lengths))
        in_flight: Dict[Fingerprint, Tuple[bytes, bool]] = {}
        # full copies committing before a reference here lands, by
        # class: each may insert a new key
        raw = compressed = 0
        for batch in reversed(ahead):  # the earliest copy wins
            in_flight.update(batch.full)
            raw += len(batch.full) - batch.full_compressed
            compressed += batch.full_compressed
        compressed_ahead = compressed
        pending: Dict[Fingerprint, Tuple[bytes, bool]] = {}
        forms: List[object] = []
        saved_dedup = saved_compress = 0
        # the dictionary of the next payload: the one shipped before it
        previous = b""
        for payload, fingerprint in zip(payloads, fingerprints):
            intact = trusted or crc32(payload) == fingerprint[0]
            if dedup and intact:
                cached = sender_get(fingerprint)
                if cached is not None:
                    if not survives(fingerprint, raw, compressed):
                        cached = None
                else:
                    copy = in_flight.get(fingerprint) \
                        or pending.get(fingerprint)
                    if copy is not None:
                        cached, copy_raw = copy
                        if copy_raw:
                            room = capacity - len(pending)
                            if not (_survives(ahead, fingerprint, room)
                                    if fingerprint in in_flight
                                    else room > 0):
                                cached = None
                        # a compressed copy may be evicted first: it
                        # ranks behind the compressed entries cached now
                        elif not survives(fingerprint, raw, compressed):
                            cached = None
                # byte-compare before referencing: a (crc32, length)
                # collision must ship its payload, never a wrong reference
                if cached is not None and cached == payload:
                    self.hits += 1
                    saved_dedup += fingerprint[1]
                    forms.append(REFERENCE)
                    previous = payload
                    continue
            # None unless it beats the threshold
            packed = compress(payload, previous)
            forms.append(packed)
            previous = payload
            if packed is not None:
                saved_compress += fingerprint[1] - len(packed) \
                    - COMPRESS_FRAME_BYTES
            # the cache keeps the first; a torn payload is never a copy
            if intact and fingerprint not in pending:
                pending[fingerprint] = (payload, packed is None)
                if packed is None:
                    raw += 1
                else:
                    compressed += 1
        if dedup:
            self.lookups += len(forms)
        # the probe's tally reaches the registry once per batch
        self.deflate_skipped.increment(
            self.codec.probe_skips - self.deflate_skipped.value)
        header = pack_header(entries, checksums, lengths, forms)
        return EncodedBatch(  # (a huge one-row block saved nothing)
            header, max(0, ENTRY_HEADER_BYTES * len(forms) - len(header)),
            payloads, forms,
            len(header) + sum(lengths) - saved_dedup - saved_compress,
            saved_dedup, saved_compress, pending,
            compressed - compressed_ahead)

    def discard(self, count: int = 1) -> None:
        """Record ``count`` in-flight shipments voided before receive.

        Their encodings committed nothing (commit happens at receive),
        so the sender and receiver caches are already consistent — the
        counter just keeps the rollback events observable.
        """
        if self.enabled and count > 0:
            self.discarded_shipments.increment(count)

    # -- receiver side -------------------------------------------------------

    def receive_batch(self, batch: EncodedBatch, count: int,
                      origins: Iterable[JournalEntry],
                      ) -> Iterator[Tuple[JournalEntry, bool]]:
        """Receive-side pass over the first ``count`` rows of one batch:
        yields ``(entry, verified)``, each entry rebuilt from its decoded
        header-block row and payload (and the trace context of the
        entry in ``origins`` it was encoded from, which the wire does
        not carry); :meth:`book` then books the pass.  Compressed forms
        decompress against the payload yielded before them; references
        resolve from the receiver cache and are re-verified against
        their row's checksum (``verified``: no second hash needed); a
        mismatch retransmits the sender's payload, unverified.  Full
        payloads commit to both caches, in the class their wire form
        shows, before they are yielded, so a consumer that stops early
        leaves the rest uncommitted."""
        (sequences, volumes, blocks, versions, created, checksums, lengths,
         forms) = unpack_header(batch.header)
        decompress = self.codec.decompress
        receiver_get = self.receiver.get
        commit_receiver = self.receiver.put
        commit_sender = self.sender.put
        self._fallbacks = fallbacks = []
        # the sender's dictionary, rebuilt: the payload received before
        previous = b""
        for (sequence, volume, block, version, created_at, checksum, length,
             form, packed, payload, origin) in islice(zip(
                sequences, volumes, blocks, versions, created, checksums,
                lengths, forms, batch.forms, batch.payloads, origins),
                count):
            fingerprint = checksum, length
            verified = False
            if form == REFERENCED:
                cached = receiver_get(fingerprint)
                verified = cached is not None and len(cached) == length \
                    and crc32(cached) == checksum
                if verified:
                    payload = cached
                else:
                    # a corrupted cache entry (every reference is
                    # bounded to resolve): retransmit, never corrupt
                    fallbacks.append(length)
                    form = RAW
            elif form == COMPRESSED:
                payload = decompress(packed, previous)
            if not verified:
                commit_sender(fingerprint, payload, form == RAW)
                commit_receiver(fingerprint, payload, form == RAW)
            previous = payload
            yield JournalEntry(sequence, volume, block, payload, version,
                               created_at, checksum, origin.trace_id,
                               origin.span_id), verified

    def invalidate(self) -> None:
        """Drop all cache state on both sides (link-down, quarantine,
        array restart): the sender can no longer prove what the
        receiver holds, so every fingerprint is forgotten and payloads
        re-ship in full until the caches re-warm.  Idempotent — already
        empty caches neither clear nor count, so the transfer loops may
        call this on every wake-up that observes a down link."""
        if not self.enabled:
            return
        if not len(self.sender) and not len(self.receiver):
            return
        self.sender.clear()
        self.receiver.clear()
        self.invalidations.increment()

    # -- accounting ----------------------------------------------------------

    def wire_counter(self, path: str):
        """The ``repro_wire_bytes_total{path=...}`` counter (lazy)."""
        counter = self._wire_counters.get(path)
        if counter is None:
            counter = self._registry.counter(
                "repro_wire_bytes_total",
                help="Post-reduction bytes by wire path: charged to the "
                     "inter-site link, or (<path>-fallback) priced "
                     "reference-fallback retransmits", unit="bytes",
                path=path, **self._scope)
            self._wire_counters[path] = counter
        return counter

    def book(self, path: str, batch: EncodedBatch) -> None:
        """Book one received batch on ``path``: all the bytes the link
        carried, the savings on them, its pass's fallback retransmits
        (never on the simulated link) under ``<path>-fallback``, and a
        hit-ratio sample."""
        saved_dedup = batch.saved_dedup
        if self._fallbacks:
            retransmitted = sum(self._fallbacks)
            self.ref_fallbacks.increment(len(self._fallbacks))
            self.wire_counter(path + "-fallback").increment(retransmitted)
            # a reference that fell back saved nothing
            saved_dedup -= retransmitted
            self._fallbacks = []
        if batch.wire_bytes:  # (creates the series on first use)
            self.wire_counter(path).increment(batch.wire_bytes)
        self.saved_dedup.increment(saved_dedup)
        self.saved_compress.increment(batch.saved_compress)
        self.saved_header.increment(batch.saved_header)
        if self.lookups:
            self.hit_ratio.sample(self.sim.now, self.hits / self.lookups)
