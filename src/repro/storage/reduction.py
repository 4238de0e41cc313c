"""Wire data reduction: inline compression + fingerprint dedup.

PR 8 attacked wire *latency* (pipelining, delta-negotiated copy); this
module attacks wire *volume*.  Every replication wire path — journal
transfer batches, SDC initial/bulk copy, and the resync paths riding
them — can pass its payloads through one :class:`WireReducer`, which
charges :class:`~repro.simulation.network.NetworkLink` the
*post-reduction* byte count while the logical-byte counters keep their
pre-reduction meaning.  Two mechanisms, tried cheapest-first per
payload:

* **fingerprint dedup** — a bounded, FIFO-evicting
  :class:`FingerprintCache` on each side of the link, keyed on
  lightweight ``(crc32, length)`` fingerprints (no cryptographic
  hashing, following the DR-path argument of "Optimized Disaster
  Recovery for Distributed Storage Systems").  A payload whose
  fingerprint the receiver is known to hold ships as a small reference
  instead of bytes.  The sender byte-compares its cached payload before
  referencing (a crc32 collision can therefore never *send* a wrong
  reference), and the receiver re-verifies every resolved reference
  against the entry CRC32 — any mismatch falls back to the full
  payload, counted in ``repro_reduction_ref_fallbacks_total``, so dedup
  can never silently corrupt;
* **inline compression** — :class:`ReductionCodec` zlib-compresses each
  payload at a configurable level and ships the compressed form only
  when it beats the configured ratio threshold (the skip-if-
  incompressible flag); already-dense payloads cross the wire verbatim.

**Cache synchronisation.**  Sender and receiver caches commit *only at
receive time*, in receive order: when a full payload lands, both sides
insert its fingerprint at the same instant and evict FIFO by the same
insertion order, so the two caches stay byte-identical by construction.
Encode-time decisions read the sender cache plus a batch-local pending
set (duplicates *within* one batch dedup against each other).  Because
nothing is committed at encode time, discarding an in-flight shipment
(the pipelined loop voids everything behind a failed head) rolls the
cache state back for free — there is no speculative sender state to
unwind; :meth:`WireReducer.discard` just counts the event.  A reference
can still arrive after the commits of an *earlier* in-flight batch
evicted its fingerprint; that is the receive-side miss the counted
fallback path exists for.

Cache state is invalidated wholesale (both sides) on link-down,
integrity quarantine, and array restart — the events after which the
sender can no longer prove what the receiver holds.

Everything is deterministic: zlib is, the caches are, and the reducer
adds no simulated-time events of its own — with ``enabled=False``
(the default) no call site changes behaviour at all.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.storage.journal import payload_checksum

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.telemetry.registry import MetricsRegistry

#: framing bytes prepended to a compressed payload on the wire (the
#: skip-if-incompressible flag plus the compressed length)
COMPRESS_FRAME_BYTES = 2

#: encoding kinds carried by :class:`EncodedPayload`
KIND_RAW = "raw"
KIND_COMPRESSED = "compressed"
KIND_REFERENCE = "ref"

#: a ``(crc32, length)`` payload fingerprint
Fingerprint = Tuple[int, int]


@dataclass(frozen=True)
class ReductionConfig:
    """Tuning knobs of the wire data-reduction engine.

    Off by default: with ``enabled=False`` every wire path behaves (and
    accounts) exactly as before.  ``level``/``ratio_threshold`` shape
    the compression side; ``cache_entries``/``ref_bytes`` the dedup
    side (``cache_entries=0`` disables dedup while keeping
    compression).
    """

    enabled: bool = False
    #: zlib compression level (1 fastest .. 9 densest)
    level: int = 6
    #: ship the compressed form only when ``compressed <= threshold *
    #: raw`` — the skip-if-incompressible flag; 1.0 accepts any win
    ratio_threshold: float = 0.9
    #: payloads smaller than this skip the compression attempt (the
    #: zlib header alone would eat the win)
    min_compress_bytes: int = 32
    #: bounded fingerprint-cache capacity per side, in payloads
    cache_entries: int = 4096
    #: wire size of one fingerprint reference (crc32 + length + framing)
    ref_bytes: int = 12

    def __post_init__(self) -> None:
        if not 1 <= self.level <= 9:
            raise ValueError(f"level must be in [1, 9]: {self.level}")
        if not 0 < self.ratio_threshold <= 1:
            raise ValueError(
                f"ratio_threshold must be in (0, 1]: {self.ratio_threshold}")
        if self.min_compress_bytes < 0:
            raise ValueError("min_compress_bytes must be >= 0")
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if self.ref_bytes < 1:
            raise ValueError("ref_bytes must be >= 1")


#: the shared "reduction off" default carried by AdcConfig/SdcConfig
DISABLED_REDUCTION = ReductionConfig()


class ReductionCodec:
    """Deterministic per-payload compressor with a skip flag.

    Stateless: the same payload always yields the same wire form, so
    two runs of one seed stay byte-identical.
    """

    def __init__(self, config: ReductionConfig) -> None:
        self.config = config

    def compress(self, payload: bytes) -> Optional[bytes]:
        """The compressed wire form, or None when the payload is too
        small or too dense to be worth shipping compressed."""
        config = self.config
        if len(payload) < config.min_compress_bytes:
            return None
        packed = zlib.compress(payload, config.level)
        if len(packed) + COMPRESS_FRAME_BYTES \
                <= config.ratio_threshold * len(payload):
            return packed
        return None

    @staticmethod
    def decompress(data: bytes) -> bytes:
        """Inverse of :meth:`compress` for shipped-compressed payloads."""
        return zlib.decompress(data)


class FingerprintCache:
    """Bounded ``(crc32, length) -> payload`` map with FIFO eviction.

    FIFO (insertion order, no recency promotion) is deliberate: sender
    and receiver apply the same commit stream, so insertion-order
    eviction keeps the two caches identical even though the sender
    *reads* at encode time and the receiver at receive time — an LRU
    would let those differently-ordered reads desynchronise the
    evictions.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Fingerprint, bytes]" = OrderedDict()
        #: ``get(fingerprint)``: the cached payload, or None (the map's
        #: own bound method — one lookup per payload on the wire path)
        self.get = self._entries.get
        #: payloads dropped to keep the cache within capacity
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._entries

    def put(self, fingerprint: Fingerprint, payload: bytes) -> None:
        """Insert a payload; a present fingerprint keeps its slot (the
        first insertion wins, preserving FIFO symmetry across sides)."""
        if self.capacity == 0 or fingerprint in self._entries:
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[fingerprint] = payload

    def clear(self) -> None:
        """Drop every cached payload (invalidation)."""
        self._entries.clear()


@dataclass(slots=True)
class EncodedPayload:
    """One payload's wire form, decided at encode (launch) time.

    ``wire_bytes``/``raw_bytes`` both include the per-item overhead
    (journal-entry header, block framing) the call site declared, so
    summing either column prices a whole batch.
    """

    kind: str
    fingerprint: Fingerprint
    wire_bytes: int
    raw_bytes: int
    #: compressed form for ``KIND_COMPRESSED``; None otherwise
    data: Optional[bytes] = None


class WireReducer:
    """One wire path's reduction engine: codec + synchronized caches.

    Owned by a :class:`~repro.storage.adc.JournalGroup` or
    :class:`~repro.storage.sdc.SyncMirror`; both ends of the (simulated)
    link live in one process, so the reducer holds the sender *and*
    receiver cache and commits them in lockstep at receive time.  With
    ``enabled=False`` it registers no instruments and every call site
    skips it entirely.
    """

    def __init__(self, sim: "Simulator", config: ReductionConfig,
                 **scope: str) -> None:
        self.sim = sim
        self.config = config
        self.enabled = config.enabled
        if not self.enabled:
            return
        registry: "MetricsRegistry" = sim.telemetry.registry
        self._scope = scope
        self._registry = registry
        self.codec = ReductionCodec(config)
        self.sender = FingerprintCache(config.cache_entries)
        self.receiver = FingerprintCache(config.cache_entries)
        #: encode-time dedup lookups and hits (drives the hit-ratio gauge)
        self.lookups = 0
        self.hits = 0
        self._wire_counters: Dict[str, object] = {}
        self.saved_dedup = registry.counter(
            "repro_wire_bytes_saved_total",
            help="Wire bytes that never crossed the link, by reduction "
                 "mechanism", unit="bytes", mechanism="dedup", **scope)
        self.saved_compress = registry.counter(
            "repro_wire_bytes_saved_total",
            help="Wire bytes that never crossed the link, by reduction "
                 "mechanism", unit="bytes", mechanism="compress", **scope)
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

    # -- sender side ---------------------------------------------------------

    def encode_batch(self, items: Iterable[Tuple[bytes, Optional[int]]],
                     raw_bytes: Optional[int] = None,
                     overhead: int = 0) -> List[EncodedPayload]:
        """Decide the wire form of one outgoing batch of ``(payload,
        checksum)`` items against the current caches.

        ``checksum`` is the payload's CRC32 when the caller holds a
        trustworthy one (the journaled entry checksum) — the
        fingerprint then costs no hash; ``None`` hashes here.
        ``raw_bytes`` is the unreduced wire cost of one payload alone
        (default its length; the SDC block paths pass the fixed block
        size); ``overhead`` is per-item framing shipped regardless of
        mechanism (the 64-byte journal-entry header).  The cheapest
        mechanism wins — a reference larger than the raw payload ships
        raw.  Nothing is committed here: in-batch duplicates dedup
        against each other through a batch-local pending set, and a
        shipment that never lands leaves no state behind.
        """
        dedup = self.config.cache_entries > 0
        ref_bytes = self.config.ref_bytes
        sender_get = self.sender.get
        compress = self.codec.compress
        pending: Dict[Fingerprint, bytes] = {}
        encodings = []
        for payload, checksum in items:
            raw = raw_bytes if raw_bytes is not None else len(payload)
            if checksum is None:
                checksum = payload_checksum(payload)
            fingerprint = (checksum, len(payload))
            if dedup:
                cached = pending.get(fingerprint)
                if cached is None:
                    cached = sender_get(fingerprint)
                # byte-compare before referencing: a (crc32, length)
                # collision must ship its payload, never a wrong reference
                if cached is not None and ref_bytes < raw \
                        and cached == payload:
                    self.hits += 1
                    encodings.append(EncodedPayload(
                        KIND_REFERENCE, fingerprint,
                        overhead + ref_bytes, overhead + raw))
                    continue
            pending[fingerprint] = payload
            packed = compress(payload)
            if packed is not None \
                    and len(packed) + COMPRESS_FRAME_BYTES < raw:
                encodings.append(EncodedPayload(
                    KIND_COMPRESSED, fingerprint,
                    overhead + len(packed) + COMPRESS_FRAME_BYTES,
                    overhead + raw, data=packed))
            else:
                encodings.append(EncodedPayload(
                    KIND_RAW, fingerprint, overhead + raw, overhead + raw))
        if dedup:
            self.lookups += len(encodings)
        return encodings

    def discard(self, count: int = 1) -> None:
        """Record ``count`` in-flight shipments voided before receive.

        Their encodings committed nothing (commit happens at receive),
        so the sender and receiver caches are already consistent — the
        counter just keeps the rollback events observable.
        """
        if self.enabled and count > 0:
            self.discarded_shipments.increment(count)

    # -- receiver side -------------------------------------------------------

    def receive(self, encoded: EncodedPayload, payload: bytes,
                checksum: Optional[int]) -> bytes:
        """Reconstruct one payload at the receive side and commit caches.

        ``payload``/``checksum`` are the entry's own payload and CRC32
        (the simulation carries the object across; the encoding decides
        what the *wire* carried).  References resolve from the receiver
        cache and are re-verified against the entry CRC32 (``encoded``
        still reading ``KIND_REFERENCE`` afterwards tells the caller
        the bytes passed that check); any miss or mismatch falls back
        to the full payload (``KIND_RAW``, retransmit priced), counted.  Full
        payloads (raw or compressed) commit the reconstructed bytes to
        both caches in receive order, which is what keeps the two sides
        synchronized.
        """
        if encoded.kind == KIND_REFERENCE:
            cached = self.receiver.get(encoded.fingerprint)
            expected = checksum if checksum is not None \
                else encoded.fingerprint[0]
            if cached is not None \
                    and len(cached) == encoded.fingerprint[1] \
                    and payload_checksum(cached) == expected:
                return cached
            # receive-side miss (an earlier batch's commits evicted the
            # fingerprint while this reference was in flight) or a
            # mismatch: retransmit the full payload, never corrupt
            self.ref_fallbacks.increment()
            encoded.kind = KIND_RAW
            encoded.wire_bytes = encoded.raw_bytes + encoded.wire_bytes
            self._commit(encoded.fingerprint, payload)
            return payload
        if encoded.kind == KIND_COMPRESSED:
            reconstructed = self.codec.decompress(encoded.data)
        else:
            reconstructed = payload
        self._commit(encoded.fingerprint, reconstructed)
        return reconstructed

    def _commit(self, fingerprint: Fingerprint, payload: bytes) -> None:
        """Insert one received full payload into both caches (lockstep)."""
        self.sender.put(fingerprint, payload)
        self.receiver.put(fingerprint, payload)

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
                help="Post-reduction bytes actually charged to the "
                     "inter-site link, by wire path", unit="bytes",
                path=path, **self._scope)
            self._wire_counters[path] = counter
        return counter

    def account(self, path: str, encodings: List[EncodedPayload],
                extra_wire: int = 0) -> None:
        """Book one received batch: wire bytes by path, savings by
        mechanism, and a hit-ratio sample.

        ``extra_wire`` adds unreduced framing that rode the same path
        (e.g. the SDC negotiation metadata).  Call after
        :meth:`receive` ran on every item, so fallback retransmits are
        priced at their post-fallback ``wire_bytes``.
        """
        wire = extra_wire
        saved_dedup = 0
        saved_compress = 0
        for encoded in encodings:
            wire += encoded.wire_bytes
            if encoded.kind == KIND_REFERENCE:
                saved_dedup += encoded.raw_bytes - encoded.wire_bytes
            elif encoded.kind == KIND_COMPRESSED:
                saved_compress += encoded.raw_bytes - encoded.wire_bytes
        if wire:
            self.wire_counter(path).increment(wire)
        if saved_dedup:
            self.saved_dedup.increment(saved_dedup)
        if saved_compress:
            self.saved_compress.increment(saved_compress)
        if self.lookups:
            self.hit_ratio.sample(self.sim.now, self.hits / self.lookups)
