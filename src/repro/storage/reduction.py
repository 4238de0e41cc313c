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
  incompressible flag); already-dense payloads cross the wire verbatim
  (a density probe turns most away before deflate is paid for).

**Cache synchronisation.**  Sender and receiver caches commit *only at
receive time*, in receive order, and evict FIFO by that same order, so
they stay byte-identical by construction.  Encode-time decisions read
the sender cache plus a batch-local pending set; nothing is committed
at encode time, so discarding an in-flight shipment rolls the cache
state back for free (:meth:`WireReducer.discard` just counts it).  A
reference can still arrive after an *earlier* in-flight batch's commits
evicted its fingerprint — the receive-side miss the counted fallback
exists for.  :meth:`WireReducer.invalidate` drops both sides wholesale
on link-down, integrity quarantine and array restart.

Everything is deterministic, and the reducer adds no simulated-time
events of its own — with ``enabled=False`` (the default) no call site
changes behaviour at all.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Tuple)
from zlib import crc32

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.telemetry.registry import MetricsRegistry

#: framing bytes prepended to a compressed payload on the wire (the
#: skip-if-incompressible flag plus the compressed length)
COMPRESS_FRAME_BYTES = 2

#: zlib compression level (1 fastest .. 9 densest)
COMPRESS_LEVEL = 6
#: ship the compressed form only when ``compressed <= threshold * raw``
#: — the skip-if-incompressible flag
RATIO_THRESHOLD = 0.9
#: payloads smaller than this skip the compression attempt (the zlib
#: header alone would eat the win)
MIN_COMPRESS_BYTES = 32
#: wire size of one fingerprint reference (crc32 + length + framing)
REF_BYTES = 12

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


#: the shared "reduction off" default carried by AdcConfig/SdcConfig
DISABLED_REDUCTION = ReductionConfig()


class ReductionCodec:
    """Deterministic per-payload compressor with a skip flag.

    The same payload always yields the same wire form, so two runs of
    one seed stay byte-identical; the only state is a tally.
    """

    def __init__(self) -> None:
        #: payloads the density probe turned away before deflate
        self.probe_skips = 0

    def compress(self, payload: bytes) -> Optional[bytes]:
        """The compressed wire form, or None when the payload is too
        small or too dense to be worth shipping compressed.  The probe
        errs one way only: a payload wrongly called dense ships raw;
        every other payload gets deflate's exact verdict."""
        size = len(payload)
        if size < MIN_COMPRESS_BYTES:
            return None
        stride = size // PROBE_SAMPLE_BYTES or 1
        sample = payload[:stride * PROBE_SAMPLE_BYTES:stride]
        if len(set(sample)) * PROBE_SAMPLE_BYTES \
                >= PROBE_DENSE_DISTINCT * len(sample):
            self.probe_skips += 1
            return None
        packed = zlib.compress(payload, COMPRESS_LEVEL)
        if len(packed) + COMPRESS_FRAME_BYTES \
                <= RATIO_THRESHOLD * len(payload):
            return packed
        return None

    #: inverse of :meth:`compress` for shipped-compressed payloads
    decompress = staticmethod(zlib.decompress)


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
        entries = self._entries
        if fingerprint in entries or not self.capacity:
            return
        if len(entries) >= self.capacity:  # grows one entry at a time
            entries.popitem(last=False)
            self.evictions += 1
        entries[fingerprint] = payload

    def clear(self) -> None:
        """Drop every cached payload (invalidation)."""
        self._entries.clear()


@dataclass(slots=True)
class EncodedBatch:
    """One outgoing batch's wire form, decided at encode (launch) time
    and held as columns (a row per payload, no object per payload).
    The totals include the per-item overhead the call site declared."""

    fingerprints: List[Fingerprint]
    #: per payload: None ships raw, ``bytes`` is the compressed form,
    #: :data:`REFERENCE` ships the fingerprint only
    forms: List[object]
    #: what the link is charged for the whole batch
    wire_bytes: int
    #: as passed to ``encode_batch`` (they price a fallback retransmit)
    raw_bytes: Optional[int]
    overhead: int
    #: ``raw - wire`` summed over the references / compressed payloads
    saved_dedup: int
    saved_compress: int


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
                 group: str) -> None:
        self.sim = sim
        self.config = config
        self.enabled = config.enabled
        if not self.enabled:
            return
        registry: "MetricsRegistry" = sim.telemetry.registry
        # one label-key set whoever the owner is (a mirror passes its
        # mirror id): a family's children must agree on their keys, and
        # both owners can share one registry
        scope = self._scope = {"group": group}
        self._registry = registry
        self.codec = ReductionCodec()
        self.sender = FingerprintCache(config.cache_entries)
        self.receiver = FingerprintCache(config.cache_entries)
        #: encode-time dedup lookups and hits (drives the hit-ratio gauge)
        self.lookups = 0
        self.hits = 0
        self._wire_counters: Dict[str, object] = {}
        self.saved_dedup, self.saved_compress = (
            registry.counter(
                "repro_wire_bytes_saved_total",
                help="Wire bytes that never crossed the link, by reduction "
                     "mechanism", unit="bytes", mechanism=mechanism, **scope)
            for mechanism in ("dedup", "compress"))
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

    def encode_batch(self, carriers: Iterable[object], trusted: bool = False,
                     raw_bytes: Optional[int] = None,
                     overhead: int = 0) -> EncodedBatch:
        """Decide the wire form of one outgoing batch against the
        current caches.

        ``carriers`` are anything with ``payload``/``checksum`` (journal
        entries, block values); ``trusted`` says that checksum is the
        payload's CRC32 for certain, so the fingerprint costs no hash
        (otherwise, or where it is None, the payload is hashed).
        ``raw_bytes`` is the unreduced wire cost of one payload alone
        (default its length; SDC passes the fixed block size),
        ``overhead`` per-item framing shipped regardless of mechanism
        (the 64-byte journal-entry header).  The cheapest mechanism
        wins.  Nothing is committed here: in-batch duplicates dedup
        through a batch-local pending set, and a shipment that never
        lands leaves no state behind.
        """
        dedup = self.config.cache_entries > 0
        ref_bytes = REF_BYTES
        sender_get = self.sender.get
        compress = self.codec.compress
        pending: Dict[Fingerprint, bytes] = {}
        fingerprints: List[Fingerprint] = []
        forms: List[object] = []
        total_raw = saved_dedup = saved_compress = 0
        for carrier in carriers:
            payload = carrier.payload
            size = len(payload)
            raw = raw_bytes if raw_bytes is not None else size
            total_raw += raw
            checksum = carrier.checksum if trusted else None
            if checksum is None:
                checksum = crc32(payload)
            fingerprint = (checksum, size)
            fingerprints.append(fingerprint)
            if dedup:
                cached = pending.get(fingerprint)
                if cached is None:
                    cached = sender_get(fingerprint)
                # byte-compare before referencing: a (crc32, length)
                # collision must ship its payload, never a wrong reference
                if cached is not None and ref_bytes < raw \
                        and cached == payload:
                    self.hits += 1
                    saved_dedup += raw - ref_bytes
                    forms.append(REFERENCE)
                    continue
            pending[fingerprint] = payload
            packed = compress(payload)
            if packed is not None \
                    and len(packed) + COMPRESS_FRAME_BYTES < raw:
                saved_compress += raw - len(packed) - COMPRESS_FRAME_BYTES
                forms.append(packed)
            else:
                forms.append(None)
        if dedup:
            self.lookups += len(forms)
        # the probe's tally reaches the registry once per batch
        self.deflate_skipped.increment(
            self.codec.probe_skips - self.deflate_skipped.value)
        return EncodedBatch(
            fingerprints, forms,
            total_raw + overhead * len(forms) - saved_dedup - saved_compress,
            raw_bytes, overhead, saved_dedup, saved_compress)

    def discard(self, count: int = 1) -> None:
        """Record ``count`` in-flight shipments voided before receive.

        Their encodings committed nothing (commit happens at receive),
        so the sender and receiver caches are already consistent — the
        counter just keeps the rollback events observable.
        """
        if self.enabled and count > 0:
            self.discarded_shipments.increment(count)

    # -- receiver side -------------------------------------------------------

    def receive_batch(self, path: str, batch: EncodedBatch,
                      carriers: Iterable[object],
                      ) -> Iterator[Tuple[bytes, bool]]:
        """Receive-side pass over one batch: yields ``(payload,
        verified)`` per carrier, committing the caches as it goes.

        ``carriers`` are the ones the batch was encoded from, in the
        same order: the simulation carries the object across, the
        encoding decides what the *wire* carried.  Compressed forms decompress;
        references resolve from the receiver cache and are re-verified
        against the carrier CRC32 (``verified``: no second hash
        needed); a miss or mismatch falls back to the full payload.
        Full payloads commit to both caches, in receive order, before
        they are yielded — that keeps the two sides synchronized, and
        a consumer that stops early (``close()``) leaves everything
        behind the last yielded item uncommitted.  Ending or closing
        the pass books the whole batch under ``path`` (all of it
        crossed the link) and the fallback retransmits, which the
        simulated link never carried, under ``<path>-fallback``.
        """
        decompress = self.codec.decompress
        receiver_get = self.receiver.get
        commit_receiver = self.receiver.put
        commit_sender = self.sender.put
        overhead, raw_bytes = batch.overhead, batch.raw_bytes
        fallbacks = fallback_bytes = 0
        try:
            for carrier, fingerprint, form in zip(
                    carriers, batch.fingerprints, batch.forms):
                payload = carrier.payload
                if form is REFERENCE:
                    cached = receiver_get(fingerprint)
                    expected = carrier.checksum
                    if expected is None:
                        expected = fingerprint[0]
                    if cached is not None \
                            and len(cached) == fingerprint[1] \
                            and crc32(cached) == expected:
                        yield cached, True
                        continue
                    # miss (an earlier in-flight batch's commits
                    # evicted it) or mismatch: retransmit, never corrupt
                    fallbacks += 1
                    fallback_bytes += overhead + (
                        raw_bytes if raw_bytes is not None
                        else len(payload))
                elif form is not None:
                    payload = decompress(form)
                commit_sender(fingerprint, payload)
                commit_receiver(fingerprint, payload)
                yield payload, False
        finally:
            saved_dedup = batch.saved_dedup
            if fallbacks:
                self.ref_fallbacks.increment(fallbacks)
                self.wire_counter(path + "-fallback").increment(
                    fallback_bytes)
                saved_dedup -= fallback_bytes - fallbacks * (
                    overhead + REF_BYTES)
            self.account(path, batch.wire_bytes, saved_dedup,
                         batch.saved_compress)

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

    def account(self, path: str, wire_bytes: int, saved_dedup: int = 0,
                saved_compress: int = 0) -> None:
        """Book bytes the link carried on ``path``, the savings on them
        and a hit-ratio sample.  Call sites book only unreduced framing
        (SDC negotiation metadata); batches book themselves."""
        if wire_bytes:  # (creates the series on first use)
            self.wire_counter(path).increment(wire_bytes)
        self.saved_dedup.increment(saved_dedup)
        self.saved_compress.increment(saved_compress)
        if self.lookups:
            self.hit_ratio.sample(self.sim.now, self.hits / self.lookups)
