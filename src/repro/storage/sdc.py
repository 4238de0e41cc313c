"""Synchronous data copy: the baseline the paper's §V compares against.

A :class:`SyncMirror` propagates each host write to the secondary volume
*before* the acknowledgement: the host pays the full inter-site round
trip on every write.  This gives zero data loss (every acked write exists
at the backup) at the price of the "system slowdown" the paper's ADC is
designed to remove — experiment E1 measures exactly that trade-off.

Writes of one mirror are FIFO-ordered over the link, so a multi-pair
synchronous configuration is automatically order-preserving (the ack is
the apply); no consistency-group machinery is needed, matching how real
synchronous replication behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.errors import ReplicationError
from repro.simulation.network import LinkDownError, NetworkLink
from repro.simulation.resources import Lock
from repro.storage.reduction import (DISABLED_REDUCTION, ReductionConfig,
                                     WireReducer)
from repro.storage.replication import PairState, ReplicationPair
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator


#: blocks per bulk-copy chunk: the initial copy negotiates and ships
#: this many blocks per link round trip instead of paying one
#: propagation delay per block
COPY_BATCH_BLOCKS = 32
#: wire bytes of the per-block ``(version, crc32)`` negotiation
#: metadata — the lightweight-metadata exchange that lets up-to-date
#: secondary blocks skip the payload transfer entirely
NEGOTIATE_METADATA_BYTES = 16

#: wire bytes of one block's payload on the mirror link
BLOCK_SIZE_BYTES = 4096


@dataclass(frozen=True)
class SdcConfig:
    """Tuning knobs of the synchronous mirror.

    A link failure never fences the host (array fence level "never"):
    the mirror keeps accepting unprotected, dirty-tracked writes, which
    is what production systems choose to avoid a replication outage
    becoming a business outage.
    """

    #: wire data reduction (fingerprint dedup + inline compression) for
    #: the bulk copy payload transfers; off by default — the
    #: wire then carries every stale block verbatim, exactly as before
    reduction: ReductionConfig = DISABLED_REDUCTION

    def __post_init__(self) -> None:
        if not isinstance(self.reduction, ReductionConfig):
            raise ValueError("reduction must be a ReductionConfig")


class SyncMirror:
    """A set of synchronously mirrored pairs sharing one link."""

    def __init__(self, sim: "Simulator", mirror_id: str, link: NetworkLink,
                 config: Optional[SdcConfig] = None) -> None:
        self.sim = sim
        self.mirror_id = mirror_id
        self.link = link
        self.config = config or SdcConfig()
        self.pairs: Dict[str, ReplicationPair] = {}
        self._pairs_by_pvol: Dict[int, ReplicationPair] = {}
        # One in-flight remote write at a time per pair keeps the apply
        # order at the secondary equal to the ack order at the primary.
        self._pair_locks: Dict[str, Lock] = {}
        registry = sim.telemetry.registry
        self.tracer = sim.telemetry.tracer
        self.recorder = sim.telemetry.recorder
        #: wire data-reduction engine for the bulk copy payload
        #: transfers (no-op object when disabled)
        self.reducer = WireReducer(sim, self.config.reduction,
                                   group=mirror_id)
        self.replicated_writes = registry.counter(
            "repro_sdc_replicated_writes_total",
            help="Writes propagated synchronously before the ack",
            mirror=mirror_id)
        self.suspensions = registry.counter(
            "repro_sdc_suspensions_total",
            help="Pair suspensions caused by link failures",
            mirror=mirror_id)
        # a family shared with journal groups: same label key, so both
        # can live in one registry
        self.copy_skipped = registry.counter(
            "repro_copy_skipped_blocks_total",
            help="Bulk-copy blocks whose (version, crc32) negotiation "
                 "proved the secondary current — they never crossed "
                 "the wire", group=mirror_id)

    # -- pair management ------------------------------------------------------

    def add_pair(self, pair: ReplicationPair) -> None:
        """Attach a pair. Initial copy runs via :meth:`initial_copy`."""
        if pair.pair_id in self.pairs:
            raise ReplicationError(
                f"mirror {self.mirror_id}: duplicate pair {pair.pair_id}")
        if pair.pvol.volume_id in self._pairs_by_pvol:
            raise ReplicationError(
                f"mirror {self.mirror_id}: volume {pair.pvol.volume_id} "
                "already paired")
        self.pairs[pair.pair_id] = pair
        self._pairs_by_pvol[pair.pvol.volume_id] = pair
        pair.observer = self._observe_pair
        self._pair_locks[pair.pair_id] = Lock(
            self.sim, name=f"sdc-{pair.pair_id}")

    def _observe_pair(self, pair: ReplicationPair, event: str) -> None:
        """Pair lifecycle hook: feed transitions to the flight recorder."""
        self.recorder.record(
            "pair", pair.pair_id, mirror=self.mirror_id, event=event,
            state=pair.state.value, reason=pair.suspend_reason)

    # -- data path ----------------------------------------------------------

    def _bulk_copy(self, pair: ReplicationPair, items: List[tuple],
                   ) -> Generator[object, object, None]:
        """Delta-negotiated batched copy of ``(block, value)`` items.

        Each chunk of ``COPY_BATCH_BLOCKS`` blocks first ships only the
        per-block ``(version, crc32)`` metadata and waits one
        propagation delay for the verdict; blocks the secondary proves
        current never cross the wire (counted in
        ``repro_copy_skipped_blocks_total``).  The stale remainder
        ships as one batched payload transfer and applies with
        overlapped media writes — the whole chunk costs three one-way
        delays instead of one per block.

        With reduction enabled the stale payload transfer is charged
        its *post-reduction* byte count (dedup references + compressed
        payloads) and the installed bytes are the actual receive-side
        reconstruction.
        """
        config = self.config
        svol = pair.svol
        reducer = self.reducer
        for start in range(0, len(items), COPY_BATCH_BLOCKS):
            chunk = items[start:start + COPY_BATCH_BLOCKS]
            # negotiation round trip: metadata out, verdict back
            negotiate_bytes = NEGOTIATE_METADATA_BYTES * len(chunk)
            try:
                yield from self.link.transfer(negotiate_bytes)
            except LinkDownError:
                reducer.invalidate()
                raise
            if reducer.enabled:
                reducer.account("copy", negotiate_bytes)
            ack_delay = self.link.one_way_delay()
            if ack_delay > 0:
                yield self.sim.sleep(ack_delay)
            stale = [(block, value) for block, value in chunk
                     if not pair.secondary_current(block, value.version)]
            if len(stale) < len(chunk):
                self.copy_skipped.increment(len(chunk) - len(stale))
            if not stale:
                continue
            values = [value for _block, value in stale]
            if reducer.enabled:
                # every block ships at the fixed block size unreduced,
                # so raw_bytes prices the wire cost it would have paid
                encodings = reducer.encode_batch(
                    values, raw_bytes=BLOCK_SIZE_BYTES)
                wire_bytes = encodings.wire_bytes
            else:
                encodings = None
                wire_bytes = BLOCK_SIZE_BYTES * len(stale)
            try:
                yield from self.link.transfer(wire_bytes)
            except LinkDownError:
                # the shipment never landed: nothing was committed, but
                # the sender can no longer prove the receiver's state
                reducer.discard()
                reducer.invalidate()
                raise
            if encodings is not None:
                # receive side: reconstruct each block from its wire
                # form (committing the caches in lockstep); the pass
                # books the chunk's post-reduction bytes
                received = [payload for payload, _verified in
                            reducer.receive_batch("copy", encodings, values)]
            else:
                received = [value.payload for value in values]
            # a concurrent replicate_write may have raced a newer
            # version in while the payload was on the wire; re-check
            # before applying, exactly like the per-block path did
            installs = [
                (block, payload, value.version, value.checksum)
                for (block, value), payload in zip(stale, received)
                if not pair.secondary_current(block, value.version)]
            if not installs:
                continue
            delay = svol.apply_delay(installs)
            if delay > 0:
                yield self.sim.sleep(delay)
            svol.install_blocks(installs)

    def initial_copy(self, pair_id: str) -> Generator[object, object, None]:
        """Copy the current P-VOL content to the S-VOL over the link.

        Process generator; the pair reports COPY until it completes.
        The copy is delta-negotiated and batched: per-block
        ``(version, crc32)`` metadata is exchanged *before* any payload
        moves, so blocks already current on the S-VOL pay the metadata
        bytes only — never the ``BLOCK_SIZE_BYTES`` wire cost.
        """
        pair = self._require_pair(pair_id)
        items = sorted(pair.pvol.block_map().items())
        yield from self._bulk_copy(pair, items)
        pair.initial_copy_done = True

    def replicate_write(self, volume_id: int, block: int, payload: bytes,
                        version: int, span: Optional[Span] = None,
                        ) -> Generator[object, object, bool]:
        """Propagate one host write to the secondary before the ack.

        Called from the host-write path after the local apply.  Returns
        True when the write reached the secondary, False when the mirror
        is suspended and the write is only dirty-tracked.  ``span`` is
        the originating host-write span.
        """
        pair = self._pairs_by_pvol.get(volume_id)
        if pair is None:
            raise ReplicationError(
                f"mirror {self.mirror_id}: volume {volume_id} not paired")
        if pair.suspended_state is not None:
            pair.mark_dirty(volume_id, block)
            return False
        rep_span = self.tracer.start(
            "replicate-write", parent=span, mirror=self.mirror_id,
            volume=volume_id, block=block)
        lock = self._pair_locks[pair.pair_id]
        yield lock.acquire()
        try:
            yield from self.link.transfer(BLOCK_SIZE_BYTES)
            row = ((block, payload, version, None),)
            delay = pair.svol.apply_delay(row)
            if delay > 0:
                yield self.sim.sleep(delay)
            pair.svol.install_blocks(row)
            # The completion status travels back before the host ack.
            ack_delay = self.link.one_way_delay()
            if ack_delay > 0:
                yield self.sim.sleep(ack_delay)
        except LinkDownError:
            # fingerprint state is void after any link failure
            self.reducer.invalidate()
            pair.suspend(PairState.PSUE, "link down")
            pair.mark_dirty(volume_id, block)
            self.suspensions.increment()
            self.tracer.finish(rep_span, status="suspended")
            return False
        finally:
            lock.release()
        self.replicated_writes.increment()
        self.tracer.finish(rep_span)
        return True

    def _require_pair(self, pair_id: str) -> ReplicationPair:
        pair = self.pairs.get(pair_id)
        if pair is None:
            raise ReplicationError(
                f"mirror {self.mirror_id}: unknown pair {pair_id}")
        return pair

    def __repr__(self) -> str:
        return (f"<SyncMirror {self.mirror_id!r} pairs={len(self.pairs)} "
                f"writes={self.replicated_writes.value}>")
