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
from repro.storage.lanes import lane_waits
from repro.storage.reduction import (DISABLED_REDUCTION, ReductionConfig,
                                     WireReducer)
from repro.storage.replication import PairState, ReplicationPair
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator


@dataclass(frozen=True)
class SdcConfig:
    """Tuning knobs of the synchronous mirror.

    ``fence_level`` follows array convention: ``"never"`` keeps accepting
    (unprotected, dirty-tracked) host writes when the link fails, which
    is what production systems choose to avoid a replication outage
    becoming a business outage.
    """

    block_size_bytes: int = 4096
    fence_level: str = "never"
    #: blocks per bulk-copy chunk: initial copy and resync negotiate
    #: and ship this many blocks per link round trip instead of paying
    #: one propagation delay per block
    copy_batch_blocks: int = 32
    #: wire bytes of the per-block ``(version, crc32)`` negotiation
    #: metadata — the lightweight-metadata exchange that lets
    #: up-to-date secondary blocks skip the payload transfer entirely
    negotiate_metadata_bytes: int = 16
    #: wire data reduction (fingerprint dedup + inline compression) for
    #: the bulk copy / resync payload transfers; off by default — the
    #: wire then carries every stale block verbatim, exactly as before
    reduction: ReductionConfig = DISABLED_REDUCTION
    #: dependency-aware apply lanes for the bulk-copy install phase
    #: (same scheduler as the ADC restore applier).  1 = one media
    #: wait per chunk, exactly as before; >1 stages up to this many
    #: chunks and overlaps their media installs as concurrent lanes
    #: committed through one consistency-cut barrier.
    apply_lanes: int = 1

    def __post_init__(self) -> None:
        if self.block_size_bytes < 1:
            raise ValueError("block_size_bytes must be >= 1")
        if self.apply_lanes < 1:
            raise ValueError("apply_lanes must be >= 1")
        if self.fence_level not in ("never", "data"):
            raise ValueError(
                f"fence_level must be 'never' or 'data': {self.fence_level}")
        if self.copy_batch_blocks < 1:
            raise ValueError("copy_batch_blocks must be >= 1")
        if self.negotiate_metadata_bytes < 1:
            raise ValueError("negotiate_metadata_bytes must be >= 1")
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
        #: wire data-reduction engine for the bulk copy / resync
        #: payload transfers (no-op object when disabled)
        self.reducer = WireReducer(sim, self.config.reduction,
                                   mirror=mirror_id)
        self.replicated_writes = registry.counter(
            "repro_sdc_replicated_writes_total",
            help="Writes propagated synchronously before the ack",
            mirror=mirror_id)
        self.suspensions = registry.counter(
            "repro_sdc_suspensions_total",
            help="Pair suspensions caused by link failures",
            mirror=mirror_id)
        self.copy_skipped = registry.counter(
            "repro_copy_skipped_blocks_total",
            help="Bulk-copy blocks whose (version, crc32) negotiation "
                 "proved the secondary current — they never crossed "
                 "the wire", mirror=mirror_id)

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

    def remove_pair(self, pair_id: str) -> ReplicationPair:
        """Detach a pair; returns it."""
        pair = self.pairs.pop(pair_id, None)
        if pair is None:
            raise ReplicationError(
                f"mirror {self.mirror_id}: unknown pair {pair_id}")
        del self._pairs_by_pvol[pair.pvol.volume_id]
        del self._pair_locks[pair_id]
        return pair

    def pair_for_pvol(self, volume_id: int) -> Optional[ReplicationPair]:
        """The pair whose primary is ``volume_id``, if any."""
        return self._pairs_by_pvol.get(volume_id)

    @property
    def member_pvol_ids(self) -> List[int]:
        """Primary volume ids of all member pairs."""
        return sorted(self._pairs_by_pvol)

    # -- data path ----------------------------------------------------------

    def _bulk_copy(self, pair: ReplicationPair,
                   items: List[tuple], path: str = "copy",
                   ) -> Generator[object, object, None]:
        """Delta-negotiated batched copy of ``(block, value)`` items.

        Each chunk of ``copy_batch_blocks`` blocks first ships only the
        per-block ``(version, crc32)`` metadata and waits one
        propagation delay for the verdict; blocks the secondary proves
        current never cross the wire (counted in
        ``repro_copy_skipped_blocks_total``).  The stale remainder
        ships as one batched payload transfer and applies with
        overlapped media writes — the whole chunk costs three one-way
        delays instead of one per block.

        With reduction enabled the stale payload transfer is charged
        its *post-reduction* byte count (dedup references + compressed
        payloads), the installed bytes are the actual receive-side
        reconstruction, and ``path`` labels the wire-byte accounting
        (``"copy"`` for initial copy, ``"resync"`` for resync).

        With ``apply_lanes > 1`` the install phases of up to that many
        chunks stage as conflict-free lanes (blocks within one
        ``_bulk_copy`` call are distinct) and commit together through
        the shared lane scheduler's consistency-cut barrier: one
        aggregated media wait per staged chunk, run concurrently, then
        every staged block installs at one instant.  ``apply_lanes=1``
        commits after every chunk, exactly as before.
        """
        config = self.config
        svol = pair.svol
        reducer = self.reducer
        #: completed chunks whose media installs await the next barrier
        staged: List[List[tuple]] = []

        def commit() -> Generator[object, object, None]:
            # a concurrent replicate_write may have raced a newer
            # version in while the payload was on the wire or staged;
            # re-check before applying, exactly like the per-block
            # path did
            lanes: List[List[tuple]] = []
            delays: List[float] = []
            for group in staged:
                installs = [
                    (block, payload, value)
                    for block, payload, value in group
                    if not pair.secondary_current(block, value.version)]
                if not installs:
                    continue
                lanes.append(installs)
                delays.append(max(
                    svol.apply_delay(block)
                    for block, _payload, _value in installs))
            staged.clear()
            yield from lane_waits(self.sim, delays,
                                  name=f"sdc-{pair.pair_id}.{path}")
            for installs in lanes:
                for block, payload, value in installs:
                    svol.install_block(block, payload,
                                       version=value.version,
                                       checksum=value.checksum)

        for start in range(0, len(items), config.copy_batch_blocks):
            chunk = items[start:start + config.copy_batch_blocks]
            # negotiation round trip: metadata out, verdict back
            negotiate_bytes = config.negotiate_metadata_bytes * len(chunk)
            try:
                yield from self.link.transfer(negotiate_bytes)
            except LinkDownError:
                # payloads already staged did land; install them before
                # surfacing the failure (the per-chunk path had them
                # installed already)
                yield from commit()
                reducer.invalidate()
                raise
            if reducer.enabled:
                reducer.account(path, negotiate_bytes)
            ack_delay = self.link.one_way_delay()
            if ack_delay > 0:
                yield self.sim.timeout(ack_delay)
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
                    values, raw_bytes=config.block_size_bytes)
                wire_bytes = encodings.wire_bytes
            else:
                encodings = None
                wire_bytes = config.block_size_bytes * len(stale)
            try:
                yield from self.link.transfer(wire_bytes)
            except LinkDownError:
                # the shipment never landed: nothing was committed, but
                # the sender can no longer prove the receiver's state
                yield from commit()
                reducer.discard()
                reducer.invalidate()
                raise
            if encodings is not None:
                # receive side: reconstruct each block from its wire
                # form (committing the caches in lockstep); the pass
                # books the chunk's post-reduction bytes under this path
                received = [payload for payload, _verified in
                            reducer.receive_batch(path, encodings, values)]
            else:
                received = [value.payload for value in values]
            staged.append([(block, payload, value) for (block, value), payload
                           in zip(stale, received)])
            if len(staged) >= config.apply_lanes:
                yield from commit()
        yield from commit()

    def initial_copy(self, pair_id: str) -> Generator[object, object, None]:
        """Copy the current P-VOL content to the S-VOL over the link.

        Process generator; the pair reports COPY until it completes.
        The copy is delta-negotiated and batched: per-block
        ``(version, crc32)`` metadata is exchanged *before* any payload
        moves, so blocks already current on the S-VOL pay the metadata
        bytes only — never the ``block_size_bytes`` wire cost.
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
        is suspended (fence level "never") and the write is only
        dirty-tracked.  With fence level "data" a link failure raises.
        ``span`` is the originating host-write span.
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
            yield from self.link.transfer(self.config.block_size_bytes)
            yield from pair.svol.write_block(
                block, payload, version=version)
            # The completion status travels back before the host ack.
            ack_delay = self.link.one_way_delay()
            if ack_delay > 0:
                yield self.sim.timeout(ack_delay)
        except LinkDownError:
            # fingerprint state is void after any link failure
            self.reducer.invalidate()
            if self.config.fence_level == "data":
                self.tracer.finish(rep_span, status="error")
                raise
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

    # -- suspension / resync -------------------------------------------------

    def split(self) -> None:
        """Operator-initiated suspension of every pair (PSUS)."""
        for pair in self.pairs.values():
            if pair.suspended_state is None:
                pair.suspend(PairState.PSUS, "split by operator")

    def resync(self) -> Generator[object, object, None]:
        """Copy dirty blocks to the secondaries and clear suspensions.

        Rides the same delta-negotiated bulk path as
        :meth:`initial_copy`: dirty blocks whose content already
        reached the secondary are skipped after the metadata exchange,
        and the stale remainder ships in
        ``copy_batch_blocks``-sized batches.
        """
        if not self.link.is_up:
            raise ReplicationError(
                f"mirror {self.mirror_id}: cannot resync while link is down")
        for pair in self.pairs.values():
            if pair.suspended_state is None:
                continue
            items = []
            for _volume_id, block in sorted(pair.take_dirty()):
                value = pair.pvol.peek(block)
                if value is None:
                    continue
                items.append((block, value))
            yield from self._bulk_copy(pair, items, path="resync")
            pair.clear_suspension()

    def _require_pair(self, pair_id: str) -> ReplicationPair:
        pair = self.pairs.get(pair_id)
        if pair is None:
            raise ReplicationError(
                f"mirror {self.mirror_id}: unknown pair {pair_id}")
        return pair

    def __repr__(self) -> str:
        return (f"<SyncMirror {self.mirror_id!r} pairs={len(self.pairs)} "
                f"writes={self.replicated_writes.value}>")
