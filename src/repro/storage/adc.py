"""Asynchronous data copy: journal groups (the ADC of §III-A1).

A :class:`JournalGroup` is one shared journal pipeline between a main
array and a backup array:

* the **append** side runs inside the host-write path: after the local
  block write, the update is appended to the main journal volume and the
  write is acknowledged — the host never waits for the network;
* the **transfer** process wakes periodically (with jitter, so distinct
  groups drift apart exactly like independent links in a real system),
  ships a batch of entries over the inter-site link, and ingests them
  into the backup journal volume; with ``transfer_window > 1`` it
  *pipelines* — several batches ride the link concurrently (FIFO on the
  shared-bandwidth wire) while receive-side ingest stays strictly in
  sequence order, and ``adaptive_batch`` grows/shrinks the batch
  AIMD-style between configured bounds from the journal backlog and the
  observed drain rate;
* the **restore** process applies ingested entries to the secondary
  volumes *in sequence order*, one window at a time; a window installs
  in the step that advances ``restored_sequence``, so a snapshot group
  cuts at that sequence without stopping restore.

A **consistency group** is nothing more than several pairs sharing one
journal group: one sequence counter ⇒ the backup cut is a prefix of the
main site's ack order across every member volume.  "ADC without a
consistency group" — the configuration the paper warns collapses backup
data — is modelled by giving each pair its own journal group, whose
transfer loops drift independently.

Failure handling mirrors a real array: journal overflow or a persistently
down link suspends the pairs (``PSUE``); writes then continue *without
protection* and are tracked as dirty blocks so a later ``resync`` can
re-establish the mirror.

**End-to-end integrity**: every journal entry carries a CRC32 computed at
append time, verified at *transfer-receive* (before ingest into the
backup journal) and again at *restore-apply* (before the media write).
A failed check quarantines the entry — the corrupted payload never
touches a secondary volume — marks its block dirty, suspends the pairs
(``PSUE``), and, when ``AdcConfig.auto_repair`` is on, drives an
automated **targeted resync** that re-journals only the affected dirty
ranges once the link is healthy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Generator, List,
                    Optional, Sequence, Tuple)
from zlib import crc32

from repro.errors import ReplicationError
from repro.simulation.network import LinkDownError, NetworkLink
from repro.storage.journal import (JournalEntry, JournalFullError,
                                   JournalVolume)
from repro.storage.reduction import (DISABLED_REDUCTION, EncodedBatch,
                                     ReductionConfig, WireReducer)
from repro.storage.replication import PairState, ReplicationPair
from repro.telemetry.spans import BlockSchema, Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.storage.volume import Volume


_entry_payload = attrgetter("payload")

#: journal appends land in array cache; far cheaper than media writes
JOURNAL_APPEND_LATENCY = 0.00005
#: minimum spacing between lag-gauge samples while the transfer loop is
#: idle (journal empty), so long idle soaks don't accumulate one
#: redundant sample per wake-up
IDLE_LAG_SAMPLE_INTERVAL = 0.05
#: wake-up period of the auto-repair loop
REPAIR_DELAY = 0.02
#: auto-repair wake-ups before giving up (operator takes over);
#: :meth:`JournalGroup.ensure_repair` re-arms the loop
REPAIR_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class AdcConfig:
    """Tuning knobs of the asynchronous copy pipeline.

    ``transfer_interval``/``restore_interval`` are the wake-up periods of
    the two background loops; ``interval_jitter`` desynchronises loops of
    different journal groups (the physical cause of backup-data collapse
    without a consistency group).  E7 sweeps ``transfer_interval``; E8
    sweeps the number of pairs per group.
    """

    transfer_interval: float = 0.005
    transfer_batch: int = 512
    #: transfer batches kept in flight concurrently.  1 is the classic
    #: stop-and-wait loop (ship a batch, wait out the full link RTT,
    #: sleep, repeat); >1 pipelines: while batch N propagates, batches
    #: N+1.. serialise behind it on the link's FIFO wire, hiding the
    #: propagation latency.  Receive-side ingest stays strictly
    #: in-order (shipments complete FIFO and are ingested head-first),
    #: so coalesce/quarantine/trim semantics are unchanged.
    transfer_window: int = 1
    #: AIMD batch sizing: grow the transfer batch additively while the
    #: journal backlog keeps batches full and the wire drains them
    #: under ``batch_target_time``; halve it when a shipment fails or
    #: the observed drain time blows past twice the target.  Off by
    #: default (fixed ``transfer_batch``).
    adaptive_batch: bool = False
    #: adaptive-batch bounds and additive-increase step
    transfer_batch_min: int = 64
    transfer_batch_max: int = 8192
    transfer_batch_step: int = 64
    #: desired simulated wire time per shipped batch (drives AIMD)
    batch_target_time: float = 0.01
    restore_interval: float = 0.002
    restore_batch: int = 512
    interval_jitter: float = 0.5
    #: restore window size.  1 = the paper's serial applier: one entry
    #: per window, so every instant is a prefix of the journal order.
    #: >1 takes the whole remaining ``restore_batch`` as one window
    #: whose media writes overlap and whose installs commit at one
    #: instant (:meth:`JournalGroup._apply_window`; real arrays restore
    #: with internal parallelism like this, E8 measures it).  The number
    #: above 1 selects nothing in the applier; it only paces
    #: ``resync()``'s re-journal appends.
    apply_lanes: int = 1
    #: verify entry CRC32s at transfer-receive and restore-apply.
    #: Disabling reproduces the silent-corruption baseline the chaos
    #: campaigns contrast against.
    verify_integrity: bool = True
    #: collapse same-(volume, block) superseded overwrites within one
    #: transfer batch: only the last writer of each address crosses the
    #: wire.  A thinned batch is a prefix of the ack order only before
    #: its first dropped entry and at its tail (which always survives),
    #: so restore windows never end strictly between the two.  Off by
    #: default (ship-everything is the paper's §III-A1 baseline); E7
    #: quantifies the wire-byte saving.
    coalesce_overwrites: bool = False
    #: after an integrity quarantine, automatically resync the affected
    #: dirty ranges once the link is healthy (self-healing repair)
    auto_repair: bool = True
    #: wire data reduction (fingerprint dedup + inline compression) for
    #: the transfer path; off by default — the wire then carries every
    #: payload byte verbatim, exactly as before
    reduction: ReductionConfig = DISABLED_REDUCTION

    def __post_init__(self) -> None:
        if self.transfer_interval <= 0 or self.restore_interval <= 0:
            raise ValueError("intervals must be > 0")
        if self.transfer_batch < 1 or self.restore_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.transfer_window < 1:
            raise ValueError("transfer_window must be >= 1")
        if self.transfer_batch_min < 1:
            raise ValueError("transfer_batch_min must be >= 1")
        if self.transfer_batch_max < self.transfer_batch_min:
            raise ValueError(
                "transfer_batch_max must be >= transfer_batch_min")
        if self.transfer_batch_step < 1:
            raise ValueError("transfer_batch_step must be >= 1")
        if self.batch_target_time <= 0:
            raise ValueError("batch_target_time must be > 0")
        if self.apply_lanes < 1:
            raise ValueError("apply_lanes must be >= 1")
        if not 0 <= self.interval_jitter < 1:
            raise ValueError("interval_jitter must be in [0, 1)")
        if not isinstance(self.reduction, ReductionConfig):
            raise ValueError("reduction must be a ReductionConfig")


#: ``(status, attrs)`` of the restore applies that end without a media
#: write (the ``early`` outcomes of a ``restore-apply`` span block)
_APPLY_INTEGRITY = ("integrity", {"applied": False,
                                  "reason": "checksum mismatch"})
_APPLY_PAIR_DELETED = ("skipped", {"applied": False,
                                   "reason": "pair deleted"})
_APPLY_STALE = ("skipped", {"applied": False, "reason": "stale version"})
_APPLY_COALESCED = ("coalesced", {"applied": False,
                                  "reason": "superseded in window"})


@dataclass
class _Shipment:
    """One transfer batch on its way across the wire.

    ``batch`` is the peeked journal window, ``ship`` the coalesced
    subset actually crossing the wire, ``survivor`` the coalesce map
    (None when coalescing is off).  In the pipelined loop the transfer
    runs in its own process (``proc``); a link failure mid-flight lands
    in ``error`` instead of propagating, so that loop can join shipments
    strictly head-first and keep the receive side in sequence order.
    """

    batch: List[JournalEntry]
    ship: List[JournalEntry]
    survivor: Optional[Dict[Tuple[int, int], int]]
    payload_bytes: int
    #: ``ship``'s wire encoding when reduction is on (None = verbatim);
    #: nothing is cache-committed until the shipment is received, so a
    #: discarded shipment's encoding rolls back for free
    encodings: Optional[EncodedBatch] = None
    span: Optional[Span] = None
    proc: object = None
    error: Optional[BaseException] = field(default=None)
    #: launch instant and whether the batch filled the current batch
    #: size (AIMD growth requires full batches)
    shipped_at: float = 0.0
    full: bool = False


class JournalGroup:
    """One ADC pipeline: shared journal, transfer loop, restore loop."""

    def __init__(self, sim: "Simulator", group_id: str,
                 main_journal: JournalVolume,
                 backup_journal: JournalVolume,
                 link: NetworkLink,
                 config: Optional[AdcConfig] = None) -> None:
        self.sim = sim
        self.group_id = group_id
        self.main_journal = main_journal
        self.backup_journal = backup_journal
        self.link = link
        self.config = config or AdcConfig()
        self.pairs: Dict[str, ReplicationPair] = {}
        self._pairs_by_pvol: Dict[int, ReplicationPair] = {}
        self._svol_by_pvol: Dict[int, "Volume"] = {}
        #: pairs whose initial copy the restore side has not passed yet,
        #: in watermark order (journal sequences only grow)
        self._copy_pending: List[ReplicationPair] = []
        #: ``(first dropped, tail)`` sequences of each ingested batch
        #: coalescing thinned, oldest first (:meth:`_receive_batch`)
        self._coalesced_spans: Deque[Tuple[int, int]] = deque()
        #: highest sequence ingested into the backup journal
        self.transferred_sequence = -1
        #: highest sequence applied to secondary volumes
        self.restored_sequence = -1
        self.suspended = False
        self.suspend_reason = ""
        #: True while the restore loop is mid-apply (:meth:`drain` and
        #: the failback switchover wait for this to clear)
        self.applying = False
        self._running = False
        self._transfer_enabled = True
        self._transfer_proc = None
        self._restore_proc = None
        self._repair_proc = None
        #: entries whose CRC32 failed; never applied, kept for forensics
        self.quarantine: List[JournalEntry] = []
        #: fault-injection hook: transforms each entry as it crosses the
        #: wire (chaos wire-corruption faults install one); None = clean
        self._wire_injector: Optional[
            Callable[[JournalEntry], JournalEntry]] = None
        #: simulated time of the last lag-gauge sample (bounds the idle
        #: sampling cadence of the transfer loop)
        self._lag_sampled_at = float("-inf")
        #: current transfer batch size; fixed at ``transfer_batch``, or
        #: AIMD-adjusted between the configured bounds when
        #: ``adaptive_batch`` is on
        adc = self.config
        if adc.adaptive_batch:
            self._batch_size = min(adc.transfer_batch_max,
                                   max(adc.transfer_batch_min,
                                       adc.transfer_batch))
        else:
            self._batch_size = adc.transfer_batch
        #: wire data-reduction engine (no-op object when disabled);
        #: shared by the transfer loop and the resync traffic riding it
        self.reducer = WireReducer(sim, adc.reduction, group=group_id)
        # -- observability ---------------------------------------------------
        # instruments live in the simulation's metrics registry, keyed
        # by group; the attributes below are the same objects the
        # registry renders, so legacy call sites keep working
        registry = sim.telemetry.registry
        self.tracer = sim.telemetry.tracer
        self.recorder = sim.telemetry.recorder
        self._apply_spans = BlockSchema(
            "restore-apply", {"group": group_id},
            ("volume", "block", "sequence", "version"), {"applied": True})
        self.lag_entries = registry.gauge(
            "repro_journal_lag_entries",
            help="Journal entry lag sampled by the transfer loop",
            unit="entries", group=group_id)
        self.lag_seconds = registry.gauge(
            "repro_journal_lag_seconds",
            help="Age of the oldest unshipped main-journal entry",
            unit="seconds", group=group_id)
        self.peak_entries_gauge = registry.gauge(
            "repro_journal_main_peak_entries",
            help="Peak occupancy of the main journal",
            unit="entries", group=group_id)
        self.transferred_count = registry.counter(
            "repro_journal_transferred_entries_total",
            help="Entries shipped main -> backup journal", group=group_id)
        self.restored_count = registry.counter(
            "repro_journal_restored_entries_total",
            help="Entries applied to secondary volumes", group=group_id)
        self.suspensions = registry.counter(
            "repro_journal_suspensions_total",
            help="Group suspensions (journal full, link down)",
            group=group_id)
        self.transfer_batches = registry.counter(
            "repro_journal_transfer_batches_total",
            help="Batches shipped over the inter-site link",
            group=group_id)
        self.transfer_bytes = registry.counter(
            "repro_journal_transfer_bytes_total",
            help="Logical (pre-reduction) bytes shipped over the "
                 "inter-site link", unit="bytes", group=group_id)
        self.coalesced_count = registry.counter(
            "repro_transfer_coalesced_total",
            help="Superseded overwrites collapsed before crossing the "
                 "wire (coalesce_overwrites)", group=group_id)
        self.corruptions_wire = registry.counter(
            "repro_integrity_corruptions_detected_total",
            help="Entry CRC32 failures caught before reaching the backup",
            where="wire", source=group_id)
        self.corruptions_journal = registry.counter(
            "repro_integrity_corruptions_detected_total",
            help="Entry CRC32 failures caught before reaching the backup",
            where="journal", source=group_id)
        self.repair_resyncs = registry.counter(
            "repro_repair_resyncs_total",
            help="Automated targeted resyncs driven by integrity repair",
            group=group_id)
        self.batch_size_gauge = registry.gauge(
            "repro_transfer_batch_size",
            help="Transfer batch size currently in use (AIMD-adaptive "
                 "between the configured bounds when adaptive_batch is "
                 "on)", unit="entries", group=group_id)
        self.copy_skipped = registry.counter(
            "repro_copy_skipped_blocks_total",
            help="Resync blocks whose (version, crc32) negotiation "
                 "proved the secondary current — they never crossed "
                 "the wire", group=group_id)
        # registered only for batch windows: the serial applier's
        # one-entry windows cannot conflict, and default registries —
        # and therefore chaos digests — carry no series that is always 0
        if adc.apply_lanes > 1:
            self.restore_lanes_gauge = registry.gauge(
                "repro_restore_lanes",
                help="Configured apply_lanes (> 1: one restore window per "
                     "batch; also paces resync re-journal appends)",
                unit="lanes", group=group_id)
            self.lane_conflicts = registry.counter(
                "repro_restore_lane_conflicts_total",
                help="Same-(volume, block) conflicts coalesced "
                     "last-writer-wins inside one restore window",
                group=group_id)
            self.restore_lanes_gauge.sample(sim.now, adc.apply_lanes)
        else:
            self.restore_lanes_gauge = None
            self.lane_conflicts = None
        if adc.adaptive_batch:
            self.batch_size_gauge.sample(sim.now, self._batch_size)

    # -- pair management ------------------------------------------------------

    def add_pair(self, pair: ReplicationPair) -> None:
        """Attach a pair and enqueue its initial copy through the journal.

        The initial copy is journaled like ordinary updates (sequence
        numbers assigned now), so concurrent host writes interleave
        correctly with it and the S-VOL converges in order.  The pair
        reports ``COPY`` until the restore pipeline passes the watermark.
        """
        if pair.pair_id in self.pairs:
            raise ReplicationError(
                f"group {self.group_id}: duplicate pair {pair.pair_id}")
        if pair.pvol.volume_id in self._pairs_by_pvol:
            raise ReplicationError(
                f"group {self.group_id}: volume {pair.pvol.volume_id} "
                "already paired")
        self.pairs[pair.pair_id] = pair
        self._pairs_by_pvol[pair.pvol.volume_id] = pair
        self._svol_by_pvol[pair.pvol.volume_id] = pair.svol
        pair.observer = self._observe_pair
        watermark = -1
        blocks = sorted(pair.pvol.block_map().items())
        # pre-existing blocks ride the journal under an initial-copy
        # span, so their restore applies have a causal parent too
        copy_span = None
        if blocks:
            copy_span = self.tracer.start(
                "initial-copy", group=self.group_id, pair=pair.pair_id,
                volume=pair.pvol.volume_id, blocks=len(blocks))
        for block, value in blocks:
            entry = self._append_entry(
                pair.pvol.volume_id, block, value.payload, value.version,
                trace_id=copy_span.trace_id if copy_span else None,
                span_id=copy_span.span_id if copy_span else None,
                checksum=value.checksum)
            if entry is not None:
                watermark = entry.sequence
        if copy_span is not None:
            self.tracer.finish(copy_span, watermark=watermark)
        pair.copy_watermark = watermark
        if watermark < 0:
            pair.initial_copy_done = True
        else:
            self._copy_pending.append(pair)

    def remove_pair(self, pair_id: str) -> ReplicationPair:
        """Detach a pair (pair deletion); returns it."""
        pair = self.pairs.pop(pair_id, None)
        if pair is None:
            raise ReplicationError(
                f"group {self.group_id}: unknown pair {pair_id}")
        del self._pairs_by_pvol[pair.pvol.volume_id]
        del self._svol_by_pvol[pair.pvol.volume_id]
        self._copy_pending = [pending for pending in self._copy_pending
                              if pending is not pair]
        return pair

    # -- host-write side -------------------------------------------------------

    def journal_append_many(
            self, writes: List[tuple], span: Optional[Span] = None,
            ) -> Generator[object, object, int]:
        """Append host writes to the main journal under **one**
        journal-append latency and one span (the host-write path).

        ``writes`` is a sequence of ``(volume_id, block, payload,
        version, checksum)`` in ack order; ``checksum`` is the payload
        CRC32 the host-write path already computed.  The small
        journal-append latency is the *entire* replication cost the host
        pays — this is the paper's "no system slowdown" mechanism.

        Entries are appended in input order with per-write suspension
        semantics: a journal-full on write *k* suspends the group and
        writes *k*.. are only marked dirty.  ``span`` is the originating
        host-write span; the entries carry its trace context to the
        backup site so the restore apply can close the causal chain.
        Returns the number of protected (journaled) writes.
        """
        tracer = self.tracer
        append_span = None
        if tracer.enabled:
            append_span = tracer.start(
                "journal-append", parent=span, group=self.group_id,
                writes=len(writes))
        yield self.sim.sleep(JOURNAL_APPEND_LATENCY)
        if span is not None and span.trace_id is not None:
            trace_id, span_id = span.trace_id, span.span_id
        elif append_span is not None:
            trace_id, span_id = append_span.trace_id, append_span.span_id
        else:
            trace_id = span_id = None
        protected = 0 if self.suspended else self.main_journal.append_many(
            writes, self.sim.now, trace_id, span_id)
        # suspended, or the journal filled at write ``protected``: the
        # rest take the per-entry path, which suspends on the overflow
        # and marks every unprotected write dirty
        for volume_id, block, payload, version, checksum \
                in writes[protected:]:
            self._append_entry(
                volume_id, block, payload, version,
                trace_id=trace_id, span_id=span_id, checksum=checksum)
        if append_span is not None:
            tracer.finish(
                append_span,
                status="ok" if protected == len(writes) else "unprotected",
                protected=protected)
        return protected

    def _append_entry(self, volume_id: int, block: int, payload: bytes,
                      version: int, trace_id: Optional[str] = None,
                      span_id: Optional[str] = None,
                      checksum: Optional[int] = None,
                      ) -> Optional[JournalEntry]:
        pair = self._pairs_by_pvol.get(volume_id)
        if self.suspended:
            if pair is not None:
                pair.mark_dirty(volume_id, block)
            return None
        try:
            return self.main_journal.append(
                volume_id, block, payload, version, self.sim.now,
                trace_id=trace_id, span_id=span_id, checksum=checksum)
        except JournalFullError:
            self._suspend(PairState.PSUE, "main journal full")
            if pair is not None:
                pair.mark_dirty(volume_id, block)
            return None

    # -- suspension / resync -------------------------------------------------

    def _observe_pair(self, pair: ReplicationPair, event: str) -> None:
        """Pair lifecycle hook: feed transitions to the flight recorder."""
        self.recorder.record(
            "pair", pair.pair_id, group=self.group_id, event=event,
            state=pair.state.value, reason=pair.suspend_reason)

    def _suspend(self, state: PairState, reason: str) -> None:
        if self.suspended:
            return
        self.suspended = True
        self.suspend_reason = reason
        self.suspensions.increment()
        self.recorder.record("suspension", self.group_id,
                             state=state.value, reason=reason)
        for pair in self.pairs.values():
            pair.suspend(state, reason)

    def split(self) -> None:
        """Operator-initiated suspension (PSUS): stop propagating."""
        self._suspend(PairState.PSUS, "split by operator")

    # -- integrity quarantine / self-healing repair ---------------------------

    def install_wire_injector(self, injector: Optional[
            Callable[[JournalEntry], JournalEntry]]) -> None:
        """Install (or clear, with None) the wire fault-injection hook.

        The injector sees every entry between link transfer and backup
        ingest; chaos wire-corruption faults use it to flip payload bits
        without touching the checksum.
        """
        self._wire_injector = injector

    def _quarantine_entry(self, entry: JournalEntry, where: str) -> None:
        """Handle a CRC32 failure: quarantine, mark dirty, suspend, heal.

        The corrupted payload is never applied; the affected block is
        marked dirty on its pair so the repair resync re-journals *only
        the damaged range* from the primary's intact copy.
        """
        self.quarantine.append(entry)
        counter = self.corruptions_wire if where == "wire" \
            else self.corruptions_journal
        counter.increment()
        self.recorder.record(
            "quarantine", self.group_id, where=where,
            sequence=entry.sequence, volume=entry.volume_id,
            block=entry.block)
        pair = self._pairs_by_pvol.get(entry.volume_id)
        if pair is not None:
            pair.mark_dirty(entry.volume_id, entry.block)
        # a quarantine voids the reduction caches: in-flight encodings
        # behind this batch are discarded and the sender can no longer
        # assume the receiver's fingerprint state
        self.reducer.invalidate()
        self._suspend(
            PairState.PSUE,
            f"integrity: corrupt entry seq={entry.sequence} "
            f"vol={entry.volume_id} block={entry.block} ({where})")
        self.ensure_repair()

    def ensure_repair(self) -> None:
        """Arm the auto-repair loop if suspended and not already armed.

        Called automatically on quarantine; chaos/operator code calls it
        again after healing a long outage if the loop gave up.
        """
        if not self.config.auto_repair or not self.suspended:
            return
        if self._repair_proc is not None and self._repair_proc.alive:
            return
        self._repair_proc = self.sim.spawn(
            self._auto_repair(), name=f"jg-{self.group_id}.repair")

    def _auto_repair(self) -> Generator[object, object, None]:
        """Self-healing loop: resync the dirty delta once the link is up.

        Wakes every ``REPAIR_DELAY`` until the resync sticks (the pairs
        leave PSUE) or ``REPAIR_MAX_ATTEMPTS`` wake-ups pass — a resync
        can be re-suspended by a refilled journal, so one attempt is not
        always enough.
        """
        attempts = 0
        while self.suspended and attempts < REPAIR_MAX_ATTEMPTS:
            attempts += 1
            yield self.sim.sleep(REPAIR_DELAY)
            if not self.suspended:
                return
            if not self.link.is_up:
                continue  # wait out the partition, then repair
            self.repair_resyncs.increment()
            yield from self.resync()

    def resync(self) -> Generator[object, object, None]:
        """Re-establish the mirror after a suspension.

        Re-journals every dirty block's *current* content; once the
        backlog restores, the pairs return to PAIR.  Process generator —
        completes when the dirty delta has been journaled (not yet
        restored).
        """
        if not self.suspended:
            return
        if not self.link.is_up:
            raise ReplicationError(
                f"group {self.group_id}: cannot resync while link is down")
        self.suspended = False
        self.suspend_reason = ""
        resync_span = self.tracer.start("resync", group=self.group_id)
        self.recorder.record("resync", self.group_id, event="started")
        rejournaled = 0
        # with apply_lanes > 1 the targeted-repair re-journal batches
        # its append latency: `apply_lanes` appends ride one aggregated
        # wait (the journal is cache-backed; the appends overlap the
        # same way laned restore installs do).  lanes=1 pays one wait
        # per append, exactly as before.
        lanes = self.config.apply_lanes
        try:
            for pair in self.pairs.values():
                pending = sorted(pair.take_dirty())
                for index, (volume_id, block) in enumerate(pending):
                    value = pair.pvol.peek(block)
                    if value is None:
                        continue
                    if pair.secondary_current(block, value.version):
                        # delta negotiation: the secondary already
                        # holds this content at the same (or newer)
                        # version, so it never re-crosses the wire
                        self.copy_skipped.increment()
                        continue
                    if rejournaled % lanes == 0:
                        yield self.sim.sleep(JOURNAL_APPEND_LATENCY)
                    entry = self._append_entry(
                        volume_id, block, value.payload, value.version,
                        trace_id=resync_span.trace_id,
                        span_id=resync_span.span_id,
                        checksum=value.checksum)
                    if entry is None:
                        # suspended again (journal refilled or a fresh
                        # quarantine): the current block was re-marked
                        # dirty by _append_entry, but the rest of the
                        # consumed set must survive for the next attempt
                        for remaining in pending[index + 1:]:
                            pair.mark_dirty(*remaining)
                        self.tracer.finish(resync_span, status="suspended",
                                           rejournaled=rejournaled)
                        self.recorder.record(
                            "resync", self.group_id, event="completed",
                            status="suspended", rejournaled=rejournaled)
                        return
                    rejournaled += 1
                pair.clear_suspension()
        except BaseException:
            self.tracer.finish(resync_span, status="error",
                               rejournaled=rejournaled)
            self.recorder.record("resync", self.group_id,
                                 event="completed", status="error",
                                 rejournaled=rejournaled)
            raise
        self.tracer.finish(resync_span, rejournaled=rejournaled)
        self.recorder.record("resync", self.group_id, event="completed",
                             status="ok", rejournaled=rejournaled)

    # -- background pipeline ------------------------------------------------

    def start(self) -> None:
        """Spawn the transfer and restore processes (idempotent)."""
        if self._running:
            return
        self._running = True
        if self._transfer_proc is None or not self._transfer_proc.alive:
            loop = self._transfer_loop_windowed if \
                self.config.transfer_window > 1 else self._transfer_loop_serial
            self._transfer_proc = self.sim.spawn(
                loop(), name=f"jg-{self.group_id}.transfer")
        if self._restore_proc is None or not self._restore_proc.alive:
            self._restore_proc = self.sim.spawn(
                self._restore_loop(), name=f"jg-{self.group_id}.restore")

    def stop(self) -> None:
        """Stop both loops at their next wake-up."""
        self._running = False

    def stop_transfer(self) -> None:
        """Stop only the transfer side (main-site disaster): the restore
        loop keeps draining what already reached the backup journal."""
        self._transfer_enabled = False

    def restart(self) -> None:
        """Restart dead pipelines after an array crash/repair.

        Re-enables the transfer side and re-spawns whichever background
        loops have exited; running loops are left alone.  Chaos
        array-crash faults use this to model crash *and restart*.
        """
        # fingerprint caches do not survive an array restart
        self.reducer.invalidate()
        self._transfer_enabled = True
        self._running = False
        self.start()

    def _jittered(self, base: float, stream: str) -> float:
        if self.config.interval_jitter == 0:
            return base
        return self.sim.rng.jitter(
            f"jg.{self.group_id}.{stream}", base, self.config.interval_jitter)

    @staticmethod
    def _coalesce_batch(batch: List[JournalEntry],
                        ) -> Tuple[List[JournalEntry],
                                   Dict[Tuple[int, int], int]]:
        """Last-writer-wins within one batch: superseded same-address
        entries never cross the wire.

        Returns ``(ship, survivor)``: the entries to ship and a map of
        each ``(volume_id, block)`` address to the sequence of its
        newest entry in the batch.  The survivor is by construction the
        newest write of its address, so trimming a superseded entry is
        safe exactly when its survivor has been consumed; the batch
        tail always survives, so the restored cut still advances to
        the window's high sequence.
        """
        survivor: Dict[Tuple[int, int], int] = {}
        for entry in batch:
            survivor[(entry.volume_id, entry.block)] = entry.sequence
        ship = [entry for entry in batch
                if survivor[(entry.volume_id, entry.block)]
                == entry.sequence]
        return ship, survivor

    def _adapt_batch(self, ok: bool, full: bool, drain_time: float,
                     backlog: int) -> None:
        """AIMD transfer-batch sizing (no-op unless ``adaptive_batch``).

        Additive increase: while the journal backlog keeps batches full
        and the observed per-batch drain time stays under
        ``batch_target_time``, grow by ``transfer_batch_step`` up to
        ``transfer_batch_max``.  Multiplicative decrease: a failed
        shipment, or a drain time beyond twice the target (the link is
        slower than the batch assumes), halves the batch down to
        ``transfer_batch_min``.
        """
        config = self.config
        if not config.adaptive_batch:
            return
        size = self._batch_size
        if not ok or drain_time > 2 * config.batch_target_time:
            size = max(config.transfer_batch_min, size // 2)
        elif full and backlog > 0 and \
                drain_time < config.batch_target_time:
            size = min(config.transfer_batch_max,
                       size + config.transfer_batch_step)
        if size != self._batch_size:
            self._batch_size = size
            self.batch_size_gauge.sample(self.sim.now, size)

    @property
    def integrity_rearmed(self) -> bool:
        """True once a fault could have made a journaled payload and its
        checksum disagree: a wire injector is installed, or a
        journal-corruption fault has fired on either journal volume.
        Integrity is normally established **once per site** (the host
        write hashes, transfer-receive verifies) and everything
        downstream trusts ``entry.checksum``; while this flag is up the
        encoder fingerprints the payload bytes instead and restore-apply
        verifies again before the media write.
        """
        return (self._wire_injector is not None
                or self.main_journal.mutations > 0
                or self.backup_journal.mutations > 0)

    def _receive_batch(self, shipment: _Shipment) -> str:
        """Receive-side ingest of one transferred batch.

        One pass reconstructs each entry from its wire form
        (:meth:`WireReducer.receive_batch` — a bad resolution or decode
        genuinely fails the check), runs it through the wire fault hook
        and verifies its CRC32 once.  It stops at the first entry that is
        corrupt (quarantined, never ingested) or finds the backup
        journal full; the clean prefix before it is bulk-ingested, the
        delivered prefix trimmed off the main journal, and whatever
        lies behind re-ships after the suspension heals.  No yields, so
        the stop-and-wait and pipelined loops share it without
        perturbing event order.  Returns ``"ok"``, ``"integrity"``,
        ``"backup-full"`` — or ``"link-down"`` for a shipment that died
        on the wire: nothing of it was committed, but the sender can no
        longer prove the receiver's cache state, so the caches re-warm.
        """
        batch_span = shipment.span
        if shipment.error is not None:
            if batch_span is not None:
                self.tracer.finish(batch_span, status="link-down")
            self.reducer.discard()
            self.reducer.invalidate()
            return "link-down"
        batch, ship = shipment.batch, shipment.ship
        survivor, encodings = shipment.survivor, shipment.encodings
        injector = self._wire_injector
        verify = self.config.verify_integrity
        room = self.backup_journal.free_entries
        clean: List[JournalEntry] = []
        corrupt = None
        # the entry one past the room is received too: it is the one that
        # finds the journal full (or is quarantined first)
        arriving = ship if room >= len(ship) else ship[:room + 1]
        received = None if encodings is None else \
            self.reducer.receive_batch("transfer", encodings, arriving)
        for entry in arriving:
            if received is not None:
                payload, verified = next(received)
                if payload is not entry.payload:
                    entry = JournalEntry(
                        entry.sequence, entry.volume_id, entry.block,
                        payload, entry.version, entry.created_at,
                        entry.checksum, entry.trace_id, entry.span_id)
                if verified and injector is None:
                    # a resolved reference was just verified against
                    # the entry checksum: no second hash
                    clean.append(entry)
                    continue
            if injector is not None:
                entry = injector(entry)
            if verify:
                checksum = entry.checksum
                if checksum is not None \
                        and crc32(entry.payload) != checksum:
                    corrupt = entry
                    break
            clean.append(entry)
        status = "ok"
        if len(clean) > room:
            clean.pop()
            status = "backup-full"
        delivered_bytes = self.backup_journal.ingest_batch(clean)
        consumed = len(clean)
        if corrupt is not None:
            # corruption picked up on the wire: consumed, never re-ships
            self._quarantine_entry(corrupt, where="wire")
            status = "integrity"
            consumed += 1
        elif status == "backup-full":
            self._suspend(PairState.PSUE, "backup journal full")
        elif len(ship) < len(batch):
            # a superseded entry's survivor comes later in the batch: an
            # image is a prefix again only at the batch tail
            self._coalesced_spans.append((next(
                entry.sequence for entry in batch
                if survivor[(entry.volume_id, entry.block)] != entry.sequence),
                ship[-1].sequence))
        if received is not None:
            # books the whole shipment's post-reduction wire bytes (the
            # full batch crossed the link even if ingest stopped early)
            received.close()
        # trim the longest batch prefix in which every entry was
        # consumed directly or superseded by a consumed survivor; the
        # rest stays journaled and re-ships after the suspension heals
        # (ship is in sequence order, so a survivor was consumed exactly
        # when it sits at or before the last consumed entry)
        delivered = last = ship[consumed - 1].sequence if consumed else -1
        if survivor is not None and consumed < len(ship):
            delivered = -1
            for entry in batch:
                if survivor[(entry.volume_id, entry.block)] > last:
                    break
                delivered = entry.sequence
        if delivered >= 0:
            self.main_journal.pop_through(delivered)
        if clean:
            self.transferred_sequence = max(self.transferred_sequence,
                                            clean[-1].sequence)
            self.transferred_count.increment(len(clean))
            self.transfer_bytes.increment(delivered_bytes)
        if status == "ok":
            self.transfer_batches.increment()
        if batch_span is not None:
            self.tracer.finish(batch_span, status=status)
        return status

    def _transfer_blocked(self) -> bool:
        """True while nothing may ship (suspended, or link down — even
        an idle link-down voids the reduction caches: the sender cannot
        prove the receiver survived it)."""
        if not self.link.is_up:
            self.reducer.invalidate()
            return True
        return self.suspended

    def _sample_idle_lag(self) -> None:
        """Keep the lag gauges fresh while idle, at a bounded cadence so
        long idle soaks don't accumulate one sample per wake-up."""
        if self.sim.now - self._lag_sampled_at >= IDLE_LAG_SAMPLE_INTERVAL:
            self._sample_lag()

    def _transfer_loop_serial(self) -> Generator[object, object, None]:
        """Stop-and-wait wire path (``transfer_window=1``): ship one
        batch, wait out its full link delay, sleep, repeat."""
        config = self.config
        while self._running:
            yield self.sim.sleep(
                self._jittered(config.transfer_interval, "transfer"))
            if not self._running:
                return
            if not self._transfer_enabled:
                return
            if self._transfer_blocked():
                continue
            batch = self.main_journal.peek_batch(self._batch_size) \
                if len(self.main_journal) else []
            if not batch:
                self._sample_idle_lag()
                continue
            shipment = self._prepare_shipment(batch)
            yield from self._ship(shipment)
            status = self._receive_batch(shipment)
            self._adapt_batch(status == "ok", shipment.full,
                              self.sim.now - shipment.shipped_at,
                              len(self.main_journal))
            if status != "link-down":
                # (a lost batch stays journaled; retried next wake-up)
                self._sample_lag()

    def _ship(self, shipment: _Shipment,
              ) -> Generator[object, object, None]:
        """One shipment's wire transfer (the pipelined loop runs it as
        its own process).  A link failure mid-flight is captured on the
        shipment instead of propagating, so shipments can be joined
        head-first and the receive side decides what the failure voids.
        """
        try:
            yield from self.link.transfer(shipment.payload_bytes)
        except LinkDownError as exc:
            shipment.error = exc

    def _prepare_shipment(self, batch: List[JournalEntry]) -> _Shipment:
        """Coalesce, encode and trace one batch about to cross the wire.
        Encoding commits nothing to the reduction caches (commit is at
        receive), so a shipment discarded in flight rolls back for free.
        """
        if self.config.coalesce_overwrites and len(batch) > 1:
            ship, survivor = self._coalesce_batch(batch)
            if len(ship) < len(batch):
                self.coalesced_count.increment(len(batch) - len(ship))
        else:
            ship, survivor = batch, None
        if self.reducer.enabled:
            # while integrity is re-armed a payload may no longer match
            # its checksum: fingerprint the bytes actually there
            encodings = self.reducer.encode_batch(
                ship, trusted=not self.integrity_rearmed, overhead=64)
            payload_bytes = encodings.wire_bytes
        else:
            # entry.size_bytes summed without a Python-level call per
            # entry: the payload lengths are taken in C
            encodings = None
            payload_bytes = sum(map(len, map(_entry_payload, ship))) \
                + 64 * len(ship)
        span = None
        tracer = self.tracer
        if tracer.enabled:
            span = tracer.start(
                "transfer-batch", group=self.group_id,
                entries=len(ship), bytes=payload_bytes,
                coalesced=len(batch) - len(ship),
                first_sequence=ship[0].sequence,
                last_sequence=ship[-1].sequence)
        return _Shipment(
            batch=batch, ship=ship, survivor=survivor,
            payload_bytes=payload_bytes, encodings=encodings, span=span,
            shipped_at=self.sim.now,
            full=len(batch) >= self._batch_size)

    def _transfer_loop_windowed(self) -> Generator[object, object, None]:
        """Pipelined wire path: up to ``transfer_window`` batches in
        flight concurrently.

        Shipments serialise FIFO on the link's shared-bandwidth queue
        and are joined strictly head-first, so the receive side ingests
        in sequence order exactly like stop-and-wait — while batch N
        propagates, batches N+1.. are already serialising behind it,
        hiding the link latency.  Entries are only trimmed from the
        main journal when their shipment is received, so on any failure
        (link down under the head shipment, quarantine, backup-journal
        overflow) every later in-flight shipment is simply discarded:
        its entries are still journaled and re-ship once the pipeline
        is healthy.  Payload already on the wire when that happens is
        wasted bandwidth, exactly like a real retransmit.
        """
        config = self.config
        inflight: Deque[_Shipment] = deque()
        covered = 0  # journal entries held by in-flight shipments
        last_done: Optional[float] = None
        while self._running:
            if not self._transfer_enabled:
                return
            if not self.suspended and self.link.is_up:
                while len(inflight) < config.transfer_window and \
                        len(self.main_journal) > covered:
                    batch = self.main_journal.peek_batch(
                        self._batch_size, offset=covered)
                    if not batch:
                        break
                    shipment = self._prepare_shipment(batch)
                    shipment.proc = self.sim.spawn(
                        self._ship(shipment),
                        name=f"jg-{self.group_id}.ship-{batch[0].sequence}")
                    inflight.append(shipment)
                    covered += len(batch)
            if not inflight:
                last_done = None
                yield self.sim.sleep(
                    self._jittered(config.transfer_interval, "transfer"))
                if not self._running or not self._transfer_enabled:
                    return
                if not self._transfer_blocked() \
                        and not len(self.main_journal):
                    self._sample_idle_lag()
                continue
            head = inflight.popleft()
            yield head.proc  # join: fires when the batch lands
            covered -= len(head.batch)
            status = self._receive_batch(head)
            # AIMD feeds on the gap between head completions: in a
            # full pipeline that gap is the batch's serialisation
            # time, the actual per-batch drain rate of the wire
            since = last_done if last_done is not None \
                else head.shipped_at
            last_done = self.sim.now
            self._adapt_batch(status == "ok", head.full,
                              self.sim.now - since,
                              len(self.main_journal) - covered)
            if status != "ok":
                # the pipeline behind a failed head is void: nothing
                # was trimmed, so those entries re-ship in order — and
                # nothing was cache-committed (commit happens at
                # receive), so discarding the encodings is the whole
                # rollback
                self.reducer.discard(len(inflight))
                for shipment in inflight:
                    if shipment.span is not None:
                        self.tracer.finish(shipment.span,
                                           status="discarded")
                inflight.clear()
                covered = 0
                last_done = None
            self._sample_lag()

    def _restore_loop(self) -> Generator[object, object, None]:
        config = self.config
        journal = self.backup_journal
        # one entry per window for the serial applier, else the whole
        # remaining batch budget (conflicts coalesce last-writer-wins)
        serial = config.apply_lanes == 1
        while self._running:
            yield self.sim.sleep(
                self._jittered(config.restore_interval, "restore"))
            if not self._running:
                return
            applied = 0
            while applied < config.restore_batch:
                if not self._running:
                    return
                # (rebinding ``window`` on the way out too releases the
                # last window's entries before the loop sleeps)
                if serial:
                    head = journal.oldest_entry()
                    window = () if head is None else (head,)
                else:
                    window = journal.peek_batch(
                        config.restore_batch - applied)
                if not window:
                    break
                last = window[-1].sequence
                spans = self._coalesced_spans
                while spans and spans[0][1] <= last:
                    spans.popleft()
                if spans and spans[0][0] < last:
                    # never end inside a coalesced batch: run to its tail
                    end = spans.popleft()[1]
                    window = [entry for entry in journal.peek_batch(
                        len(window) + end - last) if entry.sequence <= end]
                    last = end
                count = len(window)
                self.applying = True
                try:
                    yield from self._apply_window(window)
                    journal.pop_through(last)
                    self.restored_sequence = last
                finally:
                    self.applying = False
                self.restored_count.increment(count)
                self._update_copy_states()
                applied += count

    def _apply_target(self, entry: JournalEntry, verify: bool):
        """The per-entry restore decision: the secondary volume the
        entry installs into, or the ``(status, attrs)`` outcome of an
        apply that ends without a media write."""
        if verify and not entry.verify_checksum():
            # corruption inside the journal volume (torn/bit-rotted
            # write): quarantine before the media write — the payload
            # never reaches the secondary volume
            self._quarantine_entry(entry, where="journal")
            return _APPLY_INTEGRITY
        svol = self._svol_by_pvol.get(entry.volume_id)
        if svol is None:
            # pair deleted while entries were in flight
            return _APPLY_PAIR_DELETED
        if svol.versions.get(entry.block, 0) >= entry.version:
            # already applied (resync overlap)
            return _APPLY_STALE
        return svol

    def _apply_window(self, window: Sequence[JournalEntry],
                      ) -> Generator[object, object, None]:
        """Apply one window and commit it at a single instant.

        One pass in sequence order makes the per-entry decisions
        (:meth:`_apply_target`) and coalesces same-(volume, block)
        conflicts last-writer-wins (safe for the same reason wire
        coalescing is: the survivor is the newest write of its address
        and versions per address are monotone in sequence order).  The
        survivors' media writes overlap, so the window costs the *max*
        of their apply costs (copy-on-write preservation plus the
        write), waited out inline.  Nothing installs until the whole
        media time has elapsed, so every externally observable image
        (snapshot-group creation, failover promote, invariant checks,
        restore-point queries) is a window-boundary cut.  The
        ``restore-apply`` spans — parented to the span that journaled
        each entry (host-write / initial-copy / resync; the context
        rode inside the entry across the site hop) — are recorded as
        one block per window.  A one-entry window (the serial applier's,
        :meth:`drain`'s) is the same sequence — decide, open the span
        block, wait, install, close — over one row: nothing to coalesce,
        so nothing is indexed.
        """
        tracer = self.tracer
        verify = self.config.verify_integrity and self.integrity_rearmed
        block = None
        if len(window) == 1:
            entry = window[0]
            target = self._apply_target(entry, verify)
            skipped = type(target) is tuple
            if tracer.enabled:
                block = tracer.start_block(
                    self._apply_spans,
                    ((entry.trace_id, entry.span_id, entry.volume_id,
                      entry.block, entry.sequence, entry.version),),
                    {0: target} if skipped else None)
            if not skipped:
                rows = ((entry.block, entry.payload, entry.version,
                         entry.checksum),)
                delay = target.apply_delay(rows)
                if delay > 0:
                    yield self.sim.sleep(delay)
                target.install_blocks(rows)
            tracer.finish_block(block)
            return
        apply_target = self._apply_target
        early: Dict[int, tuple] = {}
        surviving: Dict[Tuple[int, int], tuple] = {}
        conflicts = 0
        for index, entry in enumerate(window):
            target = apply_target(entry, verify)
            if type(target) is tuple:
                early[index] = target
                continue
            address = (entry.volume_id, entry.block)
            if address in surviving:
                conflicts += 1
                early[surviving.pop(address)[0]] = _APPLY_COALESCED
            surviving[address] = (index, target, entry)
        if conflicts and self.lane_conflicts is not None:
            self.lane_conflicts.increment(conflicts)
        if tracer.enabled:
            block = tracer.start_block(
                self._apply_spans,
                [(entry.trace_id, entry.span_id, entry.volume_id,
                  entry.block, entry.sequence, entry.version)
                 for entry in window], early)
        by_svol: Dict["Volume", List[tuple]] = {}
        for _index, svol, entry in surviving.values():
            by_svol.setdefault(svol, []).append(
                (entry.block, entry.payload, entry.version, entry.checksum))
        delay = max([svol.apply_delay(rows)
                     for svol, rows in by_svol.items()], default=0.0)
        if delay > 0:
            yield self.sim.sleep(delay)
        for svol, rows in by_svol.items():
            svol.install_blocks(rows)
        tracer.finish_block(block)

    def _update_copy_states(self) -> None:
        pending = self._copy_pending
        while pending and \
                self.restored_sequence >= pending[0].copy_watermark:
            pending.pop(0).initial_copy_done = True

    def _sample_lag(self) -> None:
        now = self.sim.now
        self._lag_sampled_at = now
        self.lag_entries.sample(now, self.entry_lag)
        oldest = self.main_journal.oldest_entry()
        self.lag_seconds.sample(
            now, now - oldest.created_at if oldest is not None else 0.0)
        self.peak_entries_gauge.sample(
            now, self.main_journal.peak_entries)

    # -- failover support ----------------------------------------------------

    @property
    def entry_lag(self) -> int:
        """Journaled-but-not-restored entries (main + backup journals)."""
        return len(self.main_journal) + len(self.backup_journal)

    def drain(self) -> Generator[object, object, int]:
        """Failover drain: apply everything already at the backup site.

        Entries still in the *main* journal are lost with the main site;
        entries in the backup journal are applied in order.  Returns the
        number of entries applied.  The restore loop must be stopped (or
        the group suspended) before draining; an in-flight apply is
        waited out so the drain never races it.
        """
        while self.applying:
            yield self.sim.sleep(0.0001)
        drain_span = self.tracer.start("journal-drain", group=self.group_id)
        applied = 0
        spans = self._coalesced_spans
        window = []
        for entry in self.backup_journal.snapshot_entries():
            window.append(entry)
            last = entry.sequence
            while spans and spans[0][1] <= last:
                spans.popleft()
            if spans and spans[0][0] < last:
                continue  # inside a coalesced batch: run to its tail
            yield from self._apply_window(window)
            self.backup_journal.pop_through(last)
            self.restored_sequence = last
            self.restored_count.increment(len(window))
            applied += len(window)
            window = []
        self._update_copy_states()
        self.tracer.finish(drain_span, applied=applied)
        return applied

    def __repr__(self) -> str:
        return (f"<JournalGroup {self.group_id!r} pairs={len(self.pairs)} "
                f"restored={self.restored_sequence} lag={self.entry_lag} "
                f"{'SUSPENDED ' + self.suspend_reason if self.suspended else 'ok'}>")
