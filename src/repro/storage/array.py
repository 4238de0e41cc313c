"""The storage array facade: the simulated Hitachi VSP G370.

:class:`StorageArray` bundles pools, volumes, journal volumes,
replication engines and snapshots behind a *command API* — the surface
that hosts (via ``host_read``/``host_write_many``), CSI plugins, and the
demo console drive.  Every management command is appended to an audit log so
experiment E3 can count the operations a human would otherwise perform.

Two arrays form a replication topology by direct object references plus a
:class:`~repro.simulation.network.NetworkLink`; there is no hidden global
state, so a test can build any number of sites.

Conventions:

* data-path methods (``host_write_many``, ``host_read``) are process
  generators — they take simulated time; so is ``create_snapshot_group``,
  which completes at once.  ``host_write_many`` is the one host-write
  path: ``host_write`` is a batch of one, and a write's ack latency is
  its media write plus the copy-on-write it owes (decided at install
  time) plus one journal append;
* management commands (volume/journal/pair creation) are plain methods —
  they complete instantly but may start background work (initial copy
  runs through the replication pipelines).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.errors import (ArrayCommandError, ReplicationError, SnapshotError,
                          StorageError, VolumeError)
from repro.simulation.kernel import Simulator
from repro.simulation.network import NetworkLink
from repro.storage.adc import AdcConfig, JournalGroup
from repro.storage.history import WriteHistory, WriteRecord
from repro.storage.journal import JournalVolume
from repro.storage.pool import StoragePool
from repro.storage.replication import CopyMode, PairState, ReplicationPair
from repro.storage.sdc import SyncMirror
from repro.storage.snapshot import Snapshot, SnapshotGroup
from repro.storage.volume import (MediaProfile, Volume,
                                  VolumeRole)


#: entries a journal volume holds unless ``create_journal`` is told
JOURNAL_CAPACITY_ENTRIES = 200_000


@dataclass(frozen=True)
class ArrayConfig:
    """Array-wide defaults: media latencies and ADC tuning."""

    media: MediaProfile = field(default_factory=MediaProfile)
    adc: AdcConfig = field(default_factory=AdcConfig)

    def with_adc(self, **overrides) -> "ArrayConfig":
        """Copy of this config with ADC knobs overridden."""
        return replace(self, adc=replace(self.adc, **overrides))


@dataclass(frozen=True)
class AuditRecord:
    """One management command recorded in the array's audit log."""

    time: float
    command: str
    params: Tuple[Tuple[str, object], ...]

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"[{self.time:10.6f}] {self.command}({rendered})"


class StorageArray:
    """One simulated enterprise storage array."""

    def __init__(self, sim: Simulator, serial: str,
                 config: Optional[ArrayConfig] = None) -> None:
        self.sim = sim
        self.serial = serial
        self.config = config or ArrayConfig()
        self.failed = False
        self.history = WriteHistory()
        self.audit: List[AuditRecord] = []
        self._pools: Dict[int, StoragePool] = {}
        self._volumes: Dict[int, Volume] = {}
        self._journals: Dict[int, JournalVolume] = {}
        self._snapshot_groups: Dict[str, SnapshotGroup] = {}
        self.journal_groups: Dict[str, JournalGroup] = {}
        self.sync_mirrors: Dict[str, SyncMirror] = {}
        self._route_by_pvol: Dict[int, object] = {}
        self._restore_group_by_svol: Dict[int, JournalGroup] = {}
        self._pool_ids = itertools.count(1)
        self._volume_ids = itertools.count(100)
        self._journal_ids = itertools.count(1)
        self._snapshot_ids = itertools.count(1)
        # -- telemetry --------------------------------------------------------
        # Exact-sample summaries keep benchmark facts numerically
        # identical to direct recording; the histogram sketches render
        # cheap percentile series for the registry exports.
        registry = sim.telemetry.registry
        self.tracer = sim.telemetry.tracer
        self.write_latency = registry.summary(
            "repro_host_write_seconds",
            help="Host write latency (exact samples)", unit="seconds",
            array=serial)
        self.read_latency = registry.summary(
            "repro_host_read_seconds",
            help="Host read latency (exact samples)", unit="seconds",
            array=serial)
        self.write_latency_hist = registry.histogram(
            "repro_host_write_latency_seconds",
            help="Host write latency (streaming sketch)", unit="seconds",
            array=serial)
        self.read_latency_hist = registry.histogram(
            "repro_host_read_latency_seconds",
            help="Host read latency (streaming sketch)", unit="seconds",
            array=serial)
        # the host paths record each sample once; the summary fans it
        # out to the sketch so both surfaces stay populated
        self.write_latency.pipe_to(self.write_latency_hist)
        self.read_latency.pipe_to(self.read_latency_hist)
        self.host_writes = registry.counter(
            "repro_host_writes_total", help="Acknowledged host writes",
            array=serial)
        self.host_reads = registry.counter(
            "repro_host_reads_total", help="Completed host reads",
            array=serial)
        self.snapshot_groups_created = registry.counter(
            "repro_snapshot_groups_total",
            help="Snapshot groups created", array=serial)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _audit(self, command: str, **params) -> None:
        self.audit.append(AuditRecord(
            time=self.sim.now, command=command,
            params=tuple(sorted(params.items()))))

    def _check_alive(self) -> None:
        if self.failed:
            raise StorageError(f"array {self.serial} has failed")

    def _require_volume(self, volume_id: int) -> Volume:
        volume = self._volumes.get(volume_id)
        if volume is None:
            raise VolumeError(
                f"array {self.serial}: unknown volume {volume_id}")
        return volume

    def _require_pool(self, pool_id: int) -> StoragePool:
        pool = self._pools.get(pool_id)
        if pool is None:
            raise ArrayCommandError(
                f"array {self.serial}: unknown pool {pool_id}")
        return pool

    # ------------------------------------------------------------------
    # pools and volumes
    # ------------------------------------------------------------------

    def create_pool(self, capacity_blocks: int, name: str = "") -> StoragePool:
        """Create a capacity pool."""
        self._check_alive()
        pool_id = next(self._pool_ids)
        pool = StoragePool(pool_id, capacity_blocks,
                           name=name or f"{self.serial}-pool-{pool_id}")
        self._pools[pool_id] = pool
        self._audit("create_pool", pool_id=pool_id,
                    capacity_blocks=capacity_blocks)
        return pool

    def create_volume(self, pool_id: int, capacity_blocks: int,
                      name: str = "") -> Volume:
        """Allocate a volume from a pool."""
        self._check_alive()
        pool = self._require_pool(pool_id)
        volume_id = next(self._volume_ids)
        owner = f"volume-{volume_id}"
        pool.reserve(owner, capacity_blocks)
        volume = Volume(self.sim, volume_id, capacity_blocks,
                        self.config.media,
                        name=name or f"{self.serial}-ldev-{volume_id}")
        self._volumes[volume_id] = volume
        self._audit("create_volume", volume_id=volume_id, pool_id=pool_id,
                    capacity_blocks=capacity_blocks, name=volume.name)
        return volume

    def get_volume(self, volume_id: int) -> Volume:
        """Look up a volume by id."""
        return self._require_volume(volume_id)

    def volume_exists(self, volume_id: int) -> bool:
        """True if the volume id is allocated on this array."""
        return volume_id in self._volumes

    def find_volume_by_name(self, name: str) -> Optional[Volume]:
        """Locate a volume by its name (None if absent).

        Management clients that name their volumes deterministically use
        this to re-discover a volume after an ambiguous RPC outcome — a
        create that timed out may still have executed, and re-creating
        would leak an orphan.
        """
        for volume_id in sorted(self._volumes):
            if self._volumes[volume_id].name == name:
                return self._volumes[volume_id]
        return None

    def list_volumes(self) -> List[Volume]:
        """All volumes, id order."""
        return [self._volumes[i] for i in sorted(self._volumes)]

    def volume_handle(self, volume_id: int) -> str:
        """The stable external handle CSI publishes for a volume."""
        self._require_volume(volume_id)
        return f"naa.{self.serial}.{volume_id}"

    def parse_handle(self, handle: str) -> int:
        """Inverse of :meth:`volume_handle`; validates the serial."""
        parts = handle.split(".")
        if len(parts) != 3 or parts[0] != "naa" or parts[1] != self.serial:
            raise ArrayCommandError(
                f"array {self.serial}: foreign handle {handle!r}")
        return int(parts[2])

    # ------------------------------------------------------------------
    # journals
    # ------------------------------------------------------------------

    def create_journal(self, pool_id: int,
                       capacity_entries: Optional[int] = None,
                       name: str = "") -> JournalVolume:
        """Create a journal volume (reserves pool capacity 1:1 by entry)."""
        self._check_alive()
        pool = self._require_pool(pool_id)
        capacity = capacity_entries or JOURNAL_CAPACITY_ENTRIES
        journal_id = next(self._journal_ids)
        pool.reserve(f"journal-{journal_id}", capacity)
        journal = JournalVolume(
            journal_id, capacity,
            name=name or f"{self.serial}-jnl-{journal_id}")
        self._journals[journal_id] = journal
        self._audit("create_journal", journal_id=journal_id,
                    capacity_entries=capacity)
        return journal

    def get_journal(self, journal_id: int) -> JournalVolume:
        """Look up a journal volume by id."""
        journal = self._journals.get(journal_id)
        if journal is None:
            raise ArrayCommandError(
                f"array {self.serial}: unknown journal {journal_id}")
        return journal

    def owns_journal(self, journal: JournalVolume) -> bool:
        """True when ``journal`` is hosted on this array.

        Journal groups are registered on both member arrays; probes use
        this to attribute a group's series to its main side only.
        """
        return self._journals.get(journal.journal_id) is journal

    # ------------------------------------------------------------------
    # asynchronous replication (ADC)
    # ------------------------------------------------------------------

    def create_journal_group(self, group_id: str, main_journal_id: int,
                             remote: "StorageArray",
                             backup_journal_id: int, link: NetworkLink,
                             adc_config: Optional[AdcConfig] = None,
                             ) -> JournalGroup:
        """Create an ADC pipeline between this (main) array and ``remote``.

        The group is registered on both arrays and its background loops
        start immediately.
        """
        self._check_alive()
        if group_id in self.journal_groups:
            raise ReplicationError(
                f"array {self.serial}: journal group {group_id} exists")
        # both engines label their series {group=<id>}: one id for a
        # group and a mirror would share counter objects
        for array in (self, remote):
            if group_id in array.sync_mirrors:
                raise ReplicationError(
                    f"array {array.serial}: id {group_id} is taken by a "
                    "sync mirror")
        group = JournalGroup(
            self.sim, group_id,
            main_journal=self.get_journal(main_journal_id),
            backup_journal=remote.get_journal(backup_journal_id),
            link=link, config=adc_config or self.config.adc)
        self.journal_groups[group_id] = group
        remote.journal_groups[group_id] = group
        group.start()
        self._audit("create_journal_group", group_id=group_id,
                    main_journal=main_journal_id,
                    backup_journal=backup_journal_id,
                    remote=remote.serial)
        return group

    def create_async_pair(self, pair_id: str, group_id: str, pvol_id: int,
                          remote: "StorageArray",
                          svol_id: int) -> ReplicationPair:
        """Pair a local P-VOL with a remote S-VOL inside a journal group.

        Multiple pairs in one group form a consistency group; for the
        paper's no-consistency-group baseline, create one group per pair.
        """
        self._check_alive()
        group = self.journal_groups.get(group_id)
        if group is None:
            raise ReplicationError(
                f"array {self.serial}: unknown journal group {group_id}")
        pvol = self._require_volume(pvol_id)
        svol = remote._require_volume(svol_id)
        self._check_pairable(pvol, svol)
        pair = ReplicationPair(
            pair_id=pair_id, mode=CopyMode.ASYNCHRONOUS, pvol=pvol,
            svol=svol, created_at=self.sim.now)
        group.add_pair(pair)
        pvol.set_role(VolumeRole.PVOL)
        svol.set_role(VolumeRole.SVOL)
        self._route_by_pvol[pvol_id] = group
        remote._restore_group_by_svol[svol_id] = group
        self._audit("create_async_pair", pair_id=pair_id, group_id=group_id,
                    pvol=pvol_id, svol=svol_id, remote=remote.serial)
        return pair

    # ------------------------------------------------------------------
    # synchronous replication (SDC baseline)
    # ------------------------------------------------------------------

    def create_sync_mirror(self, mirror_id: str,
                           link: NetworkLink) -> SyncMirror:
        """Create a synchronous mirror context over ``link``."""
        self._check_alive()
        if mirror_id in self.sync_mirrors:
            raise ReplicationError(
                f"array {self.serial}: sync mirror {mirror_id} exists")
        if mirror_id in self.journal_groups:
            raise ReplicationError(
                f"array {self.serial}: id {mirror_id} is taken by a "
                "journal group")
        mirror = SyncMirror(self.sim, mirror_id, link)
        self.sync_mirrors[mirror_id] = mirror
        self._audit("create_sync_mirror", mirror_id=mirror_id)
        return mirror

    def create_sync_pair(self, pair_id: str, mirror_id: str, pvol_id: int,
                         remote: "StorageArray",
                         svol_id: int) -> ReplicationPair:
        """Pair volumes synchronously; initial copy runs in background."""
        self._check_alive()
        mirror = self.sync_mirrors.get(mirror_id)
        if mirror is None:
            raise ReplicationError(
                f"array {self.serial}: unknown sync mirror {mirror_id}")
        pvol = self._require_volume(pvol_id)
        svol = remote._require_volume(svol_id)
        self._check_pairable(pvol, svol)
        pair = ReplicationPair(
            pair_id=pair_id, mode=CopyMode.SYNCHRONOUS, pvol=pvol,
            svol=svol, created_at=self.sim.now)
        mirror.add_pair(pair)
        pvol.set_role(VolumeRole.PVOL)
        svol.set_role(VolumeRole.SVOL)
        self._route_by_pvol[pvol_id] = mirror
        self.sim.spawn(mirror.initial_copy(pair_id),
                       name=f"sdc-initial-copy-{pair_id}")
        self._audit("create_sync_pair", pair_id=pair_id,
                    mirror_id=mirror_id, pvol=pvol_id, svol=svol_id,
                    remote=remote.serial)
        return pair

    def delete_journal_group(self, group_id: str,
                             remote: "StorageArray") -> None:
        """Tear down an empty journal group on both arrays."""
        self._check_alive()
        group = self.journal_groups.get(group_id)
        if group is None:
            raise ReplicationError(
                f"array {self.serial}: unknown journal group {group_id}")
        if group.pairs:
            raise ReplicationError(
                f"journal group {group_id} still has {len(group.pairs)} "
                "pairs")
        group.stop()
        group.main_journal.clear()
        group.backup_journal.clear()
        del self.journal_groups[group_id]
        remote.journal_groups.pop(group_id, None)
        self._audit("delete_journal_group", group_id=group_id)

    def _check_pairable(self, pvol: Volume, svol: Volume) -> None:
        # A promoted secondary (SSWS) may become the primary of a new
        # pair — that is exactly what failback's reverse copy does.
        if pvol.role not in (VolumeRole.SIMPLEX, VolumeRole.SSWS):
            raise ReplicationError(
                f"volume {pvol.volume_id} is already {pvol.role.value}")
        if svol.role is not VolumeRole.SIMPLEX:
            raise ReplicationError(
                f"volume {svol.volume_id} is already {svol.role.value}")

    def delete_pair(self, pair_id: str) -> None:
        """Dissolve a pair: both volumes return to SIMPLEX."""
        self._check_alive()
        for group in self.journal_groups.values():
            if pair_id in group.pairs:
                pair = group.remove_pair(pair_id)
                self._finish_pair_delete(pair)
                self._audit("delete_pair", pair_id=pair_id)
                return
        raise ReplicationError(
            f"array {self.serial}: unknown pair {pair_id}")

    def _finish_pair_delete(self, pair: ReplicationPair) -> None:
        pair.pvol.set_role(VolumeRole.SIMPLEX)
        pair.svol.set_role(VolumeRole.SIMPLEX)
        self._route_by_pvol.pop(pair.pvol.volume_id, None)

    def find_pair(self, pair_id: str) -> Optional[ReplicationPair]:
        """Locate a pair by id across all engines (None if absent)."""
        for group in self.journal_groups.values():
            if pair_id in group.pairs:
                return group.pairs[pair_id]
        for mirror in self.sync_mirrors.values():
            if pair_id in mirror.pairs:
                return mirror.pairs[pair_id]
        return None

    def pair_status(self, pair_id: str) -> PairState:
        """Pair state query (the surface the replication plugin polls)."""
        pair = self.find_pair(pair_id)
        if pair is None:
            raise ReplicationError(
                f"array {self.serial}: unknown pair {pair_id}")
        return pair.state

    # ------------------------------------------------------------------
    # host I/O
    # ------------------------------------------------------------------

    def host_write(self, volume_id: int, block: int, payload: bytes,
                   tag: Optional[str] = None) -> Generator:
        """One host write: a batch of one; returns its WriteRecord."""
        write = (volume_id, block, payload, tag)
        return (yield from self.host_write_many((write,)))[0]

    def host_write_many(self, writes: Sequence[tuple],
                        tag: Optional[str] = None,
                        ) -> Generator[object, object, List[WriteRecord]]:
        """Host writes: local apply, replication, ack, history records.

        The one host-write path (:meth:`host_write` is a batch of one).
        ``writes`` is a sequence of ``(volume_id, block, payload)`` or
        ``(volume_id, block, payload, tag)`` tuples (a per-write tag
        overrides the batch-level ``tag``); a payload must be ``bytes``
        or ``bytearray``.  Process generator; returns one
        :class:`WriteRecord` per write, in input order — the global ack
        sequence consistency checking is built on.

        * **one cost model** — the ack waits out ``max`` of the volumes'
          :meth:`~repro.storage.volume.Volume.apply_delay` (the media
          write plus the copy-on-write a block owes; concurrent block
          writes overlap, exactly like the batched restore applier),
          then one journal-append latency per routed journal group;
          every write of the batch acks at that one instant;
        * **ack order is input order** — versions, journal sequences and
          history ack seqs are allocated per write, so a batch leaves the
          records, journal and images its writes would leave one by one;
        * **per-write failure semantics** — a bad write rejects the batch
          before any state changes, a suspended journal group marks each
          unprotected write dirty, and an array failure before the ack
          point acks none of the batch.

        Synchronously mirrored volumes take their per-write replication
        RTT after the local wait (the remote round trip cannot be
        collapsed without changing SDC semantics).
        """
        self._check_alive()
        if not writes:
            return []
        # pass 1 — validate everything and hash each payload once, up
        # front: a bad write rejects the whole batch before any state
        # changes.  What holds for a whole volume (it exists, hosts may
        # write it, its capacity) is resolved at its first write.
        prepared = []
        touched: Dict[int, tuple] = {}
        for item in writes:
            if len(item) == 4:
                volume_id, block, payload, write_tag = item
            else:
                volume_id, block, payload = item
                write_tag = tag
            known = touched.get(volume_id)
            if known is None:
                volume = self._require_volume(volume_id)
                if not volume.writable_by_host:
                    raise VolumeError(
                        f"volume {volume_id} is {volume.role.value}; host "
                        "writes are rejected")
                known = touched[volume_id] = (
                    volume, [], volume.capacity_blocks)
            volume, rows, capacity = known
            if not isinstance(payload, (bytes, bytearray)):
                raise VolumeError(
                    f"{volume.name}: payload must be bytes, got "
                    f"{type(payload).__name__}")
            if not 0 <= block < capacity:
                volume.check_access(block)  # raises: out of range
            data = payload if type(payload) is bytes else bytes(payload)
            checksum = crc32(data)
            rows.append((block, data, None, checksum))
            prepared.append((volume_id, block, data, checksum, write_tag))
        start = self.sim.now
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.start("host-write", array=self.serial,
                                writes=len(prepared))
        try:
            # one aggregated media wait: concurrent block writes (and
            # their pending copy-on-write preservations) overlap
            delay = max([volume.apply_delay(rows)
                         for volume, rows, _capacity in touched.values()])
            if delay > 0:
                yield self.sim.sleep(delay)
            # pass 2 — install (latency already paid; per volume, input
            # order), resolve each volume's route once, then deal every
            # write, in ack order, its version, history row and leg
            journal_batches: Dict[JournalGroup, List[tuple]] = {}
            legs: Dict[int, tuple] = {}
            for volume_id, (volume, rows, _capacity) in touched.items():
                route = self._route_by_pvol.get(volume_id)
                batch = journal_batches.setdefault(route, []) \
                    if isinstance(route, JournalGroup) else None
                legs[volume_id] = (iter(volume.install_blocks(rows)),
                                   batch, route)
            applied = []
            sync_writes = []
            for volume_id, block, data, checksum, write_tag in prepared:
                versions, batch, route = legs[volume_id]
                version = next(versions)
                applied.append((volume_id, block, version, write_tag))
                if batch is not None:
                    batch.append((volume_id, block, data, version, checksum))
                elif route is not None:
                    sync_writes.append((route, volume_id, block, data,
                                        version))
            for group, batch in journal_batches.items():
                yield from group.journal_append_many(batch, span=span)
            for route, volume_id, block, data, version in sync_writes:
                yield from route.replicate_write(volume_id, block, data,
                                                 version, span=span)
            self._check_alive()  # array failed mid-batch: ack none
        except BaseException:
            if span is not None:
                tracer.finish(span, status="error")
            raise
        now = self.sim.now
        records = self.history.append_many(now, applied)
        # every write of the batch acked with the batch's latency: one
        # sample per write keeps sample counts equal to host_writes
        count = len(records)
        self.write_latency.record_many(now - start, count)
        self.host_writes.increment(count)
        if span is not None:
            tracer.finish(span, first_ack_seq=records[0].seq,
                          last_ack_seq=records[-1].seq)
        return records

    def host_read(self, volume_id: int, block: int,
                  ) -> Generator[object, object, Optional[bytes]]:
        """One host read; returns the payload or None (process generator)."""
        self._check_alive()
        volume = self._require_volume(volume_id)
        start = self.sim.now
        payload = yield from volume.read_block(block)
        self.read_latency.record(self.sim.now - start)
        self.host_reads.increment()
        return payload

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def create_snapshot(self, volume_id: int, name: str = "") -> Snapshot:
        """Instant copy-on-write snapshot of one volume."""
        self._check_alive()
        volume = self._require_volume(volume_id)
        snapshot_id = next(self._snapshot_ids)
        snapshot = Snapshot(snapshot_id, volume, self.sim.now,
                            name=name or f"{self.serial}-snap-{snapshot_id}")
        self._audit("create_snapshot", snapshot_id=snapshot_id,
                    volume_id=volume_id)
        return snapshot

    def create_snapshot_group(self, group_id: str,
                              volume_ids: Sequence[int],
                              ) -> Generator[object, object, SnapshotGroup]:
        """Snapshot several volumes at one consistent instant.

        Process generator that completes without advancing the clock
        (the snapshot *group* technology of §III-A2).  Restore keeps
        running: a restore window installs in the same simulated step
        that advances ``restored_sequence``, and copy-on-write is decided
        at install, so every member cut at its journal group's
        ``restored_sequence`` is a prefix of the replicated order, and a
        window still in its media wait installs over the cut afterwards.
        """
        self._check_alive()
        if group_id in self._snapshot_groups:
            raise SnapshotError(
                f"array {self.serial}: snapshot group {group_id} exists")
        if not volume_ids:
            raise SnapshotError("snapshot group needs at least one volume")
        volumes = [self._require_volume(vid) for vid in volume_ids]
        span = self.tracer.start(
            "snapshot-group", array=self.serial, group=group_id,
            members=len(volumes))
        snapshots = []
        for volume in volumes:
            snapshot_id = next(self._snapshot_ids)
            snapshot = Snapshot(
                snapshot_id, volume, self.sim.now,
                name=f"{self.serial}-snap-{snapshot_id}")
            restore_group = self._restore_group_by_svol.get(volume.volume_id)
            if restore_group is not None:
                snapshot.group_sequence = restore_group.restored_sequence
            snapshots.append(snapshot)
        group = SnapshotGroup(group_id=group_id, created_at=self.sim.now,
                              snapshots=snapshots)
        self._snapshot_groups[group_id] = group
        self.snapshot_groups_created.increment()
        self.tracer.finish(span)
        self._audit("create_snapshot_group", group_id=group_id,
                    volume_ids=tuple(volume_ids))
        return group
        yield  # pragma: no cover - generator marker

    def get_snapshot_group(self, group_id: str) -> SnapshotGroup:
        """Look up a snapshot group by id."""
        group = self._snapshot_groups.get(group_id)
        if group is None:
            raise SnapshotError(
                f"array {self.serial}: unknown snapshot group {group_id}")
        return group

    def list_snapshot_groups(self) -> List[SnapshotGroup]:
        """All live snapshot groups, id order (probe/report surface)."""
        return [self._snapshot_groups[gid]
                for gid in sorted(self._snapshot_groups)]

    def delete_snapshot_group(self, group_id: str) -> None:
        """Delete a snapshot group and every member snapshot."""
        self._check_alive()
        group = self.get_snapshot_group(group_id)
        for snapshot in group.snapshots:
            snapshot.delete()
        del self._snapshot_groups[group_id]
        self._audit("delete_snapshot_group", group_id=group_id)

    # ------------------------------------------------------------------
    # failure / failover
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Disaster: the array stops serving I/O and its pipelines halt.

        Journal groups whose *main* journal lives here stop transferring;
        restore loops at the surviving backup array keep draining what
        already arrived (the paper's DR model: data in the backup
        journal survives, data still in the main journal is lost).
        """
        self.failed = True
        self.sim.telemetry.recorder.record("array", self.serial,
                                           event="fail")
        local_journals = set(self._journals.values())
        for group in self.journal_groups.values():
            if group.main_journal in local_journals:
                group.stop_transfer()

    def repair(self) -> None:
        """Bring a failed array back online (post-disaster repair).

        Volumes and configuration survive (the hardware was replaced /
        repaired, the media kept its last state); replication pipelines
        do NOT restart automatically — failback re-establishes them
        explicitly in the reverse direction first.
        """
        self.failed = False
        self.sim.telemetry.recorder.record("array", self.serial,
                                           event="repair")
        self._audit("repair")

    def format_volume(self, volume_id: int) -> None:
        """Erase a volume's contents for use as a copy target.

        Failback support: the old primary's stale data (including acked
        writes that never reached the backup) must not shadow the
        reverse initial copy.  Only unpaired volumes can be formatted.
        """
        self._check_alive()
        volume = self._require_volume(volume_id)
        if volume.role is not VolumeRole.SIMPLEX:
            raise ArrayCommandError(
                f"volume {volume_id} is {volume.role.value}; unpair it "
                "before formatting")
        volume.format()
        self._audit("format_volume", volume_id=volume_id)

    def promote_secondary(self, volume_id: int) -> None:
        """Failover: make a local S-VOL host-writable (SSWS)."""
        volume = self._require_volume(volume_id)
        if volume.role is not VolumeRole.SVOL:
            raise ReplicationError(
                f"volume {volume_id} is {volume.role.value}, not an S-VOL")
        volume.set_role(VolumeRole.SSWS)
        self.sim.telemetry.recorder.record(
            "array", self.serial, event="promote-secondary",
            volume=volume_id)
        group = self._restore_group_by_svol.get(volume_id)
        if group is not None:
            for pair in group.pairs.values():
                if pair.svol.volume_id == volume_id:
                    pair.promote()
        self._audit("promote_secondary", volume_id=volume_id)

    def __repr__(self) -> str:
        state = "FAILED" if self.failed else "ok"
        return (f"<StorageArray {self.serial!r} {state} "
                f"volumes={len(self._volumes)} "
                f"groups={len(self.journal_groups)}>")
