"""The MiniDB engine: a transactional key-value database over block
storage.

MiniDB exists to make the paper's storage claims *observable at the
business level*: it is a database whose recoverability depends entirely
on the storage system preserving write order, the property consistency
groups extend across volumes (§I).

Engine facts:

* key space hash-partitioned into pages, one page per block of the data
  volume (``pages.bucket_for_key``);
* **strict two-phase locking** per key (exclusive locks, held to commit)
  via :class:`LockManager` — callers must acquire keys in a globally
  consistent order, which the e-commerce application does by sorting;
* **redo-only write-ahead logging**: writes are buffered in the
  transaction, forced to the WAL (update records, then the commit
  record) at commit, then applied to the page cache; dirty pages reach
  the data volume lazily via checkpoints;
* commits are serialised by a commit latch so the WAL order of commit
  records equals the cache apply order;
* two-phase commit surface: ``prepare`` / ``commit_prepared`` /
  ``abort_prepared``, plus coordinator decision records, used by
  :mod:`repro.apps.minidb.twophase`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.errors import DatabaseError, TransactionError
from repro.apps.minidb.device import BlockDevice
from repro.apps.minidb.pages import Page, bucket_for_key
from repro.apps.minidb import wal
from repro.apps.minidb.wal import WalRecord, WalWriter
from repro.simulation.kernel import Simulator
from repro.simulation.resources import Lock

ACTIVE = "active"
PREPARED = "prepared"
COMMITTED = "committed"
ABORTED = "aborted"


class LockManager:
    """Per-key exclusive locks with FIFO handoff.

    Deadlock avoidance is primarily the caller's job: acquire keys in a
    globally consistent (sorted) order, as the e-commerce application
    does.  As a safety net, a ``lock_timeout`` can be configured: an
    acquire that waits longer raises :class:`TransactionError`, turning
    an accidental deadlock into an abortable error instead of a hang.
    """

    def __init__(self, sim: Simulator, name: str = "",
                 lock_timeout: Optional[float] = None) -> None:
        if lock_timeout is not None and lock_timeout <= 0:
            raise DatabaseError("lock_timeout must be > 0 or None")
        self.sim = sim
        self.name = name or "lockmgr"
        self.lock_timeout = lock_timeout
        self._locks: Dict[str, Lock] = {}
        self._held: Dict[str, Set[str]] = {}
        #: acquisitions that timed out (observability)
        self.timeout_count = 0

    def acquire(self, txn_id: str, key: str,
                ) -> Generator[object, object, None]:
        """Acquire ``key`` exclusively for ``txn_id`` (re-entrant).

        Raises :class:`TransactionError` when a configured
        ``lock_timeout`` expires first; the caller must abort the
        transaction (its other locks are still held until then).
        """
        if key in self._held.get(txn_id, set()):
            return
        lock = self._locks.get(key)
        if lock is None:
            lock = Lock(self.sim, name=f"{self.name}:{key}")
            self._locks[key] = lock
        grant = lock.acquire()
        if not grant.triggered and self.lock_timeout is not None:
            deadline = self.sim.timeout(self.lock_timeout)
            yield self.sim.any_of([grant, deadline])
            if not grant.triggered and lock.cancel_acquire(grant):
                self.timeout_count += 1
                raise TransactionError(
                    f"{txn_id}: timed out after {self.lock_timeout:g}s "
                    f"waiting for lock {key!r} (possible deadlock)")
            # otherwise the unit was granted in the same instant: we
            # own it (cancel refused) — proceed
        elif not grant.triggered:
            yield grant
        self._held.setdefault(txn_id, set()).add(key)

    def release_all(self, txn_id: str) -> None:
        """Release every lock the transaction holds."""
        for key in self._held.pop(txn_id, set()):
            self._locks[key].release()


@dataclass
class Transaction:
    """One database transaction (buffered writes + lock set)."""

    txn_id: str
    state: str = ACTIVE
    #: key -> new value (None = delete), in write order
    writes: Dict[str, Optional[str]] = field(default_factory=dict)
    #: stamped WAL update records (filled at prepare/commit)
    stamped_updates: List[WalRecord] = field(default_factory=list)
    #: global transaction id once prepared under 2PC
    gtid: str = ""

    def require_state(self, *states: str) -> None:
        """Guard against illegal lifecycle transitions."""
        if self.state not in states:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state}, "
                f"needs {' or '.join(states)}")


class MiniDB:
    """A transactional key-value database on two block devices."""

    def __init__(self, sim: Simulator, name: str,
                 wal_device: BlockDevice, data_device: BlockDevice,
                 bucket_count: int = 64,
                 lock_timeout: Optional[float] = None) -> None:
        if bucket_count < 1:
            raise DatabaseError("bucket_count must be >= 1")
        if bucket_count > data_device.capacity_blocks:
            raise DatabaseError(
                f"{name}: {bucket_count} buckets exceed the data "
                f"device's {data_device.capacity_blocks} blocks")
        self.sim = sim
        self.name = name
        self.wal = WalWriter(wal_device)
        self.data_device = data_device
        self.bucket_count = bucket_count
        self.locks = LockManager(sim, name=f"{name}.locks",
                                 lock_timeout=lock_timeout)
        self._commit_latch = Lock(sim, name=f"{name}.commit-latch")
        self._cache: Dict[int, Page] = {}
        self._dirty: Set[int] = set()
        self._txn_counter = itertools.count(1)
        self._transactions: Dict[str, Transaction] = {}
        #: statistics
        self.committed_count = 0
        self.aborted_count = 0
        self.checkpoint_count = 0

    # -- transaction lifecycle -----------------------------------------------

    def begin(self, txn_id: Optional[str] = None) -> Transaction:
        """Start a transaction."""
        if txn_id is None:
            txn_id = f"{self.name}-txn-{next(self._txn_counter)}"
        if txn_id in self._transactions:
            raise TransactionError(
                f"{self.name}: transaction {txn_id} already active")
        txn = Transaction(txn_id=txn_id)
        self._transactions[txn_id] = txn
        return txn

    def put(self, txn: Transaction, key: str, value: str,
            ) -> Generator[object, object, None]:
        """Buffer a write under an exclusive lock."""
        txn.require_state(ACTIVE)
        if not isinstance(value, str):
            raise DatabaseError(
                f"{self.name}: values are strings, got "
                f"{type(value).__name__}")
        yield from self.locks.acquire(txn.txn_id, key)
        txn.writes[key] = value

    def delete(self, txn: Transaction, key: str,
               ) -> Generator[object, object, None]:
        """Buffer a delete under an exclusive lock."""
        txn.require_state(ACTIVE)
        yield from self.locks.acquire(txn.txn_id, key)
        txn.writes[key] = None

    def get_for_update(self, txn: Transaction, key: str,
                       ) -> Generator[object, object, Optional[str]]:
        """Locked read: the value this transaction would see, with the
        exclusive lock held to commit (read-modify-write safety)."""
        txn.require_state(ACTIVE)
        yield from self.locks.acquire(txn.txn_id, key)
        if key in txn.writes:
            return txn.writes[key]
        value = yield from self._committed_value(key)
        return value

    def read(self, key: str) -> Generator[object, object, Optional[str]]:
        """Unlocked read of the latest committed value."""
        value = yield from self._committed_value(key)
        return value

    def commit(self, txn: Transaction) -> Generator[object, object, None]:
        """Force the transaction to the WAL and apply it.

        A failure before the commit record is durable (e.g. the WAL
        volume is full) *aborts* the transaction — locks are released
        and nothing was applied, which is safe under redo-only logging
        because recovery discards update records without a commit.  The
        original exception propagates.
        """
        txn.require_state(ACTIVE)
        yield self._commit_latch.acquire()
        try:
            try:
                yield from self._log_updates(txn)
                yield from self.wal.append(WalRecord(
                    type=wal.COMMIT, txn_id=txn.txn_id))
            except Exception:
                self._finish(txn, ABORTED)
                self.aborted_count += 1
                raise
            self._apply(txn)
        finally:
            self._commit_latch.release()
        self._finish(txn, COMMITTED)
        self.committed_count += 1

    def abort(self, txn: Transaction) -> None:
        """Discard the transaction (nothing was applied; no WAL needed
        for active transactions under redo-only logging)."""
        txn.require_state(ACTIVE)
        self._finish(txn, ABORTED)
        self.aborted_count += 1

    def dispose(self, txn: Transaction) -> None:
        """Crash cleanup: release the transaction's locks without any
        I/O, whatever state it is in.

        Used when the storage under the database died mid-transaction:
        no WAL record can be written, but sibling transactions of the
        same process must not hang on leaked locks.  Recovery semantics
        are unaffected — an unfinished transaction's durable trace is
        already exactly what recovery expects (discard or in-doubt).
        """
        if txn.state in (COMMITTED, ABORTED):
            return
        self._finish(txn, ABORTED)
        self.aborted_count += 1

    # -- two-phase commit surface ---------------------------------------------

    def prepare(self, txn: Transaction, gtid: str,
                ) -> Generator[object, object, None]:
        """Phase 1: force the redo information and the prepare vote.

        Locks remain held; the transaction can only finish via
        :meth:`commit_prepared` or :meth:`abort_prepared`.
        """
        txn.require_state(ACTIVE)
        if not gtid:
            raise TransactionError("prepare needs a global transaction id")
        try:
            yield from self._log_updates(txn)
            yield from self.wal.append(WalRecord(
                type=wal.PREPARE, txn_id=txn.txn_id, gtid=gtid))
        except Exception:
            # a participant that cannot make its vote durable votes "no":
            # abort locally so its locks never outlive the failure
            self._finish(txn, ABORTED)
            self.aborted_count += 1
            raise
        txn.gtid = gtid
        txn.state = PREPARED

    def commit_prepared(self, txn: Transaction,
                        ) -> Generator[object, object, None]:
        """Phase 2 commit: force the commit record and apply."""
        txn.require_state(PREPARED)
        yield self._commit_latch.acquire()
        try:
            yield from self.wal.append(WalRecord(
                type=wal.COMMIT, txn_id=txn.txn_id, gtid=txn.gtid))
            self._apply(txn)
        finally:
            self._commit_latch.release()
        self._finish(txn, COMMITTED)
        self.committed_count += 1

    def abort_prepared(self, txn: Transaction,
                       ) -> Generator[object, object, None]:
        """Phase 2 abort: force the abort record and discard."""
        txn.require_state(PREPARED)
        yield from self.wal.append(WalRecord(
            type=wal.ABORT, txn_id=txn.txn_id, gtid=txn.gtid))
        self._finish(txn, ABORTED)
        self.aborted_count += 1

    def log_global_decision(self, gtid: str, commit: bool,
                            ) -> Generator[object, object, None]:
        """Coordinator side: force the global decision record into this
        database's WAL (the coordinator log of the 2PC protocol)."""
        record_type = wal.COORD_COMMIT if commit else wal.COORD_ABORT
        yield from self.wal.append(WalRecord(type=record_type, gtid=gtid))

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> Generator[object, object, int]:
        """Flush dirty pages and write a checkpoint record.

        Returns the number of pages flushed.  Runs under the commit
        latch so the flushed set is transaction-consistent.
        """
        yield self._commit_latch.acquire()
        try:
            dirty = sorted(self._dirty)
            # one batched flush: the array aggregates the media waits of
            # the whole dirty set instead of paying them page by page
            yield from self.data_device.write_blocks(
                [(page_id, self._cache[page_id].to_bytes(),
                  f"page:{self.name}:{page_id}")
                 for page_id in dirty])
            self._dirty.clear()
            yield from self.wal.append(WalRecord(
                type=wal.CHECKPOINT, checkpoint_lsn=self.wal.next_lsn))
        finally:
            self._commit_latch.release()
        self.checkpoint_count += 1
        return len(dirty)

    def checkpointer(self, interval: float,
                     ) -> Generator[object, object, None]:
        """Background checkpoint loop (spawn as a process)."""
        if interval <= 0:
            raise DatabaseError("checkpoint interval must be > 0")
        while True:
            yield self.sim.sleep(interval)
            yield from self.checkpoint()

    # -- state preload (used by recovery) ----------------------------------

    def preload(self, pages: Dict[int, Page], next_lsn: int) -> None:
        """Install recovered pages and resume the WAL after recovery."""
        self._cache = dict(pages)
        self._dirty = set(pages)
        self.wal.resume_from(next_lsn)

    # -- internals ------------------------------------------------------

    def _log_updates(self, txn: Transaction,
                     ) -> Generator[object, object, None]:
        if txn.stamped_updates:
            return  # already logged (prepare path)
        for key in txn.writes:
            # Fault the page in now so the later apply merges into the
            # on-disk image rather than shadowing it.
            yield from self._load_page(bucket_for_key(key,
                                                      self.bucket_count))
        # one batched WAL flush for the transaction's redo records:
        # contiguous LSNs in write order, one latch hold, one media wait
        stamped = yield from self.wal.append_many(
            [WalRecord(type=wal.UPDATE, txn_id=txn.txn_id, key=key,
                       value=value)
             for key, value in txn.writes.items()])
        txn.stamped_updates.extend(stamped)

    def _apply(self, txn: Transaction) -> None:
        for record in txn.stamped_updates:
            page_id = bucket_for_key(record.key, self.bucket_count)
            page = self._cache.get(page_id)
            if page is None:
                raise DatabaseError(
                    f"{self.name}: page {page_id} not faulted in before "
                    "apply (engine bug)")
            page.apply(record.key, record.value, record.lsn)
            self._dirty.add(page_id)

    def _finish(self, txn: Transaction, state: str) -> None:
        txn.state = state
        self.locks.release_all(txn.txn_id)
        self._transactions.pop(txn.txn_id, None)

    def _committed_value(self, key: str,
                         ) -> Generator[object, object, Optional[str]]:
        page_id = bucket_for_key(key, self.bucket_count)
        page = yield from self._load_page(page_id)
        return page.data.get(key)

    def _load_page(self, page_id: int,
                   ) -> Generator[object, object, Page]:
        page = self._cache.get(page_id)
        if page is not None:
            return page
        payload = yield from self.data_device.read_block(page_id)
        page = Page.from_bytes(page_id, payload)
        # another process may have loaded/applied while we read
        current = self._cache.get(page_id)
        if current is not None:
            return current
        self._cache[page_id] = page
        return page

    def __repr__(self) -> str:
        return (f"<MiniDB {self.name!r} committed={self.committed_count} "
                f"next_lsn={self.wal.next_lsn}>")
