"""Two-phase commit across MiniDB databases.

The e-commerce business process (§II) updates the sales and stock
databases atomically.  :class:`TwoPhaseCoordinator` runs the classic
presumed-abort protocol through :class:`DistributedTransaction` handles:

1. the application reads and writes through the handle (strict 2PL locks
   acquired per key as it goes);
2. **Phase 1** — ``commit()`` forces every participant's redo records
   and a ``prepare`` vote;
3. **decision** — the coordinator forces a global commit record into the
   *coordinator database's* WAL (the sales database here, so the
   decision rides replicated storage like everything else);
4. **Phase 2** — every participant forces its ``commit`` record and
   applies.

A crash between phases leaves participants in doubt; recovery resolves
them against the coordinator log (presumed abort).  The protocol is
correct **iff** the storage images it recovers from form a consistent
cut — precisely what the paper's consistency group provides and what
its absence breaks.

A crash *after* the decision but before Phase 2 completes needs the
same care on the **live** site: the commit decision is durable, so the
transaction WILL commit in any later recovery — abandoning it live
(and releasing its locks) would let subsequent transactions read state
that pretends it never happened, silently diverging the live site from
every recoverable image.  :meth:`DistributedTransaction.dispose`
therefore parks decided-commit transactions on the coordinator's
``in_doubt`` map with their locks held, and
:meth:`TwoPhaseCoordinator.resolve_in_doubt` re-drives Phase 2 once
storage is healthy again (idempotent; callers retry it until it
sticks).

Deadlock note: the handle acquires locks in the caller's access order.
Callers must touch contended keys in a globally consistent order (the
e-commerce app sorts item keys); unique keys (order ids) are free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import TwoPhaseCommitError
from repro.apps.minidb.engine import PREPARED, MiniDB, Transaction


@dataclass(frozen=True)
class DistributedOutcome:
    """Result of one distributed transaction."""

    gtid: str
    committed: bool
    #: commit-path latency in simulated seconds
    latency: float


class DistributedTransaction:
    """One in-flight distributed transaction."""

    def __init__(self, coordinator: "TwoPhaseCoordinator",
                 gtid: str) -> None:
        self.coordinator = coordinator
        self.gtid = gtid
        self.started_at = coordinator.coordinator_db.sim.now
        self._txns: Dict[str, Transaction] = {}
        self._finished = False
        #: the global COMMIT record is durable: the transaction must
        #: eventually apply everywhere, crash or not
        self._decided_commit = False

    # -- data operations ---------------------------------------------------

    def _branch(self, db_name: str) -> Transaction:
        self._check_open()
        txn = self._txns.get(db_name)
        if txn is None:
            db = self.coordinator.participant(db_name)
            txn = db.begin(f"{self.gtid}@{db_name}")
            self._txns[db_name] = txn
        return txn

    def get_for_update(self, db_name: str, key: str,
                       ) -> Generator[object, object, Optional[str]]:
        """Locked read through the branch on ``db_name``."""
        txn = self._branch(db_name)
        db = self.coordinator.participant(db_name)
        value = yield from db.get_for_update(txn, key)
        return value

    def put(self, db_name: str, key: str, value: str,
            ) -> Generator[object, object, None]:
        """Buffer a write on ``db_name``."""
        txn = self._branch(db_name)
        yield from self.coordinator.participant(db_name).put(
            txn, key, value)

    # -- outcome ------------------------------------------------------------

    def commit(self) -> Generator[object, object, DistributedOutcome]:
        """Run 2PC to completion (prepare → decide → commit)."""
        self._check_open()
        if not self._txns:
            raise TwoPhaseCommitError(
                f"{self.gtid}: nothing to commit")
        self._finished = True
        involved = sorted(self._txns)
        for db_name in involved:
            db = self.coordinator.participant(db_name)
            yield from db.prepare(self._txns[db_name], self.gtid)
        yield from self.coordinator.coordinator_db.log_global_decision(
            self.gtid, True)
        self._decided_commit = True
        for db_name in involved:
            db = self.coordinator.participant(db_name)
            yield from db.commit_prepared(self._txns[db_name])
        self.coordinator.committed_gtids.append(self.gtid)
        return DistributedOutcome(
            gtid=self.gtid, committed=True,
            latency=self.coordinator.coordinator_db.sim.now
            - self.started_at)

    def abort(self, prepared: bool = False,
              ) -> Generator[object, object, DistributedOutcome]:
        """Abort the transaction.

        With ``prepared`` the branches are first prepared and the abort
        is decided and logged globally (exercises the presumed-abort
        path); otherwise the branches are discarded locally.
        """
        self._check_open()
        self._finished = True
        involved = sorted(self._txns)
        if prepared:
            for db_name in involved:
                db = self.coordinator.participant(db_name)
                yield from db.prepare(self._txns[db_name], self.gtid)
            yield from self.coordinator.coordinator_db \
                .log_global_decision(self.gtid, False)
            for db_name in involved:
                db = self.coordinator.participant(db_name)
                yield from db.abort_prepared(self._txns[db_name])
        else:
            for db_name in involved:
                self.coordinator.participant(db_name).abort(
                    self._txns[db_name])
        return DistributedOutcome(
            gtid=self.gtid, committed=False,
            latency=self.coordinator.coordinator_db.sim.now
            - self.started_at)

    def dispose(self) -> None:
        """Crash cleanup: release every branch's locks without I/O.

        For when the storage died under the transaction — see
        :meth:`MiniDB.dispose`.  Idempotent and state-agnostic, with
        one crucial exception: once the global COMMIT decision is
        durable the transaction is no longer abortable, so its
        still-prepared branches keep their state *and their locks* and
        the handle is parked on the coordinator's ``in_doubt`` map.
        Releasing those locks would let siblings read through a
        committed-but-unapplied transaction — the live site would then
        disagree with every image recovered from the coordinator log.
        """
        self._finished = True
        if self._decided_commit and any(
                txn.state == PREPARED for txn in self._txns.values()):
            self.coordinator.in_doubt[self.gtid] = self
            return
        for db_name, txn in self._txns.items():
            self.coordinator.participant(db_name).dispose(txn)

    def resolve(self) -> Generator[object, object, DistributedOutcome]:
        """Re-drive Phase 2 of a decided-commit in-doubt transaction.

        Idempotent: branches already applied are skipped; a branch
        whose storage is still failing raises and leaves the handle
        resolvable (partial progress is kept in the branch states).
        """
        if not self._decided_commit:
            raise TwoPhaseCommitError(
                f"{self.gtid}: no durable commit decision to resolve")
        for db_name in sorted(self._txns):
            txn = self._txns[db_name]
            if txn.state != PREPARED:
                continue
            db = self.coordinator.participant(db_name)
            yield from db.commit_prepared(txn)
        self.coordinator.committed_gtids.append(self.gtid)
        return DistributedOutcome(
            gtid=self.gtid, committed=True,
            latency=self.coordinator.coordinator_db.sim.now
            - self.started_at)

    def _check_open(self) -> None:
        if self._finished:
            raise TwoPhaseCommitError(
                f"{self.gtid}: transaction already finished")


class TwoPhaseCoordinator:
    """Coordinates transactions across a set of MiniDB participants."""

    def __init__(self, coordinator_db: MiniDB,
                 participants: Sequence[MiniDB],
                 gtid_prefix: str = "gtx") -> None:
        self.coordinator_db = coordinator_db
        self._participants: Dict[str, MiniDB] = {
            db.name: db for db in participants}
        if coordinator_db.name not in self._participants:
            raise TwoPhaseCommitError(
                "the coordinator database must be a participant (its WAL "
                "holds the global decisions)")
        self._gtid_counter = itertools.count(1)
        self.gtid_prefix = gtid_prefix
        self.committed_gtids: List[str] = []
        #: decided-commit transactions whose Phase 2 was cut short by a
        #: crash; they hold their locks until resolved
        self.in_doubt: Dict[str, DistributedTransaction] = {}

    def participant(self, db_name: str) -> MiniDB:
        """Resolve a participant database by name."""
        db = self._participants.get(db_name)
        if db is None:
            raise TwoPhaseCommitError(
                f"unknown participant database {db_name!r}")
        return db

    def next_gtid(self) -> str:
        """Allocate the next global transaction id."""
        return f"{self.gtid_prefix}-{next(self._gtid_counter)}"

    def resolve_in_doubt(self) -> Generator[object, object, int]:
        """Finish every parked decided-commit transaction; returns the
        number resolved.

        Call after the storage under the databases heals (and before
        issuing new transactions — the parked ones hold locks).  If a
        resolution fails mid-way the transaction stays parked with its
        partial progress; calling again resumes it.
        """
        resolved = 0
        for gtid in sorted(self.in_doubt):
            dtx = self.in_doubt[gtid]
            yield from dtx.resolve()
            del self.in_doubt[gtid]
            resolved += 1
        return resolved

    def begin(self, gtid: Optional[str] = None) -> DistributedTransaction:
        """Start a distributed transaction."""
        return DistributedTransaction(self, gtid or self.next_gtid())
