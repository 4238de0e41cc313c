"""Unit tests for the MiniDB engine: transactions, locking, WAL,
checkpoints."""

import pytest

from repro.errors import DatabaseError, TransactionError
from repro.apps.minidb import MemoryBlockDevice, MiniDB, read_log
from repro.apps.minidb import wal as wal_types
from repro.apps.minidb.wal import WalRecord, WalWriter
from tests.apps.conftest import make_db, put_commit, run


class TestBasicTransactions:
    def test_put_commit_read(self, sim, db):
        put_commit(sim, db, {"a": "1"})
        assert run(sim, db.read("a")) == "1"

    def test_uncommitted_writes_invisible(self, sim, db):
        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", "dirty")
            value = yield from db.read("a")
            return value

        assert run(sim, proc(sim)) is None

    def test_abort_discards_writes(self, sim, db):
        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", "doomed")
            db.abort(txn)

        run(sim, proc(sim))
        assert run(sim, db.read("a")) is None
        assert db.aborted_count == 1

    def test_delete(self, sim, db):
        put_commit(sim, db, {"a": "1"})

        def proc(sim):
            txn = db.begin()
            yield from db.delete(txn, "a")
            yield from db.commit(txn)

        run(sim, proc(sim))
        assert run(sim, db.read("a")) is None

    def test_transaction_sees_own_writes(self, sim, db):
        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", "mine")
            value = yield from db.get_for_update(txn, "a")
            yield from db.commit(txn)
            return value

        assert run(sim, proc(sim)) == "mine"

    def test_commit_after_commit_rejected(self, sim, db):
        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", "1")
            yield from db.commit(txn)
            yield from db.commit(txn)

        proc_handle = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(TransactionError):
            _ = proc_handle.result

    def test_duplicate_txn_id_rejected(self, sim, db):
        db.begin("t1")
        with pytest.raises(TransactionError):
            db.begin("t1")

    def test_non_string_value_rejected(self, sim, db):
        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", 42)

        proc_handle = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(DatabaseError):
            _ = proc_handle.result


class TestLocking:
    def test_conflicting_writer_waits(self, sim, db):
        order = []

        def slow_writer(sim):
            txn = db.begin("slow")
            yield from db.put(txn, "hot", "slow")
            yield sim.timeout(1.0)
            yield from db.commit(txn)
            order.append(("slow-done", sim.now))

        def fast_writer(sim):
            yield sim.timeout(0.1)  # start second
            txn = db.begin("fast")
            yield from db.put(txn, "hot", "fast")
            yield from db.commit(txn)
            order.append(("fast-done", sim.now))

        sim.spawn(slow_writer(sim))
        sim.spawn(fast_writer(sim))
        sim.run()
        assert order[0][0] == "slow-done"
        assert order[1][1] >= 1.0  # fast waited for slow's lock
        assert run(sim, db.read("hot")) == "fast"

    def test_read_modify_write_is_serialised(self, sim, db):
        """Classic lost-update test: concurrent increments must all land."""
        put_commit(sim, db, {"counter": "0"})

        def incrementer(sim):
            for _ in range(10):
                txn = db.begin()
                value = yield from db.get_for_update(txn, "counter")
                yield from db.put(txn, "counter", str(int(value) + 1))
                yield from db.commit(txn)

        for _ in range(4):
            sim.spawn(incrementer(sim))
        sim.run()
        assert run(sim, db.read("counter")) == "40"

    def test_locks_released_on_abort(self, sim, db):
        def proc(sim):
            txn = db.begin("t1")
            yield from db.put(txn, "k", "v")
            db.abort(txn)
            txn2 = db.begin("t2")
            yield from db.put(txn2, "k", "v2")
            yield from db.commit(txn2)

        run(sim, proc(sim))
        assert run(sim, db.read("k")) == "v2"


class TestWal:
    def test_commit_writes_updates_then_commit_record(self, sim):
        wal_device = MemoryBlockDevice(64)
        db = MiniDB(sim, "db", wal_device=wal_device,
                    data_device=MemoryBlockDevice(64), bucket_count=4)
        put_commit(sim, db, {"a": "1", "b": "2"})
        records = run(sim, read_log(wal_device))
        assert [r.type for r in records] == [
            wal_types.UPDATE, wal_types.UPDATE, wal_types.COMMIT]
        assert [r.lsn for r in records] == [0, 1, 2]

    def test_wal_full_raises(self, sim):
        db = MiniDB(sim, "db", wal_device=MemoryBlockDevice(2),
                    data_device=MemoryBlockDevice(64), bucket_count=4)

        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", "1")
            yield from db.put(txn, "b", "2")
            yield from db.commit(txn)  # needs 3 blocks, only 2 exist

        proc_handle = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(DatabaseError):
            _ = proc_handle.result

    def test_failed_commit_aborts_and_releases_locks(self, sim):
        """Regression: a commit that dies on a full WAL must release the
        transaction's locks so other clients do not deadlock."""
        db = MiniDB(sim, "db", wal_device=MemoryBlockDevice(1),
                    data_device=MemoryBlockDevice(64), bucket_count=4)

        def doomed(sim):
            txn = db.begin("doomed")
            yield from db.put(txn, "hot", "v")
            yield from db.commit(txn)  # 2 records needed, 1 block exists

        proc = sim.spawn(doomed(sim))
        sim.run()
        with pytest.raises(DatabaseError):
            _ = proc.result

        def successor(sim):  # would hang on a leaked lock
            yield from db.put(db.begin("next"), "hot", "w")

        run(sim, successor(sim))
        assert db.aborted_count == 1

    def test_failed_prepare_aborts_and_releases_locks(self, sim):
        db = MiniDB(sim, "db", wal_device=MemoryBlockDevice(1),
                    data_device=MemoryBlockDevice(64), bucket_count=4)

        def doomed(sim):
            txn = db.begin("doomed")
            yield from db.put(txn, "a", "1")
            yield from db.put(txn, "b", "2")
            yield from db.prepare(txn, "gtx-1")

        proc = sim.spawn(doomed(sim))
        sim.run()
        with pytest.raises(DatabaseError):
            _ = proc.result

        def successor(sim):  # would hang on a leaked lock
            yield from db.put(db.begin("next"), "a", "w")

        run(sim, successor(sim))
        assert db.aborted_count == 1

    def test_abort_of_active_txn_writes_nothing(self, sim):
        wal_device = MemoryBlockDevice(64)
        db = MiniDB(sim, "db", wal_device=wal_device,
                    data_device=MemoryBlockDevice(64), bucket_count=4)

        def proc(sim):
            txn = db.begin()
            yield from db.put(txn, "a", "1")
            db.abort(txn)

        run(sim, proc(sim))
        assert run(sim, read_log(wal_device)) == []

    def test_unknown_record_type_never_reaches_the_device(self, sim):
        wal_device = MemoryBlockDevice(8)
        writer = WalWriter(wal_device)
        with pytest.raises(DatabaseError, match="unknown WAL record type"):
            run(sim, writer.append(WalRecord(type="bogus")))
        with pytest.raises(DatabaseError, match="unknown WAL record type"):
            run(sim, writer.append_many([
                WalRecord(type=wal_types.COMMIT, txn_id="t1"),
                WalRecord(type="bogus")]))
        assert wal_device.writes == 0
        assert writer.next_lsn == 0


class TestCheckpoint:
    def test_checkpoint_flushes_dirty_pages(self, sim):
        data_device = MemoryBlockDevice(64)
        db = MiniDB(sim, "db", wal_device=MemoryBlockDevice(64),
                    data_device=data_device, bucket_count=4)
        put_commit(sim, db, {"a": "1"})
        assert data_device.writes == 0
        flushed = run(sim, db.checkpoint())
        assert flushed == 1
        assert data_device.writes == 1
        # second checkpoint has nothing to do
        assert run(sim, db.checkpoint()) == 0

    def test_checkpointer_process_runs_periodically(self, sim, db):
        sim.spawn(db.checkpointer(0.5), name="ckpt")
        put_commit(sim, db, {"a": "1"})
        sim.run(until=1.6)
        assert db.checkpoint_count >= 2

    def test_bad_checkpoint_interval(self, sim, db):
        with pytest.raises(DatabaseError):
            next(db.checkpointer(0))


class TestValidation:
    def test_bucket_count_bounds(self, sim):
        with pytest.raises(DatabaseError):
            MiniDB(sim, "db", wal_device=MemoryBlockDevice(8),
                   data_device=MemoryBlockDevice(8), bucket_count=0)
        with pytest.raises(DatabaseError):
            MiniDB(sim, "db", wal_device=MemoryBlockDevice(8),
                   data_device=MemoryBlockDevice(8), bucket_count=16)
