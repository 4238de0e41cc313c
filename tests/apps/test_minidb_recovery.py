"""Unit tests for MiniDB recovery: redo, crash cuts, 2PC resolution,
corruption detection."""

import zlib

import pytest

from repro.errors import CorruptPageError, RecoveryError
from repro.apps.minidb import (MemoryBlockDevice, MiniDB, Page, WalRecord,
                               recover_database, reopen_database)
from repro.apps.minidb.pages import bucket_for_key
from tests.apps.conftest import put_commit, run

#: the on-disk frame of a commit record at LSN 0
_COMMIT_FRAME = (b'{"checkpoint_lsn":-1,"gtid":"","key":"","lsn":0,'
                 b'"txn_id":"t1","type":"commit","value":null}')


def fresh_db(sim, wal_device, data_device, bucket_count=4):
    return MiniDB(sim, "db", wal_device=wal_device,
                  data_device=data_device, bucket_count=bucket_count)


def truncate(device: MemoryBlockDevice, keep_blocks: int):
    """Simulate a crash cut: keep only the first ``keep_blocks`` blocks
    of a device (valid because WAL writes are sequential)."""
    device._blocks = {block: payload
                      for block, payload in device._blocks.items()
                      if block < keep_blocks}


class TestRedoRecovery:
    def test_recovers_committed_state_without_checkpoints(self, sim):
        wal_dev, data_dev = MemoryBlockDevice(64), MemoryBlockDevice(64)
        db = fresh_db(sim, wal_dev, data_dev)
        put_commit(sim, db, {"a": "1", "b": "2"})
        put_commit(sim, db, {"a": "3"})
        recovered = run(sim, recover_database(sim, "db", wal_dev, data_dev,
                                              bucket_count=4))
        assert recovered.state == {"a": "3", "b": "2"}
        assert recovered.clean
        assert len(recovered.committed) == 2

    def test_uncommitted_tail_is_discarded(self, sim):
        """A WAL cut after updates but before the commit record must
        yield the pre-transaction state."""
        wal_dev, data_dev = MemoryBlockDevice(64), MemoryBlockDevice(64)
        db = fresh_db(sim, wal_dev, data_dev)
        put_commit(sim, db, {"a": "committed"})
        put_commit(sim, db, {"a": "second"})
        # cut between the second txn's update record and commit record
        truncate(wal_dev, 3)
        recovered = run(sim, recover_database(sim, "db", wal_dev, data_dev,
                                              bucket_count=4))
        assert recovered.state == {"a": "committed"}
        assert len(recovered.committed) == 1

    def test_redo_respects_page_lsn_after_checkpoint(self, sim):
        wal_dev, data_dev = MemoryBlockDevice(64), MemoryBlockDevice(64)
        db = fresh_db(sim, wal_dev, data_dev)
        put_commit(sim, db, {"a": "1"})
        run(sim, db.checkpoint())
        put_commit(sim, db, {"a": "2"})
        recovered = run(sim, recover_database(sim, "db", wal_dev, data_dev,
                                              bucket_count=4))
        assert recovered.state["a"] == "2"

    def test_empty_devices_recover_to_empty(self, sim):
        recovered = run(sim, recover_database(
            sim, "db", MemoryBlockDevice(8), MemoryBlockDevice(8),
            bucket_count=4))
        assert recovered.state == {}
        assert recovered.next_lsn == 0

    def test_reopen_resumes_wal_and_serves_data(self, sim):
        wal_dev, data_dev = MemoryBlockDevice(64), MemoryBlockDevice(64)
        db = fresh_db(sim, wal_dev, data_dev)
        put_commit(sim, db, {"a": "1"})
        recovered = run(sim, recover_database(sim, "db", wal_dev, data_dev,
                                              bucket_count=4))
        reopened = reopen_database(sim, "db", wal_dev, data_dev, 4,
                                   recovered)
        assert run(sim, reopened.read("a")) == "1"
        put_commit(sim, reopened, {"b": "2"})
        again = run(sim, recover_database(sim, "db", wal_dev, data_dev,
                                          bucket_count=4))
        assert again.state == {"a": "1", "b": "2"}


class TestTwoPhaseResolution:
    def _prepared_crash(self, sim, decide=None):
        """Build a WAL with one prepared-but-undecided transaction."""
        wal_dev, data_dev = MemoryBlockDevice(64), MemoryBlockDevice(64)
        db = fresh_db(sim, wal_dev, data_dev)

        def proc(sim):
            txn = db.begin("t1")
            yield from db.put(txn, "a", "prepared-value")
            yield from db.prepare(txn, "gtx-1")
            if decide is not None:
                yield from db.log_global_decision("gtx-1", decide)

        run(sim, proc(sim))
        return wal_dev, data_dev

    def test_prepared_without_decisions_stays_in_doubt(self, sim):
        wal_dev, data_dev = self._prepared_crash(sim)
        recovered = run(sim, recover_database(sim, "db", wal_dev, data_dev,
                                              bucket_count=4))
        assert recovered.in_doubt == {"t1": "gtx-1"}
        assert not recovered.clean
        with pytest.raises(RecoveryError):
            reopen_database(sim, "db", wal_dev, data_dev, 4, recovered)

    def test_presumed_abort_without_coordinator_record(self, sim):
        wal_dev, data_dev = self._prepared_crash(sim)
        recovered = run(sim, recover_database(
            sim, "db", wal_dev, data_dev, bucket_count=4,
            coordinator_decisions={}))
        assert recovered.clean
        assert "a" not in recovered.state
        assert "gtx-1" in recovered.presumed_aborted

    def test_commit_decision_redoes_prepared_writes(self, sim):
        wal_dev, data_dev = self._prepared_crash(sim)
        recovered = run(sim, recover_database(
            sim, "db", wal_dev, data_dev, bucket_count=4,
            coordinator_decisions={"gtx-1": True}))
        assert recovered.state == {"a": "prepared-value"}

    def test_own_coordinator_records_are_scanned(self, sim):
        wal_dev, data_dev = self._prepared_crash(sim, decide=True)
        recovered = run(sim, recover_database(
            sim, "db", wal_dev, data_dev, bucket_count=4))
        assert recovered.coordinator_decisions == {"gtx-1": True}


class TestCorruption:
    def test_corrupt_page_detected(self, sim):
        wal_dev, data_dev = MemoryBlockDevice(64), MemoryBlockDevice(64)
        db = fresh_db(sim, wal_dev, data_dev)
        put_commit(sim, db, {"a": "1"})
        run(sim, db.checkpoint())
        page_id = bucket_for_key("a", 4)
        data_dev._blocks[page_id] = b"garbage-not-a-page"
        proc = sim.spawn(recover_database(sim, "db", wal_dev, data_dev,
                                          bucket_count=4))
        sim.run()
        with pytest.raises(CorruptPageError):
            _ = proc.result

    def test_page_round_trip_and_checksum(self):
        page = Page(page_id=3, lsn=7, data={"k": "v"})
        restored = Page.from_bytes(3, page.to_bytes())
        assert restored.data == {"k": "v"}
        assert restored.lsn == 7
        with pytest.raises(CorruptPageError):
            Page.from_bytes(4, page.to_bytes())  # wrong page id
        tampered = bytearray(page.to_bytes())
        tampered[-1] ^= 0xFF
        with pytest.raises(CorruptPageError):
            Page.from_bytes(3, bytes(tampered))

    @pytest.mark.parametrize("block", [
        _COMMIT_FRAME.replace(b'"t1"', b'"\xff"'),          # not UTF-8
        b"[1,2]",
        _COMMIT_FRAME.replace(b'"gtid":"",', b""),            # missing field
        _COMMIT_FRAME.replace(b'"commit"', b'"bogus"'),      # unknown type
    ], ids=["non-utf8", "non-object", "missing-field", "unknown-type"])
    def test_undecodable_wal_block_raises_recovery_error(self, block):
        with pytest.raises(RecoveryError):
            WalRecord.from_bytes(block, 0)

    def test_wal_block_with_trailing_bytes_rejected(self):
        with pytest.raises(RecoveryError):
            WalRecord.from_bytes(_COMMIT_FRAME + b"{}", 0)

    @pytest.mark.parametrize("body", [
        b'{"data":{"k":"\xff"},"format":1,"lsn":7,"page_id":3}',  # not UTF-8
        b"[1]",                                                 # not an object
        b'{"format":1,"lsn":7,"page_id":3}',                    # no "data"
        b'{"data":[1],"format":1,"lsn":7,"page_id":3}',
    ], ids=["non-utf8", "non-object", "no-data", "data-not-object"])
    def test_undecodable_page_raises_corrupt_page_error(self, body):
        payload = zlib.crc32(body).to_bytes(4, "big") + body  # CRC is valid
        with pytest.raises(CorruptPageError):
            Page.from_bytes(3, payload)
