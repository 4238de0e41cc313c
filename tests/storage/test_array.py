"""Unit tests for the StorageArray command facade: commands, audit,
handles, validation."""

import pytest

from repro.errors import (ArrayCommandError, CapacityError,
                          ReplicationError, VolumeError)
from repro.storage import ArrayConfig, StorageArray, VolumeRole
from tests.storage.conftest import make_async_pair, run


class TestVolumeCommands:
    def test_create_volume_reserves_pool(self, sim, two_site):
        array = two_site.main
        pool = array._pools[two_site.main_pool_id]
        free_before = pool.free_blocks
        vol = array.create_volume(two_site.main_pool_id, 500)
        assert pool.free_blocks == free_before - 500
        assert array.volume_exists(vol.volume_id)
        assert not array.volume_exists(vol.volume_id + 1)

    def test_unknown_volume_rejected(self, sim, two_site):
        with pytest.raises(VolumeError):
            two_site.main.get_volume(424242)

    def test_pool_exhaustion(self, sim):
        from repro.simulation import Simulator
        array = StorageArray(Simulator(seed=1), serial="X",
                             config=ArrayConfig())
        pool = array.create_pool(100)
        array.create_volume(pool.pool_id, 90)
        with pytest.raises(CapacityError):
            array.create_volume(pool.pool_id, 20)


class TestHandles:
    def test_handle_round_trip(self, sim, two_site):
        vol = two_site.main.create_volume(two_site.main_pool_id, 64)
        handle = two_site.main.volume_handle(vol.volume_id)
        assert handle == f"naa.G370-MAIN.{vol.volume_id}"
        assert two_site.main.parse_handle(handle) == vol.volume_id

    def test_foreign_handle_rejected(self, sim, two_site):
        vol = two_site.main.create_volume(two_site.main_pool_id, 64)
        handle = two_site.main.volume_handle(vol.volume_id)
        with pytest.raises(ArrayCommandError):
            two_site.backup.parse_handle(handle)


class TestPairCommands:
    def test_pairing_sets_roles(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        assert pvol.role is VolumeRole.PVOL
        assert svol.role is VolumeRole.SVOL

    def test_double_pairing_rejected(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        other = two_site.backup.create_volume(two_site.backup_pool_id, 256)
        with pytest.raises(ReplicationError):
            two_site.main.create_async_pair(
                "pair-dup", "jg-0", pvol.volume_id, two_site.backup,
                other.volume_id)

    def test_capacity_mismatch_rejected(self, sim, two_site):
        pvol = two_site.main.create_volume(two_site.main_pool_id, 64)
        svol = two_site.backup.create_volume(two_site.backup_pool_id, 32)
        jm = two_site.main.create_journal(two_site.main_pool_id, 100)
        jb = two_site.backup.create_journal(two_site.backup_pool_id, 100)
        two_site.main.create_journal_group(
            "jg-x", jm.journal_id, two_site.backup, jb.journal_id,
            two_site.link)
        with pytest.raises(ReplicationError):
            two_site.main.create_async_pair(
                "pair-x", "jg-x", pvol.volume_id, two_site.backup,
                svol.volume_id)

    def test_delete_pair_restores_simplex(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        sim.run(until=sim.now + 0.1)
        two_site.main.delete_pair("pair-0")
        assert pvol.role is VolumeRole.SIMPLEX
        assert svol.role is VolumeRole.SIMPLEX
        assert two_site.main.find_pair("pair-0") is None

    def test_pair_status_unknown_pair(self, sim, two_site):
        with pytest.raises(ReplicationError):
            two_site.main.pair_status("ghost")

    def test_duplicate_journal_group_rejected(self, sim, two_site):
        make_async_pair(two_site)
        jm = two_site.main.create_journal(two_site.main_pool_id, 100)
        jb = two_site.backup.create_journal(two_site.backup_pool_id, 100)
        with pytest.raises(ReplicationError):
            two_site.main.create_journal_group(
                "jg-0", jm.journal_id, two_site.backup, jb.journal_id,
                two_site.link)

    def test_group_and_mirror_cannot_share_an_id(self, sim, two_site):
        # both engines label their series {group=<id>}: a shared id
        # used to hand both the same counter objects, silently
        make_async_pair(two_site)
        for array in (two_site.main, two_site.backup):
            with pytest.raises(ReplicationError, match="journal group"):
                array.create_sync_mirror("jg-0", two_site.link)
        two_site.main.create_sync_mirror("sm-main", two_site.link)
        two_site.backup.create_sync_mirror("sm-backup", two_site.link)
        jm = two_site.main.create_journal(two_site.main_pool_id, 100)
        jb = two_site.backup.create_journal(two_site.backup_pool_id, 100)
        for taken in ("sm-main", "sm-backup"):
            with pytest.raises(ReplicationError, match="sync mirror"):
                two_site.main.create_journal_group(
                    taken, jm.journal_id, two_site.backup, jb.journal_id,
                    two_site.link)
        assert set(two_site.main.journal_groups) == {"jg-0"}
        assert set(two_site.backup.journal_groups) == {"jg-0"}


class TestAudit:
    def test_commands_are_audited(self, sim, two_site):
        make_async_pair(two_site)
        commands = [record.command for record in two_site.main.audit]
        assert "create_pool" in commands
        assert "create_volume" in commands
        assert "create_journal" in commands
        assert "create_journal_group" in commands
        assert "create_async_pair" in commands

    def test_audit_record_rendering(self, sim, two_site):
        vol = two_site.main.create_volume(two_site.main_pool_id, 64)
        record = two_site.main.audit[-1]
        text = str(record)
        assert "create_volume" in text
        assert str(vol.volume_id) in text

    def test_host_io_is_not_audited(self, sim, two_site):
        """Data-path operations must not spam the management audit log."""
        vol = two_site.main.create_volume(two_site.main_pool_id, 64)
        before = len(two_site.main.audit)
        run(sim, two_site.main.host_write(vol.volume_id, 0, b"x"))
        run(sim, two_site.main.host_read(vol.volume_id, 0))
        assert len(two_site.main.audit) == before


class TestHostIoMetrics:
    def test_read_write_counters(self, sim, two_site):
        vol = two_site.main.create_volume(two_site.main_pool_id, 64)
        run(sim, two_site.main.host_write(vol.volume_id, 0, b"x"))
        payload = run(sim, two_site.main.host_read(vol.volume_id, 0))
        assert payload == b"x"
        assert two_site.main.host_writes.value == 1
        assert two_site.main.host_reads.value == 1
        assert len(two_site.main.write_latency) == 1
        assert len(two_site.main.read_latency) == 1

    def test_history_tag_recorded(self, sim, two_site):
        vol = two_site.main.create_volume(two_site.main_pool_id, 64)
        record = run(sim, two_site.main.host_write(
            vol.volume_id, 0, b"x", tag="txn-7"))
        assert record.tag == "txn-7"
        assert two_site.main.history.for_volume(
            vol.volume_id)[-1].tag == "txn-7"
