"""Unit and integration tests for copy-on-write snapshots and groups."""

import pytest

from repro.errors import SnapshotError
from tests.storage.conftest import build_pipeline, drain, image_of, run


class TestSnapshotCow:
    def test_snapshot_freezes_image(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 0, b"old"))
        snap = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 0, b"new"))
        assert snap.read_current(0) == b"old"
        assert vol.peek(0).payload == b"new"

    def test_unallocated_block_stays_absent_in_snapshot(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        snap = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 3, b"later"))
        assert snap.read_current(3) is None

    def test_untouched_blocks_fall_through_to_base(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 1, b"shared"))
        snap = array.create_snapshot(vol.volume_id)
        assert snap.read_current(1) == b"shared"
        assert snap.cow_blocks == 0  # no write happened, no COW copy

    def test_deleted_snapshot_rejects_access(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        snap = array.create_snapshot(vol.volume_id)
        snap.delete()
        with pytest.raises(SnapshotError):
            snap.read_current(0)
        # detached: a write owes it no copy-on-write
        assert vol.apply_delay([(0,)]) == vol.media.write_latency

    def test_multiple_snapshots_independent(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 0, b"epoch1"))
        snap1 = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 0, b"epoch2"))
        snap2 = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 0, b"epoch3"))
        assert snap1.read_current(0) == b"epoch1"
        assert snap2.read_current(0) == b"epoch2"

    def test_image_blocks_merges_layers(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 0, b"a"))
        run(sim, array.host_write(vol.volume_id, 1, b"b"))
        snap = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 0, b"a2"))
        image = snap.image_blocks()
        assert image == {0: b"a", 1: b"b"}


    def test_format_volume_keeps_live_snapshot_images(self, sim, two_site):
        """Regression: format_volume used to clear the block map behind
        the COW hook, emptying every live snapshot of the volume."""
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        record = run(sim, array.host_write(vol.volume_id, 0, b"kept"))
        snap = array.create_snapshot(vol.volume_id)
        array.format_volume(vol.volume_id)
        assert vol.used_blocks == 0 and vol.version_counter == 0
        assert snap.read_current(0) == b"kept"
        assert snap.image_blocks() == {0: b"kept"}
        assert snap.frozen_version_map() == {0: record.version}
        # the reverse initial copy that follows a format must not leak
        # into the snapshot either
        run(sim, array.host_write(vol.volume_id, 0, b"copied-back"))
        assert snap.read_current(0) == b"kept"


class TestSnapshotGroup:
    def test_group_snapshots_all_members(self, sim, two_site):
        array = two_site.main
        vols = [array.create_volume(two_site.main_pool_id, 64)
                for _ in range(3)]
        for i, vol in enumerate(vols):
            run(sim, array.host_write(vol.volume_id, 0, b"v%d" % i))
        group = run(sim, array.create_snapshot_group(
            "sg", [v.volume_id for v in vols]))
        assert len(group.snapshots) == 3
        by_base = group.by_base_volume()
        for i, vol in enumerate(vols):
            assert by_base[vol.volume_id].read_current(0) == b"v%d" % i

    def test_duplicate_group_id_rejected(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.create_snapshot_group("sg", [vol.volume_id]))
        with pytest.raises(SnapshotError):
            run(sim, array.create_snapshot_group("sg", [vol.volume_id]))

    def test_empty_group_rejected(self, sim, two_site):
        with pytest.raises(SnapshotError):
            run(sim, two_site.main.create_snapshot_group("sg", []))

    def test_snapshot_pruned_during_cow_wait_is_skipped(self, sim,
                                                        two_site):
        """Regression: deleting a snapshot while a write is waiting out
        the COW copy latency must not blow up the write (the retention
        scheduler prunes snapshots under live load)."""
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 0, b"base"))
        snap = array.create_snapshot(vol.volume_id)
        writer = sim.spawn(array.host_write(vol.volume_id, 0, b"new"))
        # delete the snapshot mid-write (inside the COW latency window)
        sim.call_after(vol.media.cow_copy_latency / 2,
                       snap.delete)
        record = sim.run_until_complete(writer)
        assert record is not None
        assert vol.peek(0).payload == b"new"

    def test_cut_mid_window_does_not_pause_restore(self):
        """Regression: a cut taken while a restore window is in its
        media wait returned only after the window installed.  It now
        returns at once at ``restored_sequence``; the window installs
        over it, and copy-on-write keeps the cut's image."""
        p = build_pipeline()
        sim, group, pvol, svol = p.sim, p.group, p.pvols[0], p.svols[0]
        run(sim, p.main.host_write(pvol.volume_id, 0, b"old"))
        drain(sim, group)
        run(sim, p.main.host_write(pvol.volume_id, 0, b"new"))
        while not group.applying:
            sim.run(until=sim.now + svol.media.write_latency / 4)
        before, restored = image_of(svol), group.restored_sequence
        now = sim.now
        cut = run(sim, p.backup.create_snapshot_group("mid",
                                                      [svol.volume_id]))
        (snap,) = cut.snapshots
        assert sim.now == now
        assert snap.group_sequence == restored
        drain(sim, group)
        assert image_of(svol) == image_of(pvol) != before
        assert snap.image_blocks() == {
            block: payload for block, (payload, _v) in before.items()}
        assert snap.frozen_version_map() == {
            block: version for block, (_p, version) in before.items()}

    def test_group_delete_releases_members(self, sim, two_site):
        array = two_site.main
        vol = array.create_volume(two_site.main_pool_id, 64)
        group = run(sim, array.create_snapshot_group("sg", [vol.volume_id]))
        group.delete()
        assert all(snap.deleted for snap in group.snapshots)
        assert vol.apply_delay([(0,)]) == vol.media.write_latency
