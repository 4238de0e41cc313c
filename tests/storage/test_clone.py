"""Tests for snapshot cloning (point-in-time restore to full volumes)."""

import pytest

from repro.storage import VolumeRole
from tests.storage.conftest import run


@pytest.fixture()
def array(two_site):
    return two_site.main


class TestCloneSnapshot:
    def test_clone_holds_the_frozen_image(self, sim, two_site, array):
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 0, b"v1"))
        run(sim, array.host_write(vol.volume_id, 1, b"keep"))
        snap = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 0, b"v2"))
        clone = array.clone_snapshot(snap.snapshot_id,
                                     two_site.main_pool_id)
        assert clone.peek(0).payload == b"v1"
        assert clone.peek(1).payload == b"keep"
        assert vol.peek(0).payload == b"v2"

    def test_clone_preserves_versions_for_the_checker(self, sim,
                                                      two_site, array):
        vol = array.create_volume(two_site.main_pool_id, 64)
        record = run(sim, array.host_write(vol.volume_id, 3, b"x"))
        snap = array.create_snapshot(vol.volume_id)
        clone = array.clone_snapshot(snap.snapshot_id,
                                     two_site.main_pool_id)
        assert clone.peek(3).version == record.version

    def test_clone_is_independent_and_writable(self, sim, two_site,
                                               array):
        vol = array.create_volume(two_site.main_pool_id, 64)
        run(sim, array.host_write(vol.volume_id, 0, b"base"))
        snap = array.create_snapshot(vol.volume_id)
        clone = array.clone_snapshot(snap.snapshot_id,
                                     two_site.main_pool_id)
        assert clone.role is VolumeRole.SIMPLEX
        run(sim, array.host_write(clone.volume_id, 0, b"diverged"))
        assert clone.peek(0).payload == b"diverged"
        assert vol.peek(0).payload == b"base"
        assert snap.read_current(0) == b"base"

    def test_clone_includes_snapshot_overlay_writes(self, sim, two_site,
                                                    array):
        vol = array.create_volume(two_site.main_pool_id, 64)
        snap = array.create_snapshot(vol.volume_id)
        snap.write_overlay(5, b"overlay")
        clone = array.clone_snapshot(snap.snapshot_id,
                                     two_site.main_pool_id)
        assert clone.peek(5).payload == b"overlay"

    def test_clone_carries_checksums_and_hashes_nothing(self, sim, two_site,
                                                        array, monkeypatch):
        vol = array.create_volume(two_site.main_pool_id, 64)
        for block in range(8):
            run(sim, array.host_write(vol.volume_id, block, b"b%d" % block))
        source = vol.block_map()
        snap = array.create_snapshot(vol.volume_id)
        run(sim, array.host_write(vol.volume_id, 0, b"after"))  # pre-image
        overlay_version = snap.write_overlay(9, b"overlay")

        def no_hashing(_data):
            raise AssertionError("clone_snapshot hashed a payload")

        for module in ("journal", "volume", "snapshot", "array"):
            monkeypatch.setattr(f"repro.storage.{module}.payload_checksum",
                                no_hashing)
        monkeypatch.setattr("repro.storage.array.crc32", no_hashing)
        clone = array.clone_snapshot(snap.snapshot_id,
                                     two_site.main_pool_id)
        monkeypatch.undo()
        cloned = dict(clone.block_map())
        overlay = cloned.pop(9)
        assert cloned == source  # payload, version and CRC32 carried over
        assert (overlay.payload, overlay.version) == (b"overlay",
                                                      overlay_version)
        assert overlay.intact() and overlay.checksum is not None
        assert clone.version_counter == overlay_version

    def test_clone_reserves_pool_capacity(self, sim, two_site, array):
        pool = array._pools[two_site.main_pool_id]
        vol = array.create_volume(two_site.main_pool_id, 500)
        snap = array.create_snapshot(vol.volume_id)
        free_before = pool.free_blocks
        array.clone_snapshot(snap.snapshot_id, two_site.main_pool_id)
        assert pool.free_blocks == free_before - 500


class TestCloneGroup:
    def test_group_clone_returns_every_member(self, sim, two_site,
                                              array):
        vols = [array.create_volume(two_site.main_pool_id, 64)
                for _ in range(3)]
        for index, vol in enumerate(vols):
            run(sim, array.host_write(vol.volume_id, 0, b"v%d" % index))
        run(sim, array.create_snapshot_group(
            "cg", [v.volume_id for v in vols]))
        clones = array.clone_snapshot_group("cg", two_site.main_pool_id)
        assert sorted(clones) == sorted(v.volume_id for v in vols)
        for index, vol in enumerate(vols):
            assert clones[vol.volume_id].peek(0).payload == b"v%d" % index

    def test_point_in_time_database_restore_from_generation(self):
        """End to end: clone a retained snapshot generation and recover
        the databases at that instant."""
        from repro.apps import issue_orders
        from repro.apps.analytics import (DatabaseImage,
                                          recover_business_images)
        from repro.apps.ecommerce import decode_business_state
        from repro.apps.minidb.device import ViewBlockDevice
        from repro.operator import (TAG_CONSISTENT, TAG_KEY,
                                    install_namespace_operator)
        from repro.recovery import FailoverManager, SnapshotScheduler
        from repro.recovery.checker import check_business_invariants
        from repro.scenarios import (BusinessConfig, build_system,
                                     deploy_business_process)
        from repro.simulation import Simulator
        from tests.csi.conftest import fast_system_config

        sim = Simulator(seed=180)
        system = build_system(sim, fast_system_config())
        install_namespace_operator(system.main.cluster)
        business = deploy_business_process(
            system, BusinessConfig(wal_blocks=20_000))
        system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                          TAG_CONSISTENT)
        sim.run(until=sim.now + 4.0)
        secondary = FailoverManager(
            system, business.namespace).discover_secondary_volumes()
        scheduler = SnapshotScheduler(
            system.backup.array, sorted(secondary.values()),
            interval=10.0, retain=5, name="pit")
        issue_orders(sim, business.app, 10, rng_stream="first")
        sim.run(until=sim.now + 1.0)
        generation = sim.run_until_complete(
            sim.spawn(scheduler.take_generation()))
        issue_orders(sim, business.app, 10, rng_stream="second")
        sim.run(until=sim.now + 1.0)

        clones = system.backup.array.clone_snapshot_group(
            generation.group_id, system.backup.pool_id)

        def device(pvc):
            return ViewBlockDevice(clones[secondary[pvc]])

        buckets = business.config.bucket_count
        sales_rec, stock_rec = sim.run_until_complete(sim.spawn(
            recover_business_images(
                sim,
                DatabaseImage(device("sales-wal"), device("sales-data"),
                              buckets),
                DatabaseImage(device("stock-wal"), device("stock-data"),
                              buckets))))
        state = decode_business_state(sales_rec.state, stock_rec.state)
        report = check_business_invariants(
            state, list(business.app.catalog.values()))
        assert report.consistent
        # the restore is AT the generation's instant: only the first
        # batch of orders exists there
        assert report.order_count == 10
