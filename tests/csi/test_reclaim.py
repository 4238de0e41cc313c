"""Tests for storage reclamation: PVC deletion releases the PV and the
array volume; VolumeSnapshot deletion releases the array snapshot."""

import pytest

from repro.platform import (PersistentVolume, PersistentVolumeClaim,
                            VolumeSnapshot)
from tests.csi.conftest import create_pvc


class TestPvcReclaim:
    def test_delete_pvc_releases_pv_and_volume(self, sim, system):
        system.main.cluster.create_namespace("shop")
        create_pvc(system.main.cluster, "shop", "data", capacity=500)
        sim.run(until=1.0)
        pvc = system.main.api.get(PersistentVolumeClaim, "data", "shop")
        pv_name = pvc.spec.volume_name
        pv = system.main.api.get(PersistentVolume, pv_name)
        volume_id = system.main.array.parse_handle(
            pv.spec.csi.volume_handle)
        pool = system.main.array._pools[system.main.pool_id]
        free_before = pool.free_blocks
        system.main.api.delete(PersistentVolumeClaim, "data", "shop")
        sim.run(until=3.0)
        assert system.main.api.try_get(
            PersistentVolumeClaim, "data", "shop") is None
        assert system.main.api.try_get(PersistentVolume, pv_name) is None
        assert not system.main.array.volume_exists(volume_id)
        assert pool.free_blocks == free_before + 500

    def test_replicated_pvc_waits_for_unpairing(self, sim, system):
        """A claim whose volume is a replication P-VOL cannot reclaim
        until the pair dissolves; the reclaim retries and wins once the
        CR teardown runs."""
        from repro.csi import ConsistencyGroupReplication
        system.main.cluster.create_namespace("shop")
        create_pvc(system.main.cluster, "shop", "data")
        sim.run(until=1.0)
        cr = ConsistencyGroupReplication()
        cr.meta.name = "protect"
        cr.meta.namespace = "shop"
        cr.spec.pvc_names = ["data"]
        system.main.api.create(cr)
        sim.run(until=sim.now + 3.0)
        system.main.api.delete(PersistentVolumeClaim, "data", "shop")
        sim.run(until=sim.now + 1.0)
        # still pinned: the volume is paired
        assert system.main.api.try_get(
            PersistentVolumeClaim, "data", "shop") is not None
        system.main.api.delete(ConsistencyGroupReplication, "protect",
                               "shop")
        sim.run(until=sim.now + 6.0)
        assert system.main.api.try_get(
            PersistentVolumeClaim, "data", "shop") is None


class TestSnapshotReclaim:
    def test_delete_volumesnapshot_releases_array_snapshot(self, sim,
                                                           system):
        system.main.cluster.create_namespace("shop")
        create_pvc(system.main.cluster, "shop", "data")
        sim.run(until=1.0)
        system.main.console.create_volume_snapshot("shop", "snap-1",
                                                   "data")
        sim.run(until=2.0)
        snap = system.main.api.get(VolumeSnapshot, "snap-1", "shop")
        assert snap.status.ready
        from repro.csi import parse_snapshot_handle
        _serial, snapshot_id = parse_snapshot_handle(
            snap.status.snapshot_handle)
        system.main.api.delete(VolumeSnapshot, "snap-1", "shop")
        sim.run(until=4.0)
        assert system.main.api.try_get(
            VolumeSnapshot, "snap-1", "shop") is None
        from repro.errors import SnapshotError
        with pytest.raises(SnapshotError):
            system.main.array.get_snapshot(snapshot_id)
