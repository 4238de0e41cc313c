"""Tests for the storage plugin: dynamic provisioning and snapshots."""

import pytest

from repro.errors import CsiError
from repro.platform import (PersistentVolume, PersistentVolumeClaim,
                            VolumeSnapshot)
from tests.csi.conftest import create_pvc


class TestProvisioning:
    def test_pending_pvc_gets_provisioned_and_bound(self, sim, system):
        system.main.cluster.create_namespace("shop")
        create_pvc(system.main.cluster, "shop", "sales-data")
        sim.run(until=1.0)
        pvc = system.main.api.get(PersistentVolumeClaim, "sales-data",
                                  "shop")
        assert pvc.bound
        pv = system.main.api.get(PersistentVolume, pvc.spec.volume_name)
        assert pv.status.phase == "Bound"
        assert pv.spec.csi.driver == "hspc.hitachi.com"
        volume_id = system.main.array.parse_handle(
            pv.spec.csi.volume_handle)
        assert system.main.array.volume_exists(volume_id)

    def test_provisioning_is_idempotent_per_claim(self, sim, system):
        system.main.cluster.create_namespace("shop")
        create_pvc(system.main.cluster, "shop", "sales-data")
        sim.run(until=2.0)
        volumes = system.main.array.list_volumes()
        pvc_named = [v for v in volumes if v.name.startswith("pvc-")]
        assert len(pvc_named) == 1

    def test_half_bound_pv_is_adopted_not_reprovisioned(self, sim, system):
        """A bind whose PVC update was lost (API flake / provisioner
        crash between the two updates) leaves the PV Bound with a
        claim_ref while the claim stays Pending.  The retry must adopt
        that PV — re-provisioning would livelock on the PV name."""
        cluster = system.main.cluster
        cluster.create_namespace("shop")
        create_pvc(cluster, "shop", "sales-data")
        sim.run(until=1.0)
        pvc = cluster.api.get(PersistentVolumeClaim, "sales-data", "shop")
        pv_name = pvc.spec.volume_name
        # rewind the claim half of the bind, as a flaked update would
        pvc.spec.volume_name = ""
        pvc.status.phase = "Pending"
        cluster.api.update(pvc)
        sim.run(until=2.5)
        pvc = cluster.api.get(PersistentVolumeClaim, "sales-data", "shop")
        assert pvc.bound
        assert pvc.spec.volume_name == pv_name  # adopted, not re-made
        volumes = [v for v in system.main.array.list_volumes()
                   if v.name.startswith("pvc-")]
        assert len(volumes) == 1

    def test_unknown_storage_class_waits(self, sim, system):
        system.main.cluster.create_namespace("shop")
        create_pvc(system.main.cluster, "shop", "odd",
                   storage_class="missing-class")
        sim.run(until=0.5)
        pvc = system.main.api.get(PersistentVolumeClaim, "odd", "shop")
        assert not pvc.bound

    def test_prebound_available_pv_wins_over_provisioning(self, sim, system):
        """The backup-site pattern: a pre-created PV with a claim_ref is
        bound instead of provisioning a fresh volume."""
        from repro.scenarios import DEFAULT_STORAGE_CLASS
        cluster = system.main.cluster
        cluster.create_namespace("shop")
        volume = system.main.array.create_volume(system.main.pool_id, 128)
        pv = PersistentVolume()
        pv.meta.name = "pre-made"
        pv.spec.capacity_blocks = 128
        pv.spec.storage_class = DEFAULT_STORAGE_CLASS
        pv.spec.csi.driver = system.main.driver.driver_name
        pv.spec.csi.volume_handle = system.main.array.volume_handle(
            volume.volume_id)
        pv.spec.csi.array_serial = system.main.array.serial
        pv.spec.claim_ref = "shop/sales-data"
        cluster.api.create(pv)
        create_pvc(cluster, "shop", "sales-data")
        sim.run(until=1.0)
        pvc = cluster.api.get(PersistentVolumeClaim, "sales-data", "shop")
        assert pvc.spec.volume_name == "pre-made"


class TestSnapshots:
    def test_volume_snapshot_becomes_ready(self, sim, system):
        cluster = system.main.cluster
        cluster.create_namespace("shop")
        create_pvc(cluster, "shop", "sales-data")
        sim.run(until=1.0)
        cluster.console.create_volume_snapshot("shop", "snap-1",
                                               "sales-data")
        sim.run(until=2.0)
        snap = cluster.api.get(VolumeSnapshot, "snap-1", "shop")
        assert snap.status.ready
        assert snap.status.snapshot_handle.startswith("snap.G370-MAIN.")

    def test_snapshot_of_unbound_pvc_reports_error_then_recovers(
            self, sim, system):
        cluster = system.main.cluster
        cluster.create_namespace("shop")
        cluster.console.create_volume_snapshot("shop", "snap-early",
                                               "late-data")
        sim.run(until=0.3)
        snap = cluster.api.get(VolumeSnapshot, "snap-early", "shop")
        assert not snap.status.ready
        assert snap.status.error
        create_pvc(cluster, "shop", "late-data")
        sim.run(until=2.0)
        snap = cluster.api.get(VolumeSnapshot, "snap-early", "shop")
        assert snap.status.ready


class TestDriver:
    def test_create_volume_idempotent_by_name(self, sim, system):
        driver = system.main.driver

        def proc(sim):
            first = yield from driver.create_volume("vol-x", 64, {})
            second = yield from driver.create_volume("vol-x", 64, {})
            return first, second

        first, second = sim.run_until_complete(sim.spawn(proc(sim)))
        assert first == second

    def test_create_volume_capacity_conflict(self, sim, system):
        driver = system.main.driver

        def proc(sim):
            yield from driver.create_volume("vol-x", 64, {})
            yield from driver.create_volume("vol-x", 128, {})

        proc_handle = sim.spawn(proc(sim))
        sim.run(until=1.0)
        with pytest.raises(CsiError):
            _ = proc_handle.result

    def test_bad_pool_parameter(self, sim, system):
        proc = sim.spawn(system.main.driver.create_volume(
            "v", 64, {"poolId": "not-a-number"}))
        sim.run(until=1.0)
        with pytest.raises(CsiError):
            _ = proc.result

    def test_snapshot_handle_round_trip(self):
        from repro.csi import parse_snapshot_handle, snapshot_handle
        handle = snapshot_handle("G370-MAIN", 7)
        assert parse_snapshot_handle(handle) == ("G370-MAIN", 7)
        with pytest.raises(ValueError):
            parse_snapshot_handle("garbage")
