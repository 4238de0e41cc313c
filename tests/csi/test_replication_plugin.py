"""Tests for the replication plugin: CR-driven pair configuration."""

import pytest

from repro.csi import (ConsistencyGroupReplication, SECONDARY_PV_LABEL,
                       STATE_PAIRED, VolumeReplication)
from repro.platform import PersistentVolume
from repro.storage import PairState
from tests.csi.conftest import create_pvc


def make_cgr(namespace, name, pvc_names, consistency_group=True):
    cr = ConsistencyGroupReplication()
    cr.meta.name = name
    cr.meta.namespace = namespace
    cr.spec.pvc_names = list(pvc_names)
    cr.spec.consistency_group = consistency_group
    return cr


def prepare_claims(sim, system, pvc_names, namespace="shop"):
    system.main.cluster.create_namespace(namespace)
    for name in pvc_names:
        create_pvc(system.main.cluster, namespace, name)
    sim.run(until=1.0)


class TestConsistencyGroupReplication:
    def test_cr_drives_pairing_into_one_group(self, sim, system):
        prepare_claims(sim, system, ["sales", "stock"])
        system.main.api.create(make_cgr("shop", "bp", ["sales", "stock"]))
        sim.run(until=3.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "bp", "shop")
        assert cr.status.state == STATE_PAIRED
        assert cr.status.pair_states == {"sales": "PAIR", "stock": "PAIR"}
        assert cr.status.journal_groups == ["jg-shop-bp"]
        group = system.main.array.journal_groups["jg-shop-bp"]
        assert len(group.pairs) == 2

    def test_no_consistency_group_mode_creates_private_journals(
            self, sim, system):
        prepare_claims(sim, system, ["sales", "stock"])
        system.main.api.create(make_cgr("shop", "bp", ["sales", "stock"],
                                        consistency_group=False))
        sim.run(until=3.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "bp", "shop")
        assert cr.status.state == STATE_PAIRED
        assert cr.status.journal_groups == [
            "jg-shop-bp-sales", "jg-shop-bp-stock"]
        for group_id in cr.status.journal_groups:
            assert len(system.main.array.journal_groups[group_id].pairs) == 1

    def test_backup_pvs_appear_after_configuration(self, sim, system):
        """The Fig 3 -> Fig 4 transition: the backup site had no PVs,
        then mirrored PVs appear."""
        prepare_claims(sim, system, ["sales", "stock"])
        assert system.backup.console.list_persistent_volumes() == []
        system.main.api.create(make_cgr("shop", "bp", ["sales", "stock"]))
        sim.run(until=3.0)
        pvs = system.backup.console.list_persistent_volumes()
        assert len(pvs) == 2
        for pv in pvs:
            assert pv.meta.labels[SECONDARY_PV_LABEL] == "shop.bp"
            assert pv.spec.csi.array_serial == "G370-BKUP"
            assert pv.spec.claim_ref.startswith("shop/")

    def test_replication_actually_copies_data(self, sim, system):
        prepare_claims(sim, system, ["sales"])
        system.main.api.create(make_cgr("shop", "bp", ["sales"]))
        sim.run(until=3.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "bp", "shop")
        from repro.csi import resolve_bound_volume
        pv = resolve_bound_volume(system.main.api, "shop", "sales")
        pvol_id = system.main.array.parse_handle(pv.spec.csi.volume_handle)
        svol_id = system.backup.array.parse_handle(
            cr.status.secondary_handles["sales"])

        def writer(sim):
            yield from system.main.array.host_write(pvol_id, 0, b"copied")

        sim.run_until_complete(sim.spawn(writer(sim)))
        sim.run(until=sim.now + 1.0)
        assert system.backup.array.get_volume(svol_id).peek(0).payload == \
            b"copied"

    def test_cr_with_unbound_pvc_waits_then_configures(self, sim, system):
        system.main.cluster.create_namespace("shop")
        system.main.api.create(make_cgr("shop", "bp", ["late"]))
        sim.run(until=0.5)
        cr = system.main.api.get(ConsistencyGroupReplication, "bp", "shop")
        assert cr.status.state != STATE_PAIRED
        create_pvc(system.main.cluster, "shop", "late")
        sim.run(until=4.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "bp", "shop")
        assert cr.status.state == STATE_PAIRED

    def test_teardown_on_delete(self, sim, system):
        prepare_claims(sim, system, ["sales"])
        system.main.api.create(make_cgr("shop", "bp", ["sales"]))
        sim.run(until=3.0)
        system.main.api.delete(ConsistencyGroupReplication, "bp", "shop")
        sim.run(until=5.0)
        assert system.main.api.try_get(
            ConsistencyGroupReplication, "bp", "shop") is None
        assert "jg-shop-bp" not in system.main.array.journal_groups
        assert system.main.array.find_pair("shop/bp/sales") is None
        assert system.backup.api.list(PersistentVolume) == []

    def test_error_suspension_surfaces_and_is_not_auto_healed(
            self, sim, system):
        """PSUE (journal overflow) needs repair; the plugin reports it
        rather than resync-looping against a broken pipeline."""
        prepare_claims(sim, system, ["sales"])
        system.main.api.create(make_cgr("shop", "bp", ["sales"]))
        sim.run(until=3.0)
        group = system.main.array.journal_groups["jg-shop-bp"]
        from repro.storage import PairState as PS
        group._suspend(PS.PSUE, "journal full")
        sim.run(until=8.0)
        assert group.suspended  # still suspended: no auto-heal of PSUE
        cr = system.main.api.get(ConsistencyGroupReplication, "bp", "shop")
        assert cr.status.state == "Suspended"
        assert cr.status.pair_states["sales"] == PairState.PSUE.value


class TestVolumeReplication:
    def test_volume_replication_composes_over_group_cr(self, sim, system):
        prepare_claims(sim, system, ["solo"])
        vr = VolumeReplication()
        vr.meta.name = "solo-repl"
        vr.meta.namespace = "shop"
        vr.spec.pvc_name = "solo"
        system.main.api.create(vr)
        sim.run(until=4.0)
        stored = system.main.api.get(VolumeReplication, "solo-repl", "shop")
        assert stored.status.state == STATE_PAIRED
        assert stored.status.pair_state == "PAIR"
        assert stored.status.secondary_handle.startswith("naa.G370-BKUP.")

    def test_volume_replication_delete_cleans_owned_cr(self, sim, system):
        prepare_claims(sim, system, ["solo"])
        vr = VolumeReplication()
        vr.meta.name = "solo-repl"
        vr.meta.namespace = "shop"
        vr.spec.pvc_name = "solo"
        system.main.api.create(vr)
        sim.run(until=4.0)
        system.main.api.delete(VolumeReplication, "solo-repl", "shop")
        sim.run(until=8.0)
        assert system.main.api.try_get(
            ConsistencyGroupReplication, "vr-solo-repl", "shop") is None
