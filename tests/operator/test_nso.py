"""End-to-end tests of the namespace operator: tag -> configured backup.

This is the paper's §IV-B demonstration as assertions: the user tags a
namespace, the operator discovers the volumes and creates the custom
resource, the replication plugin configures the array, and PVs appear at
the backup site.
"""

import pytest

from repro.csi import ConsistencyGroupReplication, STATE_PAIRED
from repro.operator import (ANNOTATION_STATE, NS_STATE_NO_VOLUMES,
                            NS_STATE_PROTECTED, OWNED_BY_LABEL,
                            TAG_CONSISTENT, TAG_INDEPENDENT, TAG_KEY,
                            install_namespace_operator)
from repro.platform import Namespace
from tests.csi.conftest import create_pvc, fast_system_config


@pytest.fixture()
def system(sim):
    from repro.scenarios import build_system
    system = build_system(sim, fast_system_config())
    install_namespace_operator(system.main.cluster)
    return system


@pytest.fixture()
def sim():
    from repro.simulation import Simulator
    return Simulator(seed=41)


def make_business_namespace(sim, system, namespace="shop",
                            pvcs=("sales-data", "stock-data")):
    system.main.cluster.create_namespace(namespace)
    for name in pvcs:
        create_pvc(system.main.cluster, namespace, name)
    sim.run(until=sim.now + 1.0)  # let provisioning finish


def test_only_the_protect_path_is_installed(system):
    """Every scenario builds the system and installs the NSO; what runs
    is exactly the protect direction's controllers, nothing idle."""
    installed = {site: sorted(controller.name for controller in
                              getattr(system, site).cluster.manager
                              .controllers)
                 for site in ("main", "backup")}
    assert installed == {
        "main": ["main.csi-provisioner", "main.namespace-operator",
                 "main.pod-scheduler", "main.replication-plugin"],
        "backup": ["backup.csi-provisioner", "backup.pod-scheduler"],
    }


class TestTagDrivenConfiguration:
    def test_one_tag_configures_everything(self, sim, system):
        """Fig 3: the single user operation is the tag."""
        make_business_namespace(sim, system)
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_CONSISTENT)
        sim.run(until=sim.now + 4.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "nso-shop",
                                 "shop")
        assert cr.meta.labels[OWNED_BY_LABEL] == "namespace-operator"
        assert cr.spec.pvc_names == ["sales-data", "stock-data"]
        assert cr.spec.consistency_group
        assert cr.status.state == STATE_PAIRED
        ns = system.main.api.get(Namespace, "shop")
        assert ns.meta.annotations[ANNOTATION_STATE] == NS_STATE_PROTECTED

    def test_pvs_appear_at_backup_site_after_tagging(self, sim, system):
        """The Fig 3 -> Fig 4 transition, end to end through the NSO."""
        make_business_namespace(sim, system)
        assert system.backup.console.list_persistent_volumes() == []
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_CONSISTENT)
        sim.run(until=sim.now + 4.0)
        pvs = system.backup.console.list_persistent_volumes()
        assert sorted(pv.spec.claim_ref for pv in pvs) == [
            "shop/sales-data", "shop/stock-data"]

    def test_user_performed_exactly_one_operation(self, sim, system):
        """The automation claim: one console op, zero array surface ops."""
        make_business_namespace(sim, system)
        before = system.main.console.operation_count()
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_CONSISTENT)
        sim.run(until=sim.now + 4.0)
        assert system.main.console.operation_count() == before + 1
        assert system.main.console.operation_count("storage-array") == 0
        cr = system.main.api.get(ConsistencyGroupReplication, "nso-shop",
                                 "shop")
        assert cr.status.state == STATE_PAIRED

    def test_independent_tag_creates_private_journals(self, sim, system):
        make_business_namespace(sim, system)
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_INDEPENDENT)
        sim.run(until=sim.now + 4.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "nso-shop",
                                 "shop")
        assert not cr.spec.consistency_group
        assert len(cr.status.journal_groups) == 2

    def test_unknown_tag_value_is_ignored(self, sim, system):
        make_business_namespace(sim, system)
        system.main.console.tag_namespace("shop", TAG_KEY, "Nonsense")
        sim.run(until=sim.now + 2.0)
        assert system.main.api.try_get(
            ConsistencyGroupReplication, "nso-shop", "shop") is None

    def test_namespace_without_volumes_reports_state(self, sim, system):
        system.main.cluster.create_namespace("empty-ns")
        system.main.console.tag_namespace("empty-ns", TAG_KEY,
                                          TAG_CONSISTENT)
        sim.run(until=sim.now + 2.0)
        ns = system.main.api.get(Namespace, "empty-ns")
        assert ns.meta.annotations[ANNOTATION_STATE] == NS_STATE_NO_VOLUMES


class TestLifecycle:
    def test_new_pvc_joins_existing_protection(self, sim, system):
        """The operator keeps the CR in sync as claims come and go."""
        make_business_namespace(sim, system)
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_CONSISTENT)
        sim.run(until=sim.now + 4.0)
        create_pvc(system.main.cluster, "shop", "audit-log")
        sim.run(until=sim.now + 4.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "nso-shop",
                                 "shop")
        assert "audit-log" in cr.spec.pvc_names
        assert cr.status.state == STATE_PAIRED
        assert cr.status.pair_states["audit-log"] == "PAIR"

    def test_tag_before_volumes_waits_then_configures(self, sim, system):
        system.main.cluster.create_namespace("shop")
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_CONSISTENT)
        sim.run(until=sim.now + 1.0)
        create_pvc(system.main.cluster, "shop", "sales-data")
        sim.run(until=sim.now + 5.0)
        cr = system.main.api.get(ConsistencyGroupReplication, "nso-shop",
                                 "shop")
        assert cr.status.state == STATE_PAIRED
