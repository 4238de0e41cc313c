"""Unit tests for the console facade and cluster assembly."""

import pytest

from repro.errors import PlatformError
from repro.platform import Namespace
from repro.platform.objects import Condition, set_condition


class TestConsole:
    def test_tag_namespace_updates_labels_and_logs(self, sim, cluster):
        cluster.create_namespace("shop")
        cluster.console.tag_namespace(
            "shop", "backup.hitachi.com/consistency-copy",
            "ConsistentCopyToCloud")
        ns = cluster.api.get(Namespace, "shop")
        assert ns.meta.labels["backup.hitachi.com/consistency-copy"] == \
            "ConsistentCopyToCloud"
        assert cluster.console.operation_count() == 1
        assert "tag-namespace" in cluster.console.screen_log()

    def test_list_operations_are_logged(self, sim, cluster):
        cluster.create_namespace("shop")
        cluster.console.list_persistent_volumes()
        cluster.console.list_claims("shop")
        assert cluster.console.operation_count("console") == 2

    def test_storage_array_surface_is_tracked_separately(self, sim, cluster):
        cluster.console.storage_array_command("raidcom add ldev ...")
        assert cluster.console.operation_count("storage-array") == 1
        assert cluster.console.operation_count("console") == 0


class TestCluster:
    def test_duplicate_csi_driver_rejected(self, sim, cluster):
        class FakeDriver:
            driver_name = "hspc.hitachi.com"

        cluster.register_csi_driver(FakeDriver())
        with pytest.raises(PlatformError):
            cluster.register_csi_driver(FakeDriver())

    def test_same_driver_reregistration_is_idempotent(self, sim, cluster):
        class FakeDriver:
            driver_name = "hspc.hitachi.com"

        driver = FakeDriver()
        cluster.register_csi_driver(driver)
        cluster.register_csi_driver(driver)
        assert cluster.csi_driver("hspc.hitachi.com") is driver

    def test_missing_driver_raises(self, sim, cluster):
        with pytest.raises(PlatformError):
            cluster.csi_driver("ghost")
        assert not cluster.has_csi_driver("ghost")

    def test_install_after_start_starts_controller(self, sim, cluster):
        from repro.platform import Reconciler, Namespace

        calls = []

        class Probe(Reconciler):
            kind = Namespace

            def reconcile(self, api, key):
                calls.append(key.name)
                return None
                yield

        cluster.start()
        cluster.install(Probe(), name="probe")
        cluster.create_namespace("late")
        sim.run(until=0.5)
        assert "late" in calls


class TestConditions:
    def test_set_condition_replaces_same_type(self):
        conditions = []
        set_condition(conditions, Condition(
            type="Ready", status=False, reason="Configuring",
            last_transition=1.0))
        set_condition(conditions, Condition(
            type="Ready", status=True, reason="Done", last_transition=2.0))
        assert len(conditions) == 1
        assert conditions[0].status is True
        assert conditions[0].last_transition == 2.0

    def test_set_condition_preserves_transition_when_unchanged(self):
        conditions = []
        set_condition(conditions, Condition(
            type="Ready", status=True, reason="Done", last_transition=1.0))
        set_condition(conditions, Condition(
            type="Ready", status=True, reason="Done", last_transition=9.0))
        assert conditions[0].last_transition == 1.0
