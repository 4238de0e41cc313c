"""Tests for the platform events API and its operator integration."""

import pytest

from repro.errors import InvalidObjectError
from repro.platform import PlatformEvent, record_event
from repro.platform.objects import ObjectKey


class TestEventRecording:
    def test_record_creates_event(self, sim, api):
        key = ObjectKey("Namespace", "", "shop")
        event = record_event(api, "shop-ns", key, reason="Protected",
                             message="all pairs PAIR", source="nso")
        assert event.count == 1
        assert event.involved == "Namespace/shop"
        assert "Protected" in str(event)

    def test_duplicate_reason_increments_count(self, sim, api):
        key = ObjectKey("Namespace", "", "shop")
        record_event(api, "shop-ns", key, "Configuring", "step 1", "nso")
        sim.run(until=1.0)
        event = record_event(api, "shop-ns", key, "Configuring",
                             "step 2", "nso")
        assert event.count == 2
        assert event.message == "step 2"
        assert event.last_seen == 1.0
        assert api.object_count(PlatformEvent) == 1

    def test_distinct_reasons_are_distinct_events(self, sim, api):
        key = ObjectKey("Namespace", "", "shop")
        record_event(api, "shop-ns", key, "Configuring", "", "nso")
        record_event(api, "shop-ns", key, "Protected", "", "nso")
        assert api.object_count(PlatformEvent) == 2
        found = api.list(PlatformEvent, namespace="shop-ns")
        assert {e.reason for e in found} == {"Configuring", "Protected"}

    def test_validation(self, sim, api):
        bad = PlatformEvent()
        bad.meta.name = "e"
        bad.meta.namespace = "ns"
        with pytest.raises(InvalidObjectError):
            api.create(bad)


class TestOperatorEvents:
    def test_nso_narrates_protection_on_the_console(self):
        from repro.operator import (TAG_CONSISTENT, TAG_KEY,
                                    install_namespace_operator)
        from repro.scenarios import (BusinessConfig, build_system,
                                     deploy_business_process)
        from repro.simulation import Simulator
        from tests.csi.conftest import fast_system_config

        sim = Simulator(seed=170)
        system = build_system(sim, fast_system_config())
        install_namespace_operator(system.main.cluster)
        business = deploy_business_process(
            system, BusinessConfig(wal_blocks=20_000))
        system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                          TAG_CONSISTENT)
        sim.run(until=sim.now + 4.0)
        events = system.main.api.list(PlatformEvent,
                                      namespace=business.namespace)
        reasons = [event.reason for event in events]
        assert "Protected" in reasons
        # the replication plugin narrated the CR's progress too
        sources = {event.source for event in events}
        assert "replication-plugin" in sources
        assert "namespace-operator" in sources
