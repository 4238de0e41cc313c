"""Unit tests for the API server: CRUD, optimistic concurrency, watches,
finalizers, label selectors."""

import pytest

from repro.errors import (AlreadyExistsError, ConflictError,
                          InvalidObjectError, NotFoundError)
from repro.platform import (WATCH_CLOSED, EventType, Namespace,
                            PersistentVolumeClaim, Pod)
from tests.platform.conftest import make_namespace, make_pod, make_pvc


class TestCrud:
    def test_create_and_get(self, api):
        api.create(make_namespace("shop"))
        ns = api.get(Namespace, "shop")
        assert ns.meta.name == "shop"
        assert ns.meta.uid > 0
        assert ns.meta.resource_version > 0

    def test_get_returns_copy(self, api):
        api.create(make_namespace("shop"))
        first = api.get(Namespace, "shop")
        first.meta.labels["mutated"] = "yes"
        second = api.get(Namespace, "shop")
        assert "mutated" not in second.meta.labels

    def test_duplicate_create_rejected(self, api):
        api.create(make_namespace("shop"))
        with pytest.raises(AlreadyExistsError):
            api.create(make_namespace("shop"))

    def test_get_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.get(Namespace, "ghost")
        assert api.try_get(Namespace, "ghost") is None

    def test_update_bumps_resource_version(self, api):
        api.create(make_namespace("shop"))
        ns = api.get(Namespace, "shop")
        rv = ns.meta.resource_version
        ns.meta.labels["k"] = "v"
        updated = api.update(ns)
        assert updated.meta.resource_version > rv

    def test_stale_update_conflicts(self, api):
        api.create(make_namespace("shop"))
        first = api.get(Namespace, "shop")
        second = api.get(Namespace, "shop")
        first.meta.labels["a"] = "1"
        api.update(first)
        second.meta.labels["b"] = "2"
        with pytest.raises(ConflictError):
            api.update(second)

    def test_delete_without_finalizers_is_immediate(self, api):
        api.create(make_namespace("shop"))
        api.delete(Namespace, "shop")
        assert api.try_get(Namespace, "shop") is None

    def test_validation_on_create(self, api):
        pvc = make_pvc("shop", "data", capacity=0)
        with pytest.raises(InvalidObjectError):
            api.create(pvc)

    def test_namespace_scoping_validation(self, api):
        pod = make_pod("", "p1")
        with pytest.raises(InvalidObjectError):
            api.create(pod)
        ns = make_namespace("x")
        ns.meta.namespace = "oops"
        with pytest.raises(InvalidObjectError):
            api.create(ns)

    def test_list_sorted_and_filtered(self, api):
        api.create(make_pvc("shop", "zeta"))
        api.create(make_pvc("shop", "alpha"))
        api.create(make_pvc("other", "beta"))
        names = [p.meta.name for p in
                 api.list(PersistentVolumeClaim, namespace="shop")]
        assert names == ["alpha", "zeta"]
        assert api.object_count(PersistentVolumeClaim) == 3


class TestWatch:
    def test_watch_receives_lifecycle_events(self, sim, api):
        stream = api.watch(Namespace)
        seen = []

        def watcher(sim):
            for _ in range(3):
                event = yield stream.next_event()
                seen.append((event.type, event.object.meta.name))

        sim.spawn(watcher(sim))
        api.create(make_namespace("shop"))
        ns = api.get(Namespace, "shop")
        ns.meta.labels["k"] = "v"
        api.update(ns)
        api.delete(Namespace, "shop")
        sim.run()
        assert seen == [
            (EventType.ADDED, "shop"),
            (EventType.MODIFIED, "shop"),
            (EventType.DELETED, "shop"),
        ]

    def test_watch_replays_existing_objects(self, sim, api):
        api.create(make_namespace("early"))
        stream = api.watch(Namespace)
        event = stream.next_event().value
        assert event.type is EventType.ADDED
        assert event.object.meta.name == "early"

    def test_closed_watch_stops_delivering(self, sim, api):
        stream = api.watch(Namespace)
        stream.close()
        api.create(make_namespace("shop"))
        # only the closure sentinel remains readable; the create after
        # close was never delivered
        assert stream.next_event().value is WATCH_CLOSED
        assert len(stream) == 0

    def test_watch_event_object_is_snapshot(self, sim, api):
        stream = api.watch(Namespace)
        api.create(make_namespace("shop"))
        ns = api.get(Namespace, "shop")
        ns.meta.labels["later"] = "yes"
        api.update(ns)
        added = stream.next_event().value
        assert "later" not in added.object.meta.labels


class TestFinalizers:
    def test_delete_with_finalizer_defers(self, sim, api):
        ns = make_namespace("shop")
        ns.meta.finalizers = ["backup.protect"]
        api.create(ns)
        api.delete(Namespace, "shop")
        still_there = api.get(Namespace, "shop")
        assert still_there.meta.deleting

    def test_remove_last_finalizer_completes_delete(self, sim, api):
        ns = make_namespace("shop")
        ns.meta.finalizers = ["backup.protect"]
        api.create(ns)
        api.delete(Namespace, "shop")
        api.remove_finalizer(Namespace, "shop", "", "backup.protect")
        assert api.try_get(Namespace, "shop") is None

    def test_remove_finalizer_before_delete_keeps_object(self, sim, api):
        ns = make_namespace("shop")
        ns.meta.finalizers = ["backup.protect"]
        api.create(ns)
        api.remove_finalizer(Namespace, "shop", "", "backup.protect")
        assert api.try_get(Namespace, "shop") is not None

    def test_delete_idempotent_while_finalizing(self, sim, api):
        ns = make_namespace("shop")
        ns.meta.finalizers = ["backup.protect"]
        api.create(ns)
        api.delete(Namespace, "shop")
        rv = api.get(Namespace, "shop").meta.resource_version
        api.delete(Namespace, "shop")  # second request is a no-op
        assert api.get(Namespace, "shop").meta.resource_version == rv
