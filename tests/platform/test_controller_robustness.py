"""Controller hardening: jittered budgeted backoff, deadlines,
crash-restart recovery, and watch resync.

These are the control-plane counterparts of the data-plane fault tests:
every recovery path a control-plane chaos fault exercises is pinned
down here in isolation first.
"""

import pytest

from repro.errors import UnavailableError
from repro.platform import (ApiFaultInjector, ApiServer, BackoffPolicy,
                            Controller, Namespace, Reconciler, Requeue)
from repro.platform.controller import DEADLINE_EXCEEDED
from repro.simulation import Simulator
from tests.platform.conftest import make_namespace
from tests.platform.test_controller import RecordingReconciler


class TestBackoffPolicy:
    def test_jitter_perturbs_the_delay_deterministically(self):
        policy = BackoffPolicy(initial=0.010, jitter=0.5)
        draws_a = [policy.delay(1, rng=Simulator(seed=5).rng)
                   for _ in range(1)]
        draws_b = [policy.delay(1, rng=Simulator(seed=5).rng)
                   for _ in range(1)]
        # same seed, same stream -> the same jittered delay
        assert draws_a == draws_b
        # the jittered delay stays inside +/- 50% of the base
        assert 0.005 <= draws_a[0] <= 0.015

    def test_jitter_sequence_is_seed_deterministic(self):
        policy = BackoffPolicy(initial=0.010, jitter=0.3)
        rng_a, rng_b = Simulator(seed=9).rng, Simulator(seed=9).rng
        sequence_a = [policy.delay(n, rng=rng_a) for n in range(1, 6)]
        sequence_b = [policy.delay(n, rng=rng_b) for n in range(1, 6)]
        assert sequence_a == sequence_b
        other = [policy.delay(n, rng=Simulator(seed=10).rng)
                 for n in range(1, 6)]
        assert sequence_a != other

    def test_no_rng_means_no_jitter(self):
        policy = BackoffPolicy(initial=0.010, jitter=0.5)
        assert policy.delay(1) == pytest.approx(0.010)

    def test_budget_exhaustion(self):
        policy = BackoffPolicy(budget=3)
        assert not policy.exhausted(3)
        assert policy.exhausted(4)
        assert not BackoffPolicy().exhausted(10 ** 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy(budget=0)


class TestRetryBudget:
    def test_budget_exhaustion_stops_retrying(self, sim, api):
        reconciler = RecordingReconciler(fail_times=50)
        controller = Controller(
            sim, api, reconciler,
            backoff=BackoffPolicy(initial=0.005, budget=3))
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=5.0)
        # initial attempt + 3 budgeted retries, then the key is parked
        assert len(reconciler.calls) == 4
        counter = sim.telemetry.registry.counter(
            "repro_reconcile_budget_exhausted_total",
            controller=controller.name)
        assert counter.value == 1

    def test_fresh_event_retries_a_parked_key(self, sim, api):
        reconciler = RecordingReconciler(fail_times=50)
        controller = Controller(
            sim, api, reconciler,
            backoff=BackoffPolicy(initial=0.005, budget=2))
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=2.0)
        parked_calls = len(reconciler.calls)
        reconciler.fail_times = 0  # the object heals
        ns = api.get(Namespace, "shop")
        ns.meta.labels["touched"] = "yes"
        api.update(ns)
        sim.run(until=4.0)
        # the update re-enqueued the key with a reset failure count
        assert len(reconciler.calls) > parked_calls


class SlowReconciler(Reconciler):
    kind = Namespace

    def __init__(self, delay):
        self.delay = delay
        self.calls = 0
        self.completed = 0

    def reconcile(self, api, key):
        self.calls += 1
        yield api.sim.timeout(self.delay)
        self.completed += 1
        return None


class TestReconcileDeadline:
    def test_deadline_cancels_and_requeues(self, sim, api):
        reconciler = SlowReconciler(delay=0.500)
        controller = Controller(
            sim, api, reconciler, deadline=0.050,
            backoff=BackoffPolicy(initial=0.005, budget=2))
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=3.0)
        assert reconciler.calls >= 2  # timed out, retried
        assert reconciler.completed == 0
        counter = sim.telemetry.registry.counter(
            "repro_reconcile_timeouts_total", controller=controller.name)
        assert counter.value >= 2

    def test_fast_reconciles_unaffected_by_deadline(self, sim, api):
        reconciler = SlowReconciler(delay=0.010)
        controller = Controller(sim, api, reconciler, deadline=0.200)
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=1.0)
        assert reconciler.completed == 1
        counter = sim.telemetry.registry.counter(
            "repro_reconcile_timeouts_total", controller=controller.name)
        assert counter.value == 0


class TestCrashRestart:
    def test_crash_kills_worker_and_restart_requeues_all(self, sim, api):
        reconciler = RecordingReconciler()
        controller = Controller(sim, api, reconciler)
        controller.start()
        for name in ("one", "two", "three"):
            api.create(make_namespace(name))
        sim.run(until=0.5)
        seen_before = {name for _t, name in reconciler.calls}
        assert seen_before == {"one", "two", "three"}

        controller.crash("test-crash")
        # objects created while the controller is dead are missed events
        api.create(make_namespace("four"))
        sim.run(until=1.0)
        dead_calls = len(reconciler.calls)
        sim.run(until=1.5)
        assert len(reconciler.calls) == dead_calls  # really dead

        controller.restart()
        sim.run(until=3.0)
        # the list+watch replay requeued every live key, including the
        # one created during the outage
        seen_after = {name for _t, name in
                      reconciler.calls[dead_calls:]}
        assert seen_after == {"one", "two", "three", "four"}
        assert controller.restart_count == 1
        counter = sim.telemetry.registry.counter(
            "repro_controller_restarts_total", controller=controller.name)
        assert counter.value == 1

    def test_crash_mid_reconcile_is_recovered_after_restart(self, sim, api):
        reconciler = SlowReconciler(delay=0.200)
        controller = Controller(sim, api, reconciler)
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=0.050)  # worker is inside the reconcile
        assert reconciler.calls == 1
        assert reconciler.completed == 0
        controller.crash("test-crash")
        controller.restart()
        sim.run(until=2.0)
        # the interrupted reconcile was re-driven to completion
        assert reconciler.completed >= 1

    def test_restart_during_api_outage_recovers_when_api_heals(self, sim):
        api = ApiServer(sim, cluster_name="test")
        api.chaos = ApiFaultInjector(sim)
        reconciler = RecordingReconciler()
        controller = Controller(sim, api, reconciler,
                                backoff=BackoffPolicy(initial=0.005))
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=0.5)
        controller.crash("test-crash")
        api.chaos.outage = True
        controller.restart()  # watch open fails; the pump keeps retrying
        sim.run(until=1.0)
        api.chaos.outage = False
        sim.run(until=3.0)
        assert [name for _t, name in reconciler.calls].count("shop") >= 2


class TestWatchResync:
    def test_drop_watches_forces_list_resync(self, sim, api):
        reconciler = RecordingReconciler()
        controller = Controller(sim, api, reconciler)
        controller.start()
        api.create(make_namespace("shop"))
        sim.run(until=0.5)
        dropped = api.drop_watches()
        assert dropped >= 1
        sim.run(until=2.0)
        counter = sim.telemetry.registry.counter(
            "repro_watch_resyncs_total", controller=controller.name)
        assert counter.value >= 1
        # the re-list replayed the namespace as an ADDED event
        assert [name for _t, name in reconciler.calls].count("shop") >= 2
        # new events flow through the re-opened stream
        ns = api.get(Namespace, "shop")
        ns.meta.labels["after"] = "drop"
        api.update(ns)
        sim.run(until=3.0)
        assert [name for _t, name in reconciler.calls].count("shop") >= 3


class TestApiFaultInjector:
    def test_outage_rejects_everything_fail_closed(self, sim, api):
        api.chaos = ApiFaultInjector(sim)
        api.chaos.outage = True
        with pytest.raises(UnavailableError):
            api.create(make_namespace("shop"))
        api.chaos.outage = False
        api.create(make_namespace("shop"))  # nothing half-applied
        assert api.get(Namespace, "shop").meta.name == "shop"

    def test_flakes_are_seed_deterministic(self):
        outcomes = []
        for _attempt in range(2):
            sim = Simulator(seed=33)
            api = ApiServer(sim, cluster_name="test")
            api.chaos = ApiFaultInjector(sim)
            api.chaos.flake_probability = 0.5
            verdicts = []
            for index in range(20):
                try:
                    api.create(make_namespace(f"ns-{index}"))
                    verdicts.append("ok")
                except UnavailableError:
                    verdicts.append("flake")
            outcomes.append(verdicts)
        assert outcomes[0] == outcomes[1]
        assert "flake" in outcomes[0] and "ok" in outcomes[0]
