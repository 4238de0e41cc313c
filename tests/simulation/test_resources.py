"""Unit tests for Lock/Semaphore/Store synchronisation primitives."""

import pytest

from repro.errors import ProcessError
from repro.simulation import Simulator


@pytest.fixture()
def sim():
    return Simulator(seed=1)


class TestSemaphoreAndLock:
    def test_semaphore_capacity_validation(self, sim):
        from repro.simulation import Semaphore
        with pytest.raises(ValueError):
            Semaphore(sim, capacity=0)

    def test_lock_mutual_exclusion(self, sim):
        from repro.simulation import Lock
        lock = Lock(sim)
        timeline = []

        def worker(sim, tag, hold):
            yield lock.acquire()
            timeline.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            timeline.append((tag, "out", sim.now))
            lock.release()

        sim.spawn(worker(sim, "a", 2.0))
        sim.spawn(worker(sim, "b", 1.0))
        sim.run()
        assert timeline == [
            ("a", "in", 0.0), ("a", "out", 2.0),
            ("b", "in", 2.0), ("b", "out", 3.0),
        ]

    def test_lock_locked_property(self, sim):
        from repro.simulation import Lock
        lock = Lock(sim)
        assert not lock.locked
        lock.acquire()
        assert lock.locked
        lock.release()
        assert not lock.locked

    def test_release_without_acquire_raises(self, sim):
        from repro.simulation import Lock
        with pytest.raises(ProcessError):
            Lock(sim).release()

    def test_semaphore_admits_up_to_capacity(self, sim):
        from repro.simulation import Semaphore
        sem = Semaphore(sim, capacity=2)
        active = []
        peak = []

        def worker(sim, tag):
            yield sem.acquire()
            active.append(tag)
            peak.append(len(active))
            yield sim.timeout(1.0)
            active.remove(tag)
            sem.release()

        for tag in range(5):
            sim.spawn(worker(sim, tag))
        sim.run()
        assert max(peak) == 2

    def test_cancel_acquire_withdraws_waiter(self, sim):
        from repro.simulation import Lock
        lock = Lock(sim)
        lock.acquire()  # held
        waiting = lock.acquire()
        assert waiting.pending
        assert lock.cancel_acquire(waiting)
        lock.release()
        # the cancelled waiter was skipped: the unit is free again
        assert not lock.locked
        assert waiting.pending  # never granted

    def test_cancel_acquire_refuses_granted_event(self, sim):
        from repro.simulation import Lock
        lock = Lock(sim)
        granted = lock.acquire()
        assert granted.triggered
        assert not lock.cancel_acquire(granted)
        lock.release()

    def test_fifo_handoff(self, sim):
        from repro.simulation import Lock
        lock = Lock(sim)
        order = []

        def worker(sim, tag):
            yield lock.acquire()
            order.append(tag)
            yield sim.timeout(0.1)
            lock.release()

        for tag in range(6):
            sim.spawn(worker(sim, tag))
        sim.run()
        assert order == list(range(6))


class TestStore:
    def test_put_then_get(self, sim):
        from repro.simulation import Store
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append((item, sim.now))

        def producer(sim):
            yield sim.timeout(2.0)
            yield store.put("job")

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert got == [("job", 2.0)]

    def test_fifo_item_order(self, sim):
        from repro.simulation import Store
        store = Store(sim)
        for i in range(4):
            store.put(i)
        got = []

        def consumer(sim):
            for _ in range(4):
                item = yield store.get()
                got.append(item)

        sim.spawn(consumer(sim))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_bounded_store_blocks_putter(self, sim):
        from repro.simulation import Store
        store = Store(sim, capacity=1)
        events = []

        def producer(sim):
            yield store.put("a")
            events.append(("put-a", sim.now))
            yield store.put("b")
            events.append(("put-b", sim.now))

        def consumer(sim):
            yield sim.timeout(5.0)
            item = yield store.get()
            events.append((f"got-{item}", sim.now))

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert ("put-a", 0.0) in events
        assert ("put-b", 5.0) in events

    def test_capacity_validation(self, sim):
        from repro.simulation import Store
        with pytest.raises(ValueError):
            Store(sim, capacity=0)
