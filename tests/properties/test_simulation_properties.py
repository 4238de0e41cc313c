"""Property-based tests for the discrete-event kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator


class TestEventOrdering:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100,
                                     allow_nan=False),
                           min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_callbacks_fire_in_time_order(self, delays):
        sim = Simulator(seed=1)
        fired = []
        for index, delay in enumerate(delays):
            sim.call_after(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(st.floats(min_value=0, max_value=50,
                                     allow_nan=False),
                           min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_equal_times_fire_fifo(self, delays):
        sim = Simulator(seed=1)
        fired = []
        when = 5.0
        for index in range(len(delays)):
            sim.call_at(when, lambda i=index: fired.append(i))
        sim.run()
        assert fired == list(range(len(delays)))

    @given(delays=st.lists(st.floats(min_value=0.001, max_value=10,
                                     allow_nan=False),
                           min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_processes_observe_monotone_clock(self, delays):
        sim = Simulator(seed=1)
        observed = []

        def sleeper(sim, delay):
            yield sim.timeout(delay)
            observed.append(sim.now)

        for delay in delays:
            sim.spawn(sleeper(sim, delay))
        sim.run()
        assert observed == sorted(observed)
        assert max(observed) == sim.now

    @given(chunks=st.lists(st.floats(min_value=0.01, max_value=5,
                                     allow_nan=False),
                           min_size=1, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_tiled_runs_equal_one_run(self, chunks):
        """Running in arbitrary until-slices produces the same history
        as one run (the slicing axiom every experiment relies on)."""
        def program(sim):
            log = []

            def worker(sim, tag):
                for step in range(3):
                    yield sim.timeout(0.7 * (tag + 1))
                    log.append((tag, round(sim.now, 9)))

            for tag in range(3):
                sim.spawn(worker(sim, tag))
            return log

        sim_a = Simulator(seed=2)
        log_a = program(sim_a)
        sim_a.run()

        sim_b = Simulator(seed=2)
        log_b = program(sim_b)
        now = 0.0
        for chunk in chunks:
            now += chunk
            sim_b.run(until=now)
        sim_b.run()
        assert log_a == log_b


class TestConditionProperties:
    @given(count=st.integers(1, 15), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_of_fires_at_min(self, count, data):
        delays = data.draw(st.lists(
            st.floats(min_value=0.001, max_value=10, allow_nan=False),
            min_size=count, max_size=count))
        sim = Simulator(seed=3)
        outcome = {}

        def waiter(sim):
            events = [sim.timeout(d) for d in delays]
            yield sim.any_of(list(events))
            outcome["any_at"] = sim.now

        sim.spawn(waiter(sim))
        sim.run()
        assert outcome["any_at"] == min(delays)
