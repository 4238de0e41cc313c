"""Unit tests for the discrete-event kernel: clock, events, processes."""

import pytest

from repro.errors import (DeadlockError, Interrupted, ProcessError,
                          SimTimeError)
from repro.simulation import Simulator


@pytest.fixture()
def sim():
    return Simulator(seed=42)


class TestClockAndRun:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_empty_queue_returns_now(self, sim):
        assert sim.run() == 0.0

    def test_run_until_advances_clock_even_without_events(self, sim):
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_run_until_in_the_past_raises(self, sim):
        sim.run(until=3.0)
        with pytest.raises(SimTimeError):
            sim.run(until=1.0)

    def test_events_processed_in_time_order(self, sim):
        seen = []
        sim.call_at(2.0, lambda: seen.append("b"))
        sim.call_at(1.0, lambda: seen.append("a"))
        sim.call_at(3.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_fifo(self, sim):
        seen = []
        for tag in range(5):
            sim.call_at(1.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_call_after_negative_delay_raises(self, sim):
        with pytest.raises(SimTimeError):
            sim.call_after(-1.0, lambda: None)

    def test_call_at_in_past_raises(self, sim):
        sim.run(until=10.0)
        with pytest.raises(SimTimeError):
            sim.call_at(5.0, lambda: None)

    def test_callback_handle_cancel(self, sim):
        seen = []
        handle = sim.call_at(1.0, lambda: seen.append("x"))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_stop_halts_run(self, sim):
        seen = []
        sim.call_at(1.0, lambda: (seen.append(1), sim.stop()))
        sim.call_at(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []

        def proc(sim):
            value = yield ev
            got.append(value)

        sim.spawn(proc(sim))
        sim.call_at(1.0, lambda: ev.succeed("payload"))
        sim.run()
        assert got == ["payload"]

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(ProcessError):
            ev.succeed(2)

    def test_fail_raises_inside_process(self, sim):
        ev = sim.event()
        caught = []

        def proc(sim):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(proc(sim))
        sim.call_at(1.0, lambda: ev.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(ProcessError):
            _ = sim.event().value

    def test_timeout_fires_at_offset(self, sim):
        times = []

        def proc(sim):
            yield sim.timeout(2.5)
            times.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert times == [2.5]

    def test_negative_timeout_raises(self, sim):
        with pytest.raises(SimTimeError):
            sim.timeout(-0.1)

    def test_any_of_fires_on_first(self, sim):
        done = []

        def proc(sim):
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(3.0, value="slow")
            results = yield sim.any_of([t1, t2])
            done.append((sim.now, list(results.values())))

        sim.spawn(proc(sim))
        sim.run()
        assert done == [(1.0, ["fast"])]


class TestProcesses:
    def test_return_value_via_join(self, sim):
        def child(sim):
            yield sim.timeout(1.0)
            return 99

        def parent(sim):
            value = yield sim.spawn(child(sim))
            return value * 2

        proc = sim.spawn(parent(sim))
        sim.run()
        assert proc.result == 198

    def test_run_until_complete_returns_result(self, sim):
        def proc(sim):
            yield sim.timeout(4.0)
            return "ok"

        assert sim.run_until_complete(sim.spawn(proc(sim))) == "ok"
        assert sim.now == 4.0

    def test_run_until_complete_deadlock_detection(self, sim):
        def proc(sim):
            yield sim.event()  # never fires

        with pytest.raises(DeadlockError):
            sim.run_until_complete(sim.spawn(proc(sim)))

    def test_run_until_complete_timeout(self, sim):
        def proc(sim):
            yield sim.timeout(100.0)

        with pytest.raises(SimTimeError):
            sim.run_until_complete(sim.spawn(proc(sim)), timeout=1.0)

    def test_spawn_requires_generator(self, sim):
        with pytest.raises(ProcessError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_process_failure_propagates_to_joiner(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        def parent(sim):
            try:
                yield sim.spawn(bad(sim))
            except RuntimeError as exc:
                return f"caught {exc}"

        proc = sim.spawn(parent(sim))
        sim.run()
        assert proc.result == "caught kaput"

    def test_result_of_failed_process_raises(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        proc = sim.spawn(bad(sim))
        sim.run()
        assert not proc.alive
        with pytest.raises(RuntimeError):
            _ = proc.result

    def test_yield_invalid_target_fails_process(self, sim):
        def bad(sim):
            yield 42

        proc = sim.spawn(bad(sim))
        sim.run()
        with pytest.raises(ProcessError):
            _ = proc.result

    def test_bare_yield_resumes_same_time(self, sim):
        times = []

        def proc(sim):
            yield None
            times.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert times == [0.0]

    def test_interrupt_raises_interrupted_with_cause(self, sim):
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupted as exc:
                log.append((exc.cause, sim.now))

        proc = sim.spawn(sleeper(sim))
        sim.call_at(2.0, lambda: proc.interrupt("wake up"))
        sim.run()
        assert log == [("wake up", 2.0)]

    def test_interrupt_dead_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(0.5)

        proc = sim.spawn(quick(sim))
        sim.run()
        with pytest.raises(ProcessError):
            proc.interrupt()

    def test_uncaught_interrupt_fails_process(self, sim):
        def sleeper(sim):
            yield sim.timeout(100.0)

        proc = sim.spawn(sleeper(sim))
        sim.call_at(1.0, lambda: proc.interrupt("die"))
        sim.run()
        with pytest.raises(Interrupted):
            _ = proc.result

    def test_stale_wakeup_after_interrupt_is_dropped(self, sim):
        """A process interrupted out of a timeout must not be resumed again
        when the original timeout later fires."""
        steps = []

        def proc(sim):
            try:
                yield sim.timeout(5.0)
            except Interrupted:
                steps.append(("interrupted", sim.now))
            yield sim.timeout(10.0)
            steps.append(("woke", sim.now))

        p = sim.spawn(proc(sim))
        sim.call_at(1.0, lambda: p.interrupt())
        sim.run()
        assert steps == [("interrupted", 1.0), ("woke", 11.0)]

    def test_determinism_same_seed_same_history(self):
        def run_once():
            sim = Simulator(seed=7)
            order = []

            def worker(sim, tag):
                for _ in range(3):
                    delay = sim.rng.uniform(f"w{tag}", 0.1, 1.0)
                    yield sim.timeout(delay)
                    order.append((tag, round(sim.now, 9)))

            for tag in range(4):
                sim.spawn(worker(sim, tag))
            sim.run()
            return order

        assert run_once() == run_once()
