"""Scheduling-order guarantees of the typed-entry / now-queue kernel.

The kernel overhaul replaced per-event closures with typed queue
entries and routed zero-delay work through a FIFO now-queue.  The
contract is that none of this is *observable*: every program fires in
exactly the order the original heap-only kernel produced.  These tests
pin that contract:

* a hypothesis property test replays interleaved streams of
  ``timeout(0)``, ``call_after(0, ...)``, event-succeed callbacks and
  positive-delay timeouts against an embedded reference implementation
  of the old heap-only scheduler;
* ``sim.sleep`` (the one way to pause) must produce histories
  identical to ``yield sim.timeout`` in any population — all sleeps,
  all timeouts or any mix, zero delays and equal instants included —
  and each guard of its in-place clock advance (``until``, the
  ``run_until_complete`` deadline, ``stop()``, a due heap entry, a
  tombstone) must leave the schedule exactly the heap's;
* ``run_until_complete(timeout=...)`` advances the clock to the
  deadline before raising, so repeated calls tile simulated time;
* cancelled ``call_at`` tombstones are invisible: unable to mask a
  real deadlock or advance the clock.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, Interrupted, SimTimeError
from repro.simulation import Simulator

# ---------------------------------------------------------------------------
# reference implementation: the pre-overhaul heap-only scheduler
# ---------------------------------------------------------------------------


class _RefKernel:
    """The old kernel's scheduling semantics, minimally.

    One heap of ``(when, seq, thunk)`` — every scheduling action,
    including zero-delay callback delivery, pushes a closure with the
    next global sequence number and the loop pops in ``(when, seq)``
    order.  This is what ``Simulator`` did before the typed-entry /
    now-queue overhaul, and remains the ordering oracle.
    """

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._sequence = itertools.count()

    def push(self, delay, thunk):
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._sequence), thunk))

    def run(self):
        while self._queue:
            when, _seq, thunk = heapq.heappop(self._queue)
            self.now = when
            thunk()


class _RefEvent:
    """Old-kernel event: succeed schedules each callback at delay 0."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.fired = False
        self.callbacks = []

    def add_callback(self, callback):
        if self.fired:
            self.kernel.push(0.0, lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def succeed(self):
        assert not self.fired
        self.fired = True
        for callback in self.callbacks:
            self.kernel.push(0.0, lambda cb=callback: cb(self))


class _RefAdapter:
    """Drives the reference kernel through the shared program shape."""

    def __init__(self):
        self.kernel = _RefKernel()

    def timeout_cb(self, delay, fn):
        event = _RefEvent(self.kernel)
        event.add_callback(fn)
        self.kernel.push(delay, event.succeed)

    def call_after(self, delay, fn):
        self.kernel.push(delay, fn)

    def event_succeed_after(self, delay, fn):
        event = _RefEvent(self.kernel)
        event.add_callback(fn)
        self.kernel.push(delay, event.succeed)
        return event

    def spawn(self, index, waits, history):
        """A process whose every wait is a timeout, whatever kind the
        program drew: the reference a mixed population must match."""
        def step(position):
            if position == len(waits):
                return

            def resumed(_event):
                history.append((index, position, self.now))
                step(position + 1)

            self.timeout_cb(waits[position][1], resumed)

        self.kernel.push(0.0, lambda: step(0))  # spawn: a zero-delay resume

    def run(self):
        self.kernel.run()

    @property
    def now(self):
        return self.kernel.now


class _RealAdapter:
    """Drives the production kernel through the shared program shape."""

    def __init__(self):
        self.sim = Simulator(seed=1)

    def timeout_cb(self, delay, fn):
        self.sim.timeout(delay).add_callback(fn)

    def call_after(self, delay, fn):
        self.sim.call_after(delay, fn)

    def event_succeed_after(self, delay, fn):
        event = self.sim.event()
        event.add_callback(fn)
        self.sim.call_after(delay, lambda: event.succeed())
        return event

    def spawn(self, index, waits, history):
        sim = self.sim

        def process():
            for position, (use_sleep, delay) in enumerate(waits):
                if use_sleep:
                    yield sim.sleep(delay)
                else:
                    yield sim.timeout(delay)
                history.append((index, position, sim.now))

        sim.spawn(process())

    def run(self):
        self.sim.run()

    @property
    def now(self):
        return self.sim.now


# op kinds: what each scheduled cell does when built
_TIMEOUT_CB, _CALL_AFTER, _EVENT_SUCCEED = range(3)

#: delays are drawn from a tiny grid so same-instant ties are the rule,
#: not the exception — ties are exactly where heap-vs-now-queue order
#: could diverge
_DELAYS = st.sampled_from([0.0, 0.0, 0.001, 0.002])

_OP = st.tuples(st.integers(min_value=0, max_value=2), _DELAYS)

#: each op may carry child ops scheduled from inside its callback —
#: that is the case where the now-queue holds work while the heap has
#: entries due at the same instant
_PROGRAM = st.lists(
    st.tuples(_OP, st.lists(_OP, max_size=3)), min_size=1, max_size=12)


#: processes of 1-6 waits, each wait drawn as sleep or timeout
_PROCESSES = st.lists(
    st.lists(st.tuples(st.booleans(), _DELAYS), min_size=1, max_size=6),
    min_size=1, max_size=4)


def _build(adapter, program, processes=()):
    """Schedule ``program`` and spawn ``processes`` on ``adapter``;
    returns the firing log."""
    order = []
    counter = itertools.count()

    def schedule(op, children):
        kind, delay = op
        label = next(counter)

        def fired(*_args):
            order.append((label, adapter.now))
            for child in children:
                schedule(child, [])

        if kind == _TIMEOUT_CB:
            adapter.timeout_cb(delay, fired)
        elif kind == _CALL_AFTER:
            adapter.call_after(delay, fired)
        else:
            adapter.event_succeed_after(delay, fired)

    for op, children in program:
        schedule(op, children)
    for index, waits in enumerate(processes):
        adapter.spawn(index, waits, order)
    return order


class TestHeapOnlyEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(program=_PROGRAM)
    def test_fires_in_heap_only_kernel_order(self, program):
        real = _RealAdapter()
        real_order = _build(real, program)
        real.run()

        reference = _RefAdapter()
        ref_order = _build(reference, program)
        reference.run()

        assert real_order == ref_order

    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(st.tuples(_OP, st.lists(_OP, max_size=2)),
                            max_size=6),
           processes=_PROCESSES)
    def test_mixed_sleepers_fire_in_all_timeout_order(self, program,
                                                      processes):
        real = _RealAdapter()
        real_order = _build(real, program, processes)
        real.run()

        reference = _RefAdapter()
        ref_order = _build(reference, program, processes)
        reference.run()

        assert real_order == ref_order
        assert real.now == reference.now

    def test_nowq_yields_to_older_heap_entry_at_same_instant(self):
        # a call_at sitting in the heap, due now, with an older seq
        # must fire before a younger now-queue entry — the exact
        # interleave rule the run loop implements
        sim = Simulator(seed=1)
        order = []
        sim.call_after(0.001, lambda: order.append("heap-older"))

        def proc(sim):
            yield sim.timeout(0.001)
            order.append("process")

        sim.spawn(proc(sim))
        sim.run()
        assert order == ["heap-older", "process"]


class TestSleepVsTimeout:
    @staticmethod
    def _history(use_sleep, seed=11, processes=3, steps=25):
        sim = Simulator(seed=seed)
        history = []

        def pacer(sim, index):
            stream = f"pacer-{index}"
            for step in range(steps):
                delay = sim.rng.jitter(stream, 0.002 * (index + 1), 0.5)
                if use_sleep:
                    yield sim.sleep(delay)
                else:
                    yield sim.timeout(delay)
                history.append((index, step, round(sim.now, 12)))

        for index in range(processes):
            sim.spawn(pacer(sim, index), name=f"pacer-{index}")
        sim.run()
        return history, sim.now

    def test_sleep_history_identical_to_timeout(self):
        timeout_history, timeout_end = self._history(use_sleep=False)
        sleep_history, sleep_end = self._history(use_sleep=True)
        assert sleep_history == timeout_history
        assert sleep_end == timeout_end

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_sleep_equivalence_across_seeds(self, seed):
        timeout_history, _ = self._history(use_sleep=False, seed=seed,
                                           processes=2, steps=10)
        sleep_history, _ = self._history(use_sleep=True, seed=seed,
                                         processes=2, steps=10)
        assert sleep_history == timeout_history

    def test_negative_sleep_raises(self):
        sim = Simulator(seed=1)
        with pytest.raises(SimTimeError):
            sim.sleep(-0.1)

    @pytest.mark.parametrize(
        "kinds", ["tt", "ss", "ts", "st", "tst", "sts"])
    def test_equal_instants_wake_in_spawn_order(self, kinds):
        # the regression: a queued sleep used to step at pop while a
        # timeout took a second hop through the now-queue, so in "ts"
        # the sleeper (spawned second) finished first
        sim = Simulator(seed=1)
        finished = []

        def proc(sim, index, kind):
            yield sim.sleep(1.0) if kind == "s" else sim.timeout(1.0)
            finished.append(index)

        for index, kind in enumerate(kinds):
            sim.spawn(proc(sim, index, kind))
        sim.run()
        assert finished == list(range(len(kinds)))

    def test_stale_resume_does_not_wake_a_sleeper(self):
        # an event delivery and an interrupt land at one instant: the
        # delivery consumes the interrupt, the interrupt's own resume
        # arrives afterwards with nothing to deliver and must not cut
        # the sleep the handler started (it never cut a timeout)
        sim = Simulator(seed=1)
        event = sim.event()
        log = []

        def waiter(sim):
            try:
                yield event
            except Interrupted:
                log.append(("interrupted", sim.now))
            yield sim.sleep(5.0)
            log.append(("woke", sim.now))

        process = sim.spawn(waiter(sim))

        def both():
            event.succeed()
            process.interrupt()

        sim.call_after(1.0, both)
        sim.run()
        assert log == [("interrupted", 1.0), ("woke", 6.0)]


class TestFastForwardGuards:
    """A lone sleeper advances the clock in place; every condition that
    forbids it must leave exactly the queued schedule."""

    def test_run_until_lands_inside_a_sleep(self):
        sim = Simulator(seed=1)
        woke = []

        def proc(sim):
            yield sim.sleep(10.0)
            woke.append(sim.now)

        process = sim.spawn(proc(sim))
        assert sim.run(until=4.0) == 4.0
        assert process.alive and not woke
        sim.run()
        assert woke == [10.0]  # the original instant, not 4 + 10

    def test_stop_inside_a_step_is_honoured_before_the_next_pause(self):
        sim = Simulator(seed=1)
        woke = []

        def proc(sim):
            sim.stop()
            yield sim.sleep(5.0)
            woke.append(sim.now)

        sim.spawn(proc(sim))
        assert sim.run() == 0.0
        assert not woke
        assert sim.run() == 5.0
        assert woke == [5.0]

    def test_interrupt_drops_a_queued_sleepers_stale_wake(self):
        sim = Simulator(seed=1)
        log = []

        def interrupter(sim, victim):
            yield sim.sleep(2.0)
            victim[0].interrupt()

        def sleeper(sim):
            try:
                yield sim.sleep(10.0)  # queued: the interrupter is due first
            except Interrupted:
                log.append(("interrupted", sim.now))
            yield sim.sleep(20.0)  # the abandoned wake at 10 must not end it
            log.append(("woke", sim.now))

        victim = []
        sim.spawn(interrupter(sim, victim))
        victim.append(sim.spawn(sleeper(sim)))
        sim.run()
        assert log == [("interrupted", 2.0), ("woke", 22.0)]

    def test_tombstone_ahead_of_the_wake_changes_nothing(self):
        sim = Simulator(seed=1)
        seen = []
        sim.call_after(1.0, lambda: seen.append("cancelled")).cancel()

        def proc(sim, index):
            yield sim.sleep(2.0)
            seen.append((index, sim.now))

        sim.spawn(proc(sim, 0))
        sim.spawn(proc(sim, 1))
        assert sim.run(until=1.5) == 1.5  # not pulled to the tombstone
        assert seen == []
        sim.run()
        assert seen == [(0, 2.0), (1, 2.0)]

    def test_deadlock_after_a_sleep_is_still_reported(self):
        sim = Simulator(seed=1)

        def proc(sim):
            yield sim.sleep(1.0)
            yield sim.event()

        with pytest.raises(DeadlockError):
            sim.run_until_complete(sim.spawn(proc(sim)))
        assert sim.now == 1.0


class TestRunUntilCompleteTiling:
    """Both ways of waiting: a lone sleeper is the in-place clock
    advance's candidate, and the deadline must stop it too."""

    @staticmethod
    def _pausing(use_sleep):
        sim = Simulator(seed=1)

        def proc(sim):
            yield sim.sleep(100.0) if use_sleep else sim.timeout(100.0)

        return sim, sim.spawn(proc(sim))

    def test_timeout_advances_clock_to_deadline(self):
        for use_sleep in (False, True):
            sim, process = self._pausing(use_sleep)
            with pytest.raises(SimTimeError):
                sim.run_until_complete(process, timeout=1.0)
            assert sim.now == 1.0  # the deadline, not the wake beyond it

    def test_repeated_timeouts_tile_time(self):
        # the regression: before the fix the clock stuck at the last
        # *event* time, so back-to-back timeouts measured from a stale
        # now and the deadlines drifted earlier than wall of the caller
        for use_sleep in (False, True):
            sim, process = self._pausing(use_sleep)
            for expected in (1.0, 2.5, 3.5):
                with pytest.raises(SimTimeError):
                    sim.run_until_complete(
                        process, timeout=expected - sim.now)
                assert sim.now == expected
            # the same tiling run(until=...) guarantees
            assert sim.run(until=4.0) == 4.0


class TestCancelledTombstones:
    def test_cancelled_handle_does_not_mask_deadlock(self):
        # the satellite's motivating bug: a cancelled handle used to
        # count as pending work, so run_until_complete span forever
        # (or mis-reported) instead of raising DeadlockError
        sim = Simulator(seed=1)
        handle = sim.call_after(5.0, lambda: None)
        handle.cancel()

        def waits_forever(sim):
            yield sim.event()

        with pytest.raises(DeadlockError):
            sim.run_until_complete(sim.spawn(waits_forever(sim)))

    def test_dropping_tombstone_does_not_advance_clock(self):
        sim = Simulator(seed=1)
        handle = sim.call_after(10.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.now == 2.0
