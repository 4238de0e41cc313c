"""The discrete-event simulator kernel.

:class:`Simulator` owns the virtual clock and the event queue.  All other
subsystems (storage array, container platform, databases, operators) run
as generator processes inside one simulator, which makes every experiment
deterministic and repeatable for a given seed.

Typical usage::

    sim = Simulator(seed=7)

    def hello(sim):
        yield sim.sleep(1.5)
        return "done at %.1f" % sim.now

    proc = sim.spawn(hello(sim), name="hello")
    sim.run()
    assert sim.now == 1.5 and proc.result == "done at 1.5"

Scheduling internals (see docs/performance.md, "Kernel scheduling"):
queue entries are typed ``(when, seq, kind, a, b)`` tuples dispatched by
a switch in :meth:`Simulator.run` — no per-event closure allocation —
and zero-delay work (event callbacks, process resumes, ``timeout(0)``)
bypasses the heap through a FIFO *now-queue*.  A single sequence counter
spans both structures, so firing order at any timestamp is exactly the
scheduling order the heap-only kernel produced.  A ``sim.sleep`` nothing
else could run before enters neither: the process advances the clock.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import DeadlockError, ProcessError, SimTimeError
from repro.simulation.events import (KIND_CALL, KIND_CALLBACK, KIND_RESUME,
                                     KIND_SLEEP, KIND_TIMEOUT, PENDING,
                                     SUCCEEDED, AnyOf, CallbackHandle,
                                     Event, SleepRequest, Timeout)
from repro.simulation.process import Process, ProcessGenerator
from repro.simulation.rng import RngRegistry
from repro.telemetry import Telemetry

# short aliases for the typed queue-entry kinds (events.py is the
# single source of truth); ``run`` dispatches on these small ints
# instead of calling a per-event closure — closure allocation used to
# dominate the scheduling hot path
_TIMEOUT = KIND_TIMEOUT    # a = Event to succeed, b = success value
_CALLBACK = KIND_CALLBACK  # a = callable, b = Event passed as argument
_RESUME = KIND_RESUME      # a = Process, b = fired Event (or None)
_CALL = KIND_CALL          # a = CallbackHandle from call_at, b unused
_SLEEP = KIND_SLEEP        # a = Process, b = its due SleepRequest


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named RNG streams (see :class:`RngRegistry`).
        Two simulators with the same seed and the same program produce
        identical histories.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        #: time-ordered heap of (when, seq, kind, a, b) entries
        self._queue: list = []
        #: FIFO of (seq, kind, a, b) entries due at the current instant
        self._nowq: deque = deque()
        self._sequence = itertools.count()
        self.rng = RngRegistry(seed)
        #: per-simulation observability context (metrics + spans); see
        #: :mod:`repro.telemetry`
        self.telemetry = Telemetry(clock=lambda: self._now)
        #: When true (default) a process whose generator raises stores the
        #: exception on its termination event instead of crashing ``run``.
        self.capture_process_errors = True
        self._stopped = False
        #: latest instant the current run may advance the clock to
        #: (``until``, the ``run_until_complete`` deadline, -inf after
        #: ``stop()``): a sleep ending beyond it is queued, not skipped
        self._horizon = float("inf")

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None,
                name: str = "") -> Timeout:
        """Event that fires ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value=value, name=name)

    def sleep(self, delay: float) -> SleepRequest:
        """Plain pause: resume the yielding process after ``delay``.

        The one way to pause: the process resumes at the instant and
        in the order ``yield sim.timeout(d)`` would have resumed it,
        whatever else is scheduled.  When nothing else could run first
        (empty now-queue, nothing in the heap due at or before the
        wake-up, the wake-up inside the run's ``until``/``timeout``, no
        ``stop()``) the clock advances in place; otherwise the wake-up
        is queued and takes a timeout's two hops.  Use :meth:`timeout`
        when the wait is raced (``any_of``), named, or carries a value.
        """
        if delay < 0:
            raise SimTimeError(f"negative sleep delay: {delay}")
        return SleepRequest(delay)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fired successfully."""
        return AnyOf(self, events)

    # -- processes ---------------------------------------------------------

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        process = Process(self, generator, name=name)
        self._nowq.append((next(self._sequence), _RESUME, process, None))
        return process

    # -- direct scheduling ---------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> CallbackHandle:
        """Run ``fn()`` at absolute simulated time ``when``.

        Returns a handle whose ``cancel()`` prevents execution.
        """
        if when < self._now:
            raise SimTimeError(
                f"cannot schedule at {when:g}, now is {self._now:g}")
        handle = CallbackHandle(fn)
        heappush(self._queue,
                       (when, next(self._sequence), _CALL, handle, None))
        return handle

    def call_after(self, delay: float,
                   fn: Callable[[], None]) -> CallbackHandle:
        """Run ``fn()`` after ``delay`` seconds."""
        if delay < 0:
            raise SimTimeError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn)

    # -- run loop --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time at exit.  With ``until`` set, the
        clock is advanced to exactly ``until`` even if the last event
        fired earlier (so repeated ``run(until=...)`` calls tile time).
        """
        if until is not None and until < self._now:
            raise SimTimeError(
                f"cannot run until {until:g}, now is {self._now:g}")
        self._stopped = False
        self._horizon = float("inf") if until is None else until
        nowq = self._nowq
        heap = self._queue
        pop = heappop
        popleft = nowq.popleft
        append = nowq.append
        sequence = self._sequence
        # loop-local kind constants: the dispatch below runs once per
        # queue entry and global loads are measurable at that rate
        TIMEOUT, CALLBACK, RESUME, SLEEP, CALL = \
            _TIMEOUT, _CALLBACK, _RESUME, _SLEEP, _CALL
        while not self._stopped:
            if nowq:
                # a heap entry already due at this instant fires first
                # when it carries the older sequence number — exactly
                # the order the heap-only kernel produced
                if heap and heap[0][0] <= self._now \
                        and heap[0][1] < nowq[0][0]:
                    _when, _seq, kind, a, b = pop(heap)
                    if kind == CALL and a.cancelled:
                        continue
                else:
                    _seq, kind, a, b = popleft()
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    break
                _when, _seq, kind, a, b = pop(heap)
                if kind == CALL and a.cancelled:
                    # lazy tombstone drop: the clock does not advance to
                    # a cancelled callback's instant
                    continue
                self._now = when
            else:
                break
            if kind == TIMEOUT:
                # inlined Event.succeed (timeouts dominate the queue)
                if a._state != PENDING:
                    raise ProcessError(f"{a!r} already triggered")
                a._state = SUCCEEDED
                a._value = b
                callbacks = a._callbacks
                if callbacks:
                    a._callbacks = None
                    for callback in callbacks:
                        append((next(sequence), CALLBACK, callback, a))
            elif kind == CALLBACK:
                a(b)
            elif kind == RESUME:
                a._step(b)
            elif kind == SLEEP:
                # second hop, like a timeout's callback delivery
                append((next(sequence), RESUME, a, b))
            else:  # CALL
                fn = a.fn
                if fn is not None:
                    fn()
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def run_until_complete(self, process: Process,
                           timeout: Optional[float] = None) -> object:
        """Run until ``process`` terminates and return its result.

        Raises :class:`DeadlockError` if the event queue drains first,
        or :class:`SimTimeError` if ``timeout`` simulated seconds pass —
        in which case the clock is advanced to the deadline first, so
        repeated calls tile time the same way ``run(until=...)`` does.
        """
        deadline = None if timeout is None else self._now + timeout
        self._horizon = float("inf") if deadline is None else deadline
        nowq = self._nowq
        heap = self._queue
        pop = heappop
        popleft = nowq.popleft
        append = nowq.append
        sequence = self._sequence
        TIMEOUT, CALLBACK, RESUME, SLEEP, CALL = \
            _TIMEOUT, _CALLBACK, _RESUME, _SLEEP, _CALL
        terminated = process._terminated
        while terminated._state == PENDING:
            # purge cancelled call_at tombstones up front so they can
            # neither mask a real deadlock nor stretch the deadline
            while heap and heap[0][2] == CALL and heap[0][3].cancelled:
                pop(heap)
            if nowq:
                if heap and heap[0][0] <= self._now \
                        and heap[0][1] < nowq[0][0]:
                    _when, _seq, kind, a, b = pop(heap)
                    if kind == CALL and a.cancelled:
                        continue
                else:
                    _seq, kind, a, b = popleft()
            elif heap:
                when = heap[0][0]
                if deadline is not None and when > deadline:
                    self._now = deadline
                    raise SimTimeError(
                        f"{process!r} did not finish within {timeout:g}s")
                _when, _seq, kind, a, b = pop(heap)
                if kind == CALL and a.cancelled:
                    continue
                self._now = when
            else:
                raise DeadlockError(
                    f"event queue drained while {process!r} still waiting")
            if kind == TIMEOUT:
                # inlined Event.succeed (timeouts dominate the queue)
                if a._state != PENDING:
                    raise ProcessError(f"{a!r} already triggered")
                a._state = SUCCEEDED
                a._value = b
                callbacks = a._callbacks
                if callbacks:
                    a._callbacks = None
                    for callback in callbacks:
                        append((next(sequence), CALLBACK, callback, a))
            elif kind == CALLBACK:
                a(b)
            elif kind == RESUME:
                a._step(b)
            elif kind == SLEEP:
                # second hop, like a timeout's callback delivery
                append((next(sequence), RESUME, a, b))
            else:  # CALL
                fn = a.fn
                if fn is not None:
                    fn()
        return process.result

    def stop(self) -> None:
        """Make the current ``run()`` call return after this event."""
        self._stopped = True
        self._horizon = float("-inf")

    # -- kernel internals (used by Event/Process) -----------------------------

    def _schedule_callback(self, event: Event,
                           callback: Callable[[Event], None]) -> None:
        self._nowq.append((next(self._sequence), _CALLBACK, callback, event))

    def _schedule_resume(self, process: Process,
                         fired: Optional[Event]) -> None:
        self._nowq.append((next(self._sequence), _RESUME, process, fired))

    def __repr__(self) -> str:
        return (f"<Simulator now={self._now:g} "
                f"pending={len(self._queue) + len(self._nowq)}>")
