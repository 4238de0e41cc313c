"""Simulation events: the primitive futures of the discrete-event kernel.

An :class:`Event` is a one-shot future living inside a single
:class:`~repro.simulation.kernel.Simulator`.  Processes wait on events by
yielding them; the kernel resumes the process when the event fires.

Three terminal states exist:

* *pending* — created, not yet fired;
* *succeeded* — fired with a value;
* *failed* — fired with an exception (re-raised inside waiting processes).

:class:`Timeout` is an event that the kernel fires after a delay.
:class:`AnyOf` combines events.
"""

from __future__ import annotations

import itertools
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.errors import ProcessError, SimTimeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulation.kernel import Simulator

_event_ids = itertools.count(1)

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"

#: typed kernel-queue entry kinds — the single source of truth shared
#: with :mod:`repro.simulation.kernel`, which dispatches on them in its
#: run loop.  Hot constructors here push entries directly (no scheduling
#: method call) so the kinds live next to the code that emits them.
KIND_TIMEOUT = 0    # a = Event to succeed, b = success value
KIND_CALLBACK = 1   # a = callable, b = Event passed as its argument
KIND_RESUME = 2     # a = Process, b = fired Event (or None)
KIND_CALL = 3       # a = CallbackHandle from call_at, b unused
KIND_SLEEP = 4      # a = Process, b = its SleepRequest, now due


class Event:
    """A one-shot future that simulation processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Events may only be combined with and waited
        on by processes of the same simulator.
    name:
        Optional debug label shown in ``repr`` and traces.
    """

    __slots__ = ("sim", "name", "event_id", "_state", "_value", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.event_id = next(_event_ids)
        self._state = PENDING
        self._value: object = None
        # lazily created on the first waiter: most events (timeouts on
        # the scheduling hot path) have exactly zero or one callback,
        # and the empty-list allocation was measurable
        self._callbacks: Optional[list[Callable[[Event], None]]] = None

    # -- state inspection ---------------------------------------------------

    @property
    def pending(self) -> bool:
        """True while the event has not fired."""
        return self._state == PENDING

    @property
    def triggered(self) -> bool:
        """True once the event fired, successfully or not."""
        return self._state != PENDING

    @property
    def ok(self) -> bool:
        """True if the event fired successfully."""
        return self._state == SUCCEEDED

    @property
    def value(self) -> object:
        """The success value or failure exception; raises while pending."""
        if self._state == PENDING:
            raise ProcessError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Fire the event successfully, waking every waiter.

        Returns self so callers can write ``return event.succeed(v)``.
        """
        # inlined _trigger: succeed is the kernel's timeout dispatch
        # path, and the callbacks go straight into the now-queue
        if self._state != PENDING:
            raise ProcessError(f"{self!r} already triggered")
        self._state = SUCCEEDED
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            sim = self.sim
            nowq = sim._nowq
            sequence = sim._sequence
            for callback in callbacks:
                nowq.append((next(sequence), KIND_CALLBACK, callback, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception; waiters re-raise it."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(FAILED, exc)
        return self

    def _trigger(self, state: str, value: object) -> None:
        if self._state != PENDING:
            raise ProcessError(f"{self!r} already triggered")
        self._state = state
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for callback in callbacks:
                self.sim._schedule_callback(self, callback)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event fires.

        If the event already fired the callback is scheduled immediately
        (still through the event queue, preserving deterministic order).
        """
        if self._state == PENDING:
            callbacks = self._callbacks
            if callbacks is None:
                self._callbacks = [callback]
            else:
                callbacks.append(callback)
        else:
            self.sim._schedule_callback(self, callback)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}#{self.event_id}{label} {self._state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 name: str = "") -> None:
        if delay < 0:
            raise SimTimeError(f"negative timeout delay: {delay}")
        # flattened Event.__init__ (no super() dispatch) and a lazily
        # rendered debug label: timeouts dominate event allocation on
        # the scheduling hot path and both costs are measurable
        self.sim = sim
        self.name = name
        self.event_id = next(_event_ids)
        self._state = PENDING
        self._value = None
        self._callbacks = None
        self.delay = delay
        # push the typed entry directly (zero-delay timeouts take the
        # now-queue, skipping the heap entirely)
        if delay == 0.0:
            sim._nowq.append(
                (next(sim._sequence), KIND_TIMEOUT, self, value))
        else:
            heappush(sim._queue,
                     (sim._now + delay, next(sim._sequence),
                      KIND_TIMEOUT, self, value))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else f" ({self.delay:g}s)"
        return f"<{type(self).__name__}#{self.event_id}{label} {self._state}>"


class Condition(Event):
    """Base for events that fire when a set of child events satisfies a
    predicate (used by :class:`AnyOf`)."""

    __slots__ = ("events", "_unfired")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ProcessError(
                    f"{event!r} belongs to a different simulator")
        self._unfired = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            event.add_callback(self._child_fired)

    def _collect(self) -> dict[Event, object]:
        return {event: event._value for event in self.events
                if event.triggered and event.ok}

    def _child_fired(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._unfired -= 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(Condition):
    """Fires when *any* child event has fired successfully.

    The value is a dict of the already-fired children (usually one).
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._unfired < len(self.events)


class CallbackHandle:
    """Cancellation token returned by :meth:`Simulator.call_at`.

    The handle sits directly in the kernel's queue as a typed entry;
    cancelling turns that entry into a tombstone the kernel drops
    lazily at pop.
    """

    __slots__ = ("cancelled", "fn")

    def __init__(self, fn: Optional[Callable[[], None]]) -> None:
        self.cancelled = False
        self.fn = fn

    def cancel(self) -> None:
        """Prevent the scheduled callback from running (idempotent)."""
        self.cancelled = True
        self.fn = None


class SleepRequest:
    """Marker yielded to the kernel by :meth:`Simulator.sleep`.

    Not an event: nothing else can wait on it, combine it, or observe
    it — which is what lets the kernel advance the clock in place when
    nothing else is due first, and otherwise queue the wake-up without
    a :class:`Timeout` object.  Single use: the process parks on the
    request's identity, so yield it where it is made.
    """

    __slots__ = ("delay",)

    #: a due request is delivered to ``Process._step`` the way a fired
    #: timeout is: succeeded, carrying no value
    _state = SUCCEEDED
    _value = None

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def __repr__(self) -> str:
        return f"<SleepRequest {self.delay:g}s>"
