"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields *waitables*:

* an :class:`~repro.simulation.events.Event` (including ``Timeout``,
  ``AnyOf``) — the process resumes when it fires;
* another :class:`Process` — the process resumes when it terminates
  (join semantics) and receives its return value;
* ``sim.sleep(d)`` — a plain pause: the process resumes ``d`` seconds
  later, when and in the order a ``sim.timeout(d)`` would resume it;
* ``None`` — yield control for one scheduler step at the current time.

``return value`` inside the generator sets the process result, delivered
to joiners and readable via :attr:`Process.result` after termination.

Processes can be interrupted: :meth:`interrupt` raises
:class:`~repro.errors.Interrupted` inside the generator at its current
wait point.
"""

from __future__ import annotations

import itertools
from heapq import heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import Interrupted, ProcessError
from repro.simulation.events import (KIND_SLEEP, PENDING, SUCCEEDED, Event,
                                     SleepRequest)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator

_process_ids = itertools.count(1)

ProcessGenerator = Generator[object, object, object]


class Process:
    """A running simulation process.

    Do not instantiate directly; use :meth:`Simulator.spawn`.
    """

    __slots__ = ("sim", "name", "process_id", "_generator", "_terminated",
                 "_waiting_on", "_interrupts", "_step_ref")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"spawn() needs a generator, got {type(generator).__name__};"
                " did you forget to call the generator function?")
        self.sim = sim
        self.process_id = next(_process_ids)
        self.name = name or f"process-{self.process_id}"
        self._generator = generator
        self._terminated: Event = Event(sim, name=f"{self.name}.terminated")
        #: the event — or queued :class:`SleepRequest` — this process
        #: is parked on; a wake-up for anything else is stale
        self._waiting_on: Optional[object] = None
        self._interrupts: list[Interrupted] = []
        #: one reusable bound method — registering a wait callback no
        #: longer allocates a method object per step
        self._step_ref = self._step

    # -- inspection ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True until the generator returns or raises."""
        return self._terminated.pending

    @property
    def result(self) -> object:
        """The generator's return value; raises if still alive or failed."""
        value = self._terminated.value
        if not self._terminated.ok:
            raise value  # type: ignore[misc]
        return value

    def join(self) -> Event:
        """Event that fires (with the result) when this process ends.

        Yield the process itself for the same effect; ``join()`` exists for
        combining with :class:`AnyOf`.
        """
        return self._terminated

    # -- control ---------------------------------------------------------

    def interrupt(self, cause: object = None) -> None:
        """Raise :class:`Interrupted` inside the process at its wait point.

        Interrupting a dead process is an error; interrupting a process
        that has not started yet delivers the interrupt at its first wait.
        """
        if not self.alive:
            raise ProcessError(f"cannot interrupt dead {self!r}")
        self._interrupts.append(Interrupted(cause))
        self.sim._schedule_resume(self, None)

    # -- kernel interface --------------------------------------------------

    def _step(self, fired: Optional[object]) -> None:
        """Advance the generator by one yield.  Called only by the kernel."""
        if self._terminated._state != PENDING:  # dead (inlined .alive)
            return
        # Ignore stale wakeups: a resume for anything but the wait we
        # are parked on (an AnyOf child that lost the race after an
        # interrupt re-armed the wait, the wake of an abandoned sleep)
        # is dropped; only an interrupt cuts a wait short.
        if fired is not self._waiting_on and \
                (fired is not None or not self._interrupts):
            return
        self._waiting_on = None
        sim = self.sim
        generator = self._generator
        try:
            if self._interrupts:
                interrupt = self._interrupts.pop(0)
                target = generator.throw(interrupt)
            elif fired is None:
                target = generator.send(None)
            elif fired._state == SUCCEEDED:
                # a delivered event is triggered by construction, so its
                # value/state can be read without the property guards
                target = generator.send(fired._value)
            else:
                target = generator.throw(fired._value)  # type: ignore[arg-type]
            while type(target) is SleepRequest:
                when = sim._now + target.delay
                heap = sim._queue
                if sim._nowq or when > sim._horizon \
                        or (heap and heap[0][0] <= when):
                    # something else is due first, or the run ends
                    # first: park on the request and queue its wake-up
                    self._waiting_on = target
                    if when == sim._now:
                        sim._nowq.append(
                            (next(sim._sequence), KIND_SLEEP, self, target))
                    else:
                        heappush(heap, (when, next(sim._sequence),
                                        KIND_SLEEP, self, target))
                    return
                # nothing can run before this wake-up: popping it would
                # set the clock and re-enter here, so do exactly that
                sim._now = when
                target = generator.send(None)
        except StopIteration as stop:
            self._terminated.succeed(stop.value)
            return
        except Interrupted as exc:
            # An un-caught interrupt terminates the process "normally"
            # with the interrupt as its failure.
            self._terminated.fail(exc)
            return
        except Exception as exc:  # noqa: BLE001 - propagate to joiners
            if not self.sim.capture_process_errors:
                raise
            self._terminated.fail(exc)
            return
        # inlined _wait_for fast path: waiting on an event (timeouts
        # dominate) registers the one reusable bound method directly
        if isinstance(target, Event):
            if target.sim is not self.sim:
                self._terminated.fail(ProcessError(
                    f"{self!r} waited on {target!r} from another "
                    "simulator"))
                return
            self._waiting_on = target
            if target._state == PENDING:
                callbacks = target._callbacks
                if callbacks is None:
                    target._callbacks = [self._step_ref]
                else:
                    callbacks.append(self._step_ref)
            else:
                self.sim._schedule_callback(target, self._step_ref)
            return
        self._wait_for(target)

    def _wait_for(self, target: object) -> None:
        """Handle the non-:class:`Event` waitables a process can yield.

        The Event and sleep cases — the hot paths — are inlined in
        :meth:`_step`.
        """
        if target is None:
            # Bare yield: resume in the same timestep after queued events.
            self.sim._schedule_resume(self, None)
            return
        if isinstance(target, Process):
            join = target.join()
            if join.sim is not self.sim:
                self._terminated.fail(ProcessError(
                    f"{self!r} waited on {join!r} from another simulator"))
                return
            self._waiting_on = join
            join.add_callback(self._step_ref)
            return
        self._generator.close()
        self._terminated.fail(ProcessError(
            f"{self!r} yielded {target!r}; processes may only yield "
            "events, processes, or None"))

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<Process#{self.process_id} {self.name!r} {state}>"
