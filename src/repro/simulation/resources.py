"""Synchronisation primitives for simulation processes.

* :class:`Lock` — mutual exclusion with FIFO handoff.
* :class:`Semaphore` — counted resource (``Lock`` is a semaphore of 1).
* :class:`Store` — unbounded-or-bounded FIFO channel of items; the core
  building block for request queues (e.g. a storage port's command queue,
  a controller's work queue).

All waits are events, so processes use them as ``item = yield
store.get()``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import ProcessError
from repro.simulation.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator


class Semaphore:
    """Counted resource with FIFO waiters.

    ``acquire()`` returns an event that fires when a unit is granted;
    ``release()`` hands the unit to the longest waiter if any.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.sim = sim
        self.name = name or f"semaphore@{id(self):x}"
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[Event] = deque()

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a unit."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event that fires when one unit has been granted to the caller."""
        event = self.sim.event(name=f"{self.name}.acquire")
        if self._available > 0:
            self._available -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def cancel_acquire(self, event: Event) -> bool:
        """Withdraw a pending acquire (lock-timeout support).

        Returns True when the wait was withdrawn; False when the event
        is not waiting here — including the race where the unit was
        granted at the same instant, in which case the caller owns the
        unit and must release it.
        """
        if event.triggered:
            return False
        try:
            self._waiters.remove(event)
        except ValueError:
            return False
        return True

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if present."""
        if self._waiters:
            self._waiters.popleft().succeed()
            return
        if self._available >= self.capacity:
            raise ProcessError(f"{self.name}: release without acquire")
        self._available += 1


class Lock(Semaphore):
    """Mutual exclusion: a semaphore with capacity 1."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        super().__init__(sim, capacity=1, name=name or f"lock@{id(self):x}")

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._available == 0


class Store:
    """FIFO channel of items with optional capacity bound.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately if there is room).  ``get()`` returns an event that fires
    with the oldest item once one is available.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.sim = sim
        self.name = name or f"store@{id(self):x}"
        self.capacity = capacity
        self._items: Deque[object] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, object]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> Event:
        """Offer ``item``; the returned event fires once it is enqueued."""
        event = self.sim.event(name=f"{self.name}.put")
        if self._getters:
            # Hand the item straight to the oldest getter.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Event that fires with the oldest item."""
        event = self.sim.event(name=f"{self.name}.get")
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None
                              or len(self._items) < self.capacity):
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()
