"""Discrete-event simulation kernel.

Deterministic generator-process simulator that every other subsystem of
the reproduction runs on.  Public surface:

* :class:`Simulator` — clock, event queue, process spawner.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf` — waitables (plus
  :class:`SleepRequest`, the event-free marker ``sim.sleep`` — the one
  way to pause — hands the kernel).
* :class:`Process` — spawned generator handle with join/interrupt.
* :class:`Lock`, :class:`Semaphore`, :class:`Store` — synchronisation.
* :class:`NetworkLink`, :class:`SitePair` — inter-site links.
"""

from repro.simulation.events import AnyOf, Event, SleepRequest, Timeout
from repro.simulation.kernel import Simulator
from repro.simulation.network import LinkDownError, NetworkLink, SitePair
from repro.simulation.process import Process
from repro.simulation.resources import Lock, Semaphore, Store
from repro.simulation.rng import RngRegistry, derive_seed

__all__ = [
    "AnyOf",
    "Event",
    "LinkDownError",
    "Lock",
    "NetworkLink",
    "Process",
    "RngRegistry",
    "Semaphore",
    "Simulator",
    "SitePair",
    "SleepRequest",
    "Store",
    "Timeout",
    "derive_seed",
]
