"""In-memory API server with optimistic concurrency and watches.

The server is the hub of the simulated container platform: controllers
and the namespace operator communicate exclusively through it, exactly as
on a real cluster.  Semantics reproduced:

* **CRUD with resource versions** — ``update`` fails with
  :class:`~repro.errors.ConflictError` unless the caller presents the
  current resource version; every mutation bumps a server-wide version
  counter.
* **Watches** — a watch is an unbounded event queue fed by every
  mutation of a kind; delivery is asynchronous through the simulator, so
  controllers observe changes with realistic scheduling, not by magic
  shared state.
* **Create and update only** — the control plane runs in the protect
  direction (tag → discover → pair), so objects are never deleted and a
  watch carries ``ADDED`` and ``MODIFIED`` events only.

Objects are deep-copied on the way in and out; holding a returned object
never aliases server state.
"""

from __future__ import annotations

import copy
import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Type, TypeVar

from repro.errors import (AlreadyExistsError, ConflictError,
                          NotFoundError, UnavailableError)
from repro.platform.objects import ApiObject, ObjectKey
from repro.simulation.kernel import Simulator
from repro.simulation.resources import Store

T = TypeVar("T", bound=ApiObject)


class ApiFaultInjector:
    """Deterministic fault injection at the API-server admission point.

    Control-plane chaos faults install one on :attr:`ApiServer.chaos`;
    every request then passes through :meth:`admit` *before touching any
    state*, so an injected failure is always fail-closed — the request
    never half-applies.  Three knobs:

    * ``outage`` — every call raises :class:`UnavailableError` (a hard
      API-server outage window);
    * ``flake_probability`` — each call independently raises
      :class:`UnavailableError` with this probability (seed-
      deterministic, drawn from the named RNG stream);
    * ``conflict_probability`` — each *mutating* call independently
      raises :class:`ConflictError`, modelling a stale-cache write
      racing another actor.
    """

    #: verbs that mutate server state (conflict injection targets these)
    MUTATING = frozenset({"create", "update"})

    def __init__(self, sim: Simulator, stream: str = "chaos.api") -> None:
        self.sim = sim
        self.stream = stream
        self.outage = False
        self.flake_probability = 0.0
        self.conflict_probability = 0.0
        #: total faults injected (timeline bookkeeping for campaigns)
        self.injected = 0

    def admit(self, verb: str, detail: str = "") -> None:
        """Raise the injected failure for this request, if any."""
        error: Optional[Exception] = None
        kind = ""
        if self.outage:
            error = UnavailableError(
                f"api server unavailable ({verb} {detail})")
            kind = "outage"
        elif self.flake_probability and self.sim.rng.uniform(
                self.stream, 0.0, 1.0) < self.flake_probability:
            error = UnavailableError(
                f"api server flaked ({verb} {detail})")
            kind = "flake"
        elif self.conflict_probability and verb in self.MUTATING and \
                self.sim.rng.uniform(self.stream, 0.0, 1.0) < \
                self.conflict_probability:
            error = ConflictError(
                f"injected write conflict ({verb} {detail})")
            kind = "conflict"
        if error is None:
            return
        self.injected += 1
        self.sim.telemetry.registry.counter(
            "repro_api_faults_injected_total",
            help="API-server faults injected by chaos campaigns",
            verb=verb, kind=kind).increment()
        raise error


class EventType(enum.Enum):
    """Watch event types."""

    ADDED = "ADDED"
    MODIFIED = "MODIFIED"


@dataclass(frozen=True)
class WatchEvent:
    """One delivered watch event: the type and an object snapshot."""

    type: EventType
    object: ApiObject

    @property
    def key(self) -> ObjectKey:
        """Identity of the object the event concerns."""
        return self.object.key


class WatchClosed:
    """Sentinel delivered to a severed stream's readers.

    A consumer receiving it must treat the stream as dead and re-list
    (open a fresh watch, whose replay delivers every live object as
    ``ADDED``)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<WATCH_CLOSED>"


#: the one sentinel instance every closed stream delivers
WATCH_CLOSED = WatchClosed()


class WatchStream:
    """A consumer handle over one kind's event feed."""

    def __init__(self, sim: Simulator, kind: str, name: str = "",
                 server: Optional["ApiServer"] = None) -> None:
        self.kind = kind
        self._queue = Store(sim, name=name or f"watch-{kind}")
        self._server = server
        self.closed = False

    def next_event(self):
        """Event (simulation waitable) yielding the next WatchEvent.

        After :meth:`close`, pending events drain first and then every
        read yields :data:`WATCH_CLOSED`."""
        if self.closed and not len(self._queue):
            # the sentinel was already consumed (or handed straight to a
            # blocked reader); keep reporting closure instead of
            # wedging late readers forever
            event = self._queue.sim.event(name=f"watch-{self.kind}.closed")
            event.succeed(WATCH_CLOSED)
            return event
        return self._queue.get()

    def _deliver(self, event: WatchEvent) -> None:
        if not self.closed:
            self._queue.put(event)

    def close(self) -> None:
        """Sever the stream (idempotent).

        Ordering contract (the close-during-delivery rule): an event
        already handed to a blocked reader at the closing instant is
        still delivered — closing never claws it back — and every event
        queued before the close remains readable, strictly *before* the
        :data:`WATCH_CLOSED` sentinel.  Nothing is lost and nothing is
        delivered twice; the sentinel is appended exactly once, and the
        stream is detached from the server so no further events arrive.
        """
        if self.closed:
            return
        self.closed = True
        if self._server is not None:
            self._server._detach(self)
        # the sentinel goes through the same FIFO as real events, so a
        # reader blocked mid-delivery finishes its event first and every
        # queued event is read before the closure is observed
        self._queue.put(WATCH_CLOSED)

    def __len__(self) -> int:
        return len(self._queue)


class ApiServer:
    """The cluster's object store and watch hub."""

    def __init__(self, sim: Simulator, cluster_name: str = "cluster") -> None:
        self.sim = sim
        self.cluster_name = cluster_name
        self._objects: Dict[str, Dict[ObjectKey, ApiObject]] = {}
        self._watches: Dict[str, List[WatchStream]] = {}
        self._uid_counter = itertools.count(1)
        self._rv_counter = itertools.count(1)
        #: total mutations served, for operator-efficiency experiments
        self.mutation_count = 0
        #: chaos hook: when set, every request passes admission first
        self.chaos: Optional[ApiFaultInjector] = None

    def _admit(self, verb: str, detail: str = "") -> None:
        if self.chaos is not None:
            self.chaos.admit(verb, detail)

    # -- CRUD ---------------------------------------------------------------

    def create(self, obj: T) -> T:
        """Admit a new object; returns the stored snapshot."""
        self._admit("create", str(obj.key))
        obj.validate()
        kind_store = self._objects.setdefault(obj.kind, {})
        key = obj.key
        if key in kind_store:
            raise AlreadyExistsError(f"{key} already exists")
        stored = copy.deepcopy(obj)
        stored.meta.uid = next(self._uid_counter)
        stored.meta.resource_version = next(self._rv_counter)
        stored.meta.creation_time = self.sim.now
        kind_store[key] = stored
        self.mutation_count += 1
        self._broadcast(EventType.ADDED, stored)
        return copy.deepcopy(stored)

    def get(self, cls: Type[T], name: str, namespace: str = "") -> T:
        """Fetch one object by identity; raises NotFoundError."""
        self._admit("get", f"{cls.KIND}/{namespace}/{name}")
        key = ObjectKey(cls.KIND, namespace, name)
        stored = self._objects.get(cls.KIND, {}).get(key)
        if stored is None:
            raise NotFoundError(f"{key} not found")
        return copy.deepcopy(stored)  # type: ignore[return-value]

    def try_get(self, cls: Type[T], name: str,
                namespace: str = "") -> Optional[T]:
        """Fetch one object or None (no exception)."""
        try:
            return self.get(cls, name, namespace)
        except NotFoundError:
            return None

    def list(self, cls: Type[T],
             namespace: Optional[str] = None) -> List[T]:
        """List objects of a kind, optionally filtered by namespace;
        name-sorted for determinism."""
        self._admit("list", cls.KIND)
        results = []
        for stored in self._objects.get(cls.KIND, {}).values():
            if namespace is not None and stored.meta.namespace != namespace:
                continue
            results.append(copy.deepcopy(stored))
        results.sort(key=lambda o: (o.meta.namespace, o.meta.name))
        return results  # type: ignore[return-value]

    def update(self, obj: T) -> T:
        """Replace an object; requires the current resource version."""
        self._admit("update", str(obj.key))
        obj.validate()
        stored = self._require(obj.key)
        if obj.meta.resource_version != stored.meta.resource_version:
            raise ConflictError(
                f"{obj.key}: stale resourceVersion "
                f"{obj.meta.resource_version} "
                f"(current {stored.meta.resource_version})")
        updated = copy.deepcopy(obj)
        updated.meta.uid = stored.meta.uid
        updated.meta.creation_time = stored.meta.creation_time
        updated.meta.resource_version = next(self._rv_counter)
        self._objects[obj.kind][obj.key] = updated
        self.mutation_count += 1
        self._broadcast(EventType.MODIFIED, updated)
        return copy.deepcopy(updated)

    # -- watches ---------------------------------------------------------

    def watch(self, cls: Type[T], name: str = "") -> WatchStream:
        """Open a watch on a kind; past objects are replayed as ADDED so
        late-starting controllers converge (list+watch semantics)."""
        self._admit("watch", cls.KIND)
        stream = WatchStream(self.sim, cls.KIND, name=name, server=self)
        self._watches.setdefault(cls.KIND, []).append(stream)
        for stored in self._objects.get(cls.KIND, {}).values():
            stream._deliver(WatchEvent(EventType.ADDED,
                                       copy.deepcopy(stored)))
        return stream

    def drop_watches(self, kind: Optional[str] = None) -> int:
        """Chaos hook: sever every open watch stream (of one kind, or
        all).  Consumers observe :data:`WATCH_CLOSED` after their queued
        events drain and must re-list.  Returns how many were severed."""
        kinds = [kind] if kind is not None else list(self._watches)
        dropped = 0
        for k in kinds:
            for stream in list(self._watches.get(k, [])):
                stream.close()
                dropped += 1
        return dropped

    # -- internals ------------------------------------------------------

    def _detach(self, stream: WatchStream) -> None:
        streams = self._watches.get(stream.kind, [])
        if stream in streams:
            streams.remove(stream)

    def _require(self, key: ObjectKey) -> ApiObject:
        stored = self._objects.get(key.kind, {}).get(key)
        if stored is None:
            raise NotFoundError(f"{key} not found")
        return stored

    def _broadcast(self, event_type: EventType, stored: ApiObject) -> None:
        for stream in self._watches.get(stored.kind, []):
            stream._deliver(WatchEvent(event_type, copy.deepcopy(stored)))

    def object_count(self, cls: Type[T]) -> int:
        """Number of stored objects of a kind."""
        return len(self._objects.get(cls.KIND, {}))

    def __repr__(self) -> str:
        total = sum(len(v) for v in self._objects.values())
        return f"<ApiServer {self.cluster_name!r} objects={total}>"
