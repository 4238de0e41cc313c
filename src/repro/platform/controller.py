"""Controller runtime: work queues and reconcile loops.

The namespace operator and the storage plugins are built on this runtime,
which reproduces the controller-runtime discipline of real operators:

* watches feed object *keys* into a deduplicating work queue;
* a worker process takes one key at a time and calls the reconciler;
* a reconciler is **level-triggered**: it reads the current state from
  the API server and drives the world toward it, never relying on the
  event payload;
* failures are retried with exponential backoff; a reconciler can also
  request an explicit requeue after a delay.

Reconcilers are written as process generators so their actions (array
commands, remote calls) take simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Set, Type

from repro.errors import Interrupted, UnavailableError
from repro.platform.apiserver import (WATCH_CLOSED, ApiServer, WatchEvent,
                                      WatchStream)
from repro.platform.objects import ApiObject, ObjectKey
from repro.simulation.kernel import Simulator
from repro.simulation.process import Process
from repro.simulation.resources import Store
from repro.simulation.rng import RngRegistry

#: interrupt cause used by the per-reconcile deadline watchdog, so the
#: worker can tell a timed-out reconcile apart from a controller crash
DEADLINE_EXCEEDED = "reconcile-deadline-exceeded"


@dataclass(frozen=True)
class Requeue:
    """Reconcile result asking to be called again after ``after`` seconds."""

    after: float

    def __post_init__(self) -> None:
        if self.after < 0:
            raise ValueError(f"requeue delay must be >= 0: {self.after}")


#: Reconcile generators return ``None`` (done) or a :class:`Requeue`.
ReconcileResult = Optional[Requeue]


class Reconciler:
    """Base class for reconcilers; override :meth:`reconcile`."""

    #: primary kind whose keys this reconciler receives
    kind: Type[ApiObject]
    #: additional kinds whose events requeue mapped keys
    extra_kinds: Sequence[Type[ApiObject]] = ()

    def reconcile(self, api: ApiServer, key: ObjectKey,
                  ) -> Generator[object, object, ReconcileResult]:
        """Drive the world toward the object's desired state.

        Process generator.  Raising marks the key for backoff retry.
        """
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing

    def map_event(self, api: ApiServer,
                  event: WatchEvent) -> List[ObjectKey]:
        """Map an event of an ``extra_kinds`` object to primary keys.

        Default: no mapping (secondary events ignored).
        """
        return []


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff for failed reconciles.

    ``jitter`` desynchronises retry storms: when many keys fail at the
    same instant (an API-server outage heals, a controller restarts),
    pure exponential backoff retries them all in lock-step.  With
    ``jitter > 0`` each delay is perturbed by up to +/- that fraction of
    itself, drawn from a named seeded RNG stream — so the spread is
    deterministic per seed.  ``budget`` caps retries per key: once a key
    fails more than ``budget`` times in a row it is dropped until the
    next watch event re-triggers it (``None`` = retry forever).
    """

    initial: float = 0.005
    factor: float = 2.0
    maximum: float = 1.0
    jitter: float = 0.0
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1: {self.budget}")

    def delay(self, failures: int, rng: Optional[RngRegistry] = None,
              stream: str = "controller.backoff") -> float:
        """Backoff before retry number ``failures`` (1-based).

        Pass the simulator's RNG registry (and a per-controller stream
        name) to apply the seeded jitter; without one the delay is the
        pure exponential value, preserving historical behaviour.
        """
        if failures < 1:
            raise ValueError("failures must be >= 1")
        base = min(self.initial * self.factor ** (failures - 1),
                   self.maximum)
        if self.jitter and rng is not None:
            return rng.jitter(stream, base, self.jitter)
        return base

    def exhausted(self, failures: int) -> bool:
        """True when the retry budget does not allow retry ``failures``."""
        return self.budget is not None and failures > self.budget


class Controller:
    """One reconciler wired to watches and a worker process."""

    def __init__(self, sim: Simulator, api: ApiServer,
                 reconciler: Reconciler, name: str = "",
                 backoff: Optional[BackoffPolicy] = None,
                 deadline: Optional[float] = None) -> None:
        self.sim = sim
        self.api = api
        self.reconciler = reconciler
        self.name = name or type(reconciler).__name__
        self.backoff = backoff or BackoffPolicy()
        #: wall-clock bound per reconcile invocation (None = unbounded);
        #: an over-deadline reconcile is interrupted and retried with
        #: backoff, so one wedged key cannot stall the whole queue
        self.deadline = deadline
        self._queue: Store = Store(sim, name=f"{self.name}.queue")
        self._pending: Set[ObjectKey] = set()
        self._failures: Dict[ObjectKey, int] = {}
        self._running = False
        self._procs: List[Process] = []
        self._streams: List[WatchStream] = []
        self._active_child: Optional[Process] = None
        #: reconcile invocations, for operator-efficiency experiments
        self.reconcile_count = 0
        self.error_count = 0
        self.restart_count = 0
        registry = sim.telemetry.registry
        self._reconciles_metric = registry.counter(
            "repro_reconcile_total",
            help="Reconcile invocations per controller",
            controller=self.name)
        self._errors_metric = registry.counter(
            "repro_reconcile_errors_total",
            help="Reconcile invocations that raised", controller=self.name)
        self._retries_metric = registry.counter(
            "repro_reconcile_retries_total",
            help="Failed reconciles requeued with backoff",
            controller=self.name)
        self._timeouts_metric = registry.counter(
            "repro_reconcile_timeouts_total",
            help="Reconciles interrupted at the per-reconcile deadline",
            controller=self.name)
        self._restarts_metric = registry.counter(
            "repro_controller_restarts_total",
            help="Controller restarts after a crash",
            controller=self.name)
        self._resyncs_metric = registry.counter(
            "repro_watch_resyncs_total",
            help="Watch streams re-opened after a severed watch",
            controller=self.name)
        self._exhausted_metric = registry.counter(
            "repro_reconcile_budget_exhausted_total",
            help="Keys dropped after exceeding the retry budget",
            controller=self.name)

    # -- queue -----------------------------------------------------------

    def enqueue(self, key: ObjectKey) -> None:
        """Add a key to the work queue (coalesced while pending)."""
        if key in self._pending:
            return
        self._pending.add(key)
        self._queue.put(key)

    def enqueue_after(self, key: ObjectKey, delay: float) -> None:
        """Enqueue a key after ``delay`` seconds."""
        self.sim.call_after(delay, lambda: self.enqueue(key))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Open watches and spawn the pump and worker processes."""
        if self._running:
            return
        self._running = True
        self._procs = []
        self._streams = []
        specs = [(self.reconciler.kind, True, f"{self.name}.watch",
                  f"{self.name}.pump")]
        for extra in self.reconciler.extra_kinds:
            specs.append((extra, False, f"{self.name}.watch-extra",
                          f"{self.name}.pump-extra"))
        for cls, primary, watch_name, pump_name in specs:
            # open the watch synchronously when the API server is up;
            # during an outage the pump opens it itself with retries
            try:
                stream: Optional[WatchStream] = self.api.watch(
                    cls, name=watch_name)
                self._streams.append(stream)
            except UnavailableError:
                stream = None
            self._procs.append(
                self.sim.spawn(self._pump(cls, primary, watch_name, stream),
                               name=pump_name))
        self._procs.append(
            self.sim.spawn(self._worker(), name=f"{self.name}.worker"))

    def stop(self) -> None:
        """Stop pumping and working at the next step."""
        self._running = False

    def crash(self, cause: str = "controller-crash") -> None:
        """Kill the pump and worker processes right now (chaos hook).

        In-flight reconciles are interrupted mid-step; queued keys and
        per-key failure counts are abandoned.  Recovery is level-
        triggered: :meth:`restart` re-lists the world through fresh
        watches, so every live object is requeued regardless of what the
        dead incarnation had in its queue.
        """
        if not self._running:
            return
        self._running = False
        self.sim.telemetry.recorder.record(
            "controller", "crash", controller=self.name, cause=cause)
        if self._active_child is not None and self._active_child.alive:
            self._active_child.interrupt(cause)
        self._active_child = None
        for proc in self._procs:
            if proc.alive:
                proc.interrupt(cause)
        self._procs = []
        for stream in self._streams:
            stream.close()
        self._streams = []

    def restart(self) -> None:
        """Restart after :meth:`crash` with a fresh queue and watches.

        The watch replay (list+watch) re-delivers every live object as
        ``ADDED``, which requeues all keys — the level-triggered
        recovery contract.
        """
        if self._running:
            return
        self.restart_count += 1
        self._restarts_metric.increment()
        self.sim.telemetry.recorder.record(
            "controller", "restart", controller=self.name,
            restarts=self.restart_count)
        self._queue = Store(self.sim, name=f"{self.name}.queue")
        self._pending.clear()
        self._failures.clear()
        self.start()

    # -- processes -----------------------------------------------------------

    def _open_watch(self, cls: Type[ApiObject], watch_name: str,
                    ) -> Generator[object, object, WatchStream]:
        """Open (or re-open) a watch, retrying through API outages."""
        attempts = 0
        while True:
            try:
                stream = self.api.watch(cls, name=watch_name)
            except UnavailableError:
                attempts += 1
                yield self.sim.sleep(self.backoff.delay(
                    min(attempts, 8), rng=self.sim.rng,
                    stream=f"{self.name}.watch-retry"))
                continue
            self._streams.append(stream)
            return stream

    def _pump(self, cls: Type[ApiObject], primary_kind: bool,
              watch_name: str, stream: Optional[WatchStream],
              ) -> Generator[object, object, None]:
        if stream is None:
            stream = yield from self._open_watch(cls, watch_name)
        while self._running:
            event = yield stream.next_event()
            if not self._running:
                return
            if event is WATCH_CLOSED:
                # severed watch: drop the dead stream and re-list the
                # world through a fresh one (its replay requeues every
                # live key, so nothing the dead stream lost matters)
                self._resyncs_metric.increment()
                self.sim.telemetry.recorder.record(
                    "controller", "watch_resync", controller=self.name,
                    kind=cls.KIND)
                if stream in self._streams:
                    self._streams.remove(stream)
                stream = yield from self._open_watch(cls, watch_name)
                continue
            if primary_kind:
                self.enqueue(event.key)
            else:
                for key in self.reconciler.map_event(self.api, event):
                    self.enqueue(key)

    def _reconcile_with_deadline(self, key: ObjectKey,
                                 ) -> Generator[object, object,
                                                ReconcileResult]:
        """Run one reconcile in a child process with a watchdog."""
        child = self.sim.spawn(
            self.reconciler.reconcile(self.api, key),
            name=f"{self.name}.reconcile")
        self._active_child = child
        handle = self.sim.call_after(
            self.deadline,
            lambda: child.interrupt(DEADLINE_EXCEEDED)
            if child.alive else None)
        try:
            result = yield child
        finally:
            handle.cancel()
            self._active_child = None
        return result

    def _worker(self) -> Generator[object, object, None]:
        while self._running:
            key: ObjectKey = yield self._queue.get()
            self._pending.discard(key)
            if not self._running:
                return
            self.reconcile_count += 1
            self._reconciles_metric.increment()
            try:
                if self.deadline is None:
                    result = yield from self.reconciler.reconcile(
                        self.api, key)
                else:
                    result = yield from self._reconcile_with_deadline(key)
            except Interrupted as exc:
                if exc.cause is not DEADLINE_EXCEEDED:
                    raise  # a controller crash, not a timed-out reconcile
                self._timeouts_metric.increment()
                self.sim.telemetry.recorder.record(
                    "controller", "reconcile_timeout",
                    controller=self.name, key=str(key))
                self._retry(key)
                continue
            except Exception:  # noqa: BLE001 - controller must survive
                self.error_count += 1
                self._errors_metric.increment()
                self._retry(key)
                continue
            self._failures.pop(key, None)
            if isinstance(result, Requeue):
                self.enqueue_after(key, result.after)

    def _retry(self, key: ObjectKey) -> None:
        """Failure bookkeeping: backoff requeue within the retry budget."""
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        if self.backoff.exhausted(failures):
            # dropped until the next watch event re-triggers the key
            self._exhausted_metric.increment()
            self.sim.telemetry.recorder.record(
                "controller", "retry_budget_exhausted",
                controller=self.name, key=str(key), failures=failures)
            self._failures.pop(key, None)
            return
        self._retries_metric.increment()
        self.enqueue_after(key, self.backoff.delay(
            failures, rng=self.sim.rng, stream=f"{self.name}.backoff"))


class ControllerManager:
    """Bundles the controllers of one cluster."""

    def __init__(self, sim: Simulator, api: ApiServer) -> None:
        self.sim = sim
        self.api = api
        self.controllers: List[Controller] = []

    def register(self, reconciler: Reconciler, name: str = "",
                 backoff: Optional[BackoffPolicy] = None,
                 deadline: Optional[float] = None) -> Controller:
        """Create and remember a controller for ``reconciler``."""
        controller = Controller(self.sim, self.api, reconciler, name=name,
                                backoff=backoff, deadline=deadline)
        self.controllers.append(controller)
        return controller

    def start_all(self) -> None:
        """Start every registered controller."""
        for controller in self.controllers:
            controller.start()

    def stop_all(self) -> None:
        """Stop every registered controller."""
        for controller in self.controllers:
            controller.stop()

    def crash_all(self, cause: str = "controller-crash") -> None:
        """Crash every registered controller (chaos hook)."""
        for controller in self.controllers:
            controller.crash(cause)

    def restart_all(self) -> None:
        """Restart every crashed controller."""
        for controller in self.controllers:
            controller.restart()
