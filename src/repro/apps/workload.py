"""Order workload generator for the e-commerce application.

A closed-loop workload: ``client_count`` clients issue orders
back-to-back (optionally with exponential think time) until the
configured duration elapses; in-flight orders drain before the result is
computed.  All randomness draws from named, per-client RNG streams, so a
given seed produces an identical order stream regardless of storage
configuration — which is what makes the E1 latency comparison honest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.apps.ecommerce import EcommerceApp, OrderResult
from repro.simulation.kernel import Simulator
from repro.telemetry.metrics import LatencyRecorder, LatencySummary

#: pause inserted when a client iteration consumed no simulated time
#: (instant rejections, zero-latency devices) so closed loops always
#: make progress toward their deadline
ZERO_PROGRESS_PACING = 0.0005

#: an order asks for 1..MAX_ORDER_QTY units of one item
MAX_ORDER_QTY = 3


@dataclass(frozen=True)
class PayloadProfile:
    """Seeded generator of write payloads with a controlled shape.

    ``payload(i)`` is a pure function of ``(kind, size_bytes, seed,
    unique_payloads, i)`` — no RNG state — so two runs, or the off/on
    legs of a reduction comparison, see byte-identical write streams.

    Kinds:

    * ``"random"`` — SHA-256 keystream expansion: every payload is
      distinct and essentially incompressible (the pre-PR 9 behaviour
      of the benchmark payloads, made explicit);
    * ``"compressible"`` — a distinct per-index stamp followed by a
      highly repetitive record body, like the padded text/serialised
      rows real OLTP pages carry: every payload is unique (dedup can't
      help) but zlib shrinks it well;
    * ``"duplicate"`` — cycles a pool of ``unique_payloads`` distinct
      random payloads, like rewritten hot pages, fixed-content
      metadata blocks or re-copied ranges: most payloads are exact
      repeats, the shape fingerprint dedup exists for.
    """

    kind: str = "random"
    size_bytes: int = 512
    seed: int = 0
    #: pool size for the ``"duplicate"`` kind
    unique_payloads: int = 8

    KINDS = ("random", "compressible", "duplicate")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(
                f"kind must be one of {self.KINDS}: {self.kind!r}")
        if self.size_bytes < 1:
            raise ValueError("size_bytes must be >= 1")
        if self.unique_payloads < 1:
            raise ValueError("unique_payloads must be >= 1")

    def _random_bytes(self, tag: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < self.size_bytes:
            out += hashlib.sha256(
                b"%d:%d:%d" % (self.seed, tag, counter)).digest()
            counter += 1
        return bytes(out[:self.size_bytes])

    def payload(self, index: int) -> bytes:
        """The payload of the ``index``-th write of this profile."""
        if self.kind == "duplicate":
            return self._random_bytes(index % self.unique_payloads)
        if self.kind == "compressible":
            stamp = hashlib.sha256(
                b"%d:%d" % (self.seed, index)).hexdigest()[:16].encode()
            body = b"order-row pad=0000000000000000 status=committed "
            out = stamp + b" " + body * (
                self.size_bytes // len(body) + 1)
            return out[:self.size_bytes]
        return self._random_bytes(index)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of an order workload."""

    client_count: int = 4
    duration: float = 5.0
    rng_prefix: str = "workload"

    def __post_init__(self) -> None:
        if self.client_count < 1:
            raise ValueError("client_count must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


@dataclass
class WorkloadResult:
    """Measured outcome of one workload run."""

    duration: float
    results: List[OrderResult] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        """Orders that committed."""
        return sum(1 for r in self.results if r.accepted)

    @property
    def rejected(self) -> int:
        """Orders cleanly rejected (insufficient stock etc.)."""
        return sum(1 for r in self.results if not r.accepted)

    @property
    def throughput(self) -> float:
        """Committed orders per simulated second."""
        return self.accepted / self.duration

    def latency_summary(self) -> LatencySummary:
        """Latency distribution of committed orders."""
        recorder = LatencyRecorder("order-latency")
        for result in self.results:
            if result.accepted:
                recorder.record(result.latency)
        return recorder.summary()


def run_order_workload(sim: Simulator, app: EcommerceApp,
                       config: Optional[WorkloadConfig] = None,
                       ) -> WorkloadResult:
    """Run a workload to completion and return the measurements.

    Drives the simulator itself: spawns the clients, advances time until
    the window closes and every in-flight order drains.
    """
    config = config or WorkloadConfig()
    item_ids = sorted(app.catalog)
    results: List[OrderResult] = []
    deadline = sim.now + config.duration
    stop = False

    def client(sim: Simulator, index: int,
               ) -> Generator[object, object, None]:
        stream = f"{config.rng_prefix}.client{index}"
        while not stop and sim.now < deadline:
            before = sim.now
            item_id = sim.rng.choice(stream, item_ids)
            qty = sim.rng.randint(stream, 1, MAX_ORDER_QTY)
            result = yield from app.place_order(item_id, qty)
            results.append(result)
            if sim.now == before:
                # zero-latency iteration (instant rejection or in-memory
                # devices): pace minimally so the loop cannot spin at one
                # simulated instant
                yield sim.sleep(ZERO_PROGRESS_PACING)

    processes = [sim.spawn(client(sim, index), name=f"client-{index}")
                 for index in range(config.client_count)]
    sim.run(until=deadline)
    stop = True
    for process in processes:
        if process.alive:
            sim.run_until_complete(process)
    outcome = WorkloadResult(duration=config.duration, results=results)
    # publish the committed-order latency distribution so `repro metrics`
    # shows application-level latency next to the storage-level numbers
    order_latency = sim.telemetry.registry.summary(
        "repro_order_latency_seconds",
        help="Committed-order latency per workload", unit="seconds",
        workload=config.rng_prefix)
    for result in results:
        if result.accepted:
            order_latency.record(result.latency)
    sim.telemetry.registry.counter(
        "repro_orders_total", help="Orders by outcome",
        workload=config.rng_prefix, outcome="accepted",
    ).increment(outcome.accepted)
    sim.telemetry.registry.counter(
        "repro_orders_total", help="Orders by outcome",
        workload=config.rng_prefix, outcome="rejected",
    ).increment(outcome.rejected)
    return outcome


class BackgroundLoad:
    """An open-ended order load that survives a site disaster.

    Clients loop until :meth:`stop` is called or the storage fails under
    them (a :class:`~repro.errors.ReproError` ends the client quietly —
    exactly what happens to an application when its site dies).
    Used by the disaster experiments, which need load *in flight* at the
    disaster instant.
    """

    def __init__(self, sim: Simulator, app: EcommerceApp,
                 client_count: int = 4,
                 rng_prefix: str = "bgload") -> None:
        from repro.errors import ReproError
        self.sim = sim
        self.app = app
        self.results: List[OrderResult] = []
        self._stopped = False
        item_ids = sorted(app.catalog)

        def client(sim: Simulator, index: int):
            stream = f"{rng_prefix}.client{index}"
            while not self._stopped:
                before = sim.now
                item_id = sim.rng.choice(stream, item_ids)
                qty = sim.rng.randint(stream, 1, MAX_ORDER_QTY)
                try:
                    result = yield from app.place_order(item_id, qty)
                except ReproError:
                    return  # the site died under this client
                self.results.append(result)
                if sim.now == before:
                    yield sim.sleep(ZERO_PROGRESS_PACING)

        self._processes = [
            sim.spawn(client(sim, index), name=f"{rng_prefix}-{index}")
            for index in range(client_count)]

    def stop(self) -> None:
        """Ask the clients to finish their current order and exit."""
        self._stopped = True

    @property
    def alive_clients(self) -> int:
        """Clients still running (in-flight orders after ``stop()``)."""
        return sum(1 for process in self._processes if process.alive)

    def drain(self) -> None:
        """Stop and wait for every client to exit."""
        self.stop()
        for process in self._processes:
            if process.alive:
                self.sim.run_until_complete(process)

    @property
    def committed_gtids(self) -> List[str]:
        """Gtids of orders whose 2PC fully completed so far."""
        return list(self.app.coordinator.committed_gtids)


def issue_orders(sim: Simulator, app: EcommerceApp, count: int,
                 rng_stream: str = "orders",
                 max_qty: int = 3) -> List[OrderResult]:
    """Issue exactly ``count`` sequential orders (scenario helper)."""
    item_ids = sorted(app.catalog)
    results: List[OrderResult] = []

    def runner(sim: Simulator) -> Generator[object, object, None]:
        for _ in range(count):
            item_id = sim.rng.choice(rng_stream, item_ids)
            qty = sim.rng.randint(rng_stream, 1, max_qty)
            result = yield from app.place_order(item_id, qty)
            results.append(result)

    sim.run_until_complete(sim.spawn(runner(sim), name="order-runner"))
    return results
