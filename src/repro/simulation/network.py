"""Inter-site network link model.

The paper's two storage arrays are connected by a replication network
(§IV-A).  The difference between synchronous and asynchronous data copy is
*whether the foreground ack waits on this link*, so the link model is the
axis most experiments sweep.

:class:`NetworkLink` models a unidirectional link with:

* fixed propagation latency,
* optional bandwidth (bytes/second) producing size-dependent serialisation
  delay and an explicit shared FIFO serialisation queue on the sender
  side: concurrent transfers (the pipelined ADC window keeps several in
  flight) contend for one wire in arrival order instead of each seeing
  the full pipe — :attr:`NetworkLink.queue_depth` and
  :attr:`NetworkLink.peak_queue_depth` expose the contention,
* optional uniform jitter on the propagation latency — arrival times are
  clamped to be monotone per link, so jitter never reorders transfers
  (the wire is FIFO),
* fail/partition support (transfers raise :class:`LinkDownError`; a
  transfer already in flight is interrupted *promptly* at the failure
  instant, not after its full nominal delay),
* degradation ("brownout") support for fault injection: extra propagation
  latency and a per-transfer loss fraction
  (:meth:`NetworkLink.degrade`); lost transfers raise
  :class:`TransferDroppedError` after their full delay, exactly like a
  dropped packet whose sender times out.

``transfer(payload_bytes)`` is a process-style generator: ``yield from
link.transfer(n)`` completes when the last byte arrives at the far end.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import SimulationError
from repro.simulation.events import Event
from repro.simulation.resources import Lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator


class LinkDownError(SimulationError):
    """A transfer was attempted (or in flight) while the link was down."""


class TransferDroppedError(LinkDownError):
    """A degraded (brownout) link dropped this transfer's payload.

    Subclasses :class:`LinkDownError` so retry loops written for
    partitions handle brownouts identically: the payload never arrived.
    """


class NetworkLink:
    """A unidirectional network link between two sites.

    Parameters
    ----------
    sim:
        Owning simulator.
    latency:
        One-way propagation delay in seconds.
    bandwidth_bytes_per_s:
        Serialisation bandwidth; ``None`` means infinite (latency only).
    jitter_fraction:
        Uniform +/- fraction applied to the propagation latency per
        transfer (0 disables jitter).
    name:
        Label used for the RNG stream and metrics.
    """

    def __init__(self, sim: "Simulator", latency: float,
                 bandwidth_bytes_per_s: float | None = None,
                 jitter_fraction: float = 0.0,
                 name: str = "link") -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if bandwidth_bytes_per_s is not None and bandwidth_bytes_per_s <= 0:
            raise ValueError(f"bandwidth must be > 0: {bandwidth_bytes_per_s}")
        if not 0 <= jitter_fraction < 1:
            raise ValueError(f"jitter_fraction must be in [0,1): {jitter_fraction}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth_bytes_per_s
        self.jitter_fraction = jitter_fraction
        self._up = True
        self._serialiser = Lock(sim, name=f"{name}.serialiser")
        #: fires when the link fails; in-flight transfers wait on it so a
        #: ``fail()`` interrupts them at the failure instant
        self._down_event: Event = Event(sim, name=f"{name}.down")
        #: arrival time of the most recent delivery; propagation jitter
        #: is clamped so arrivals stay monotone (FIFO wire)
        self._last_arrival = 0.0
        #: degradation (brownout) state, see :meth:`degrade`
        self.extra_latency = 0.0
        self.loss_fraction = 0.0
        #: cumulative bytes moved (for experiment reporting)
        self.bytes_transferred = 0
        #: number of completed transfers
        self.transfer_count = 0
        #: transfers dropped while degraded
        self.transfers_dropped = 0
        #: deepest the serialisation queue ever got (transfers holding
        #: or waiting for the wire at once); 0 on a latency-only link
        self.peak_queue_depth = 0
        # registry mirrors of queue_depth/peak_queue_depth: the current
        # depth samples at a bounded cadence (a busy wire would
        # otherwise record one point per transfer), the peak on every
        # new high-water mark (monotone, so only a handful of points)
        registry = sim.telemetry.registry
        self.queue_depth_gauge = registry.gauge(
            "repro_link_queue_depth",
            help="Transfers holding or queued for the link's FIFO "
                 "serialisation stage", unit="transfers", link=name)
        self.peak_queue_depth_gauge = registry.gauge(
            "repro_link_peak_queue_depth",
            help="High-water mark of the link's serialisation queue",
            unit="transfers", link=name)
        self._queue_sampled_at = float("-inf")

    #: minimum simulated-time spacing between queue-depth samples
    QUEUE_SAMPLE_INTERVAL = 0.01

    def _sample_queue(self, depth: int) -> None:
        now = self.sim.now
        if now - self._queue_sampled_at >= self.QUEUE_SAMPLE_INTERVAL:
            self._queue_sampled_at = now
            self.queue_depth_gauge.sample(now, depth)

    @property
    def queue_depth(self) -> int:
        """Transfers currently holding or queued for the serialisation
        stage of the shared wire (0 on a latency-only link).

        The queue is strictly FIFO: :class:`~repro.simulation.resources.
        Lock` wakes waiters in arrival order, so transfer N+1 never
        starts serialising — and therefore never arrives — before
        transfer N.
        """
        if self.bandwidth is None:
            return 0
        return self._serialiser.queue_length + \
            (1 if self._serialiser.locked else 0)

    @property
    def is_up(self) -> bool:
        """True while the link carries traffic."""
        return self._up

    def fail(self) -> None:
        """Cut the link: current and future transfers raise LinkDownError.

        Transfers sleeping in their serialisation or propagation leg are
        woken at this instant and observe the failure immediately.
        """
        if not self._up:
            return
        self._up = False
        self._down_event.succeed("link failed")

    def restore(self) -> None:
        """Bring the link back up."""
        if self._up:
            return
        self._up = True
        self._down_event = Event(self.sim, name=f"{self.name}.down")

    def degrade(self, extra_latency: float = 0.0,
                loss_fraction: float = 0.0) -> None:
        """Brown out the link: add propagation latency and/or loss.

        ``loss_fraction`` is the per-transfer drop probability; dropped
        transfers raise :class:`TransferDroppedError` after their full
        delay (the sender only learns of the loss by timeout).
        """
        if extra_latency < 0:
            raise ValueError(f"negative extra latency: {extra_latency}")
        if not 0 <= loss_fraction <= 1:
            raise ValueError(
                f"loss_fraction must be in [0,1]: {loss_fraction}")
        self.extra_latency = extra_latency
        self.loss_fraction = loss_fraction

    def clear_degradation(self) -> None:
        """End a brownout (latency and loss back to nominal)."""
        self.extra_latency = 0.0
        self.loss_fraction = 0.0

    def one_way_delay(self) -> float:
        """Sample the propagation delay for one message (with jitter)."""
        if self.jitter_fraction == 0:
            return self.latency
        return self.sim.rng.jitter(
            f"net.{self.name}", self.latency, self.jitter_fraction)

    def _interruptible_wait(self, delay: float, leg: str,
                            ) -> Generator[object, object, None]:
        """Sleep ``delay`` seconds unless the link fails first.

        Raises :class:`LinkDownError` at the failure instant, so a
        mid-flight ``fail()`` is observed promptly on both the
        serialisation and propagation legs.
        """
        if not self._up:
            raise LinkDownError(
                f"{self.name} went down mid-transfer ({leg})")
        timeout = self.sim.timeout(delay)
        yield self.sim.any_of([timeout, self._down_event])
        if not self._up:
            raise LinkDownError(
                f"{self.name} went down mid-transfer ({leg})")

    def transfer(self, payload_bytes: int) -> Generator[object, object, float]:
        """Move ``payload_bytes`` across the link (process generator).

        Returns the total elapsed transfer time.  Serialisation delay is
        FIFO-serialised across concurrent transfers (one wire); the
        propagation leg overlaps with other transfers but arrivals stay
        monotone (jitter never delivers transfer N+1 before transfer N).
        """
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        if not self._up:
            raise LinkDownError(f"{self.name} is down")
        start = self.sim.now
        if self.bandwidth is not None and payload_bytes > 0:
            depth = self.queue_depth + 1  # this transfer joins the queue
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
                self.peak_queue_depth_gauge.sample(self.sim.now, depth)
            self._sample_queue(depth)
            yield self._serialiser.acquire()
            try:
                yield from self._interruptible_wait(
                    payload_bytes / self.bandwidth, "serialisation")
            finally:
                self._serialiser.release()
                self._sample_queue(self.queue_depth)
        delay = self.one_way_delay() + self.extra_latency
        # FIFO clamp: a short jitter draw may not undercut the arrival
        # time of the previous delivery on this link
        arrival = max(self.sim.now + delay, self._last_arrival)
        wait = arrival - self.sim.now
        # the float round-trip now + (arrival - now) can land one ulp
        # before the previous delivery; nudge until the actual fire
        # instant is monotone, and record that instant as the arrival
        while wait > 0 and self.sim.now + wait < self._last_arrival:
            wait = math.nextafter(wait, math.inf)
        self._last_arrival = self.sim.now + wait
        if wait > 0:
            yield from self._interruptible_wait(wait, "propagation")
        if not self._up:
            raise LinkDownError(f"{self.name} went down mid-transfer")
        if self.loss_fraction > 0 and self.sim.rng.uniform(
                f"net.{self.name}.loss", 0.0, 1.0) < self.loss_fraction:
            self.transfers_dropped += 1
            raise TransferDroppedError(
                f"{self.name} dropped {payload_bytes}B transfer "
                f"(brownout loss {self.loss_fraction:g})")
        self.bytes_transferred += payload_bytes
        self.transfer_count += 1
        return self.sim.now - start

    def __repr__(self) -> str:
        state = "up" if self._up else "DOWN"
        if self._up and (self.extra_latency or self.loss_fraction):
            state = "DEGRADED"
        return (f"<NetworkLink {self.name!r} {state} "
                f"latency={self.latency:g}s bw={self.bandwidth}>")


class SitePair:
    """Convenience bundle of the two directed links between two sites."""

    def __init__(self, sim: "Simulator", latency: float,
                 bandwidth_bytes_per_s: float | None = None,
                 jitter_fraction: float = 0.0,
                 name: str = "intersite") -> None:
        self.forward = NetworkLink(
            sim, latency, bandwidth_bytes_per_s, jitter_fraction,
            name=f"{name}.fwd")
        self.backward = NetworkLink(
            sim, latency, bandwidth_bytes_per_s, jitter_fraction,
            name=f"{name}.bwd")

    def fail(self) -> None:
        """Partition the sites in both directions."""
        self.forward.fail()
        self.backward.fail()

    def restore(self) -> None:
        """Heal the partition."""
        self.forward.restore()
        self.backward.restore()

    def degrade(self, extra_latency: float = 0.0,
                loss_fraction: float = 0.0) -> None:
        """Brown out both directions."""
        self.forward.degrade(extra_latency, loss_fraction)
        self.backward.degrade(extra_latency, loss_fraction)

    def clear_degradation(self) -> None:
        """End the brownout in both directions."""
        self.forward.clear_degradation()
        self.backward.clear_degradation()
