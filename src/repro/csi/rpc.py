"""The storage-management RPC transport used by the CSI plugins.

Array commands in the plugin do not execute by magic method call: on a
real system they travel over the storage controller's REST interface,
where they cost latency and can **time out with the outcome unknown** —
the array may have executed the command just before the deadline passed.
:class:`RpcChannel` models exactly that:

* every call pays the configured management latency;
* an attached :class:`CsiRpcInjector` (driven by chaos campaigns) makes
  a seed-deterministic fraction of calls raise
  :class:`~repro.errors.RpcTimeoutError` — optionally *after* the
  command took effect, the ambiguous case only idempotent callers
  survive;
* ambiguous outcomes are recovered by **probing**: the caller supplies
  a read-only probe that re-reads array state, and the channel returns
  the probed result instead of blindly re-driving the side effect.

Only when the probe shows the effect did *not* apply does the channel
re-drive the command, up to its retry budget.  Callers without a probe
get the timeout raised immediately — their reconcile loop retries
level-triggered, re-entering with its own existence guards.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, TypeVar

from repro.errors import RpcTimeoutError
from repro.simulation.kernel import Simulator

T = TypeVar("T")

#: probe contract: return the (non-None) effect if it is observable on
#: the array, None if the command definitely did not apply
Probe = Callable[[], Optional[T]]


class CsiRpcInjector:
    """Deterministic fault injection for the management transport.

    ``timeout_probability`` is the chance a call raises
    :class:`RpcTimeoutError`; ``effect_probability`` is the chance —
    *given* a timeout — that the command executed before the deadline
    (the ambiguous-outcome case).  Both draws come from a named seeded
    RNG stream, so campaigns are reproducible per seed.
    """

    def __init__(self, sim: Simulator, stream: str = "chaos.csi") -> None:
        self.sim = sim
        self.stream = stream
        self.timeout_probability = 0.0
        self.effect_probability = 1.0
        #: total timeouts injected (timeline bookkeeping for campaigns)
        self.injected = 0

    def clear(self) -> None:
        """Heal: stop injecting (the injector stays installed)."""
        self.timeout_probability = 0.0
        self.effect_probability = 1.0

    def draw(self) -> Optional[bool]:
        """One fault decision: None = healthy, else whether the command
        takes effect before the injected timeout fires."""
        if not self.timeout_probability:
            return None
        if self.sim.rng.uniform(self.stream, 0.0, 1.0) >= \
                self.timeout_probability:
            return None
        self.injected += 1
        return self.sim.rng.uniform(self.stream, 0.0, 1.0) < \
            self.effect_probability


class RpcChannel:
    """One management transport to a storage array (or array pair)."""

    def __init__(self, sim: Simulator, latency: float = 0.050,
                 injector: Optional[CsiRpcInjector] = None,
                 retries: int = 2, name: str = "csi-rpc") -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if retries < 0:
            raise ValueError(f"negative retries: {retries}")
        self.sim = sim
        self.latency = latency
        self.injector = injector if injector is not None \
            else CsiRpcInjector(sim)
        self.retries = retries
        self.name = name
        self._timeouts_metric_cache: dict = {}

    def pay(self) -> Generator[object, object, None]:
        """Pay one round of management latency (no command)."""
        if self.latency > 0:
            yield self.sim.sleep(self.latency)

    def _record_timeout(self, step: str, applied: bool) -> None:
        key = (step, applied)
        metric = self._timeouts_metric_cache.get(key)
        if metric is None:
            metric = self.sim.telemetry.registry.counter(
                "repro_rpc_timeouts_total",
                help="CSI management RPCs that exceeded their deadline",
                step=step, applied="true" if applied else "false")
            self._timeouts_metric_cache[key] = metric
        metric.increment()
        self.sim.telemetry.recorder.record(
            "csi", "rpc_timeout", channel=self.name, step=step,
            applied=applied)

    def call(self, step: str, fn: Callable[[], T],
             probe: Optional[Probe] = None,
             ) -> Generator[object, object, T]:
        """Run one array command over the transport (process generator).

        ``fn`` is the synchronous array command; ``probe`` re-reads
        array state and returns the effect if observable.  On an
        injected timeout the channel first probes (never re-driving an
        effect that already applied), then re-drives up to ``retries``
        times, and finally raises :class:`RpcTimeoutError` — at which
        point the caller's level-triggered retry takes over.
        """
        attempt = 0
        while True:
            yield from self.pay()
            verdict = self.injector.draw()
            if verdict is None:
                return fn()
            if verdict:
                fn()  # the command lands, but the reply is lost
            self._record_timeout(step, applied=verdict)
            if probe is not None:
                observed = probe()
                if observed is not None:
                    self.sim.telemetry.recorder.record(
                        "csi", "rpc_recovered", channel=self.name,
                        step=step, attempt=attempt)
                    return observed  # type: ignore[return-value]
            if probe is None or attempt >= self.retries:
                raise RpcTimeoutError(
                    f"{self.name}: {step} deadline exceeded "
                    f"(outcome ambiguous, attempt {attempt + 1})")
            attempt += 1
