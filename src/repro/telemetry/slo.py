"""Deterministic SLO / alert rule engine.

The paper's headline claim — backup with *no impact on business
processing* — and its recovery objectives (RPO bounded by journal lag)
are statements about time series.  This module watches them
continuously, the way a production DR stack would, as a simulation
process: a :class:`SloEngine` wakes on a fixed interval, evaluates its
:class:`AlertRule` set against live system state, and drives one
firing→resolved state machine per rule with pending delay
(``for_seconds``) and clear hysteresis (``clear_seconds``).

Three rule shapes cover the catalog:

* :class:`LatencyPercentileRule` — a percentile of a latency summary
  over a sliding window against a bound (host-write p99 = the
  no-impact claim);
* :class:`BurnRateRule` — Google-SRE-style multi-window burn rate over
  a sampled value against an objective (journal-lag-seconds = the RPO
  SLO).  All windows must burn above threshold to breach, so the long
  window suppresses blips while the short window clears fast;
* :class:`ConditionRule` — a boolean probe (group suspended,
  transactions parked in doubt).

Everything is deterministic: rules sample live ``value_fn`` callables
at engine wake-ups of the simulated clock (never wall time), so the
same seed produces the same transitions, byte for byte.  Transitions
land in ``repro_alerts_total{rule,state}`` counters, the
``repro_alert_firing{rule}`` gauge, and the flight recorder.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Deque, Generator, List,
                    Optional, Sequence, Tuple)

from repro.telemetry.metrics import LatencyRecorder, percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.storage.adc import JournalGroup
    from repro.storage.array import StorageArray
    from repro.telemetry.recorder import FlightRecorder

#: default evaluation period (seconds); 10x the chaos transfer interval
DEFAULT_INTERVAL = 0.01


@dataclass(frozen=True)
class AlertTransition:
    """One firing or resolved edge of a rule's state machine."""

    time: float
    rule: str
    state: str  # "firing" | "resolved"
    detail: str = ""

    def __str__(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.time:9.4f}] {self.rule} {self.state}{tail}"

    def as_dict(self) -> dict:
        return {"time": self.time, "rule": self.rule,
                "state": self.state, "detail": self.detail}


class AlertRule:
    """Base class: a named breach predicate plus state-machine timing.

    ``for_seconds`` is how long the breach must persist before the
    alert fires (pending state); ``clear_seconds`` is how long the rule
    must evaluate healthy before a firing alert resolves (hysteresis —
    a flapping series cannot resolve-and-refire every tick).
    """

    def __init__(self, name: str, description: str = "",
                 severity: str = "page", for_seconds: float = 0.0,
                 clear_seconds: float = 0.0) -> None:
        if for_seconds < 0 or clear_seconds < 0:
            raise ValueError(
                f"rule {name!r}: for/clear durations must be >= 0")
        self.name = name
        self.description = description
        self.severity = severity
        self.for_seconds = for_seconds
        self.clear_seconds = clear_seconds

    def observe(self, now: float) -> Tuple[bool, str]:
        """Sample the watched signal at ``now``.

        Returns ``(breached, detail)``; ``detail`` is a deterministic
        human-readable account of the current value.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class LatencyPercentileRule(AlertRule):
    """A latency-summary percentile over a sliding window vs a bound.

    ``source`` is a :class:`~repro.telemetry.metrics.LatencyRecorder`
    (e.g. the array's host-write summary).  Its samples carry no
    timestamps, so the rule keeps a cursor into the recorder and stamps
    each new sample with the evaluation time — a deterministic
    approximation good to one engine interval.
    """

    def __init__(self, name: str, source: LatencyRecorder, bound: float,
                 fraction: float = 0.99, window: float = 0.25,
                 **kwargs: object) -> None:
        super().__init__(name, **kwargs)  # type: ignore[arg-type]
        if bound <= 0 or window <= 0:
            raise ValueError(
                f"rule {name!r}: bound and window must be > 0")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"rule {name!r}: fraction must be in [0, 1]: {fraction}")
        self.source = source
        self.bound = bound
        self.fraction = fraction
        self.window = window
        self._cursor = 0
        self._window_samples: Deque[Tuple[float, float]] = deque()

    def observe(self, now: float) -> Tuple[bool, str]:
        raw = self.source._samples  # cursor access; .samples copies
        while self._cursor < len(raw):
            self._window_samples.append((now, raw[self._cursor]))
            self._cursor += 1
        horizon = now - self.window
        samples = self._window_samples
        while samples and samples[0][0] < horizon:
            samples.popleft()
        if not samples:
            return False, "no samples in window"
        value = percentile([latency for _t, latency in samples],
                           self.fraction)
        breached = value > self.bound
        detail = (f"p{self.fraction * 100:g}={value * 1e3:.3f}ms "
                  f"bound={self.bound * 1e3:g}ms n={len(samples)}")
        return breached, detail


class BurnRateRule(AlertRule):
    """Multi-window burn rate of a sampled value against an objective.

    At each evaluation the rule samples ``value_fn()`` into an internal
    series (sampling live state directly, so the signal cannot go stale
    while the subsystem that normally publishes it is suspended).  For
    each ``(window_seconds, threshold)`` the burn rate is the fraction
    of window samples exceeding ``objective`` divided by
    ``budget_fraction``; the rule breaches only when *every* window
    burns at or above its threshold.
    """

    def __init__(self, name: str, value_fn: Callable[[], float],
                 objective: float,
                 windows: Sequence[Tuple[float, float]] = ((0.06, 1.0),
                                                          (0.24, 1.0)),
                 budget_fraction: float = 0.1,
                 **kwargs: object) -> None:
        super().__init__(name, **kwargs)  # type: ignore[arg-type]
        if objective < 0:
            raise ValueError(f"rule {name!r}: objective must be >= 0")
        if not windows:
            raise ValueError(f"rule {name!r}: need at least one window")
        if not 0.0 < budget_fraction <= 1.0:
            raise ValueError(
                f"rule {name!r}: budget_fraction must be in (0, 1]")
        self.value_fn = value_fn
        self.objective = objective
        self.windows = tuple(windows)
        self.budget_fraction = budget_fraction
        self._horizon = max(window for window, _threshold in self.windows)
        self._samples: Deque[Tuple[float, float]] = deque()

    def observe(self, now: float) -> Tuple[bool, str]:
        value = float(self.value_fn())
        samples = self._samples
        samples.append((now, value))
        cutoff = now - self._horizon
        while samples and samples[0][0] < cutoff:
            samples.popleft()
        breached = True
        parts = [f"value={value:.4g} objective={self.objective:g}"]
        for window, threshold in self.windows:
            start = now - window
            in_window = [v for t, v in samples if t >= start]
            bad = sum(1 for v in in_window if v > self.objective)
            burn = ((bad / len(in_window)) / self.budget_fraction
                    if in_window else 0.0)
            if burn < threshold:
                breached = False
            parts.append(f"burn[{window:g}s]={burn:.2f}/{threshold:g}")
        return breached, " ".join(parts)


class ConditionRule(AlertRule):
    """A boolean probe: breached exactly while ``probe()`` is truthy."""

    def __init__(self, name: str, probe: Callable[[], object],
                 detail_fn: Optional[Callable[[], str]] = None,
                 **kwargs: object) -> None:
        super().__init__(name, **kwargs)  # type: ignore[arg-type]
        self.probe = probe
        self.detail_fn = detail_fn

    def observe(self, now: float) -> Tuple[bool, str]:
        active = bool(self.probe())
        if active and self.detail_fn is not None:
            return True, str(self.detail_fn())
        return active, "active" if active else "clear"


#: state-machine states ("resolved" is a transition, not a state)
_OK, _PENDING, _FIRING = "ok", "pending", "firing"


class _RuleStatus:
    """Engine-internal per-rule state machine."""

    __slots__ = ("rule", "state", "breach_since", "healthy_since",
                 "fired_count", "resolved_count", "last_detail")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.state = _OK
        self.breach_since: Optional[float] = None
        self.healthy_since: Optional[float] = None
        self.fired_count = 0
        self.resolved_count = 0
        self.last_detail = ""


class SloEngine:
    """Evaluates a rule set periodically; collects alert transitions."""

    def __init__(self, sim: "Simulator", rules: Sequence[AlertRule],
                 interval: float = DEFAULT_INTERVAL,
                 recorder: Optional["FlightRecorder"] = None) -> None:
        if interval <= 0:
            raise ValueError(f"engine interval must be > 0: {interval}")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.sim = sim
        self.interval = interval
        self.registry = sim.telemetry.registry
        self.recorder = (recorder if recorder is not None
                         else sim.telemetry.recorder)
        self.transitions: List[AlertTransition] = []
        self.evaluations = 0
        self._statuses = [_RuleStatus(rule) for rule in rules]
        self._running = False
        self._process = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SloEngine":
        """Spawn the evaluation process (idempotent); returns self."""
        self._running = True
        if self._process is None or not self._process.alive:
            self._process = self.sim.spawn(self._run(), name="slo-engine")
        return self

    def stop(self) -> None:
        """Stop the evaluation process at its next wake-up."""
        self._running = False

    def _run(self) -> Generator[object, object, None]:
        while self._running:
            yield self.sim.sleep(self.interval)
            if not self._running:
                return
            self.evaluate_once()

    # -- evaluation ----------------------------------------------------------

    def evaluate_once(self) -> None:
        """Evaluate every rule once at the current simulated time.

        Public so tests (and drained scenarios) can step the state
        machines at exact instants without the periodic process.
        """
        now = self.sim.now
        self.evaluations += 1
        for status in self._statuses:
            breached, detail = status.rule.observe(now)
            status.last_detail = detail
            if breached:
                self._advance_breached(status, now, detail)
            else:
                self._advance_healthy(status, now, detail)

    def _advance_breached(self, status: _RuleStatus, now: float,
                          detail: str) -> None:
        status.healthy_since = None
        if status.state == _FIRING:
            return
        if status.breach_since is None:
            status.breach_since = now
            status.state = _PENDING
        if now - status.breach_since >= status.rule.for_seconds:
            status.state = _FIRING
            status.fired_count += 1
            self._transition(status, now, "firing", detail)

    def _advance_healthy(self, status: _RuleStatus, now: float,
                         detail: str) -> None:
        status.breach_since = None
        if status.state == _PENDING:
            status.state = _OK
            return
        if status.state != _FIRING:
            return
        if status.healthy_since is None:
            status.healthy_since = now
        if now - status.healthy_since >= status.rule.clear_seconds:
            status.state = _OK
            status.healthy_since = None
            status.resolved_count += 1
            self._transition(status, now, "resolved", detail)

    def _transition(self, status: _RuleStatus, now: float, state: str,
                    detail: str) -> None:
        rule = status.rule
        transition = AlertTransition(time=now, rule=rule.name,
                                     state=state, detail=detail)
        self.transitions.append(transition)
        self.registry.counter(
            "repro_alerts_total",
            help="Alert state-machine transitions by rule and state",
            rule=rule.name, state=state).increment()
        self.registry.gauge(
            "repro_alert_firing",
            help="1 while the rule's alert is firing, else 0",
            rule=rule.name,
        ).sample(now, 1.0 if state == "firing" else 0.0)
        if self.recorder is not None:
            self.recorder.record("alert", rule.name, state=state,
                                 severity=rule.severity, detail=detail)

    # -- queries / rendering -------------------------------------------------

    def firing_rules(self) -> List[str]:
        """Names of the rules currently firing, sorted."""
        return sorted(status.rule.name for status in self._statuses
                      if status.state == _FIRING)

    def render(self) -> str:
        """Human-readable rule table plus the transition log."""
        lines = [f"SLO rules (evaluated every {self.interval:g}s, "
                 f"{self.evaluations} evaluations):"]
        width = max((len(s.rule.name) for s in self._statuses), default=4)
        lines.append(f"  {'rule':{width}} {'state':8} {'fired':>5} "
                     f"{'resolved':>8}  description")
        for status in self._statuses:
            lines.append(
                f"  {status.rule.name:{width}} {status.state:8} "
                f"{status.fired_count:5d} {status.resolved_count:8d}  "
                f"{status.rule.description}")
        if self.transitions:
            lines.append("  transitions:")
            lines.extend(f"    {transition}"
                         for transition in self.transitions)
        else:
            lines.append("  transitions: none")
        return "\n".join(lines)


def standard_rules(array: "StorageArray", group: "JournalGroup",
                   coordinator: Optional[object] = None, *,
                   write_p99_bound: float = 0.005,
                   write_window: float = 0.25,
                   rpo_objective: float = 0.05,
                   rpo_windows: Sequence[Tuple[float, float]] = (
                       (0.06, 1.0), (0.24, 1.0)),
                   suspension_for: float = 0.0,
                   in_doubt_grace: float = 0.05) -> List[AlertRule]:
    """The stock rule set for one protected two-site deployment.

    * ``host-write-p99`` — the paper's no-impact claim: host-write p99
      stays within ``write_p99_bound`` regardless of replication state;
    * ``rpo-journal-lag`` — the RPO SLO: the age of the oldest
      unshipped main-journal entry burns through its error budget;
      sampled live from the journal (not from the transfer-loop gauge,
      which goes quiet during exactly the outages that matter);
    * ``replication-suspended`` — the group sits in PSUS/PSUE;
    * ``in-doubt-transactions`` — 2PC outcomes parked in doubt for
      longer than a grace period (only with a ``coordinator``).
    """
    sim = group.sim

    def journal_lag_age() -> float:
        oldest = group.main_journal.oldest_entry()
        return sim.now - oldest.created_at if oldest is not None else 0.0

    rules: List[AlertRule] = [
        LatencyPercentileRule(
            "host-write-p99", array.write_latency,
            bound=write_p99_bound, window=write_window,
            clear_seconds=0.05, severity="page",
            description=(f"host-write p99 <= {write_p99_bound * 1e3:g}ms "
                         "(the no-impact claim)")),
        BurnRateRule(
            "rpo-journal-lag", journal_lag_age, objective=rpo_objective,
            windows=rpo_windows, budget_fraction=0.1,
            clear_seconds=0.05, severity="page",
            description=(f"oldest unshipped entry <= "
                         f"{rpo_objective * 1e3:g}ms (RPO budget)")),
        ConditionRule(
            "replication-suspended", lambda: group.suspended,
            detail_fn=lambda: group.suspend_reason or "suspended",
            for_seconds=suspension_for, clear_seconds=0.0,
            severity="ticket",
            description="journal group suspended (PSUS/PSUE)"),
    ]
    if coordinator is not None:
        rules.append(ConditionRule(
            "in-doubt-transactions",
            lambda: bool(coordinator.in_doubt),
            detail_fn=lambda: (
                f"{len(coordinator.in_doubt)} transactions in doubt"),
            for_seconds=in_doubt_grace, clear_seconds=0.0,
            severity="ticket",
            description=("2PC outcomes parked in doubt past "
                         f"{in_doubt_grace * 1e3:g}ms")))
    return rules
