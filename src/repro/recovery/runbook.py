"""Crash-restartable runbooks for failover and failback.

A disaster-recovery procedure is itself a process that can die: the
orchestrator driving a failover may be OOM-killed, its node may reboot,
its operator may be restarted mid-procedure.  The paper's no-impact
guarantee is worthless if a half-run failover leaves the backup site in
a state no second attempt can finish from.  This module provides the
discipline that makes the procedures restartable:

* every step is journaled to a :class:`RunbookState` checkpoint in a
  :class:`RunbookJournal` (the simulated durable store — it survives the
  orchestrator, like a CR status or a config-map would);
* a **checkpointed** step runs exactly once across all incarnations:
  a resumed runbook returns the persisted payload instead of re-driving
  the side effect.  Non-idempotent actions — journal drain, secondary
  promotion, volume format, pair creation — are checkpointed, so a
  crash at any boundary never double-drives them;
* a **volatile** step re-runs on resume: read-only recompute (database
  recovery, invariant checks, measurements) whose repetition is
  harmless and deterministic.  Volatile steps may only follow the last
  checkpointed step of a procedure;
* step wall-clock accounting is persisted with each checkpoint, so a
  resumed run reports the *same* per-step durations as an uninterrupted
  one — the resumed-failover equivalence invariant.

The crash-injection hook ``crash_after`` raises
:class:`~repro.errors.RunbookInterrupted` immediately after the named
step's checkpoint is saved — the exact worst case for every boundary.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import RunbookError, RunbookInterrupted
from repro.simulation.kernel import Simulator


@dataclass
class StepRecord:
    """One completed step's checkpoint."""

    name: str
    seq: int
    started_at: float
    completed_at: float
    payload: object = None
    #: incarnation (0-based) that executed the step
    incarnation: int = 0

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


@dataclass
class RunbookState:
    """The persisted progress of one runbook execution."""

    name: str
    started_at: float
    incarnation: int = 0
    steps: Dict[str, StepRecord] = field(default_factory=dict)

    def completed(self, step: str) -> Optional[StepRecord]:
        return self.steps.get(step)

    def step_durations(self) -> Dict[str, float]:
        """step name -> wall-clock duration, in execution order."""
        ordered = sorted(self.steps.values(), key=lambda r: r.seq)
        return {record.name: record.duration for record in ordered}


class RunbookJournal:
    """The durable store runbook checkpoints persist to.

    Lives *outside* the manager that writes to it (the test or chaos
    engine holds it), so a crashed manager's successor can load the
    state back.  Payloads are deep-copied on the way in and out —
    holding a returned payload never aliases journal state, exactly
    like the API server's object semantics.
    """

    def __init__(self) -> None:
        self._states: Dict[str, RunbookState] = {}

    def load(self, name: str) -> Optional[RunbookState]:
        state = self._states.get(name)
        return copy.deepcopy(state) if state is not None else None

    def save(self, state: RunbookState) -> None:
        self._states[state.name] = copy.deepcopy(state)

    def __contains__(self, name: str) -> bool:
        return name in self._states


class Runbook:
    """Step executor over a journaled :class:`RunbookState`.

    Construct one per manager incarnation; if the journal already holds
    state for ``name``, the runbook resumes from it.
    """

    def __init__(self, sim: Simulator, name: str,
                 journal: Optional[RunbookJournal] = None,
                 crash_after: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self.journal = journal if journal is not None else RunbookJournal()
        self.crash_after = crash_after
        prior = self.journal.load(name)
        if prior is not None:
            self.state = prior
            self.state.incarnation += 1
            self.resumed = True
            sim.telemetry.registry.counter(
                "repro_runbook_resumes_total",
                help="Runbook executions resumed from a checkpoint",
                runbook=name).increment()
            sim.telemetry.recorder.record(
                "runbook", "resume", runbook=name,
                incarnation=self.state.incarnation,
                completed=len(self.state.steps))
        else:
            self.state = RunbookState(name=name, started_at=sim.now)
            self.resumed = False
        self.journal.save(self.state)
        self._seq = len(self.state.steps)

    @property
    def started_at(self) -> float:
        """Start time of the *first* incarnation."""
        return self.state.started_at

    def step(self, name: str, fn: Callable[[], object], volatile: bool = False):
        """Run one step exactly once across incarnations (generator).

        ``fn`` is either a generator function (the step consumes
        simulated time) or a plain callable.  A checkpointed step found
        in the journal is skipped and its persisted payload returned; a
        ``volatile`` step re-runs on resume (it must be read-only).
        After checkpointing, the ``crash_after`` hook fires.
        """
        record = self.state.completed(name)
        if record is not None and not volatile:
            self.sim.telemetry.registry.counter(
                "repro_runbook_steps_skipped_total",
                help="Checkpointed steps skipped on runbook resume",
                runbook=self.name).increment()
            self.sim.telemetry.recorder.record(
                "runbook", "step_skipped", runbook=self.name, step=name)
            return record.payload
        started = self.sim.now
        outcome = fn()
        if hasattr(outcome, "send"):  # generator step: takes sim time
            result = yield from outcome
        else:
            result = outcome
        seq = record.seq if record is not None else self._seq
        if record is None:
            self._seq += 1
        # volatile results may reference live objects (databases, the
        # app); they re-run on resume, so only checkpointed payloads —
        # plain data by contract — are persisted
        self.state.steps[name] = StepRecord(
            name=name, seq=seq, started_at=started,
            completed_at=self.sim.now,
            payload=None if volatile else result,
            incarnation=self.state.incarnation)
        try:
            self.journal.save(self.state)
        except Exception as exc:
            raise RunbookError(
                f"runbook {self.name!r}: step {name!r} completed but its "
                f"checkpoint could not be persisted: {exc}") from exc
        self.sim.telemetry.registry.counter(
            "repro_runbook_steps_total",
            help="Runbook steps executed (not skipped)",
            runbook=self.name, step=name).increment()
        self.sim.telemetry.recorder.record(
            "runbook", "step", runbook=self.name, step=name,
            duration=round(self.sim.now - started, 9))
        if self.crash_after == name:
            self.sim.telemetry.recorder.record(
                "runbook", "crash", runbook=self.name, step=name)
            raise RunbookInterrupted(self.name, name)
        return result

    def step_durations(self) -> Dict[str, float]:
        """Persisted per-step wall-clock accounting (execution order)."""
        return self.state.step_durations()
