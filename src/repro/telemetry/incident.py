"""Automated incident postmortems.

:func:`build_incident` joins one simulation's three observability
streams into a single causal account of an incident:

* the **flight recorder** (ordered structured events: fault injected,
  alert fired, suspension, resync, failover steps, ...) supplies the
  timeline;
* the **tracer** supplies per-stage latency statistics over the same
  window (how long resyncs/journal-drains/failovers actually took);
* the **metrics registry** supplies a snapshot of the counters that
  summarise the incident (alerts, suspensions, resyncs, corruptions
  caught, entries shipped).

The result is an :class:`IncidentReport` rendering to markdown (for
humans) and JSON (``sort_keys`` + stable float formatting, so the same
seed yields byte-identical output — postmortems diff cleanly across
code changes, like every other artifact in this repository).

This module deliberately never imports :mod:`repro.chaos`; the chaos
engine imports *it* to auto-emit postmortems on invariant violations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence,
                    Tuple)

from repro.telemetry.slo import AlertTransition
from repro.telemetry.spans import stage_breakdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator

#: counter families worth quoting in a postmortem (prefix match)
DEFAULT_METRIC_PREFIXES: Tuple[str, ...] = (
    "repro_alerts_total",
    "repro_chaos_faults_total",
    "repro_failovers_total",
    "repro_flight_",
    "repro_integrity_corruptions_detected_total",
    "repro_journal_restored_entries_total",
    "repro_journal_suspensions_total",
    "repro_journal_transferred_entries_total",
    "repro_repair_resyncs_total",
)

#: span names whose stage statistics belong in a postmortem
DEFAULT_STAGE_NAMES: Tuple[str, ...] = (
    "failover", "host-write", "initial-copy", "journal-drain", "resync",
    "restore-apply", "transfer-batch",
)


@dataclass
class IncidentReport:
    """One incident, fully joined and render-ready."""

    title: str
    seed: Optional[int]
    started_at: float
    finished_at: float
    #: ordered (time, seq) event dicts from the flight recorder
    timeline: List[dict] = field(default_factory=list)
    #: alert transitions (dict form of :class:`AlertTransition`)
    alerts: List[dict] = field(default_factory=list)
    #: per-stage span statistics over the incident window
    stages: List[dict] = field(default_factory=list)
    #: ``name{label="value",...}`` -> counter value
    metrics: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "timeline": self.timeline,
            "alerts": self.alerts,
            "stages": self.stages,
            "metrics": self.metrics,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering (same seed ⇒ same bytes)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        """Human-readable postmortem."""
        lines = [
            f"# Incident postmortem: {self.title}",
            "",
            f"- seed: {self.seed if self.seed is not None else 'n/a'}",
            f"- window: t={self.started_at:.4f}s "
            f"→ t={self.finished_at:.4f}s "
            f"({self.finished_at - self.started_at:.4f}s)",
            f"- timeline events: {len(self.timeline)}",
            f"- alert transitions: {len(self.alerts)}",
        ]
        for note in self.notes:
            lines.append(f"- {note}")
        lines += ["", "## Timeline", ""]
        if self.timeline:
            for event in self.timeline:
                detail = " ".join(
                    f"{key}={event['attrs'][key]}"
                    for key in sorted(event["attrs"]))
                tail = f" — {detail}" if detail else ""
                lines.append(f"- `[{event['time']:9.4f}]` "
                             f"**{event['category']}** "
                             f"{event['name']}{tail}")
        else:
            lines.append("- (no events recorded)")
        lines += ["", "## Alerts", ""]
        if self.alerts:
            for alert in self.alerts:
                tail = (f" — {alert['detail']}" if alert["detail"]
                        else "")
                lines.append(f"- `[{alert['time']:9.4f}]` "
                             f"**{alert['rule']}** {alert['state']}"
                             f"{tail}")
        else:
            lines.append("- (no alert transitions)")
        lines += ["", "## Stage latencies (spans)", ""]
        if self.stages:
            lines.append("| stage | count | mean (ms) | max (ms) |")
            lines.append("|---|---:|---:|---:|")
            for stage in self.stages:
                lines.append(
                    f"| {stage['name']} | {stage['count']} "
                    f"| {stage['mean'] * 1e3:.3f} "
                    f"| {stage['max'] * 1e3:.3f} |")
        else:
            lines.append("- (no finished spans)")
        lines += ["", "## Metrics at close", ""]
        if self.metrics:
            for name in sorted(self.metrics):
                lines.append(f"- `{name}` = {self.metrics[name]}")
        else:
            lines.append("- (no matching counters)")
        return "\n".join(lines) + "\n"


def _metric_snapshot(registry, prefixes: Sequence[str],
                     ) -> Dict[str, int]:
    """Counter values as ``name{labels}`` keys, filtered by prefix."""
    out: Dict[str, int] = {}
    for name in registry.names():
        if not any(name.startswith(prefix) for prefix in prefixes):
            continue
        family = registry.family(name)
        if family.kind != "counter":
            continue
        for labels, counter in family:
            rendered = ",".join(f'{key}="{value}"'
                                for key, value in labels)
            key = f"{name}{{{rendered}}}" if rendered else name
            out[key] = counter.value
    return out


def build_incident(sim: "Simulator", *, title: str = "incident",
                   seed: Optional[int] = None,
                   alerts: Sequence[AlertTransition] = (),
                   window: Optional[Tuple[float, float]] = None,
                   stage_names: Sequence[str] = DEFAULT_STAGE_NAMES,
                   metric_prefixes: Sequence[str] =
                   DEFAULT_METRIC_PREFIXES,
                   notes: Sequence[str] = ()) -> IncidentReport:
    """Join recorder events, spans, and metrics into one postmortem.

    ``window`` bounds the report (defaults to the full recorded range);
    ``alerts`` usually comes from a :class:`SloEngine`'s transitions,
    but any alert transitions recorded by the flight recorder are in
    the timeline regardless.
    """
    recorder = sim.telemetry.recorder
    events = sorted(recorder.events, key=lambda e: (e.time, e.seq))
    if window is not None:
        start, end = window
    else:
        start = events[0].time if events else 0.0
        end = sim.now
    timeline = [event.as_dict() for event in events
                if start <= event.time <= end]
    stats = {stage.name: stage
             for stage in stage_breakdown(sim.telemetry.tracer)}
    stages = [{"name": name, "count": stats[name].count,
               "mean": stats[name].mean, "max": stats[name].maximum}
              for name in stage_names if name in stats]
    report = IncidentReport(
        title=title, seed=seed, started_at=start, finished_at=end,
        timeline=timeline,
        alerts=[transition.as_dict() for transition in alerts],
        stages=stages,
        metrics=_metric_snapshot(sim.telemetry.registry,
                                 metric_prefixes),
        notes=list(notes))
    if recorder.dropped:
        report.notes.append(
            f"flight recorder dropped {recorder.dropped} oldest events "
            f"(ring capacity {recorder.capacity})")
    return report
