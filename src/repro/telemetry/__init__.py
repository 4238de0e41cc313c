"""Unified observability: metrics registry, causal spans, probes.

Every :class:`~repro.simulation.kernel.Simulator` owns one
:class:`Telemetry` instance (``sim.telemetry``) bundling:

* ``registry`` — the :class:`~repro.telemetry.registry.MetricsRegistry`
  all components register counters/gauges/histograms/summaries against;
* ``tracer`` — the :class:`~repro.telemetry.spans.Tracer` recording
  causal spans along the replication write path;
* ``recorder`` — the :class:`~repro.telemetry.recorder.FlightRecorder`
  black box capturing ordered structured events (suspensions, faults,
  alert transitions, failover steps) for incident postmortems.

Because all three live on the simulator, two simulations never share
state,
and telemetry is as deterministic as everything else: same seed, same
metrics, same spans.

See ``docs/observability.md`` for the metric catalog and span taxonomy.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.incident import IncidentReport, build_incident
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     LatencyRecorder, LatencySummary,
                                     percentile, percentile_sorted)
from repro.telemetry.probes import ArrayProbe, start_probes
from repro.telemetry.recorder import FlightEvent, FlightRecorder
from repro.telemetry.registry import MetricFamily, MetricsRegistry
from repro.telemetry.slo import (AlertRule, AlertTransition, BurnRateRule,
                                 ConditionRule, LatencyPercentileRule,
                                 SloEngine, standard_rules)
from repro.telemetry.spans import (LagReport, Span, StageStats, Tracer,
                                   chrome_trace, replication_lag_report,
                                   stage_breakdown)

__all__ = [
    "AlertRule",
    "AlertTransition",
    "ArrayProbe",
    "BurnRateRule",
    "ConditionRule",
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "IncidentReport",
    "LagReport",
    "LatencyPercentileRule",
    "LatencyRecorder",
    "LatencySummary",
    "MetricFamily",
    "MetricsRegistry",
    "SloEngine",
    "Span",
    "StageStats",
    "Telemetry",
    "Tracer",
    "build_incident",
    "chrome_trace",
    "percentile",
    "percentile_sorted",
    "replication_lag_report",
    "stage_breakdown",
    "standard_rules",
    "start_probes",
]


class Telemetry:
    """The per-simulator observability context."""

    def __init__(self, clock: Callable[[], float],
                 max_spans: int = 250_000) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock, max_spans=max_spans)
        self.recorder = FlightRecorder(clock, registry=self.registry)
