"""Deterministic chaos engineering for the backup reproduction.

Public surface:

* :func:`run_campaign` — build a protected system, run a seeded fault
  campaign, return its :class:`ChaosReport` (the ``repro chaos`` CLI);
* :func:`run_campaigns` — one campaign per seed, optionally sharded
  across worker processes (``repro chaos --seeds N --jobs M``) with a
  deterministic seed-ordered merge;
* :func:`build_chaos_environment`, :class:`ChaosEngine`,
  :class:`ChaosEnvironment`, :class:`ChaosWorkload` — the pieces, for
  custom harnesses and tests;
* :class:`FaultPlan`, :func:`build_plan`, :data:`PRESETS` — fault
  schedules (hand-written or seed-generated);
* the data-plane fault catalog (:class:`LinkPartition`,
  :class:`LinkBrownout`, :class:`ArrayCrash`, :class:`JournalSqueeze`,
  :class:`SlowDisk`, :class:`WireCorruption`,
  :class:`JournalCorruption`);
* the control-plane fault catalog (:class:`ApiServerOutage`,
  :class:`ApiFlake`, :class:`ControllerCrash`, :class:`CsiRpcFlake`,
  :class:`WatchDrop`) behind the ``control`` preset;
* :class:`InvariantMonitor`, :class:`ChaosViolation` — the always-on
  invariant checks;
* :func:`run_incident`, :func:`build_incident_plan`,
  :class:`IncidentRun` — the canonical deterministic SLO incident
  (``repro incident`` / ``repro slo`` CLIs): fault → alert fired →
  suspension → resync → alert resolved, with a rendered postmortem.
"""

from repro.chaos.control import (ApiFlake, ApiServerOutage,
                                 ControllerCrash, CsiRpcFlake, WatchDrop)
from repro.chaos.engine import (ChaosEngine, ChaosEnvironment, ChaosReport,
                                ChaosWorkload, IncidentRun,
                                build_chaos_environment,
                                build_incident_plan, run_campaign,
                                run_campaigns, run_incident)
from repro.chaos.faults import (ArrayCrash, Fault, FaultEvent,
                                JournalCorruption, JournalSqueeze,
                                LinkBrownout, LinkPartition, SlowDisk,
                                WireCorruption)
from repro.chaos.invariants import ChaosViolation, InvariantMonitor
from repro.chaos.plan import (CONTROL, PRESETS, QUICK, SOAK,
                              CampaignPreset, FaultPlan, build_plan)

__all__ = [
    "ApiFlake",
    "ApiServerOutage",
    "ArrayCrash",
    "CONTROL",
    "CampaignPreset",
    "ControllerCrash",
    "CsiRpcFlake",
    "ChaosEngine",
    "ChaosEnvironment",
    "ChaosReport",
    "ChaosViolation",
    "ChaosWorkload",
    "Fault",
    "FaultEvent",
    "FaultPlan",
    "IncidentRun",
    "InvariantMonitor",
    "JournalCorruption",
    "JournalSqueeze",
    "LinkBrownout",
    "LinkPartition",
    "PRESETS",
    "QUICK",
    "SOAK",
    "SlowDisk",
    "WatchDrop",
    "WireCorruption",
    "build_chaos_environment",
    "build_incident_plan",
    "build_plan",
    "run_campaign",
    "run_campaigns",
    "run_incident",
]
