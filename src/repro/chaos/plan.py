"""Fault plans and randomized chaos campaigns.

A :class:`FaultPlan` is an explicit, ordered fault schedule — write one
by hand to reproduce an exact failure sequence.  A campaign *generates*
a plan from the simulator's seeded RNG streams: the same master seed
always yields the same plan, so every campaign run is reproducible with
``repro chaos --preset <preset> --seed <n>``.

Three presets ship:

* ``quick``   — a short CI-sized data-plane storm (every fault kind
  once-ish, ~1.5 simulated seconds of faults);
* ``soak``    — a longer randomized data-plane storm for regression
  hunting;
* ``control`` — the control-plane storm (API outages/flakes,
  controller crashes, ambiguous CSI RPC timeouts, severed watches)
  that exercises the reconcile-convergence and exactly-once-pairing
  invariants while the data plane keeps replicating untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro.chaos.control import (ApiFlake, ApiServerOutage,
                                 ControllerCrash, CsiRpcFlake, WatchDrop)
from repro.chaos.faults import (ArrayCrash, Fault, JournalCorruption,
                                JournalSqueeze, LinkBrownout,
                                LinkPartition, SlowDisk, WireCorruption)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator

#: fault kinds a campaign may draw (weights tuned so the cheap network
#: faults dominate and the heavy local faults stay rare)
CAMPAIGN_KINDS: Tuple[Tuple[str, float], ...] = (
    ("link-partition", 3.0),
    ("link-brownout", 3.0),
    ("journal-squeeze", 2.0),
    ("wire-corruption", 2.0),
    ("journal-corruption", 2.0),
    ("array-crash", 1.0),
    ("slow-disk", 1.0),
)

#: fault kinds the control-plane campaign draws (the flaky faults
#: dominate; hard outages and crashes stay rarer, as in real clusters)
CONTROL_KINDS: Tuple[Tuple[str, float], ...] = (
    ("api-flake", 3.0),
    ("csi-rpc-flake", 3.0),
    ("watch-drop", 2.0),
    ("api-outage", 2.0),
    ("controller-crash", 2.0),
)


@dataclass(frozen=True)
class FaultPlan:
    """An explicit fault schedule plus campaign timing bounds."""

    name: str
    #: simulated seconds the engine runs with faults firing
    fault_window: float
    #: bound on lag convergence after the last heal (an invariant:
    #: exceeding it is reported as a violation)
    converge_timeout: float
    faults: Tuple[Fault, ...] = ()

    def describe(self) -> List[str]:
        """Human-readable schedule, one line per fault."""
        return [fault.describe()
                for fault in sorted(self.faults, key=lambda f: f.at)]


@dataclass(frozen=True)
class CampaignPreset:
    """Shape of a randomized campaign."""

    name: str
    fault_window: float
    converge_timeout: float
    random_faults: int
    #: kinds injected once each regardless of the random draw, so e.g.
    #: every quick campaign exercises the corruption-detection path
    required_kinds: Tuple[str, ...] = ()
    max_duration: float = 0.20
    min_duration: float = 0.04
    #: earliest fault start (the system needs a beat of healthy traffic)
    warmup: float = 0.10
    #: weighted fault-kind table random draws come from
    kinds: Tuple[Tuple[str, float], ...] = CAMPAIGN_KINDS


QUICK = CampaignPreset(
    name="quick", fault_window=1.6, converge_timeout=4.0,
    random_faults=4,
    required_kinds=("wire-corruption", "journal-corruption",
                    "link-partition", "journal-squeeze"))

SOAK = CampaignPreset(
    name="soak", fault_window=8.0, converge_timeout=6.0,
    random_faults=18,
    required_kinds=("wire-corruption", "journal-corruption",
                    "link-partition", "link-brownout",
                    "journal-squeeze", "array-crash", "slow-disk"))

CONTROL = CampaignPreset(
    name="control", fault_window=1.6, converge_timeout=4.0,
    random_faults=3,
    required_kinds=("api-outage", "api-flake", "controller-crash",
                    "csi-rpc-flake", "watch-drop"),
    kinds=CONTROL_KINDS)

PRESETS = {preset.name: preset for preset in (QUICK, SOAK, CONTROL)}


def _make_fault(kind: str, at: float, duration: float,
                sim: "Simulator") -> Fault:
    rng = sim.rng
    if kind == "link-partition":
        return LinkPartition(at, duration)
    if kind == "link-brownout":
        return LinkBrownout(
            at, duration,
            extra_latency=rng.uniform("chaos.plan.param", 0.002, 0.008),
            loss_fraction=rng.uniform("chaos.plan.param", 0.1, 0.4))
    if kind == "journal-squeeze":
        return JournalSqueeze(
            at, duration,
            slack=rng.randint("chaos.plan.param", 16, 48))
    if kind == "wire-corruption":
        return WireCorruption(
            at, duration,
            probability=rng.uniform("chaos.plan.param", 0.15, 0.5))
    if kind == "journal-corruption":
        return JournalCorruption(at)
    if kind == "array-crash":
        return ArrayCrash(at, duration)
    if kind == "slow-disk":
        return SlowDisk(
            at, duration,
            factor=rng.uniform("chaos.plan.param", 10.0, 60.0))
    if kind == "api-outage":
        return ApiServerOutage(at, duration)
    if kind == "api-flake":
        return ApiFlake(
            at, duration,
            flake_probability=rng.uniform("chaos.plan.param", 0.10, 0.35),
            conflict_probability=rng.uniform("chaos.plan.param",
                                             0.05, 0.25))
    if kind == "controller-crash":
        return ControllerCrash(at, duration)
    if kind == "csi-rpc-flake":
        return CsiRpcFlake(
            at, duration,
            timeout_probability=rng.uniform("chaos.plan.param",
                                            0.15, 0.45),
            effect_probability=rng.uniform("chaos.plan.param", 0.3, 0.9))
    if kind == "watch-drop":
        return WatchDrop(at)
    raise ValueError(f"unknown fault kind: {kind!r}")


def build_plan(sim: "Simulator", preset: CampaignPreset) -> FaultPlan:
    """Generate a deterministic plan from the simulator's RNG streams.

    Fault starts and durations draw from the ``chaos.plan`` streams;
    everything fits inside ``preset.fault_window`` so the convergence
    phase starts with every fault healed.
    """
    rng = sim.rng
    kinds = [kind for kind, _weight in preset.kinds]
    weights = [weight for _kind, weight in preset.kinds]
    total = sum(weights)

    def draw_kind() -> str:
        point = rng.uniform("chaos.plan.kind", 0.0, total)
        for kind, weight in preset.kinds:
            point -= weight
            if point <= 0:
                return kind
        return kinds[-1]

    chosen = list(preset.required_kinds)
    chosen.extend(draw_kind() for _ in range(preset.random_faults))
    faults: List[Fault] = []
    latest_start = preset.fault_window - preset.max_duration
    for kind in chosen:
        at = rng.uniform("chaos.plan.time", preset.warmup, latest_start)
        duration = rng.uniform("chaos.plan.time", preset.min_duration,
                               preset.max_duration)
        faults.append(_make_fault(kind, at, duration, sim))
    faults.sort(key=lambda fault: (fault.at, fault.kind))
    return FaultPlan(name=preset.name,
                     fault_window=preset.fault_window,
                     converge_timeout=preset.converge_timeout,
                     faults=tuple(faults))
