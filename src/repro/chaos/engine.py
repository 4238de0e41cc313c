"""The chaos engine: deterministic fault campaigns over a live system.

:func:`run_campaign` is the one-call entry point (the ``repro chaos``
CLI wraps it): build a protected two-site business system, generate a
seed-deterministic :class:`~repro.chaos.plan.FaultPlan`, drive a
crash-tolerant order workload through the fault storm with the
:class:`~repro.chaos.invariants.InvariantMonitor` watching, wait for the
self-healing pipeline to converge, run the end-of-campaign integrity
checks, and (optionally) prove the surviving backup still fails over to
a consistent image.

Everything — the fault schedule, the workload's order stream, the wire
corruption draws — comes from named RNG streams of one seeded
simulator, so two runs with the same seed produce byte-identical
:class:`ChaosReport` digests.  Reproduce any failure with::

    python -m repro.cli chaos --preset quick --seed <seed>
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.chaos.faults import (Fault, FaultEvent, JournalSqueeze,
                                LinkPartition)
from repro.chaos.invariants import ChaosViolation, InvariantMonitor
from repro.chaos.plan import PRESETS, FaultPlan, build_plan
from repro.errors import CollapsedBackupError, ReproError
from repro.operator import TAG_CONSISTENT, TAG_KEY, \
    install_namespace_operator
from repro.recovery import fail_and_recover
from repro.scenarios import (BusinessConfig, BusinessProcess, SystemConfig,
                             TwoSiteSystem, build_system,
                             deploy_business_process)
from repro.simulation import Simulator
from repro.storage import AdcConfig, ArrayConfig, JournalGroup
from repro.telemetry.incident import IncidentReport, build_incident
from repro.telemetry.slo import AlertTransition, SloEngine, standard_rules

#: pause a workload client takes after an order attempt fails because a
#: fault (array crash) rejected its I/O, before retrying
RETRY_DELAY = 0.004
#: pacing pause when an iteration consumed no simulated time
ZERO_PROGRESS_PACING = 0.0005


class ChaosEnvironment:
    """The system under test plus the campaign's shared fault state."""

    def __init__(self, sim: Simulator, system: TwoSiteSystem,
                 business: BusinessProcess, group: JournalGroup) -> None:
        self.sim = sim
        self.system = system
        self.business = business
        self.group = group
        #: payloads corrupted by faults; the zero-silent-corruption
        #: invariant proves none of them reached a secondary volume
        self.corrupted_payloads: Set[bytes] = set()
        #: kind -> number of currently-active faults of that kind
        self.active_faults: Dict[str, int] = {}
        self._local_active = 0
        #: bumps on every local-fault inject *and* heal, so the workload
        #: can tell whether an order overlapped a local-fault window
        self.local_transitions = 0

    @property
    def local_fault_active(self) -> bool:
        """True while a business-I/O-path fault (crash, slow disk) is on."""
        return self._local_active > 0

    def note_corruption(self, payload: bytes) -> None:
        """Register a payload a fault corrupted (invariant bookkeeping)."""
        self.corrupted_payloads.add(bytes(payload))

    def fault_started(self, fault: Fault) -> None:
        self.active_faults[fault.kind] = \
            self.active_faults.get(fault.kind, 0) + 1
        if fault.local:
            self._local_active += 1
            self.local_transitions += 1

    def fault_healed(self, fault: Fault) -> None:
        remaining = self.active_faults.get(fault.kind, 0) - 1
        if remaining > 0:
            self.active_faults[fault.kind] = remaining
        else:
            self.active_faults.pop(fault.kind, None)
        if fault.local:
            self._local_active = max(0, self._local_active - 1)
            self.local_transitions += 1


def build_chaos_environment(seed: int,
                            adc_overrides: Optional[dict] = None,
                            wal_blocks: int = 40_000,
                            settle_time: float = 4.0,
                            ) -> ChaosEnvironment:
    """Build the protected two-site business system campaigns run on.

    Mirrors the repository's standard protected-namespace setup: build
    the Fig 1 topology with tight test-grade ADC loops, install the
    namespace operator, deploy the business process, tag its namespace
    ``ConsistentCopyToCloud`` and let the operator finish wiring the
    consistency group.
    """
    sim = Simulator(seed=seed)
    adc = AdcConfig(transfer_interval=0.001, transfer_batch=1024,
                    restore_interval=0.001, restore_batch=1024,
                    interval_jitter=0.0)
    config = SystemConfig(link_latency=0.002,
                          array=ArrayConfig(adc=adc),
                          command_latency=0.010)
    if adc_overrides:
        config = config.with_adc(**adc_overrides)
    system = build_system(sim, config)
    install_namespace_operator(system.main.cluster)
    business = deploy_business_process(
        system, BusinessConfig(wal_blocks=wal_blocks,
                               lock_timeout=0.25))
    system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                      TAG_CONSISTENT)
    sim.run(until=sim.now + settle_time)
    group = system.main.array.journal_groups[
        f"jg-{business.namespace}-nso-{business.namespace}"]
    return ChaosEnvironment(sim=sim, system=system, business=business,
                            group=group)


class ChaosWorkload:
    """Crash-tolerant order load: clients retry through array faults.

    Unlike :class:`repro.apps.workload.BackgroundLoad` (whose clients
    die quietly when storage fails — the disaster model), chaos clients
    treat a failed order as a transient fault: pause briefly and retry,
    which is what a real retailer's retry-loop does during a storage
    blip.  Completions are recorded as ``(end_time, latency, exempt)``
    where ``exempt`` marks orders overlapping a local-fault window.
    """

    def __init__(self, env: ChaosEnvironment, client_count: int = 3,
                 rng_prefix: str = "chaos.load") -> None:
        self.env = env
        self.running = True
        self.completions: List[tuple] = []
        self.failed_attempts = 0
        self.last_progress = env.sim.now
        #: attempt id -> local-fault transition mark at attempt start
        self._inflight: Dict[int, int] = {}
        self._attempt_counter = itertools.count()
        sim = env.sim
        app = env.business.app
        item_ids = sorted(app.catalog)

        def client(index: int) -> Generator[object, object, None]:
            stream = f"{rng_prefix}.client{index}"
            while self.running:
                started = sim.now
                overlap_mark = env.local_transitions
                exempt_start = (env.local_fault_active
                                or self.residual_local)
                item_id = sim.rng.choice(stream, item_ids)
                qty = sim.rng.randint(stream, 1, 3)
                attempt = next(self._attempt_counter)
                self._inflight[attempt] = overlap_mark
                try:
                    # a crashed sibling may have left a decided-commit
                    # order holding stock locks; finish it first
                    if app.coordinator.in_doubt:
                        yield from app.resolve_in_doubt()
                    result = yield from app.place_order(item_id, qty)
                except ReproError:
                    self.failed_attempts += 1
                    del self._inflight[attempt]
                    yield sim.sleep(RETRY_DELAY)
                    continue
                del self._inflight[attempt]
                latency = sim.now - started
                exempt = (exempt_start or env.local_fault_active
                          or env.local_transitions != overlap_mark
                          or self.residual_local)
                self.completions.append((sim.now, latency, exempt))
                self.last_progress = sim.now
                del result
                if sim.now == started:
                    yield sim.sleep(ZERO_PROGRESS_PACING)

        self._processes = [
            sim.spawn(client(index), name=f"{rng_prefix}-{index}")
            for index in range(client_count)]

    @property
    def residual_local(self) -> bool:
        """True while an order that overlapped a local fault is still in
        flight.

        A transaction started under a crashed array or stalled disk can
        hold its stock locks well past the heal instant; until it
        drains, slow siblings are still the local fault's doing, not a
        replication-design failure.
        """
        mark = self.env.local_transitions
        return any(started_mark != mark
                   for started_mark in self._inflight.values())

    def touch_progress(self) -> None:
        """Reset the stall clock (local fault legitimately paused us)."""
        self.last_progress = self.env.sim.now

    def drain(self) -> None:
        """Stop the clients and wait out their in-flight orders."""
        self.running = False
        for process in self._processes:
            if process.alive:
                self.env.sim.run_until_complete(process)

    @property
    def orders_completed(self) -> int:
        """Orders that committed or were cleanly rejected."""
        return len(self.completions)


@dataclass
class ChaosReport:
    """Everything one campaign run produced."""

    preset: str
    seed: int
    started_at: float
    finished_at: float = 0.0
    timeline: List[FaultEvent] = field(default_factory=list)
    violations: List[ChaosViolation] = field(default_factory=list)
    violation_lines: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    orders_completed: int = 0
    failed_attempts: int = 0
    converged: bool = False
    converge_seconds: float = 0.0
    final_entry_lag: int = -1
    failover_checked: bool = False
    failover_consistent: bool = False
    lost_committed_orders: int = -1
    #: alert transitions the SLO engine observed during the campaign
    alerts: List[AlertTransition] = field(default_factory=list)
    #: auto-generated postmortem (set when any invariant was violated)
    postmortem: Optional[IncidentReport] = None

    @property
    def passed(self) -> bool:
        """True when every invariant held (the CLI's exit status)."""
        if self.violations or not self.converged:
            return False
        if self.failover_checked and (
                not self.failover_consistent
                or self.lost_committed_orders != 0):
            return False
        return True

    @property
    def digest(self) -> str:
        """Deterministic fingerprint of the run (same seed ⇒ same digest)."""
        hasher = hashlib.sha256()
        for event in self.timeline:
            hasher.update(
                f"{event.time:.6f}|{event.kind}|{event.action}\n".encode())
        for key in sorted(self.counters):
            hasher.update(f"{key}={self.counters[key]}\n".encode())
        for transition in self.alerts:
            hasher.update(f"{transition.time:.6f}|{transition.rule}"
                          f"|{transition.state}\n".encode())
        hasher.update(
            f"orders={self.orders_completed} failed={self.failed_attempts} "
            f"lag={self.final_entry_lag} "
            f"violations={len(self.violations)}\n".encode())
        return hasher.hexdigest()[:16]

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"chaos campaign {self.preset!r} seed={self.seed}: "
            f"{'PASS' if self.passed else 'FAIL'}",
            f"  simulated time      : {self.started_at:.3f}s -> "
            f"{self.finished_at:.3f}s",
            f"  orders completed    : {self.orders_completed} "
            f"({self.failed_attempts} attempts retried under faults)",
            f"  converged after heal: "
            f"{'yes' if self.converged else 'NO'} "
            f"({self.converge_seconds:.3f}s, final lag "
            f"{self.final_entry_lag})",
        ]
        if self.failover_checked:
            lines.append(
                f"  failover            : "
                f"{'consistent' if self.failover_consistent else 'FAILED'}"
                f", lost committed orders {self.lost_committed_orders}")
        lines.append("  fault timeline:")
        lines.extend(f"    {event}" for event in self.timeline)
        if self.alerts:
            lines.append("  alert transitions:")
            lines.extend(f"    {transition}"
                         for transition in self.alerts)
        else:
            lines.append("  alert transitions: none")
        lines.append("  counters:")
        for key in sorted(self.counters):
            lines.append(f"    {key:44} {self.counters[key]}")
        if self.violation_lines:
            lines.append("  invariant violations:")
            lines.extend(f"    {line}" for line in self.violation_lines)
        else:
            lines.append("  invariant violations: none")
        lines.append(f"  digest: {self.digest}")
        return "\n".join(lines)


class ChaosEngine:
    """Runs one fault plan against one environment."""

    def __init__(self, env: ChaosEnvironment, plan: FaultPlan,
                 client_count: int = 3) -> None:
        self.env = env
        self.plan = plan
        self.client_count = client_count
        self.timeline: List[FaultEvent] = []
        #: the campaign's SLO engine (built in :meth:`run`)
        self.slo: Optional[SloEngine] = None

    # -- fault driving -------------------------------------------------------

    def _record(self, fault: Fault, action: str, detail: str) -> None:
        self.timeline.append(FaultEvent(
            time=self.env.sim.now, kind=fault.kind, action=action,
            detail=detail))
        self.env.sim.telemetry.recorder.record(
            "fault", fault.kind, action=action, detail=detail)

    def _drive_fault(self, fault: Fault,
                     start: float) -> Generator[object, object, None]:
        sim = self.env.sim
        delay = start + fault.at - sim.now
        if delay > 0:
            yield sim.sleep(delay)
        detail = fault.inject(self.env)
        self.env.fault_started(fault)
        sim.telemetry.registry.counter(
            "repro_chaos_faults_total",
            help="Faults injected by chaos campaigns",
            fault=fault.kind).increment()
        self._record(fault, "inject", detail)
        if fault.duration > 0:
            yield sim.sleep(fault.duration)
        self._heal(fault)

    def _heal(self, fault: Fault) -> None:
        if fault.healed:
            return
        detail = fault.heal(self.env)
        fault.healed = True
        self.env.fault_healed(fault)
        self._record(fault, "heal", detail)

    # -- the campaign --------------------------------------------------------

    def run(self, verify_failover: bool = True) -> ChaosReport:
        """Run the full campaign; returns the report (never raises on
        invariant violations — they are *reported*)."""
        env = self.env
        sim = env.sim
        start = sim.now
        report = ChaosReport(preset=self.plan.name,
                             seed=sim.rng.master_seed,
                             started_at=start)
        workload = ChaosWorkload(env, client_count=self.client_count)
        monitor = InvariantMonitor(env, workload)
        monitor.start()
        self.slo = SloEngine(sim, standard_rules(
            env.system.main.array, env.group,
            env.business.app.coordinator))
        self.slo.start()
        for fault in self.plan.faults:
            sim.spawn(self._drive_fault(fault, start),
                      name=f"chaos-{fault.kind}")
        sim.run(until=start + self.plan.fault_window)
        # safety net for hand-built plans whose heals outlast the window
        for fault in self.plan.faults:
            if not fault.healed:
                self._heal(fault)
        workload.drain()
        monitor.stop()

        # every fault is healed, so any order still parked in doubt
        # (decided commit, Phase 2 cut short by a crash) must now finish
        app = env.business.app
        if app.coordinator.in_doubt:
            sim.run_until_complete(sim.spawn(
                app.resolve_in_doubt(), name="chaos-resolve-in-doubt"))

        # convergence: the self-healing pipeline must drain completely
        converge_start = sim.now
        converged = self._wait_for_convergence()
        report.converged = converged
        report.converge_seconds = sim.now - converge_start
        report.final_entry_lag = env.group.entry_lag
        if not converged:
            monitor.violations.append(ChaosViolation(
                time=sim.now, invariant="lag-convergence",
                detail=(f"entry lag {env.group.entry_lag} after "
                        f"{report.converge_seconds:.3f}s "
                        f"(bound {self.plan.converge_timeout:g}s, "
                        f"suspended={env.group.suspended})")))

        monitor.final_checks()
        self.slo.stop()

        if verify_failover:
            report.failover_checked = True
            try:
                promoted = fail_and_recover(env.system, env.business)
            except CollapsedBackupError as exc:
                report.failover_consistent = False
                monitor.violations.append(ChaosViolation(
                    time=sim.now, invariant="failover-consistency",
                    detail=str(exc)))
            else:
                business_report = promoted.report.business_report
                report.failover_consistent = business_report.consistent
                report.lost_committed_orders = \
                    promoted.report.lost_committed_orders
                if report.lost_committed_orders != 0:
                    monitor.violations.append(ChaosViolation(
                        time=sim.now, invariant="failover-rpo",
                        detail=(f"{report.lost_committed_orders} committed"
                                " orders lost despite a converged "
                                "pipeline")))

        report.finished_at = sim.now
        report.timeline = list(self.timeline)
        report.violations = list(monitor.violations)
        report.violation_lines = monitor.summary_lines()
        report.orders_completed = workload.orders_completed
        report.failed_attempts = workload.failed_attempts
        report.alerts = list(self.slo.transitions)
        report.counters = self._collect_counters()
        if report.violations:
            # auto-emit the postmortem while the evidence is still hot
            report.postmortem = self.build_postmortem(report)
        return report

    def build_postmortem(self, report: ChaosReport,
                         title: Optional[str] = None) -> IncidentReport:
        """Join this run's black box, spans, and metrics into a
        postmortem (see :mod:`repro.telemetry.incident`)."""
        notes = [f"campaign {'passed' if report.passed else 'FAILED'}: "
                 f"{report.orders_completed} orders completed, "
                 f"{len(report.violations)} invariant violations"]
        return build_incident(
            self.env.sim,
            title=title or (f"chaos campaign {report.preset!r} "
                            f"seed={report.seed}"),
            seed=report.seed,
            alerts=report.alerts or
            (self.slo.transitions if self.slo else []),
            window=(report.started_at, self.env.sim.now),
            notes=notes)

    def _wait_for_convergence(self) -> bool:
        env = self.env
        sim = env.sim
        deadline = sim.now + self.plan.converge_timeout
        while sim.now < deadline:
            if self._converged():
                return True
            env.group.ensure_repair()
            sim.run(until=min(deadline, sim.now + 0.02))
        return self._converged()

    def _converged(self) -> bool:
        """Data plane drained *and* the control plane caught up."""
        env = self.env
        dirty = sum(len(pair.dirty_blocks)
                    for pair in env.group.pairs.values())
        if env.group.suspended or dirty > 0 or env.group.entry_lag > 0:
            return False
        return self._control_plane_ready()

    def _control_plane_ready(self) -> bool:
        """True once the namespace's replication CR is ``Paired`` again.

        Control-plane faults (outages, crashes, dropped watches) leave
        the data plane replicating but the CR status stale; convergence
        includes the reconcilers catching back up — the reconcile-
        convergence invariant the monitor then re-asserts.
        """
        from repro.csi.crds import (STATE_PAIRED,
                                    ConsistencyGroupReplication)
        from repro.errors import ApiError
        env = self.env
        namespace = env.business.namespace
        try:
            cr = env.system.main.cluster.api.try_get(
                ConsistencyGroupReplication, f"nso-{namespace}",
                namespace)
        except ApiError:
            return False
        return cr is not None and cr.status.state == STATE_PAIRED

    def _collect_counters(self) -> Dict[str, int]:
        group = self.env.group
        counters: Dict[str, int] = {}
        injected = [event for event in self.timeline
                    if event.action == "inject"]
        counters["chaos_faults_total"] = len(injected)
        for event in injected:
            key = f"chaos_faults_total[{event.kind}]"
            counters[key] = counters.get(key, 0) + 1
        counters["integrity_corruptions_detected_total[wire]"] = \
            group.corruptions_wire.value
        counters["integrity_corruptions_detected_total[journal]"] = \
            group.corruptions_journal.value
        counters["repair_resyncs_total"] = group.repair_resyncs.value
        counters["journal_suspensions_total"] = group.suspensions.value
        counters["quarantined_entries"] = len(group.quarantine)
        counters["corrupted_payloads_injected"] = \
            len(self.env.corrupted_payloads)
        counters["transfers_dropped"] = \
            self.env.system.replication_link.transfers_dropped
        api = self.env.system.main.cluster.api
        if api.chaos is not None:
            counters["api_faults_injected_total"] = api.chaos.injected
        rpc = self.env.system.replication_context.rpc
        if rpc is not None and rpc.injector.injected:
            counters["csi_rpc_timeouts_injected_total"] = \
                rpc.injector.injected
        restarts = sum(
            controller.restart_count for controller in
            self.env.system.main.cluster.manager.controllers)
        if restarts:
            counters["controller_restarts_total"] = restarts
        # wire data reduction counters enter the digest only when the
        # engine is on, so default campaigns digest byte-identically to
        # pre-reduction builds
        reducer = group.reducer
        if reducer.enabled:
            counters["reduction_lookups"] = reducer.lookups
            counters["reduction_hits"] = reducer.hits
            counters["reduction_ref_fallbacks_total"] = \
                reducer.ref_fallbacks.value
            counters["reduction_cache_invalidations_total"] = \
                reducer.invalidations.value
            counters["reduction_shipments_discarded_total"] = \
                reducer.discarded_shipments.value
            counters["wire_bytes_saved_total[dedup]"] = \
                reducer.saved_dedup.value
            counters["wire_bytes_saved_total[compress]"] = \
                reducer.saved_compress.value
            counters["wire_bytes_saved_total[header]"] = \
                reducer.saved_header.value
        # batch-window counters enter the digest only when apply_lanes > 1
        # (same rule as reduction): serial-applier campaigns digest as
        # they did before the knob existed
        if group.lane_conflicts is not None:
            counters["restore_lanes"] = group.config.apply_lanes
            counters["restore_lane_conflicts_total"] = \
                group.lane_conflicts.value
        if self.slo is not None:
            counters["alerts_fired_total"] = sum(
                1 for transition in self.slo.transitions
                if transition.state == "firing")
            counters["alerts_resolved_total"] = sum(
                1 for transition in self.slo.transitions
                if transition.state == "resolved")
        return counters


def run_campaign(seed: int, preset: str = "quick",
                 verify_failover: bool = True,
                 adc_overrides: Optional[dict] = None,
                 ) -> ChaosReport:
    """Build an environment, generate the preset's plan, run it.

    ``adc_overrides`` reconfigures the replication engine under test
    (e.g. ``coalesce_overwrites=True`` to storm the coalescing path).
    """
    try:
        campaign = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown campaign preset {preset!r}; "
            f"choose from {sorted(PRESETS)}") from None
    env = build_chaos_environment(seed, adc_overrides=adc_overrides)
    plan = build_plan(env.sim, campaign)
    engine = ChaosEngine(env, plan)
    return engine.run(verify_failover=verify_failover)


def build_incident_plan() -> FaultPlan:
    """The canonical SLO-incident schedule: partition plus squeeze.

    Timing is chosen so the causal chain unfolds strictly in order at
    the chaos environment's scale: the partition (t=0.25) backs up the
    main journal until the RPO burn-rate alert fires (~t=0.33, once the
    long window's error budget burns); the squeeze (t=0.45) then
    overflows the journal and suspends the group; both heal by t=0.70,
    auto-repair resyncs, lag drains, and the alert resolves.
    """
    return FaultPlan(
        name="incident", fault_window=1.3, converge_timeout=4.0,
        faults=(LinkPartition(at=0.25, duration=0.45),
                JournalSqueeze(at=0.45, duration=0.20, slack=24)))


@dataclass
class IncidentRun:
    """One deterministic incident scenario, fully observed."""

    report: ChaosReport
    incident: IncidentReport
    engine: ChaosEngine


def run_incident(seed: int = 7, verify_failover: bool = False,
                 dump_dir: Optional[str] = None) -> IncidentRun:
    """Run the canonical incident scenario end to end.

    Builds the standard chaos environment, runs
    :func:`build_incident_plan` with the SLO engine and flight recorder
    watching, snapshots the black box, and renders the postmortem.
    Fully seed-deterministic: the same seed yields byte-identical
    postmortem JSON.  ``dump_dir`` additionally writes every
    flight-recorder snapshot to disk.
    """
    env = build_chaos_environment(seed)
    if dump_dir is not None:
        env.sim.telemetry.recorder.dump_dir = Path(dump_dir)
    engine = ChaosEngine(env, build_incident_plan())
    report = engine.run(verify_failover=verify_failover)
    # always leave a flight-recorder dump, violations or not
    env.sim.telemetry.recorder.snapshot("incident-campaign")
    incident = engine.build_postmortem(
        report, title=f"link-partition incident (seed {seed})")
    return IncidentRun(report=report, incident=incident, engine=engine)


def _campaign_cell(cell: Tuple[int, str, bool, Optional[dict]],
                   ) -> ChaosReport:
    """One seeded campaign (a :class:`ParallelRunner` cell)."""
    seed, preset, verify_failover, adc_overrides = cell
    return run_campaign(seed=seed, preset=preset,
                        verify_failover=verify_failover,
                        adc_overrides=adc_overrides)


def run_campaigns(seeds: Sequence[int], preset: str = "quick",
                  verify_failover: bool = True,
                  jobs: int = 1,
                  adc_overrides: Optional[dict] = None,
                  ) -> List[ChaosReport]:
    """One campaign per seed, optionally sharded across processes.

    Reports come back in ``seeds`` order regardless of ``jobs`` and
    each campaign is fully seed-deterministic (every campaign builds
    its own simulator; :class:`ChaosReport` is plain picklable data),
    so a parallel soak renders byte-identically to a serial one.
    ``adc_overrides`` reconfigures the replication engine under test in
    every cell, e.g. ``dict(transfer_window=4)`` to soak the pipelined
    transfer path.
    """
    from repro.bench.parallel import ParallelRunner

    if preset not in PRESETS:
        raise ValueError(
            f"unknown campaign preset {preset!r}; "
            f"choose from {sorted(PRESETS)}")
    cells = [(seed, preset, verify_failover, adc_overrides)
             for seed in seeds]
    return ParallelRunner(jobs).map(_campaign_cell, cells)
