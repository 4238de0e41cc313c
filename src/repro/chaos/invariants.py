"""Always-on invariant monitoring for chaos campaigns.

The :class:`InvariantMonitor` runs as a simulation process alongside the
fault storm and watches the properties the paper's design promises even
under failure:

* **business-never-blocks** — order completions keep flowing and stay
  under a latency bound while any *replication-side* fault is active
  (partitions, brownouts, journal squeezes, corruption).  Local faults
  (array crash, slow disk) legitimately slow the business and are
  exempted while active.
* **zero-silent-corruption** — no payload corrupted by a fault is ever
  readable from a secondary volume: every corruption must be caught by
  the CRC32 end-to-end check and quarantined.
* **consistent-cut-when-healthy** — whenever the pipeline is fully
  drained (no suspension, no dirty blocks, zero entry lag), the backup
  image is a consistent prefix of the main site's ack history
  (:func:`repro.recovery.checker.check_storage_cut`).
* **lag-convergence** — after the last fault heals, ``entry_lag``
  returns to zero within the plan's ``converge_timeout`` (checked by the
  engine, reported through the same violation list).
* **reconcile-convergence** — after the control plane heals, the
  namespace's replication custom resource reaches ``Paired`` again:
  outages, crashes and dropped watches may delay reconciliation but
  never wedge it.
* **exactly-once-pairing** — no volume is ever replicated by more than
  one ADC pair, no secondary volume is orphaned (created by a timed-out
  RPC whose retry blindly created another), and no stray replication
  CRs exist beyond the operator's single owned resource.

Violations carry the simulated time and enough detail to replay the
failing seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List

from repro.csi.crds import STATE_PAIRED, ConsistencyGroupReplication
from repro.errors import ApiError
from repro.recovery.checker import (check_storage_cut,
                                    image_versions_from_volumes)

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosEnvironment, ChaosWorkload


@dataclass(frozen=True)
class ChaosViolation:
    """One broken invariant, timestamped in simulated time."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:9.4f}] {self.invariant}: {self.detail}"


#: sampling period of the watch process
WATCH_INTERVAL = 0.02
#: max gap between order completions while no local fault is active
STALL_BOUND = 0.30
#: max latency of one order while no local fault overlaps it
LATENCY_BOUND = 0.08
#: violations recorded per invariant before summarising
MAX_REPORTS = 5


class InvariantMonitor:
    """Watches the chaos invariants; collects violations."""

    def __init__(self, env: "ChaosEnvironment",
                 workload: "ChaosWorkload") -> None:
        self.env = env
        self.workload = workload
        self.violations: List[ChaosViolation] = []
        self._running = False
        self._checked_orders = 0
        self._stall_reported_at = -1.0
        self._suppressed = {"business-stalled": 0, "business-blocked": 0}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the watch process."""
        self._running = True
        self.env.sim.spawn(self._watch(), name="chaos-invariant-monitor")

    def stop(self) -> None:
        """Stop the watch process at its next wake-up."""
        self._running = False

    def _record(self, invariant: str, detail: str) -> None:
        reported = sum(1 for v in self.violations
                       if v.invariant == invariant)
        if reported >= MAX_REPORTS:
            if invariant in self._suppressed:
                self._suppressed[invariant] += 1
            return
        self.violations.append(ChaosViolation(
            time=self.env.sim.now, invariant=invariant, detail=detail))
        # an invariant firing is exactly what the black box exists for:
        # log it and freeze the ring before later events rotate the
        # evidence out of the buffer
        recorder = self.env.sim.telemetry.recorder
        recorder.record("invariant", invariant, detail=detail)
        recorder.snapshot(f"invariant-{invariant}")

    # -- the watch process ---------------------------------------------------

    def _watch(self) -> Generator[object, object, None]:
        sim = self.env.sim
        while self._running:
            yield sim.sleep(WATCH_INTERVAL)
            if not self._running:
                return
            self._check_progress()
            self._check_order_latency()

    def _check_progress(self) -> None:
        if self.env.local_fault_active or self.workload.residual_local \
                or not self.workload.running:
            # a crashed array / stalled disk may legitimately pause the
            # business; restart the stall clock when it heals
            self._stall_reported_at = -1.0
            self.workload.touch_progress()
            return
        gap = self.env.sim.now - self.workload.last_progress
        if gap > STALL_BOUND and \
                self._stall_reported_at != self.workload.last_progress:
            self._stall_reported_at = self.workload.last_progress
            self._record(
                "business-stalled",
                f"no order completed for {gap:.3f}s "
                f"(bound {STALL_BOUND:g}s, active faults: "
                f"{sorted(self.env.active_faults) or 'none'})")

    def _check_order_latency(self) -> None:
        completions = self.workload.completions
        for end, latency, exempt in completions[self._checked_orders:]:
            if not exempt and latency > LATENCY_BOUND:
                self._record(
                    "business-blocked",
                    f"order took {latency * 1e3:.1f}ms at t={end:.4f} "
                    f"(bound {LATENCY_BOUND * 1e3:g}ms)")
        self._checked_orders = len(completions)

    # -- end-of-campaign checks ---------------------------------------------

    def final_checks(self) -> None:
        """Run the whole-campaign invariants (after convergence)."""
        self._check_order_latency()
        self._check_silent_corruption()
        self._check_consistent_cut()
        self._check_reconcile_convergence()
        self._check_exactly_once_pairing()

    def _check_silent_corruption(self) -> None:
        """No corrupted payload may be readable from any secondary."""
        corrupted = self.env.corrupted_payloads
        if not corrupted:
            return
        group = self.env.group
        leaked = 0
        for pair in group.pairs.values():
            for block, value in sorted(pair.svol.block_map().items()):
                if value.payload in corrupted:
                    leaked += 1
                    self._record(
                        "silent-corruption",
                        f"svol {pair.svol.volume_id} block {block} holds "
                        "a fault-corrupted payload")
        # Note: zero *detections* is not itself a violation — a torn
        # journal entry can race an in-flight restore window, in which
        # case the pristine in-memory copy applies and the corrupted
        # replacement is discarded unread.  The invariant is exactly
        # "no corrupted payload is readable at the backup", checked
        # above; were verification broken, corrupted payloads would
        # land on the svol and the scan would catch them.

    def _check_consistent_cut(self) -> None:
        """Healthy pipeline ⇒ the backup is a prefix of the ack order."""
        group = self.env.group
        dirty = sum(len(pair.dirty_blocks)
                    for pair in group.pairs.values())
        if group.suspended or group.entry_lag > 0 or dirty > 0:
            return  # engine reports non-convergence separately
        pair_map = {pair.pvol.volume_id: pair.svol
                    for pair in group.pairs.values()}
        report = check_storage_cut(
            self.env.system.main.array.history,
            image_versions_from_volumes(pair_map))
        if not report.consistent:
            self._record("consistent-cut",
                         f"storage-level prefix check failed: {report}")

    def _check_reconcile_convergence(self) -> None:
        """Healed control plane ⇒ the namespace's CR is ``Paired``."""
        namespace = self.env.business.namespace
        api = self.env.system.main.cluster.api
        try:
            cr = api.try_get(ConsistencyGroupReplication,
                             f"nso-{namespace}", namespace)
        except ApiError as exc:
            self._record("reconcile-convergence",
                         f"api still failing after heal: {exc}")
            return
        if cr is None:
            self._record("reconcile-convergence",
                         f"replication CR nso-{namespace} missing after "
                         "the control plane healed")
        elif cr.status.state != STATE_PAIRED:
            self._record(
                "reconcile-convergence",
                f"CR nso-{namespace} stuck in {cr.status.state!r} "
                f"({cr.status.message or 'no message'})")

    def _check_exactly_once_pairing(self) -> None:
        """No duplicate ADC pairs, no orphaned svols, no stray CRs."""
        main = self.env.system.main.array
        backup = self.env.system.backup.array
        pvol_pairs: dict = {}
        svol_ids = set()
        for group_id in sorted(main.journal_groups):
            group = main.journal_groups[group_id]
            for pair_id in sorted(group.pairs):
                pair = group.pairs[pair_id]
                pvol_pairs.setdefault(
                    pair.pvol.volume_id, []).append(pair_id)
                svol_ids.add(pair.svol.volume_id)
        for volume_id, pair_ids in sorted(pvol_pairs.items()):
            if len(pair_ids) > 1:
                self._record(
                    "exactly-once-pairing",
                    f"pvol {volume_id} replicated by "
                    f"{len(pair_ids)} pairs: {pair_ids}")
        # an svol-named backup volume no pair references is the debris
        # of a timed-out create whose retry did not probe first
        for volume in backup.list_volumes():
            if volume.name.endswith("-svol") \
                    and volume.volume_id not in svol_ids:
                self._record(
                    "exactly-once-pairing",
                    f"orphaned secondary volume {volume.volume_id} "
                    f"({volume.name!r}) not referenced by any pair")
        namespace = self.env.business.namespace
        api = self.env.system.main.cluster.api
        try:
            group_crs = api.list(ConsistencyGroupReplication,
                                 namespace=namespace)
        except ApiError as exc:
            self._record("exactly-once-pairing",
                         f"api still failing after heal: {exc}")
            return
        for cr in group_crs:
            if cr.meta.name != f"nso-{namespace}":
                self._record(
                    "exactly-once-pairing",
                    f"stray ConsistencyGroupReplication "
                    f"{cr.meta.name!r} beside the operator's own")

    # -- reporting -----------------------------------------------------------

    def summary_lines(self) -> List[str]:
        """Violations plus suppression counts, render-ready."""
        lines = [str(violation) for violation in self.violations]
        for invariant, count in sorted(self._suppressed.items()):
            if count:
                lines.append(
                    f"... and {count} more {invariant} violations")
        return lines
