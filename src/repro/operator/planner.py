"""Backup planning: from a tagged namespace to a replication plan.

The planner is pure logic (no API access, no simulation), so the exact
behaviour the operator automates — *which* volumes get protected and
*how* — is unit-testable in isolation.  The reconciler feeds it the
namespace's claims and applies the resulting plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.operator.tags import BackupMode
from repro.platform.resources import PersistentVolumeClaim


@dataclass(frozen=True)
class BackupPlan:
    """The desired replication configuration for one namespace."""

    namespace: str
    mode: BackupMode
    #: PVC names to protect, sorted for determinism
    pvc_names: tuple
    #: PVCs present but not yet bound (plan is incomplete until empty)
    unbound_pvc_names: tuple = ()

    @property
    def complete(self) -> bool:
        """True when every claim in the namespace is plannable."""
        return not self.unbound_pvc_names

    @property
    def empty(self) -> bool:
        """True when the namespace has no claims at all."""
        return not self.pvc_names and not self.unbound_pvc_names

    def cr_name(self) -> str:
        """Deterministic name of the CR realising this plan."""
        return f"nso-{self.namespace}"


def plan_backup(namespace: str, mode: BackupMode,
                claims: Sequence[PersistentVolumeClaim]) -> BackupPlan:
    """Compute the replication plan for a namespace's claims.

    Unbound claims are listed separately so the operator can wait for
    provisioning to finish before configuring the ADC — configuring a
    partial volume set would silently leave new data unprotected.
    """
    bound: List[str] = []
    unbound: List[str] = []
    for claim in claims:
        if claim.bound:
            bound.append(claim.meta.name)
        else:
            unbound.append(claim.meta.name)
    return BackupPlan(
        namespace=namespace, mode=mode,
        pvc_names=tuple(sorted(bound)),
        unbound_pvc_names=tuple(sorted(unbound)))


def plan_differs(plan: BackupPlan, current_pvc_names: Sequence[str],
                 current_consistency_group: bool) -> bool:
    """Whether an existing CR diverges from the plan (spec drift)."""
    if tuple(sorted(current_pvc_names)) != plan.pvc_names:
        return True
    return current_consistency_group != plan.mode.uses_consistency_group
