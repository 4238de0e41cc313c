"""Custom resources of the replication plugin (§III-B2).

The namespace operator does not talk to the storage array; it creates
this custom resource, and the *Replication Plug-in for Containers*
reconciles it into array commands.  One kind:

* :class:`ConsistencyGroupReplication` — the paper's configuration: every
  listed PVC's volume is paired inside **one** consistency group (one
  shared journal).  Setting ``spec.consistency_group = False`` gives the
  collapse-prone baseline: one private journal group per volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List

from repro.errors import InvalidObjectError
from repro.platform.objects import ApiObject, Condition

#: replication states surfaced in CR status
STATE_CONFIGURING = "Configuring"
STATE_COPYING = "Copying"
STATE_PAIRED = "Paired"
STATE_SUSPENDED = "Suspended"


@dataclass
class ConsistencyGroupReplicationSpec:
    """Desired replication of a set of PVCs as one consistency group."""

    pvc_names: List[str] = field(default_factory=list)
    #: share one journal (True, the paper's configuration) or give each
    #: pair its own journal (False, the collapse-prone ADC baseline)
    consistency_group: bool = True
    #: name of the backup site this group replicates to
    target_site: str = "backup"


@dataclass
class ConsistencyGroupReplicationStatus:
    """Observed replication state, maintained by the plugin."""

    state: str = STATE_CONFIGURING
    #: pvc name -> pair state string (COPY/PAIR/PSUS/PSUE/SSWS)
    pair_states: Dict[str, str] = field(default_factory=dict)
    #: pvc name -> backup-array S-VOL handle
    secondary_handles: Dict[str, str] = field(default_factory=dict)
    #: journal group ids backing this CR (1 with CG, N without)
    journal_groups: List[str] = field(default_factory=list)
    conditions: List[Condition] = field(default_factory=list)
    message: str = ""


@dataclass
class ConsistencyGroupReplication(ApiObject):
    """The custom resource the namespace operator creates (one per
    tagged namespace)."""

    KIND: ClassVar[str] = "ConsistencyGroupReplication"
    NAMESPACED: ClassVar[bool] = True

    spec: ConsistencyGroupReplicationSpec = field(
        default_factory=ConsistencyGroupReplicationSpec)
    status: ConsistencyGroupReplicationStatus = field(
        default_factory=ConsistencyGroupReplicationStatus)

    def validate(self) -> None:
        super().validate()
        if not self.spec.pvc_names:
            raise InvalidObjectError(
                f"ConsistencyGroupReplication {self.meta.name!r} needs at "
                "least one PVC")
        if len(set(self.spec.pvc_names)) != len(self.spec.pvc_names):
            raise InvalidObjectError(
                f"ConsistencyGroupReplication {self.meta.name!r} lists "
                "duplicate PVCs")
