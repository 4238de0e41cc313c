"""The Namespace Operator (NSO) — the paper's contribution (§III-B1).

"When users put a tag to the target namespace, the NSO extracts all the
volumes in the namespace and creates custom resources for configuring
the ADC and consistent group."

The reconciler:

1. watches namespaces for the backup tag (``tags.TAG_KEY``);
2. on a recognised tag, lists the namespace's PVCs, waits for them all
   to be bound, and plans the replication
   (:func:`repro.operator.planner.plan_backup`);
3. creates (or updates, when claims come and go) **one**
   :class:`~repro.csi.crds.ConsistencyGroupReplication` custom resource
   realising the plan — the replication plugin does the array work;
4. mirrors progress back onto the namespace as annotations, which is
   what the demo console shows the user;
5. on tag removal, deletes the owned CR (the plugin tears the pairs
   down through its finalizer).

The operator performs **zero storage-array operations** itself: its
entire output is custom resources and annotations, exactly the paper's
point about removing the need for storage expertise.
"""

from __future__ import annotations

from typing import ClassVar, Generator, List, Optional, Type

from repro.csi.crds import (ConsistencyGroupReplication, STATE_PAIRED)
from repro.operator.planner import BackupPlan, plan_backup, plan_differs
from repro.operator.tags import (ANNOTATION_MESSAGE, ANNOTATION_STATE,
                                 ANNOTATION_VOLUMES, TAG_KEY, BackupMode,
                                 parse_tag)
from repro.platform.apiserver import ApiServer, WatchEvent
from repro.platform.controller import Reconciler, ReconcileResult, Requeue
from repro.platform.objects import ObjectKey
from repro.platform.resources import Namespace, PersistentVolumeClaim

#: operator-owned label put on the CRs it creates
OWNED_BY_LABEL = "backup.hitachi.com/owned-by"
OWNER_NAME = "namespace-operator"

#: namespace annotation states the operator reports
NS_STATE_CONFIGURING = "Configuring"
NS_STATE_WAITING = "WaitingForVolumes"
NS_STATE_PROTECTED = "Protected"
NS_STATE_DEGRADED = "Degraded"
NS_STATE_NO_VOLUMES = "NoVolumes"


class NamespaceOperatorReconciler(Reconciler):
    """Reconciles namespace tags into replication custom resources."""

    kind: ClassVar[Type[Namespace]] = Namespace
    extra_kinds = (PersistentVolumeClaim, ConsistencyGroupReplication)

    def reconcile(self, api: ApiServer, key: ObjectKey,
                  ) -> Generator[object, object, ReconcileResult]:
        namespace = api.try_get(Namespace, key.name)
        if namespace is None:
            return None
        # a terminating namespace is unprotected: tear the CR down so
        # the garbage collector can finish
        tag_value = namespace.meta.labels.get(TAG_KEY)
        mode = None if namespace.meta.deleting else parse_tag(tag_value)
        cr_name = f"nso-{key.name}"
        existing = api.try_get(ConsistencyGroupReplication, cr_name,
                               key.name)
        if mode is None:
            return self._reconcile_untagged(api, namespace, existing)
        return self._reconcile_tagged(api, namespace, mode, existing)
        yield  # pragma: no cover - generator marker

    # -- tag removed -----------------------------------------------------

    def _reconcile_untagged(self, api: ApiServer, namespace: Namespace,
                            existing: Optional[ConsistencyGroupReplication],
                            ) -> ReconcileResult:
        if existing is not None and not existing.meta.deleting:
            if existing.meta.labels.get(OWNED_BY_LABEL) == OWNER_NAME:
                api.delete(ConsistencyGroupReplication,
                           existing.meta.name, existing.meta.namespace)
                return Requeue(after=0.050)
        if existing is not None:
            return Requeue(after=0.050)  # teardown in progress
        self._annotate(api, namespace, None, None, None)
        return None

    # -- tag present ------------------------------------------------------

    def _reconcile_tagged(self, api: ApiServer, namespace: Namespace,
                          mode: BackupMode,
                          existing: Optional[ConsistencyGroupReplication],
                          ) -> ReconcileResult:
        claims = api.list(PersistentVolumeClaim,
                          namespace=namespace.meta.name)
        plan = plan_backup(namespace.meta.name, mode, claims)
        if plan.empty:
            self._annotate(api, namespace, NS_STATE_NO_VOLUMES,
                           "namespace has no persistent volume claims", "")
            return Requeue(after=0.250)
        if not plan.complete:
            self._annotate(
                api, namespace, NS_STATE_WAITING,
                "waiting for claims to bind: "
                + ", ".join(plan.unbound_pvc_names), "")
            return Requeue(after=0.050)
        if existing is None or existing.meta.deleting:
            if existing is None:
                self._create_cr(api, plan)
            self._annotate(api, namespace, NS_STATE_CONFIGURING,
                           "creating replication configuration",
                           ",".join(plan.pvc_names))
            return Requeue(after=0.050)
        if plan_differs(plan, existing.spec.pvc_names,
                        existing.spec.consistency_group):
            existing.spec.pvc_names = list(plan.pvc_names)
            existing.spec.consistency_group = \
                mode.uses_consistency_group
            api.update(existing)
            return Requeue(after=0.050)
        # mirror CR status onto the namespace
        if existing.status.state == STATE_PAIRED:
            state, requeue = NS_STATE_PROTECTED, 0.500
        elif existing.status.state == "Suspended":
            state, requeue = NS_STATE_DEGRADED, 0.250
        else:
            state, requeue = NS_STATE_CONFIGURING, 0.050
        self._annotate(api, namespace, state,
                       existing.status.message,
                       ",".join(plan.pvc_names))
        return Requeue(after=requeue)

    # -- helpers -------------------------------------------------------------

    def _create_cr(self, api: ApiServer, plan: BackupPlan) -> None:
        cr = ConsistencyGroupReplication()
        cr.meta.name = plan.cr_name()
        cr.meta.namespace = plan.namespace
        cr.meta.labels = {OWNED_BY_LABEL: OWNER_NAME}
        cr.spec.pvc_names = list(plan.pvc_names)
        cr.spec.consistency_group = plan.mode.uses_consistency_group
        api.create(cr)

    def _annotate(self, api: ApiServer, namespace: Namespace,
                  state: Optional[str], message: Optional[str],
                  volumes: Optional[str]) -> None:
        """Write operator annotations; no-op when nothing changed.

        State transitions are also recorded as platform events so the
        console can narrate the automation's progress.
        """
        from repro.platform.events import record_event
        previous_state = namespace.meta.annotations.get(ANNOTATION_STATE)
        desired = dict(namespace.meta.annotations)
        for annotation_key, value in ((ANNOTATION_STATE, state),
                                      (ANNOTATION_MESSAGE, message),
                                      (ANNOTATION_VOLUMES, volumes)):
            if value:
                desired[annotation_key] = value
            else:
                desired.pop(annotation_key, None)
        if desired == namespace.meta.annotations:
            return
        namespace.meta.annotations = desired
        api.update(namespace)
        if state and state != previous_state and \
                not namespace.meta.deleting:
            record_event(api, namespace.meta.name, namespace.key,
                         reason=state, message=message or "",
                         source=OWNER_NAME)
            api.sim.telemetry.registry.counter(
                "repro_nso_transitions_total",
                help="Namespace protection-state transitions",
                namespace=namespace.meta.name, state=state,
            ).increment()

    def map_event(self, api: ApiServer,
                  event: WatchEvent) -> List[ObjectKey]:
        """PVC and CR changes requeue their namespace."""
        return [ObjectKey(Namespace.KIND, "", event.object.meta.namespace)]


def install_namespace_operator(cluster) -> None:
    """Install the NSO on a (main-site) cluster."""
    cluster.install(NamespaceOperatorReconciler(),
                    name=f"{cluster.name}.namespace-operator")
