"""A minimal pod scheduler: Pending pods start Running once their PVCs
are bound.

The demonstration does not need real scheduling; it needs pods to hold
PVC references (so the namespace operator can see which claims a business
process uses) and to become Running only when their storage exists —
enough to script the use case of §II faithfully.
"""

from __future__ import annotations

from typing import ClassVar, Generator, List, Type

from repro.errors import NotFoundError
from repro.platform.apiserver import ApiServer, WatchEvent
from repro.platform.controller import Reconciler, ReconcileResult, Requeue
from repro.platform.objects import ObjectKey
from repro.platform.resources import PersistentVolumeClaim, Pod


class PodSchedulerReconciler(Reconciler):
    """Moves pods from Pending to Running when their claims are bound."""

    kind: ClassVar[Type[Pod]] = Pod
    extra_kinds = (PersistentVolumeClaim,)

    def __init__(self, start_delay: float = 0.010) -> None:
        if start_delay < 0:
            raise ValueError(f"start_delay must be >= 0: {start_delay}")
        self.start_delay = start_delay

    def reconcile(self, api: ApiServer, key: ObjectKey,
                  ) -> Generator[object, object, ReconcileResult]:
        try:
            pod = api.get(Pod, key.name, key.namespace)
        except NotFoundError:
            return None
        if pod.status.phase == "Running" or pod.meta.deleting:
            return None
        for pvc_name in pod.spec.pvc_names:
            pvc = api.try_get(PersistentVolumeClaim, pvc_name,
                              key.namespace)
            if pvc is None or not pvc.bound:
                return Requeue(after=0.050)
        if self.start_delay > 0:
            yield api.sim.sleep(self.start_delay)
        current = api.try_get(Pod, key.name, key.namespace)
        if current is None or current.status.phase == "Running":
            return None
        current.status.phase = "Running"
        api.update(current)
        return None

    def map_event(self, api: ApiServer,
                  event: WatchEvent) -> List[ObjectKey]:
        """A PVC change wakes every pod in its namespace (cheap and safe)."""
        pods = api.list(Pod, namespace=event.object.meta.namespace)
        return [pod.key for pod in pods]
