"""Simulated container platform (the paper's OpenShift clusters).

Public surface:

* :class:`Cluster` — one site's platform (API server + controllers +
  console);
* :class:`ApiServer`, :class:`WatchEvent`, :class:`EventType` — the
  object store;
* :class:`Controller`, :class:`ControllerManager`, :class:`Reconciler`,
  :class:`Requeue`, :class:`BackoffPolicy` — the controller runtime;
* resource kinds: :class:`Namespace`, :class:`Pod`,
  :class:`PersistentVolumeClaim`, :class:`PersistentVolume`,
  :class:`StorageClass`;
* :class:`Console`, :class:`ConsoleOperation` — the demo's operation
  surface;
* :class:`ObjectMeta`, :class:`ObjectKey`, :class:`Condition` — object
  model.
"""

from repro.platform.apiserver import (WATCH_CLOSED, ApiFaultInjector,
                                      ApiServer, EventType, WatchClosed,
                                      WatchEvent, WatchStream)
from repro.platform.cluster import Cluster
from repro.platform.console import Console, ConsoleOperation
from repro.platform.controller import (DEADLINE_EXCEEDED, BackoffPolicy,
                                       Controller, ControllerManager,
                                       Reconciler, Requeue)
from repro.platform.events import PlatformEvent, record_event
from repro.platform.objects import (ApiObject, Condition, ObjectKey,
                                    ObjectMeta, set_condition)
from repro.platform.resources import (CsiVolumeSource, Namespace,
                                      PersistentVolume,
                                      PersistentVolumeClaim, Pod, PodSpec,
                                      PvcSpec, PvSpec, StorageClass,
                                      claim_ref)
from repro.platform.scheduler import PodSchedulerReconciler

__all__ = [
    "ApiFaultInjector",
    "ApiObject",
    "ApiServer",
    "BackoffPolicy",
    "Cluster",
    "Condition",
    "Console",
    "ConsoleOperation",
    "Controller",
    "ControllerManager",
    "DEADLINE_EXCEEDED",
    "CsiVolumeSource",
    "EventType",
    "Namespace",
    "ObjectKey",
    "ObjectMeta",
    "PersistentVolume",
    "PersistentVolumeClaim",
    "PlatformEvent",
    "Pod",
    "PodSchedulerReconciler",
    "PodSpec",
    "PvSpec",
    "PvcSpec",
    "Reconciler",
    "Requeue",
    "StorageClass",
    "WATCH_CLOSED",
    "WatchClosed",
    "WatchEvent",
    "WatchStream",
    "claim_ref",
    "record_event",
    "set_condition",
]
