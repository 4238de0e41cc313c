"""Simulated enterprise storage array (the paper's external storage system).

Public surface:

* :class:`StorageArray`, :class:`ArrayConfig` — the array command facade;
* :class:`Volume`, :class:`VolumeRole`, :class:`MediaProfile` — volumes;
* :class:`StoragePool` — capacity pools;
* :class:`JournalVolume`, :class:`JournalEntry` — ADC journals;
* :class:`JournalGroup`, :class:`AdcConfig` — asynchronous data copy
  pipelines (a consistency group = several pairs in one journal group);
* :class:`SyncMirror` — the synchronous baseline;
* :class:`ReductionConfig`, :class:`FingerprintCache`,
  :class:`WireReducer` — wire data reduction (fingerprint dedup + one
  deflate stream a shipment) for the replication paths;
* :class:`ReplicationPair`, :class:`PairState`, :class:`CopyMode` —
  pair lifecycle;
* :class:`Snapshot`, :class:`SnapshotGroup`, :class:`SnapshotView` —
  copy-on-write snapshots;
* :class:`WriteHistory`, :class:`WriteRecord` — ack-order ground truth;
* :class:`LatencyRecorder`, :class:`LatencySummary`, :class:`Counter`,
  :class:`GaugeSeries`, :func:`percentile` — measurement.
"""

from repro.storage.adc import AdcConfig, JournalGroup
from repro.storage.array import ArrayConfig, AuditRecord, StorageArray
from repro.storage.history import WriteHistory, WriteRecord
from repro.storage.journal import JournalEntry, JournalVolume
from repro.telemetry.metrics import (Counter, Gauge, LatencyRecorder,
                                     LatencySummary, percentile)
from repro.storage.pool import StoragePool
from repro.storage.reduction import (FingerprintCache, ReductionConfig,
                                     WireReducer)
from repro.storage.replication import CopyMode, PairState, ReplicationPair
from repro.storage.sdc import SyncMirror
from repro.storage.snapshot import Snapshot, SnapshotGroup
from repro.storage.volume import (BlockValue, MediaProfile, SnapshotView,
                                  Volume, VolumeRole, VolumeStatus)

#: historical name of the telemetry :class:`Gauge`, kept for the public
#: storage API
GaugeSeries = Gauge

__all__ = [
    "AdcConfig",
    "ArrayConfig",
    "AuditRecord",
    "BlockValue",
    "CopyMode",
    "Counter",
    "FingerprintCache",
    "GaugeSeries",
    "JournalEntry",
    "JournalGroup",
    "JournalVolume",
    "LatencyRecorder",
    "LatencySummary",
    "MediaProfile",
    "PairState",
    "ReductionConfig",
    "ReplicationPair",
    "Snapshot",
    "SnapshotGroup",
    "SnapshotView",
    "StorageArray",
    "StoragePool",
    "SyncMirror",
    "Volume",
    "VolumeRole",
    "VolumeStatus",
    "WireReducer",
    "WriteHistory",
    "WriteRecord",
    "percentile",
]
