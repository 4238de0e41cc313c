"""MiniDB: a transactional key-value database over simulated storage.

The stand-in for the paper's Oracle databases (see DESIGN.md §2):
write-ahead logging, strict two-phase locking, redo-only recovery, and
two-phase commit — everything the collapse phenomenon needs, nothing it
does not.
"""

from repro.apps.minidb.device import (ArrayBlockDevice, BlockDevice,
                                      MemoryBlockDevice, ViewBlockDevice)
from repro.apps.minidb.engine import (LockManager, MiniDB, Transaction)
from repro.apps.minidb.pages import Page, bucket_for_key
from repro.apps.minidb.recovery import (RecoveredState, recover_database,
                                        reopen_database,
                                        scan_coordinator_decisions)
from repro.apps.minidb.twophase import (DistributedOutcome,
                                        DistributedTransaction,
                                        TwoPhaseCoordinator)
from repro.apps.minidb.wal import WalRecord, WalWriter, read_log

__all__ = [
    "ArrayBlockDevice",
    "BlockDevice",
    "DistributedOutcome",
    "DistributedTransaction",
    "LockManager",
    "MemoryBlockDevice",
    "MiniDB",
    "Page",
    "RecoveredState",
    "Transaction",
    "TwoPhaseCoordinator",
    "ViewBlockDevice",
    "WalRecord",
    "WalWriter",
    "bucket_for_key",
    "read_log",
    "recover_database",
    "reopen_database",
    "scan_coordinator_decisions",
]
