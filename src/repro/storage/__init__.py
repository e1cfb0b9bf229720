"""Per-site storage engine: key-value store, write-ahead log, recovery.

Each site owns one :class:`~repro.storage.kvstore.KVStore` guarded by a
:class:`~repro.storage.wal.WriteAheadLog`.  Transactions log each update
(before- and after-image, and the semantic operation that made it) before
updating the store; :class:`~repro.storage.recovery.RecoveryManager`
implements crash-restart recovery (redo committed work, undo in-flight
work).
"""

from repro.storage.kvstore import KVStore
from repro.storage.recovery import RecoveryManager
from repro.storage.wal import LogRecord, RecordType, WriteAheadLog

__all__ = [
    "KVStore",
    "LogRecord",
    "RecordType",
    "RecoveryManager",
    "WriteAheadLog",
]
