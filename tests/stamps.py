"""Covering stamps for messages a test sends by hand.

A test that poses as an engine and sends a message the covering table
(:data:`repro.net.message.COVERING`) names must stamp it like the engine
would: with a durable record of a covering kind.
"""

from repro.storage.wal import Cover, RecordType, WriteAheadLog


def durable(kind: RecordType, txn_id: str = "T1") -> Cover:
    """A stamp naming a forced ``kind`` record in a log of the test's own."""
    log = WriteAheadLog("test")
    log.append(kind, txn_id, force=True)
    return log.cover(txn_id)
