"""Hot-path classes stay ``__dict__``-free.

The allocation diet relies on ``__slots__`` across the kernel's event
classes, messages, operations and their compact parameters, lock
records, log records, and the specs and outcomes a run keeps per
transaction.  A single stray attribute assignment (or a subclass that forgets its own
``__slots__``) silently re-grows a per-instance ``__dict__`` and undoes
the win — the construction booby-traps below fail the moment that
happens, the same guard style PR 3 used for zero-cost observability.
"""

import pytest

from repro.locking.manager import HoldRecord, LockRequest
from repro.locking.modes import LockMode
from repro.net.message import Message, MsgType
from repro.sg.conflicts import OpKind, Operation
from repro.sim import Environment
from repro.sim.events import AllOf, Event, Initialize, Timeout
from repro.sim.process import Process
from repro.storage.wal import LogRecord, RecordType
from repro.txn.operations import Params, ReadOp, SemanticOp, WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, TxnOutcome


def _instances():
    """One live instance of every slotted hot-path class."""
    env = Environment()
    event = Event(env)
    timeout = Timeout(env, 1.0)

    def proc(env):
        yield env.timeout(1)

    process = env.process(proc(env))
    return [
        event,
        timeout,
        Initialize(env, process),
        AllOf(env, [event]),
        process,
        Message(
            msg_type=MsgType.VOTE, sender="S1", recipient="coord.T1",
            txn_id="T1",
        ),
        ReadOp("k0"),
        WriteOp("k0", 7),
        SemanticOp("deposit", "k0", {"amount": 5}),
        Params.of({"amount": 5}),
        Operation(txn_id="T1", kind=OpKind.READ, key="k0", site="S1", seq=0),
        LockRequest(
            txn_id="T1", key="k0", mode=LockMode.S, event=event,
            requested_at=0.0,
        ),
        HoldRecord(
            txn_id="T1", key="k0", mode=LockMode.S, granted_at=0.0,
            released_at=1.0,
        ),
        LogRecord(lsn=1, record_type=RecordType.BEGIN, txn_id="T1"),
        GlobalTxnSpec("T1", [SubtxnSpec("S1", [ReadOp("k0")])]),
        SubtxnSpec("S1", [ReadOp("k0")]),
        TxnOutcome("T1", committed=True),
    ]


def test_no_instance_dict():
    for instance in _instances():
        assert not hasattr(instance, "__dict__"), (
            f"{type(instance).__name__} grew a __dict__ — a stray "
            "attribute or a slotless subclass re-enabled per-instance dicts"
        )


def test_stray_attribute_assignment_raises():
    # Slotted classes raise AttributeError; frozen+slots dataclasses on
    # some CPython patchlevels raise TypeError from the generated
    # __setattr__ instead.  Either way the assignment must not succeed.
    for instance in _instances():
        with pytest.raises((AttributeError, TypeError)):
            instance.stray_attribute_for_slots_test = 1
