"""Unit tests pinning the exception API (attributes callers rely on)."""

import pytest

from repro import errors


def test_hierarchy_rooted_at_repro_error():
    leaves = [
        errors.SimulationDeadlock, errors.ProcessInterrupted,
        errors.UnknownSiteError,
        errors.KeyNotFound, errors.WALError,
        errors.LockNotHeld, errors.DeadlockDetected, errors.LockTimeout,
        errors.TwoPhaseViolation, errors.TransactionAborted,
        errors.InvalidTransactionState,
        errors.NotCompensatable, errors.UnknownAction,
        errors.PersistenceViolation,
        errors.ProtocolViolation, errors.HistoryError,
        errors.CorrectnessViolation, errors.AnalysisError,
    ]
    for leaf in leaves:
        assert issubclass(leaf, errors.ReproError)


def test_deadlock_detected_attributes():
    exc = errors.DeadlockDetected("T2", ["T1", "T2", "T1"])
    assert exc.victim == "T2"
    assert exc.cycle == ["T1", "T2", "T1"]
    assert "T1->T2->T1" in str(exc)


def test_transaction_aborted_attributes():
    exc = errors.TransactionAborted("T1", "vote NO")
    assert exc.txn_id == "T1"
    assert exc.reason == "vote NO"


def test_process_interrupted_cause():
    exc = errors.ProcessInterrupted(cause={"why": "test"})
    assert exc.cause == {"why": "test"}


def test_key_not_found_carries_key():
    assert errors.KeyNotFound("k9").key == "k9"


def test_not_compensatable_carries_op():
    assert errors.NotCompensatable("dispense").op_name == "dispense"


def test_unknown_action_is_a_not_compensatable():
    # Callers catching NotCompensatable (the real-action path) also catch
    # unknown names; callers who care can catch the narrower type.
    exc = errors.UnknownAction("teleport")
    assert isinstance(exc, errors.NotCompensatable)
    assert exc.op_name == "teleport"
    assert "teleport" in str(exc)
    assert "repertoire" in str(exc)


def test_unknown_action_distinct_from_real_action():
    real = errors.NotCompensatable("dispense")
    assert not isinstance(real, errors.UnknownAction)


def test_correctness_violation_cycle_defaults_empty():
    assert errors.CorrectnessViolation("msg").cycle == []
    assert errors.CorrectnessViolation("msg", ["A", "B"]).cycle == ["A", "B"]


def test_catch_all_pattern():
    with pytest.raises(errors.ReproError):
        raise errors.LockTimeout("too slow")
