"""Unit tests for the local transaction manager."""

import pytest

from repro.compensation import SemanticAction, standard_registry
from repro.errors import DeadlockDetected, InvalidTransactionState
from repro.locking import LockMode
from repro.sim import Environment
from repro.storage.wal import RecordType
from repro.txn import ReadOp, SemanticOp, Site, WriteOp


def make_site():
    env = Environment()
    return env, Site(env, "S1")


def run(env, gen):
    """Drive a generator to completion inside a process."""
    return env.run(env.process(gen))


def test_read_returns_value_and_takes_shared_lock():
    env, site = make_site()
    site.load({"x": 42})

    def proc():
        site.ltm.begin("L1")
        value = yield from site.ltm.execute("L1", ReadOp("x"))
        assert site.locks.held_mode("L1", "x") is LockMode.S
        return value

    assert run(env, proc()) == 42
    assert site.ltm.read_results["L1"]["x"] == 42


def test_write_logs_before_image_and_takes_exclusive_lock():
    env, site = make_site()
    site.load({"x": 1})

    def proc():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", WriteOp("x", 2))
        assert site.locks.held_mode("L1", "x") is LockMode.X

    run(env, proc())
    assert site.store.get("x") == 2
    update = site.wal.updates_for("L1")[0]
    assert (update.before, update.after) == (1, 2)


def test_semantic_op_applies_and_records_inverse():
    env, site = make_site()
    site.load({"acct": 100})

    def proc():
        site.ltm.begin("T1")
        result = yield from site.ltm.execute(
            "T1", SemanticOp("deposit", "acct", {"amount": 50})
        )
        return result

    assert run(env, proc()) == 150
    assert site.store.get("acct") == 150
    (update,) = site.wal.updates_for("T1")
    assert update.op == SemanticOp("deposit", "acct", {"amount": 50})
    assert site.ltm.undo_program("T1") == [
        SemanticOp("withdraw", "acct", {"amount": 50}),
    ]


def test_inverses_returned_newest_first():
    """One undo step per update, newest first: semantic inverses, and
    before-image writes for generic updates (None = the key was absent)."""
    env, site = make_site()
    site.load({"c": 7})

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.run_ops("T1", [
            SemanticOp("deposit", "a", {"amount": 1}),
            WriteOp("c", 8),
            SemanticOp("deposit", "b", {"amount": 2}),
            WriteOp("d", 9),
        ])

    run(env, proc())
    assert site.ltm.undo_program("T1") == [
        WriteOp("d", None),
        SemanticOp("withdraw", "b", {"amount": 2}),
        WriteOp("c", 7),
        SemanticOp("withdraw", "a", {"amount": 1}),
    ]


def test_inverse_constructor_error_fails_the_forward_operation():
    """The inverse is built while the forward operation runs: a constructor
    that raises fails that operation before it logs or writes anything,
    so it can never fail a compensation after the vote."""
    env = Environment()
    site = Site(env, "S1", registry=standard_registry())
    site.load({"acct": 100})

    def broken_inverse(params, before):
        raise ValueError("no inverse for these params")

    site.registry.register(SemanticAction(
        name="credit", apply=lambda current, amount: current + amount,
        inverse=broken_inverse,
    ))

    def proc():
        site.ltm.begin("T1")
        with pytest.raises(ValueError, match="no inverse"):
            yield from site.ltm.execute(
                "T1", SemanticOp("credit", "acct", {"amount": 5}),
            )

    run(env, proc())
    assert site.store.get("acct") == 100
    assert site.wal.updates_for("T1") == []


def test_commit_releases_locks_and_records():
    env, site = make_site()

    def proc():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", WriteOp("x", 1))
        site.ltm.commit("L1")

    run(env, proc())
    assert site.locks.locks_of("L1") == {}
    assert "L1" in site.history.committed
    assert site.wal.status_of("L1") is RecordType.COMMIT


def test_abort_local_undoes_and_expunges():
    env, site = make_site()
    site.load({"x": 1})

    def proc():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", WriteOp("x", 99))
        site.ltm.abort_local("L1")

    run(env, proc())
    assert site.store.get("x") == 1
    assert all(op.txn_id != "L1" for op in site.history.ops)
    assert site.locks.locks_of("L1") == {}


def test_prepare_keeps_locks():
    env, site = make_site()

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", WriteOp("x", 1))
        site.ltm.prepare("T1")

    run(env, proc())
    assert site.locks.held_mode("T1", "x") is LockMode.X
    assert site.wal.status_of("T1") is RecordType.PREPARE


def test_local_commit_releases_immediately():
    """The O2PC move: vote YES and release all locks at once (Section 2)."""
    env, site = make_site()

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", WriteOp("x", 1))
        site.ltm.local_commit("T1")

    run(env, proc())
    assert site.locks.locks_of("T1") == {}
    assert site.wal.status_of("T1") is RecordType.LOCAL_COMMIT
    assert "T1" in site.history.committed


def test_complete_commit_after_prepare_releases():
    env, site = make_site()

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", WriteOp("x", 1))
        site.ltm.prepare("T1")
        site.ltm.complete_commit("T1")

    run(env, proc())
    assert site.locks.locks_of("T1") == {}
    assert site.wal.status_of("T1") is RecordType.COMMIT


def test_complete_commit_after_local_commit():
    env, site = make_site()

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", WriteOp("x", 1))
        site.ltm.local_commit("T1")
        site.ltm.complete_commit("T1")

    run(env, proc())
    assert site.wal.status_of("T1") is RecordType.COMMIT


def test_complete_commit_requires_vote_state():
    env, site = make_site()
    site.ltm.begin("T1")
    with pytest.raises(InvalidTransactionState):
        site.ltm.complete_commit("T1")


def test_rollback_subtxn_records_compensation_in_history():
    """Roll-back is modeled as the degenerate CT (Section 3.2)."""
    env, site = make_site()
    site.load({"x": 1})

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", WriteOp("x", 99))
        return site.ltm.rollback_subtxn("T1")

    ct_id = run(env, proc())
    assert ct_id == "CT1"
    assert site.store.get("x") == 1
    assert "T1" in site.history.aborted
    assert "CT1" in site.history.committed
    # The rolled-back T1 exposed nothing at this site: only the degenerate
    # CT remains visible in the SG.
    from repro.sg import SG

    sg = SG.from_history(site.history)
    assert not sg.has_node("T1")
    assert sg.has_node("CT1")


def test_rollback_subtxn_without_updates_skips_ct():
    env, site = make_site()
    site.load({"x": 1})

    def proc():
        site.ltm.begin("T1")
        yield from site.ltm.execute("T1", ReadOp("x"))
        return site.ltm.rollback_subtxn("T1")

    run(env, proc())
    assert "CT1" not in site.history.committed


def test_execute_after_termination_rejected():
    env, site = make_site()

    def proc():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", WriteOp("x", 1))
        site.ltm.commit("L1")
        with pytest.raises(InvalidTransactionState):
            yield from site.ltm.execute("L1", WriteOp("y", 2))

    run(env, proc())


def test_deadlock_propagates_to_caller():
    env, site = make_site()
    outcomes = {}

    def t(txn, first, second):
        site.ltm.begin(txn)
        try:
            yield from site.ltm.execute(txn, WriteOp(first, 1))
            yield env.timeout(1)
            yield from site.ltm.execute(txn, WriteOp(second, 1))
            site.ltm.commit(txn)
            outcomes[txn] = "committed"
        except DeadlockDetected:
            site.ltm.abort_local(txn)
            outcomes[txn] = "deadlocked"

    env.process(t("L1", "x", "y"))
    env.process(t("L2", "y", "x"))
    env.run()
    assert sorted(outcomes.values()) == ["committed", "deadlocked"]
