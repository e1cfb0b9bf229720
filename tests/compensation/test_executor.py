"""Unit tests for the compensation executor."""

from repro.compensation import CompensationExecutor
from repro.locking import LockMode
from repro.sim import Environment
from repro.txn import ReadOp, SemanticOp, Site, WriteOp
from repro.txn.transaction import TxnStatus


def make_site():
    env = Environment()
    return env, Site(env, "S1")


def locally_commit_forward(env, site, txn_id, ops):
    def proc():
        site.ltm.begin(txn_id)
        yield from site.ltm.run_ops(txn_id, ops)
        site.ltm.local_commit(txn_id)

    env.run(env.process(proc()))


def test_semantic_compensation_restores_balance_semantically():
    env, site = make_site()
    site.load({"acct": 100})
    locally_commit_forward(
        env, site, "T1", [SemanticOp("deposit", "acct", {"amount": 50})]
    )
    # Another transaction deposits in between: compensation must not clobber.
    locally_commit_forward(
        env, site, "T2", [SemanticOp("deposit", "acct", {"amount": 7})]
    )
    executor = CompensationExecutor(site)
    ct_id = env.run(env.process(executor.run("T1")))
    assert ct_id == "CT1"
    # Semantic undo: only T1's 50 removed, T2's 7 intact.
    assert site.store.get("acct") == 107
    assert site.ltm.status["T1"] is TxnStatus.COMPENSATED
    assert "CT1" in site.history.committed
    assert executor.stats.completed == 1


def test_generic_compensation_uses_before_images():
    env, site = make_site()
    site.load({"x": 1, "y": 2})
    locally_commit_forward(env, site, "T1", [WriteOp("x", 10), WriteOp("y", 20)])
    executor = CompensationExecutor(site)
    env.run(env.process(executor.run("T1")))
    assert site.store.get("x") == 1
    assert site.store.get("y") == 2


def test_mixed_ops_semantic_preferred_generic_fallback():
    env, site = make_site()
    site.load({"acct": 100, "note": "old"})
    locally_commit_forward(env, site, "T1", [
        SemanticOp("deposit", "acct", {"amount": 5}),
        WriteOp("note", "new"),
    ])
    executor = CompensationExecutor(site)
    ops = executor.build_ops("T1")
    kinds = {op.key: type(op).__name__ for op in ops}
    assert kinds == {"acct": "SemanticOp", "note": "WriteOp"}
    env.run(env.process(executor.run("T1")))
    assert site.store.get("acct") == 100
    assert site.store.get("note") == "old"


def test_compensation_covers_all_written_keys():
    """Theorem 2 precondition: CT writes >= T writes."""
    env, site = make_site()
    locally_commit_forward(env, site, "T1", [
        WriteOp("a", 1), WriteOp("b", 2), SemanticOp("increment", "c"),
    ])
    executor = CompensationExecutor(site)
    assert {op.key for op in executor.build_ops("T1")} == {"a", "b", "c"}


def test_compensation_runs_under_its_own_locks():
    env, site = make_site()
    site.load({"x": 1})
    locally_commit_forward(env, site, "T1", [WriteOp("x", 5)])

    # A reader holds an S lock on x; compensation must wait for it.
    events = []

    def reader():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", ReadOp("x"))
        yield env.timeout(10)
        site.ltm.commit("L1")
        events.append(("reader-done", env.now))

    def compensate():
        executor = CompensationExecutor(site)
        yield env.timeout(1)
        yield from executor.run("T1")
        events.append(("compensated", env.now))

    env.process(reader())
    env.process(compensate())
    env.run()
    assert events == [("reader-done", 10.0), ("compensated", 10.0)]


def test_compensation_retries_after_deadlock_victimization():
    env, site = make_site()
    site.load({"x": 1, "y": 1})
    locally_commit_forward(env, site, "T9", [WriteOp("x", 5), WriteOp("y", 5)])

    executor = CompensationExecutor(site, retry_delay=2.0)
    done = []

    # L1 locks y then x; the compensation (ordered x then y by the WAL
    # chain, newest first -> y then x... build order is newest-first) will
    # collide.  Force a deadlock by making L1 grab the keys in the opposite
    # order with a pause.
    comp_ops = executor.build_ops("T9")
    first_key = comp_ops[0].key
    second_key = comp_ops[1].key

    def blocker():
        site.ltm.begin("L1")
        yield from site.ltm.execute("L1", WriteOp(second_key, 7))
        yield env.timeout(5)
        yield from site.ltm.execute("L1", WriteOp(first_key, 7))
        site.ltm.commit("L1")

    def compensate():
        yield env.timeout(1)
        yield from executor.run("T9")
        done.append(env.now)

    env.process(blocker())
    env.process(compensate())
    env.run()
    # Persistence of compensation: despite losing a deadlock, it completed.
    assert done, "compensation must eventually commit"
    assert executor.stats.retries >= 1
    assert site.store.get("x") == 1
    assert site.store.get("y") == 1
    # L1 won the deadlock and committed its writes before compensation: the
    # final values must reflect compensation last (it restored 1).
    assert "CT9" in site.history.committed


def test_second_deadlock_undoes_only_the_retry():
    """CT9 loses two deadlocks; L1 commits y = 555 between them.  The second
    undo must stop at the retry's BEGIN: walking back into the first attempt
    would restore its stale 150 and the compensation would end at 100."""
    env, site = make_site()
    site.load({"x": 1, "y": 100})
    locally_commit_forward(env, site, "T9", [
        WriteOp("x", 5), SemanticOp("deposit", "y", {"amount": 50}),
    ])
    executor = CompensationExecutor(site, retry_delay=2.0)

    def blocker(txn_id, start, last_op):
        # Holds x, then asks for y while CT9 holds y and waits for x.
        yield env.timeout(start)
        site.ltm.begin(txn_id)
        yield from site.ltm.execute(txn_id, WriteOp("x", 7))
        yield env.timeout(4)
        yield from site.ltm.execute(txn_id, last_op)
        site.ltm.commit(txn_id)

    def compensate():
        yield env.timeout(1)
        yield from executor.run("T9")

    env.process(blocker("L1", 0, WriteOp("y", 555)))
    env.process(blocker("L2", 6, ReadOp("y")))
    env.process(compensate())
    env.run()
    assert executor.stats.retries == 2
    assert site.store.get("y") == 505  # L1's 555, less T9's deposit
    assert site.store.get("x") == 1
