"""Property-based tests: storage-engine invariants.

* rollback (``abort_local``) is an exact inverse — after undoing a
  transaction, the store equals its pre-transaction snapshot, whatever the
  update sequence;
* crash-restart is equivalent to replaying only committed work;
* WAL chains are complete and ordered per transaction.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.storage import KVStore, RecordType, RecoveryManager, WriteAheadLog
from repro.txn import Site, WriteOp

keys = st.sampled_from(["a", "b", "c", "d"])
values = st.integers(min_value=-100, max_value=100)


def logged_put(store, wal, txn, key, value):
    before = store.snapshot_value(key)
    wal.append(RecordType.UPDATE, txn, key=key, before=before, after=value)
    store.put(key, value)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(keys, values, max_size=4),
    st.lists(st.tuples(keys, values), min_size=1, max_size=15),
)
def test_rollback_restores_exact_pretransaction_state(initial, updates):
    env = Environment()
    site = Site(env, "S1")
    site.load(initial)
    snapshot = site.store.snapshot()
    site.ltm.begin("T1")
    env.run(env.process(site.ltm.run_ops(
        "T1", [WriteOp(key, value) for key, value in updates],
    )))
    site.ltm.abort_local("T1")
    assert site.store.snapshot() == snapshot


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["T1", "T2", "T3"]),
            st.lists(st.tuples(keys, values), min_size=1, max_size=5),
            st.booleans(),  # committed?
        ),
        min_size=1,
        max_size=6,
    )
)
def test_restart_equals_committed_replay(txn_batches):
    """Crash-restart recovery reproduces exactly the state obtained by
    applying only the committed transactions, in order."""
    store, wal = KVStore(), WriteAheadLog()
    rec = RecoveryManager(store, wal)
    reference = KVStore()
    seen: set[str] = set()
    for txn, updates, committed in txn_batches:
        if txn in seen:
            continue  # one batch per transaction id
        seen.add(txn)
        wal.append(RecordType.BEGIN, txn)
        for key, value in updates:
            logged_put(store, wal, txn, key, value)
        if committed:
            wal.append(RecordType.COMMIT, txn)
            for key, value in updates:
                reference.put(key, value)
    store.wipe()
    rec.restart()
    assert store.snapshot() == reference.snapshot()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["T1", "T2"]), keys, values),
        min_size=1,
        max_size=20,
    )
)
def test_wal_chains_are_ordered_and_complete(ops):
    store, wal = KVStore(), WriteAheadLog()
    per_txn: dict[str, int] = {}
    for txn, key, value in ops:
        if txn not in per_txn:
            wal.append(RecordType.BEGIN, txn)
        logged_put(store, wal, txn, key, value)
        per_txn[txn] = per_txn.get(txn, 0) + 1
    for txn, count in per_txn.items():
        chain = wal.records_for(txn)
        assert chain[0].record_type is RecordType.BEGIN
        updates = [r for r in chain if r.record_type is RecordType.UPDATE]
        assert len(updates) == count
        lsns = [r.lsn for r in chain]
        assert lsns == sorted(lsns)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(keys, values), min_size=1, max_size=10))
def test_before_images_chain_backwards_exactly(updates):
    """Each update's before-image equals the previous after-image of the
    same key (or the initial state)."""
    store, wal = KVStore(), WriteAheadLog()
    wal.append(RecordType.BEGIN, "T1")
    last: dict[str, int] = {}
    for key, value in updates:
        logged_put(store, wal, "T1", key, value)
        last[key] = value
    previous: dict[str, object] = {}
    for record in wal.updates_for("T1"):
        if record.key in previous:
            assert record.before == previous[record.key]
        record_after = record.after
        previous[record.key] = record_after
    for key, value in last.items():
        assert store.get(key) == value
