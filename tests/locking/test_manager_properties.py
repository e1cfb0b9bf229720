"""Property-based tests: lock-manager invariants under random schedules.

Hypothesis drives random sequences of acquire/release/cancel calls and
checks the safety invariants no schedule may violate:

* mutual exclusion — an X holder is always alone on its key;
* S/S compatibility — readers never exclude readers;
* conservation — every grant is eventually matched by at most one release,
  and the hold log's intervals never overlap illegally per key;
* no lost wakeups — when all transactions release everything, no grantable
  request is left waiting;
* lossless logs — the columnar hold and wait logs read back exactly what
  a list of records would hold.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockDetected, LockError, TransactionAborted
from repro.locking import LockManager, LockMode
from repro.locking.manager import HoldLog, HoldRecord, WaitLog
from repro.sim import Environment


TXNS = [f"T{i}" for i in range(1, 5)]
KEYS = ["a", "b", "c"]

action = st.one_of(
    st.tuples(
        st.just("acquire"),
        st.sampled_from(TXNS),
        st.sampled_from(KEYS),
        st.sampled_from([LockMode.S, LockMode.X]),
    ),
    st.tuples(st.just("release_all"), st.sampled_from(TXNS)),
    st.tuples(st.just("cancel"), st.sampled_from(TXNS)),
)


def check_compatibility(lm: LockManager) -> None:
    for key in KEYS:
        holders = lm.holders(key)
        x_holders = [t for t, m in holders.items() if m is LockMode.X]
        if x_holders:
            assert len(holders) == 1, (
                f"X holder shares {key}: {holders}"
            )


@settings(max_examples=200, deadline=None)
@given(st.lists(action, min_size=1, max_size=60))
def test_mutual_exclusion_invariant(actions):
    env = Environment()
    lm = LockManager(env, "S1", enforce_2pl=False)
    pending = []
    for act in actions:
        try:
            if act[0] == "acquire":
                _, txn, key, mode = act
                event = lm.acquire(txn, key, mode)
                if not event.triggered:
                    pending.append(event)
                else:
                    event.defused = True
            elif act[0] == "release_all":
                lm.release_all(act[1])
            else:
                lm.cancel(act[1])
        except (LockError, TransactionAborted):
            pass
        for event in pending:
            if event.triggered:
                event.defused = True
        check_compatibility(lm)
    # Drain: release everything; no grantable request may stay waiting.
    for txn in TXNS:
        try:
            lm.cancel(txn)
            lm.release_all(txn)
        except LockError:
            pass
    for key in KEYS:
        assert lm.holders(key) == {} or all(
            m is LockMode.S for m in lm.holders(key).values()
        )


@settings(max_examples=150, deadline=None)
@given(st.lists(action, min_size=1, max_size=60))
def test_hold_log_intervals_never_overlap_illegally(actions):
    """Replaying the hold log per key must show 2PL-compatible overlaps:
    an X interval never overlaps any other interval on the same key."""
    env = Environment()
    lm = LockManager(env, "S1", enforce_2pl=False)
    clock = [0.0]

    def tick():
        clock[0] += 1.0
        env._now = clock[0]  # advance virtual time between actions

    for act in actions:
        tick()
        try:
            if act[0] == "acquire":
                _, txn, key, mode = act
                ev = lm.acquire(txn, key, mode)
                if ev.triggered:
                    ev.defused = True
            elif act[0] == "release_all":
                lm.release_all(act[1])
            else:
                lm.cancel(act[1])
        except (LockError, TransactionAborted):
            pass
    tick()
    for txn in TXNS:
        try:
            lm.cancel(txn)
            lm.release_all(txn)
        except LockError:
            pass

    by_key: dict[str, list] = {}
    for record in lm.hold_log:
        by_key.setdefault(record.key, []).append(record)
    for key, records in by_key.items():
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                if a.txn_id == b.txn_id:
                    continue
                overlap = (
                    a.granted_at < b.released_at
                    and b.granted_at < a.released_at
                )
                if overlap:
                    assert (
                        a.mode is LockMode.S and b.mode is LockMode.S
                    ), f"illegal overlap on {key}: {a} vs {b}"


@settings(max_examples=150, deadline=None)
@given(st.lists(action, min_size=1, max_size=50))
def test_deadlock_victims_always_have_pending_requests(actions):
    """Every victim chosen by the detector was actually waiting (a cycle
    node necessarily has an outgoing wait edge)."""
    env = Environment()
    lm = LockManager(env, "S1", enforce_2pl=False)
    victims = []
    for act in actions:
        try:
            if act[0] == "acquire":
                _, txn, key, mode = act
                ev = lm.acquire(txn, key, mode)
                if ev.triggered:
                    if not ev.ok:
                        assert isinstance(ev.value, DeadlockDetected)
                        victims.append(ev.value.victim)
                    ev.defused = True
            elif act[0] == "release_all":
                lm.release_all(act[1])
            else:
                lm.cancel(act[1])
        except (LockError, TransactionAborted):
            pass
    for victim in victims:
        assert victim in TXNS


class _ListedHoldLog(HoldLog):
    """A hold log that also keeps the list of records it stands for."""

    def __init__(self):
        super().__init__()
        self.reference = []

    def add(self, txn_id, key, mode, granted_at, released_at):
        super().add(txn_id, key, mode, granted_at, released_at)
        self.reference.append(
            HoldRecord(txn_id, key, mode, granted_at, released_at)
        )


class _ListedWaitLog(WaitLog):
    """A wait log that also keeps the list of tuples it stands for."""

    def __init__(self):
        super().__init__()
        self.reference = []

    def add(self, txn_id, key, waited):
        super().add(txn_id, key, waited)
        self.reference.append((txn_id, key, waited))


timed_action = st.one_of(
    action,
    st.tuples(st.just("release"), st.sampled_from(TXNS),
              st.sampled_from(KEYS)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 2.5])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(timed_action, min_size=1, max_size=60))
def test_columnar_logs_read_as_the_record_lists(actions):
    """Acquires (upgrades among them), single and total releases,
    cancels and lock timeouts fill the logs; the columns read back the
    records in order, by index (negative too) and field by field."""
    env = Environment()
    lm = LockManager(env, "S1", enforce_2pl=False, lock_timeout=2.0)
    lm.hold_log = holds = _ListedHoldLog()
    lm.wait_log = waits = _ListedWaitLog()
    for act in actions:
        try:
            if act[0] == "acquire":
                _, txn, key, mode = act
                lm.acquire(txn, key, mode).defused = True
            elif act[0] == "release":
                lm.release(act[1], act[2])
            elif act[0] == "release_all":
                lm.release_all(act[1])
            elif act[0] == "cancel":
                lm.cancel(act[1])
            else:
                env.run(until=env.now + act[1])
        except (LockError, TransactionAborted):
            pass
    env.run(until=env.now + 3.0)  # every remaining wait times out
    for txn in TXNS:
        lm.release_all(txn)

    for log, reference in ((holds, holds.reference), (waits, waits.reference)):
        assert len(log) == len(reference)
        assert list(log) == reference
        for i in range(-len(reference), len(reference)):
            assert log[i] == reference[i]
    for record, expected in zip(holds, holds.reference):
        assert record.mode is expected.mode
        assert record.duration == expected.duration
    assert [w[2] for w in waits] == [w for _, _, w in waits.reference]
    assert set(holds.mode) <= {0, 1}
    # ``append`` takes the record form itself.
    for log, reference in ((HoldLog(), holds.reference),
                           (WaitLog(), waits.reference)):
        for entry in reference:
            log.append(entry)
        assert list(log) == reference
