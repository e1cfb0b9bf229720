"""Unit tests for coordinator edge cases: timeouts, retries, collection."""

from repro.commit import CommitConfig, CommitScheme
from repro.harness import System, SystemConfig
from repro.net.message import MsgType
from repro.storage.wal import RecordType
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec, VotePolicy
from tests.stamps import durable


def spec(sites=("S1", "S2"), txn_id="T1"):
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec(s, [SemanticOp("deposit", "k0", {"amount": 1})])
        for s in sites
    ])


def test_vote_timeout_decides_abort():
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC,
        commit=CommitConfig(vote_timeout=10.0, ack_timeout=10.0,
                            spawn_timeout=10.0, decision_retries=0),
    ))
    proc = system.submit(spec())

    def cut_votes():
        yield system.env.timeout(4.5)
        # Votes from both sites are lost: sever the reply links.
        system.network.sever("S1", "coord.T1", bidirectional=False)
        system.network.sever("S2", "coord.T1", bidirectional=False)

    system.env.process(cut_votes())
    outcome = system.env.run(proc)
    system.env.run()
    assert not outcome.committed
    assert system.sites["S1"].store.get("k0") == 100


def test_spawn_timeout_aborts_and_unwinds_all_sites():
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC,
        commit=CommitConfig(spawn_timeout=8.0, ack_timeout=10.0,
                            vote_timeout=10.0),
    ))
    proc = system.submit(spec())

    def cut_first_ack():
        # The SUBTXN_ACK from S1 never arrives; coordinator times out.
        system.network.sever("S1", "coord.T1", bidirectional=False)
        yield system.env.timeout(9.0)
        system.network.heal("S1", "coord.T1", bidirectional=False)

    system.env.process(cut_first_ack())
    outcome = system.env.run(proc)
    system.env.run()
    assert not outcome.committed
    # S1 executed but must have been unwound by the broadcast abort.
    assert system.sites["S1"].store.get("k0") == 100
    assert system.sites["S1"].locks.locks_of("T1") == {}


def test_max_spawn_retries_bounds_rejection_loops():
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, protocol="P1",
        commit=CommitConfig(max_spawn_retries=2, spawn_retry_delay=1.0),
    ))
    # Manufacture a mark that never clears: T9 "executed" at S1/S2 and S1
    # is undone with respect to it, with a phantom blocker keeping
    # quiescence clearing off.
    from repro.core.marking import MarkingEvent

    system.marking.register_execution("T9", ["S1", "S2"])
    system.directory.machine("S1").fire("T9", MarkingEvent.VOTE_ABORT)
    system.directory.note_marked("T9", "S1")
    system.directory.blockers["T9"].add("phantom")
    system.directory.active.add("T9")

    outcome = system.run_transaction(spec(sites=("S1", "S2")))
    system.env.run()
    assert not outcome.committed
    assert outcome.rejections >= 1
    assert outcome.rejections <= 4  # bounded by max_spawn_retries + 1


def test_duplicate_decision_is_acked_idempotently():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    outcome = system.run_transaction(spec())
    assert outcome.committed
    # Replay the decision by hand: the participant must ACK without
    # re-finalizing (complete_commit would raise on a COMMITTED txn).
    from repro.net.message import Message

    system.network.send(Message(
        msg_type=MsgType.DECISION, sender="coord.T1", recipient="S1",
        txn_id="T1", payload={"decision": "COMMIT"},
        covers=durable(RecordType.DECIDE),
    ))
    system.env.run()
    assert system.network.delivered[MsgType.DECISION] >= 3


def test_decision_retransmission_counts_messages():
    """With a participant briefly unreachable, extra DECISION rounds appear
    on the wire — and only then."""
    config = CommitConfig(ack_timeout=10.0, decision_retries=2)
    healthy = System(SystemConfig(scheme=CommitScheme.O2PC, commit=config))
    healthy.run_transaction(spec())
    healthy.env.run()
    assert healthy.network.sent[MsgType.DECISION] == 2  # one per site

    flaky = System(SystemConfig(scheme=CommitScheme.O2PC, commit=config))
    proc = flaky.submit(spec())

    def flap():
        yield flaky.env.timeout(6.4)
        flaky.network.sever("coord.T1", "S1", bidirectional=False)
        yield flaky.env.timeout(12.0)
        flaky.network.heal("coord.T1", "S1", bidirectional=False)

    flaky.env.process(flap())
    outcome = flaky.env.run(proc)
    flaky.env.run()
    assert outcome.committed
    assert flaky.network.sent[MsgType.DECISION] > 2


def test_outcome_timestamps_are_ordered():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    outcome = system.run_transaction(spec())
    assert (
        outcome.start_time
        < outcome.decision_time
        <= outcome.end_time
    )


def test_vote_no_populates_no_votes_field():
    system = System(SystemConfig(scheme=CommitScheme.O2PC))
    bad = spec()
    bad.subtxns[0].vote = VotePolicy.FORCE_NO
    outcome = system.run_transaction(bad)
    assert outcome.no_votes == ["S1"]
