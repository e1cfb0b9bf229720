"""Unit tests for participant edge cases."""

from repro.commit import CommitScheme, Participant
from repro.harness import System, SystemConfig
from repro.net import LatencyModel, Message, MsgType, Network
from repro.sim import Environment, Rng
from repro.storage.wal import RecordType
from repro.txn import ReadOp, Site, WriteOp
from repro.txn.transaction import VotePolicy
from tests.stamps import durable


def new_participant(scheme=CommitScheme.O2PC):
    env = Environment()
    net = Network(env, rng=Rng(0), latency=LatencyModel(base=1.0))
    net.register("coord")
    site = Site(env, "S1")
    site.load({"k0": 100})
    participant = Participant(site, net, scheme=scheme)
    return env, net, site, participant


#: what the test, posing as the coordinator, stamps a message it sends
_STAMPS = {MsgType.DECISION: RecordType.DECIDE, MsgType.ACK: RecordType.COMMIT}


def msg(mtype, txn="T1", **payload):
    stamp = _STAMPS.get(mtype)
    return Message(
        msg_type=mtype, sender="coord", recipient="S1", txn_id=txn,
        payload=payload,
        covers=None if stamp is None else durable(stamp, txn),
    )


def drain_coord(env, net, count):
    """Receive `count` replies at the coordinator endpoint."""
    got = []

    def receiver():
        for _ in range(count):
            reply = yield net.receive("coord")
            got.append(reply)

    env.run(env.process(receiver()))
    return got


def test_subtxn_then_vote_then_commit_flow():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.SUBTXN_REQ, ops=[WriteOp("k0", 7)],
                 vote=VotePolicy.AUTO, real_action=False))
    (ack,) = drain_coord(env, net, 1)
    assert ack.msg_type is MsgType.SUBTXN_ACK
    assert ack.payload["executed"]
    net.send(msg(MsgType.VOTE_REQ))
    (vote,) = drain_coord(env, net, 1)
    assert vote.payload["vote"] == "YES"
    assert site.locks.locks_of("T1") == {}  # O2PC released at vote
    net.send(msg(MsgType.DECISION, decision="COMMIT"))
    (ack2,) = drain_coord(env, net, 1)
    assert ack2.msg_type is MsgType.ACK
    assert site.store.get("k0") == 7


def test_vote_req_for_unknown_transaction_votes_no():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.VOTE_REQ, txn="T99"))
    (vote,) = drain_coord(env, net, 1)
    assert vote.payload["vote"] == "NO"


def test_decision_for_unknown_transaction_acked():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.DECISION, txn="T99", decision="ABORT"))
    (ack,) = drain_coord(env, net, 1)
    assert ack.msg_type is MsgType.ACK
    assert not ack.payload["compensated"]


def test_unknown_message_type_ignored():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.ACK))  # a participant never handles ACK
    env.run()
    assert len(net.inbox("coord")) == 0


def test_force_no_vote_rolls_back_before_replying():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.SUBTXN_REQ, ops=[WriteOp("k0", 7)],
                 vote=VotePolicy.FORCE_NO, real_action=False))
    drain_coord(env, net, 1)
    net.send(msg(MsgType.VOTE_REQ))
    (vote,) = drain_coord(env, net, 1)
    assert vote.payload["vote"] == "NO"
    assert site.store.get("k0") == 100
    assert site.locks.locks_of("T1") == {}


def test_2pl_participant_keeps_locks_at_vote():
    env, net, site, participant = new_participant(CommitScheme.TWO_PL)
    net.send(msg(MsgType.SUBTXN_REQ, ops=[WriteOp("k0", 7)],
                 vote=VotePolicy.AUTO, real_action=False))
    drain_coord(env, net, 1)
    net.send(msg(MsgType.VOTE_REQ))
    (vote,) = drain_coord(env, net, 1)
    assert vote.payload["vote"] == "YES"
    assert site.locks.locks_of("T1") != {}
    net.send(msg(MsgType.DECISION, decision="COMMIT"))
    drain_coord(env, net, 1)
    assert site.locks.locks_of("T1") == {}


def test_read_only_subtxn_abort_has_no_compensation():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.SUBTXN_REQ, ops=[ReadOp("k0")],
                 vote=VotePolicy.AUTO, real_action=False))
    drain_coord(env, net, 1)
    net.send(msg(MsgType.VOTE_REQ))
    drain_coord(env, net, 1)
    net.send(msg(MsgType.DECISION, decision="ABORT"))
    (ack,) = drain_coord(env, net, 1)
    # A locally-committed read-only subtransaction "compensates" trivially.
    assert ack.payload["compensated"]
    assert participant.compensator.stats.completed == 1
    assert site.store.get("k0") == 100


def test_reused_transaction_id_is_refused_and_its_abort_only_acked():
    env, net, site, participant = new_participant()
    net.send(msg(MsgType.SUBTXN_REQ, ops=[WriteOp("k0", 7)],
                 vote=VotePolicy.AUTO, real_action=False))
    drain_coord(env, net, 1)
    net.send(msg(MsgType.VOTE_REQ))
    drain_coord(env, net, 1)
    net.send(msg(MsgType.DECISION, decision="COMMIT"))
    drain_coord(env, net, 1)
    first = participant.subtxns["T1"]

    net.send(msg(MsgType.SUBTXN_REQ, ops=[WriteOp("k0", 9)],
                 vote=VotePolicy.AUTO, real_action=False))
    (ack,) = drain_coord(env, net, 1)
    assert ack.payload["rejected"] and not ack.payload["retriable"]
    assert not ack.payload["executed"]
    assert participant.reused_ids_refused == 1
    assert participant.subtxns["T1"] is first
    # The reuser's coordinator aborts; the decided first incarnation
    # only acknowledges.
    net.send(msg(MsgType.DECISION, decision="ABORT"))
    (ack2,) = drain_coord(env, net, 1)
    assert ack2.msg_type is MsgType.ACK and not ack2.payload["compensated"]
    assert first.decided == "COMMIT"
    assert site.store.get("k0") == 7
