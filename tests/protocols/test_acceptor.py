"""The Paxos Commit acceptor: promise/accept ordering and durable state.

Driven over the simulated network (register a fake leader endpoint, send
1a/2a messages, collect the 1b/2b replies) so the dispatch loop and the
wire payload shapes are exercised, not just the state machine.
"""

import json

from repro.net.message import Message, MsgType
from repro.net.network import LatencyModel, Network
from repro.protocols.acceptor import BALLOT_ZERO, Acceptor, ballot_of
from repro.sim.engine import Environment
from repro.sim.rng import Rng
from repro.storage.wal import RecordType, WriteAheadLog, _record_to_json

LEADER = "leader.1"


def make_net():
    env = Environment()
    network = Network(
        env, rng=Rng(0).fork("network"),
        latency=LatencyModel(base=1.0, jitter=0.0),
    )
    network.register(LEADER)
    return env, network


def make_acceptor(env, network, wal=None):
    return Acceptor(
        env, network, "acc.1",
        wal if wal is not None else WriteAheadLog("acc.1"),
    )


def exchange(env, network, messages, replies=None):
    """Send ``messages`` to the acceptor; collect ``replies`` responses."""
    expected = len(messages) if replies is None else replies

    def driver():
        collected = []
        for message in messages:
            network.send(message)
        for _ in range(expected):
            collected.append((yield network.receive(LEADER)))
        return collected

    return env.run(env.process(driver(), name="leader"))


def prepare(ballot, txn_id="T1"):
    return Message(
        msg_type=MsgType.PAXOS_PREPARE, sender=LEADER, recipient="acc.1",
        txn_id=txn_id, payload={"ballot": list(ballot), "leader": LEADER},
    )


def accept(ballot, instance="S1", value="YES", txn_id="T1", sites=None):
    return Message(
        msg_type=MsgType.PAXOS_ACCEPT, sender=LEADER, recipient="acc.1",
        txn_id=txn_id, payload={
            "ballot": list(ballot), "instance": instance, "value": value,
            "leader": LEADER, "sites": sites or ["S1", "S2"],
        },
    )


class TestBallots:
    def test_ballots_order_lexicographically(self):
        assert BALLOT_ZERO < (1, "") < (1, "S1") < (2, "")
        assert ballot_of([1, "S1"]) == (1, "S1")


class TestAcceptPhase:
    def test_ballot_zero_vote_is_accepted_and_echoed(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        (reply,) = exchange(env, network, [accept(BALLOT_ZERO)])
        assert reply.msg_type is MsgType.PAXOS_ACCEPTED
        assert reply.payload["instance"] == "S1"
        assert reply.payload["value"] == "YES"
        assert acceptor.accepted["T1"]["S1"] == (BALLOT_ZERO, "YES")
        # The participant list rides along so recovery leaders can learn
        # the instance set from any acceptor.
        assert acceptor.sites["T1"] == ["S1", "S2"]

    def test_accept_below_promised_ballot_is_ignored(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        exchange(env, network, [prepare((2, LEADER))])
        # Ballot-0 2a arriving after a round-2 promise: nacked by silence.
        exchange(env, network, [accept(BALLOT_ZERO)], replies=0)
        env.run()
        assert "T1" not in acceptor.accepted

    def test_higher_ballot_overwrites_accepted_value(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        exchange(env, network, [accept(BALLOT_ZERO, value="YES")])
        exchange(env, network, [accept((1, LEADER), value="NO")])
        assert acceptor.accepted["T1"]["S1"] == ((1, LEADER), "NO")


class TestPreparePhase:
    def test_promise_carries_previously_accepted_values(self):
        env, network = make_net()
        make_acceptor(env, network)
        exchange(env, network, [accept(BALLOT_ZERO, instance="S2")])
        (promise,) = exchange(env, network, [prepare((1, LEADER))])
        assert promise.msg_type is MsgType.PAXOS_PROMISE
        assert promise.payload["ballot"] == [1, LEADER]
        assert promise.payload["accepted"] == {"S2": [[0, ""], "YES"]}
        assert promise.payload["sites"] == ["S1", "S2"]

    def test_stale_prepare_gets_the_higher_ballot_back(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        exchange(env, network, [prepare((3, "other"))])
        (nack,) = exchange(env, network, [prepare((1, LEADER))])
        # The reply *is* the nack: it names the ballot that outbid us.
        assert nack.payload["ballot"] == [3, "other"]
        assert acceptor.promised["T1"] == (3, "other")


class TestPersistence:
    def test_state_survives_a_new_acceptor_on_the_same_file(self, tmp_path):
        path = str(tmp_path / "S1.wal")
        env, network = make_net()
        make_acceptor(env, network, WriteAheadLog("S1", path=path))
        exchange(env, network, [accept(BALLOT_ZERO)])
        exchange(env, network, [prepare((2, LEADER))])

        env2, network2 = make_net()
        rebooted = make_acceptor(env2, network2, WriteAheadLog("S1", path=path))
        assert rebooted.promised["T1"] == (2, LEADER)
        assert rebooted.accepted["T1"]["S1"] == (BALLOT_ZERO, "YES")
        assert rebooted.sites["T1"] == ["S1", "S2"]

    def test_only_a_change_of_state_is_logged(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        exchange(env, network, [prepare((2, LEADER))])
        # Neither a prepare that does not raise the ballot nor an accept
        # below it changes the tables, so neither writes a record.
        exchange(env, network, [prepare((1, LEADER))])
        exchange(env, network, [accept(BALLOT_ZERO)], replies=0)
        env.run()
        assert [r.payload for r in acceptor.wal] == [
            {"txn": "T1", "promised": [2, LEADER]},
        ]


class TestCrash:
    def test_a_message_taken_in_the_crash_instant_is_not_handled(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        exchange(env, network, [prepare((2, LEADER))])
        acceptor.crash()
        # The dispatcher's waiting get takes the message, as when it is
        # delivered in the instant of the crash: the cleared tables must
        # not accept (and log) a ballot below the durable promise.
        network.inbox("acc.1").put(accept(BALLOT_ZERO))
        env.run()
        assert len(acceptor.wal) == 1
        acceptor.recover()
        assert acceptor.promised == {"T1": (2, LEADER)}
        assert acceptor.accepted == {}


class TestPerAcceptCost:
    def test_one_forced_record_whose_size_does_not_grow(self):
        env, network = make_net()
        acceptor = make_acceptor(env, network)
        wal = acceptor.wal
        sizes = {}
        for n in range(1, 1001):
            txn_id = f"T{n:04d}"
            exchange(env, network, [accept(BALLOT_ZERO, txn_id=txn_id)])
            # Exactly one forced record per accepted PAXOS_ACCEPT.
            assert len(wal) == wal.forced_writes == n
            record = wal.record_at(n)
            assert record.record_type is RecordType.ACCEPTOR
            assert record.txn_id == "acc.1"
            assert record.payload["txn"] == txn_id
            sizes[n] = len(json.dumps(
                _record_to_json(record), separators=(",", ":"),
            ))
        # Same-width transaction ids: between the 1st and the 1 000th
        # record only the LSN gains digits (the chain pointer goes from
        # null to 999).
        assert sizes[1000] - sizes[1] <= len("1000") - len("1")
