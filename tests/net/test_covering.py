"""Force-before-send at the simulated send seam (``repro.net.message.COVERING``).

The covering table names each message that reveals a logged outcome and
the record kinds that may cover it; ``Network.send`` refuses such a
message unless its sender stamped a durable record of one of those kinds.
These tests measure which rows each scheme's checker smoke configuration
(crashes included) actually exercises, and pin the seam's verdicts.
"""

import dataclasses

import pytest

from repro.check.explorer import CheckConfig, ModelChecker
from repro.commit.base import CommitScheme
from repro.errors import ProtocolViolation
from repro.harness import System, SystemConfig
from repro.net.message import (
    COVERING,
    PRESUMED_ABORT,
    QUORUM,
    Covering,
    Message,
    MsgType,
)
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn import GlobalTxnSpec, SubtxnSpec, WriteOp

#: ``repro check --smoke``'s configuration, first 200 schedules, and the
#: coordinator-crash scenario: the conflict scenario commits nothing under
#: Short-Commit (its reader cascade-aborts), and only a silent coordinator
#: makes Paxos Commit's recovery leaders gather promises
SMOKE = CheckConfig(
    scenario="conflict", protocol="P1", depth=14, crashes=2,
    max_schedules=200,
)
CRASHCOORD = dataclasses.replace(SMOKE, scenario="crashcoord", max_schedules=20)

#: the rows each scheme's engines send through
ROWS = {
    CommitScheme.TWO_PL: {MsgType.VOTE, MsgType.DECISION, MsgType.ACK},
    CommitScheme.O2PC: {MsgType.VOTE, MsgType.DECISION, MsgType.ACK},
    CommitScheme.SHORT: {MsgType.VOTE, MsgType.DECISION, MsgType.ACK},
    CommitScheme.PAXOS: {
        MsgType.PAXOS_ACCEPT, MsgType.PAXOS_ACCEPTED,
        MsgType.PAXOS_PROMISE, MsgType.DECISION, MsgType.ACK,
    },
}


@pytest.mark.parametrize("scheme", sorted(ROWS, key=lambda s: s.value))
def test_each_row_of_a_scheme_checks_a_stamped_send(monkeypatch, scheme):
    checked: dict[MsgType, int] = {}
    check = Covering.check

    def counting(row, message):
        stamped = check(row, message)
        if stamped:
            checked[message.msg_type] = checked.get(message.msg_type, 0) + 1
        return stamped

    monkeypatch.setattr(Covering, "check", counting)
    for config in (SMOKE, CRASHCOORD):
        report = ModelChecker(dataclasses.replace(config, scheme=scheme)).run()
        # an unstamped or uncovered send is a ProtocolViolation: an
        # "invariant" counterexample
        assert report.ok, report.counterexamples[0].violations
    assert set(checked) == ROWS[scheme]


def transfer(scheme, **subtxn):
    """Run one two-site transaction under ``scheme``; its outcome."""
    system = System(SystemConfig(scheme=scheme, n_sites=2))
    return system.run_transaction(GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)], **subtxn),
        SubtxnSpec("S2", [WriteOp("k1", 1)]),
    ]))


@pytest.mark.parametrize("scheme", list(ROWS), ids=lambda s: s.name)
def test_a_committing_transaction_passes_the_seam(scheme):
    # every vote, accept, decision and ACK of a commit is stamped and
    # covered; a force point moved or dropped raises ProtocolViolation here
    assert transfer(scheme).committed


def _log(kind, force=True):
    log = WriteAheadLog("S1")
    log.append(RecordType.BEGIN, "T1")
    log.append(kind, "T1", force=force)
    return log


def _msg(msg_type, covers, **payload):
    return Message(
        msg_type=msg_type, sender="S1", recipient="coord.T1", txn_id="T1",
        payload=payload, covers=covers,
    )


class TestSeam:
    def test_a_yes_vote_needs_a_durable_prepare(self):
        row = COVERING[MsgType.VOTE]
        assert row.check(_msg(MsgType.VOTE, _log(RecordType.PREPARE).cover("T1"), vote="YES"))
        with pytest.raises(ProtocolViolation, match="unstamped|stamped None"):
            row.check(_msg(MsgType.VOTE, None, vote="YES"))
        with pytest.raises(ProtocolViolation, match="before .* was durable"):
            row.check(_msg(
                MsgType.VOTE,
                _log(RecordType.PREPARE, force=False).cover("T1"),
                vote="YES",
            ))
        with pytest.raises(ProtocolViolation, match="not one of"):
            row.check(_msg(
                MsgType.VOTE, _log(RecordType.UPDATE).cover("T1"), vote="YES",
            ))

    def test_a_no_vote_reveals_nothing(self):
        assert not COVERING[MsgType.VOTE].check(
            _msg(MsgType.VOTE, None, vote="NO"),
        )

    def test_a_group_commit_record_is_durable_only_after_sync(self):
        log = WriteAheadLog("S1")
        log.group_commit = True
        log.append(RecordType.COMMIT, "T1", force=True)
        ack = _msg(MsgType.ACK, log.cover("T1"), compensated=False)
        with pytest.raises(ProtocolViolation, match="durable"):
            COVERING[MsgType.ACK].check(ack)
        log.sync()
        assert COVERING[MsgType.ACK].check(ack)

    def test_exemptions_are_named_stamps(self):
        ack = COVERING[MsgType.ACK]
        decision = COVERING[MsgType.DECISION]
        assert not ack.check(_msg(MsgType.ACK, PRESUMED_ABORT))
        assert not decision.check(
            _msg(MsgType.DECISION, QUORUM, decision="COMMIT"),
        )
        # the exemptions do not cross rows
        with pytest.raises(ProtocolViolation):
            ack.check(_msg(MsgType.ACK, QUORUM))
        with pytest.raises(ProtocolViolation):
            decision.check(
                _msg(MsgType.DECISION, PRESUMED_ABORT, decision="COMMIT"),
            )
        # an ABORT decision reveals nothing
        assert not decision.check(
            _msg(MsgType.DECISION, None, decision="ABORT"),
        )

    def test_an_ack_of_a_commit_with_nothing_logged_is_refused(self):
        empty = WriteAheadLog("S1").cover("T1")
        with pytest.raises(ProtocolViolation, match="stamped None"):
            COVERING[MsgType.ACK].check(_msg(MsgType.ACK, empty))
