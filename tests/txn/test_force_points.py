"""Each termination path of the local transaction manager forces its record.

A YES vote, an ACK and a local commit reveal the record the method that
precedes them appends; force-before-send holds only if that record is
durable when the method returns.  Each case drives one transition on a
simulated site and checks the record it ends with against the log's
durable LSN.
"""

import pytest

from repro.sim import Environment
from repro.storage.wal import RecordType
from repro.txn import Site, WriteOp


def _site():
    env = Environment()
    site = Site(env, "S1")
    site.load({"x": 1})
    return env, site


def _executed(env, site, txn_id="T1"):
    """``txn_id`` begun and one write executed."""
    site.ltm.begin(txn_id)
    env.run(env.process(site.ltm.run_ops(txn_id, [WriteOp("x", 2)])))


def _in_doubt(env, site):
    """T1 prepared, then the site crashed and restarted: in doubt."""
    _executed(env, site)
    site.ltm.prepare("T1")
    site.crash()
    assert site.restart().in_doubt == ["T1"]
    env.run(env.process(site.ltm.recover_in_doubt("T1")))


def _commit(env, site):
    _executed(env, site, "L1")
    site.ltm.commit("L1")
    return "L1", RecordType.COMMIT


def _abort_local(env, site):
    _executed(env, site, "L1")
    site.ltm.abort_local("L1")
    return "L1", RecordType.ABORT


def _prepare(env, site):
    _executed(env, site)
    site.ltm.prepare("T1")
    return "T1", RecordType.PREPARE


def _local_commit(env, site):
    _executed(env, site)
    site.ltm.local_commit("T1")
    return "T1", RecordType.LOCAL_COMMIT


def _complete_commit(env, site):
    _executed(env, site)
    site.ltm.prepare("T1")
    site.ltm.complete_commit("T1")
    return "T1", RecordType.COMMIT


def _rollback_subtxn(env, site):
    _executed(env, site)
    site.ltm.rollback_subtxn("T1")
    return "T1", RecordType.ABORT


def _commit_recovered(env, site):
    _in_doubt(env, site)
    site.ltm.commit_recovered("T1")
    return "T1", RecordType.COMMIT


def _abort_recovered(env, site):
    _in_doubt(env, site)
    site.ltm.abort_recovered("T1")
    return "T1", RecordType.ABORT


def _mark_compensated(env, site):
    _executed(env, site)
    site.ltm.local_commit("T1")
    site.ltm.mark_compensated("T1")
    return "T1", RecordType.ABORT


TRANSITIONS = {
    "commit": _commit,
    "abort_local": _abort_local,
    "prepare": _prepare,
    "local_commit": _local_commit,
    "complete_commit": _complete_commit,
    "rollback_subtxn": _rollback_subtxn,
    "commit_recovered": _commit_recovered,
    "abort_recovered": _abort_recovered,
    "mark_compensated": _mark_compensated,
}


@pytest.mark.parametrize("method", TRANSITIONS)
def test_the_record_a_transition_ends_with_is_durable(method):
    env, site = _site()
    txn_id, kind = TRANSITIONS[method](env, site)
    _log, record = site.wal.cover(txn_id)
    assert record is not None and record.record_type is kind
    assert site.wal.durable_lsn >= record.lsn
