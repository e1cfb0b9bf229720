"""RecoveryManager.restart under the two schemes' crash windows.

The paper's Section 5 argument in executable form: a participant that
crashes between its YES vote and the decision is *in doubt* under standard
2PC (it must block), but under O2PC the YES vote locally committed — restart
reports it ``locally_committed``, never ``in_doubt``, and the site stays
available.  Covers the WAL unit level, the full-system crash, and a crash
arriving mid-compensation.
"""

import copy

from repro.check.explorer import CheckConfig, ModelChecker
from repro.check.scheduler import ChoicePolicy
from repro.commit.base import CommitScheme
from repro.harness.system import System, SystemConfig
from repro.net.failures import CrashPlan
from repro.storage.kvstore import KVStore
from repro.storage.recovery import RecoveryManager
from repro.storage.wal import RecordType, WriteAheadLog
from repro.txn.operations import WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec


def _restart_clone(site):
    """Restart a clone of ``site``'s log on a fresh store (restart mutates
    the log, so the live site must not be touched)."""
    store = KVStore(site_id="replay")
    return RecoveryManager(store, copy.deepcopy(site.wal)).restart(), store


class TestWalLevel:
    def test_prepare_without_decision_is_in_doubt(self):
        """Standard 2PC: YES voted (PREPARE logged), no decision -> blocked."""
        wal = WriteAheadLog("S1")
        wal.append(RecordType.BEGIN, "T1")
        wal.append(RecordType.UPDATE, "T1", key="k0", before=100, after=1)
        wal.append(RecordType.PREPARE, "T1", force=True)
        report = RecoveryManager(KVStore(), wal).restart()
        assert report.in_doubt == ["T1"]
        assert report.locally_committed == []

    def test_local_commit_without_decision_is_not_in_doubt(self):
        """O2PC: the YES vote locally committed -> redone, never blocked."""
        wal = WriteAheadLog("S1")
        wal.append(RecordType.BEGIN, "T1")
        wal.append(RecordType.UPDATE, "T1", key="k0", before=100, after=1)
        wal.append(RecordType.PREPARE, "T1", force=True)
        wal.append(RecordType.LOCAL_COMMIT, "T1", force=True)
        store = KVStore()
        report = RecoveryManager(store, wal).restart()
        assert report.in_doubt == []
        assert report.locally_committed == ["T1"]
        assert store.get("k0") == 1  # the exposed update survived the crash


def _crash_between_vote_and_decision(scheme):
    """Run a two-site transfer and crash the participant S2 after its YES
    vote but before the DECISION message arrives (votes land at t=6,
    decision at t=7.5).  S1, which hosts the coordinator, stays up."""
    system = System(SystemConfig(n_sites=2, scheme=scheme, seed=0))
    process = system.submit(GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)]),
        SubtxnSpec("S2", [WriteOp("k0", 1)]),
    ]))
    system.failures.schedule(
        CrashPlan(site_id="S2", at=6.7, duration=None)
    )
    system.env.run(process)
    system.env.run()
    return system


class TestSystemLevel:
    def test_2pc_crash_between_vote_and_decision_blocks(self):
        system = _crash_between_vote_and_decision(CommitScheme.TWO_PL)
        report, _store = _restart_clone(system.sites["S2"])
        assert report.in_doubt == ["T1"]

    def test_o2pc_crash_between_vote_and_decision_does_not_block(self):
        system = _crash_between_vote_and_decision(CommitScheme.O2PC)
        report, store = _restart_clone(system.sites["S2"])
        assert report.in_doubt == []
        assert "T1" in report.locally_committed
        assert store.get("k0") == 1


class TestMidCompensationCrash:
    def test_crash_at_compensation_start_still_terminates_cleanly(self):
        """Crash S1 exactly when CT1 starts; after recovery the decision
        retransmission re-drives the compensation and restart stays clean."""
        config = CheckConfig(scenario="conflict", protocol="P1", crashes=1)
        base = ModelChecker(config).execute(ChoicePolicy())
        vector = None
        for index, choice in enumerate(base.log):
            if choice.kind != "crash":
                continue
            for candidate, label in enumerate(choice.labels):
                if candidate and "crash:S1@comp.start:T1" in label:
                    vector = tuple(
                        c.chosen for c in base.log[:index]
                    ) + (candidate,)
                    break
            if vector:
                break
        assert vector is not None, "no comp.start crash point found"
        outcome = ModelChecker(config).execute(ChoicePolicy(vector))
        assert outcome.ok, [str(v) for v in outcome.violations]
        site = outcome.system.sites["S1"]
        assert site.wal.status_of("T1") is RecordType.ABORT
        assert site.store.get("k0") == 100  # compensation restored the value
        report, _store = _restart_clone(site)
        assert report.in_doubt == []
