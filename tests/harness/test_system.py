"""Unit tests for the System assembly and its helpers."""

import pytest

from repro.commit import CommitScheme
from repro.core.marks import MarkingDirectory
from repro.core.protocols import P2Protocol
from repro.harness import System, SystemConfig
from repro.locking.modes import LockMode
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec, VotePolicy, WriteOp


def spec(txn_id="T1", sites=("S1", "S2")):
    return GlobalTxnSpec(txn_id=txn_id, subtxns=[
        SubtxnSpec(s, [SemanticOp("deposit", "k0", {"amount": 1})])
        for s in sites
    ])


class TestAssembly:
    def test_default_build(self):
        system = System()
        assert sorted(system.sites) == ["S1", "S2", "S3"]
        assert sorted(system.participants) == ["S1", "S2", "S3"]
        assert system.sites["S1"].store.get("k0") == 100

    def test_protocol_selection(self):
        for name in ("none", "P1", "P2", "SIMPLE"):
            system = System(SystemConfig(protocol=name))
            assert system.marking.name == ("none" if name == "none" else name)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="P1, P2, SIMPLE, none, saga"):
            SystemConfig(protocol="P9")

    def test_marks_key_only_with_protocol(self):
        assert System(SystemConfig(protocol="P1")).sites["S1"].marks_key
        assert System(SystemConfig(protocol="none")).sites["S1"].marks_key is None

    def test_scheme_selects_engine(self):
        # The registry is the only construction path: each scheme builds
        # its own participant type, and only PAXOS spawns acceptors.
        paxos = System(SystemConfig(scheme=CommitScheme.PAXOS))
        assert sorted(paxos.acceptors) == ["acc.1", "acc.2", "acc.3"]
        short = System(SystemConfig(scheme=CommitScheme.SHORT))
        assert short.acceptors == {}
        assert type(short.participants["S1"]).__name__ == "ShortParticipant"

    def test_protocol_instance_adopted(self):
        directory = MarkingDirectory()
        protocol = P2Protocol(directory=directory)
        system = System(SystemConfig(protocol=protocol))
        assert system.marking is protocol
        assert system.directory is directory
        assert system.directory.bus is system.env.bus
        assert system.sites["S1"].marks_key  # treated as a real protocol

    def test_config_knobs_threaded(self):
        system = System(SystemConfig(
            protocol="P1", quiescence_clearing=False, p1_eager_rule=False,
            op_duration=2.0,
        ))
        assert not system.directory.quiescence_enabled
        assert not system.marking.eager_rule
        assert system.sites["S1"].op_duration == 2.0


class TestRunning:
    def test_run_transaction_returns_outcome(self):
        system = System()
        outcome = system.run_transaction(spec())
        assert outcome.committed
        assert outcome.txn_id == "T1"
        assert system.outcomes == [outcome]

    def test_submit_stream_staggers_arrivals(self):
        system = System()
        specs = [spec(f"T{i}") for i in range(1, 6)]
        system.env.run(system.submit_stream(specs, arrival_mean=5.0))
        starts = sorted(o.start_time for o in system.outcomes)
        assert len(starts) == 5
        assert starts[0] > 0.0
        assert len(set(starts)) == 5  # all distinct

    def test_next_local_id_dense(self):
        system = System()
        assert [system.next_local_id() for _ in range(3)] == ["L1", "L2", "L3"]

    def test_effective_regular_nodes_excludes_aborted(self):
        system = System(SystemConfig(scheme=CommitScheme.O2PC))
        good = spec("T1")
        bad = spec("T2")
        bad.subtxns[1].vote = VotePolicy.FORCE_NO
        system.run_transaction(good)
        system.run_transaction(bad)
        system.env.run()
        effective = system.effective_regular_nodes()
        assert "T1" in effective
        assert "T2" not in effective

    def test_check_correctness_strict_and_effective(self):
        system = System()
        system.run_transaction(spec())
        system.check_correctness()
        system.check_correctness(strict=True)

    def test_one_judgment_builds_the_global_sg_once(self, monkeypatch):
        from repro.check.oracles import _check_serializability
        from repro.sg.graph import GlobalSG

        system = System()
        system.run_transaction(spec())
        builds = []
        build = GlobalSG.from_history.__func__
        monkeypatch.setattr(GlobalSG, "from_history", classmethod(
            lambda cls, history: builds.append(1) or build(cls, history)
        ))
        system.check_correctness()
        assert _check_serializability(system, strict=False) == []
        assert len(builds) == 2

    def test_run_local_retries_after_lock_timeout(self):
        system = System(SystemConfig(lock_timeout=2.0, observability=True))
        site = system.sites["S1"]
        site.locks.acquire("B1", "k0", LockMode.X)

        def releaser():
            yield system.env.timeout(5.0)
            site.locks.release_all("B1")

        system.env.process(releaser())
        proc = system.run_local(
            "S1", "L1", [SemanticOp("deposit", "k0", {"amount": 1})],
        )
        assert system.env.run(proc) is True
        timeouts = [
            e for e in system.events() if e.kind == "lock.timeout"
        ]
        assert timeouts and timeouts[0].txn_id == "L1"

    def test_run_local_second_abort_keeps_interleaved_commit(self):
        # L1 writes k0, times out on k1 and is undone (k0 back to 100); L2
        # commits k0 = 555; L1's retry times out again.  Its undo must stop
        # at the retry's BEGIN, not restore the first attempt's 100.
        system = System(SystemConfig(n_sites=1, lock_timeout=3.0))
        site = system.sites["S1"]
        site.locks.acquire("B1", "k1", LockMode.X)

        def interleaved():
            yield system.env.timeout(5.0)
            yield system.run_local("S1", "L2", [WriteOp("k0", 555)])

        system.env.process(interleaved())
        proc = system.run_local(
            "S1", "L1", [WriteOp("k0", 1), WriteOp("k1", 1)],
            max_retries=2, retry_delay=10.0,
        )
        assert system.env.run(proc) is False
        assert site.store.get("k0") == 555

    def test_global_history_and_sg_views(self):
        system = System()
        system.run_transaction(spec())
        history = system.global_history()
        assert [
            sid for sid, h in sorted(history.sites.items())
            if "T1" in h.transactions()
        ] == ["S1", "S2"]
        gsg = system.global_sg()
        assert "T1" in gsg.nodes
