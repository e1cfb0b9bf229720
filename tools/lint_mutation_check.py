#!/usr/bin/env python
"""Self-test for ``repro lint`` and the run-time protocol checks: seeded
mutations must be caught.

A check that never fires is indistinguishable from a working one, so CI
runs this script after the clean lint pass: it copies ``src/`` to a temp
directory, applies one protocol-breaking mutation at a time, and asserts
either that the lint exits 1 with the expected rule (``expect_rule``) or
that the named tier-1 test (``expect_test``, a pytest node id), run
against the mutated copy, fails with ``ProtocolViolation`` — the run-time
force-before-send check at the send seams (the simulated network's
``send``, the TCP transport's ``_write``) — or with the failure the
mutation names (``expect_failure``: an oracle's, a footprint budget's,
a reader parity's, ``message flow`` for the recorded-flow test over the
engines' receive surfaces, or the loop guard's ``blocking call on the
event loop`` for a blocking call or a stray socket write on a daemon's
event loop).  The unmutated copy must stay clean (lint exit 0, every
named test passing) to prove the harness itself isn't producing the
failures.  Each pytest run is bounded by :data:`TIMEOUT`: a mutation
whose test hangs is reported ``not caught (timed out)``.

Run from the repo root: ``python tools/lint_mutation_check.py``
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: the first line of ``RealtimePump.wait_for`` after its loop lookup
_WAIT_FOR = "        future: asyncio.Future[Any] = loop.create_future()\n"


#: the run-time check a dynamic mutation's test fails with by default
_VIOLATION = "ProtocolViolation"

#: the prefix of every message-flow test failure
_FLOW = "message flow"

#: the prefix of every loop guard failure (``tests/loop_guard.py``)
_LOOP = "blocking call on the event loop"

#: seconds one pytest run may take before its mutation counts as missed
TIMEOUT = 300

#: the daemon tests the loop guard's mutations name
_ROUND_TRIP = "tests/rt/test_daemon.py::TestDaemonRoundTrip::"


@dataclass(frozen=True)
class Mutation:
    """One seeded defect: edit ``paths`` and expect ``expect_rule`` to fire
    or the ``expect_test`` node to fail with ``expect_failure``."""

    name: str
    paths: tuple[str, ...]  # relative to the copied src/ tree
    replacements: tuple[tuple[str, str], ...]  # (old, new); "" new = delete
    append: str  # text appended to each file (for injections)
    expect_rule: str | None = None
    expect_test: str | None = None
    #: what the failing test's output must show
    expect_failure: str = _VIOLATION


MUTATIONS = [
    Mutation(
        name="inject-wall-clock",
        paths=("repro/commit/base.py",),
        replacements=(),
        append="\nimport time\n_LINT_CANARY = time.time()\n",
        expect_rule="determinism/wall-clock",
    ),
    Mutation(
        name="inject-unseeded-random",
        # the process-global generator: a replayed schedule draws
        # different numbers than the run that found it
        paths=("repro/commit/base.py",),
        replacements=(),
        append="\nimport random\n_LINT_CANARY = random.random()\n",
        expect_rule="determinism/unseeded-random",
    ),
    Mutation(
        name="inject-os-entropy",
        paths=("repro/commit/base.py",),
        replacements=(),
        append="\nimport os\n_LINT_CANARY = os.urandom(8)\n",
        expect_rule="determinism/entropy",
    ),
    Mutation(
        name="inject-set-iteration",
        # string hashing is salted per process, so two --jobs workers
        # walk this set in different orders
        paths=("repro/commit/base.py",),
        replacements=(),
        append=(
            "\n_LINT_CANARY = "
            "[name for name in set(CommitScheme.__members__)]\n"
        ),
        expect_rule="determinism/set-iteration",
    ),
    Mutation(
        name="drop-decision-handler",
        # the decision handler vanishes from every participant-side
        # engine (SHORT inherits the base one): each coordinator's
        # DECISION reaches a site that drops it
        paths=(
            "repro/commit/participant.py",
            "repro/protocols/paxos.py",
        ),
        replacements=((
            'MsgType.DECISION: "_handle_decision",\n', "",
        ),),
        append="",
        expect_test=(
            "tests/protocols/test_message_flow.py::"
            "test_every_message_sent_has_a_receiver[O2PC]"
        ),
        expect_failure=_FLOW,
    ),
    Mutation(
        name="move-force-after-send",
        # swap the 2PL prepare force point to AFTER the YES vote leaves
        # the site: the O2PC branch still forces via local_commit, but the
        # 2PL vote is stamped with the transaction's last UPDATE
        paths=("repro/commit/participant.py",),
        replacements=(
            ("            self.site.ltm.prepare(txn_id)\n", ""),
            (
                "        self._reply(\n"
                '            msg, MsgType.VOTE, {"vote": "YES"}, '
                "self.site.wal.cover(txn_id),\n"
                "        )\n",
                "        self._reply(\n"
                '            msg, MsgType.VOTE, {"vote": "YES"}, '
                "self.site.wal.cover(txn_id),\n"
                "        )\n"
                "        self.site.ltm.prepare(txn_id)\n",
            ),
        ),
        append="",
        expect_test=(
            "tests/net/test_covering.py::"
            "test_a_committing_transaction_passes_the_seam[TWO_PL]"
        ),
    ),
    Mutation(
        name="drop-paxos-decision-handler",
        # delete the DECISION handler from the Paxos participant ONLY:
        # the base Participant still declares it, but under PAXOS every
        # DECISION now reaches a site that drops it
        paths=("repro/protocols/paxos.py",),
        replacements=((
            'MsgType.DECISION: "_handle_decision",\n', "",
        ),),
        append="",
        expect_test=(
            "tests/protocols/test_message_flow.py::"
            "test_every_message_sent_has_a_receiver[PAXOS]"
        ),
        expect_failure=_FLOW,
    ),
    Mutation(
        name="inject-sync-fsync",
        # a bare fsync in the receive path stalls the daemon's event loop
        # on every frame (the group-commit barrier's wal.sync() stays the
        # one designated fsync site)
        paths=("repro/rt/transport.py",),
        replacements=(
            ("from __future__ import annotations",
             "from __future__ import annotations\nimport os"),
            (
                "            for body in split_frames(self._buffer):",
                "            os.fsync(0)\n"
                "            for body in split_frames(self._buffer):",
            ),
        ),
        append="",
        expect_test=_ROUND_TRIP + "test_transfer_commits_across_sockets",
        expect_failure=_LOOP,
    ),
    Mutation(
        name="inject-sync-sleep",
        # this and the next two block inside RealtimePump.wait_for, the
        # coroutine a caller awaits its transaction in: the call succeeds,
        # and every connection on the loop waits for it.  A restart awaits
        # its recovery there, under SiteDaemon.start, which may fsync but
        # exempts nothing it calls
        paths=("repro/rt/pump.py",),
        replacements=(
            ("from __future__ import annotations",
             "from __future__ import annotations\nimport time"),
            (_WAIT_FOR, "        time.sleep(0.001)\n" + _WAIT_FOR),
        ),
        append="",
        expect_test=_ROUND_TRIP + "test_wal_survives_daemon_restart",
        expect_failure=_LOOP,
    ),
    Mutation(
        name="inject-sync-file-io",
        paths=("repro/rt/pump.py",),
        replacements=((
            _WAIT_FOR, '        open("/dev/null").close()\n' + _WAIT_FOR,
        ),),
        append="",
        expect_test=_ROUND_TRIP + "test_wal_survives_daemon_restart",
        expect_failure=_LOOP,
    ),
    Mutation(
        name="inject-subprocess",
        paths=("repro/rt/pump.py",),
        replacements=(
            ("from __future__ import annotations",
             "from __future__ import annotations\nimport subprocess"),
            (_WAIT_FOR, '        subprocess.run(["true"])\n' + _WAIT_FOR),
        ),
        append="",
        expect_test=_ROUND_TRIP + "test_wal_survives_daemon_restart",
        expect_failure=_LOOP,
    ),
    Mutation(
        name="drop-coordinator-host-durability-gate",
        # the coordinator's DECIDE record is a deferred (group-commit)
        # append in its daemon's WAL: without the gate a DECISION frame
        # reaches the transport's write seam before its fsync
        paths=("repro/rt/daemon.py",),
        replacements=((
            "        self.transport.durability_gate = "
            "self.flusher.barrier\n",
            "",
        ),),
        append="",
        expect_test=(
            "tests/rt/test_group_commit.py::TestGate::"
            "test_a_decision_waits_for_the_fsync_covering_its_decide"
        ),
    ),
    Mutation(
        name="drop-transport-gate-await",
        # the gate is installed but flush never awaits it: the same frame
        # meets the write seam with its DECIDE still in the WAL buffer
        paths=("repro/rt/transport.py",),
        replacements=((
            "        if (batch or told) and self.durability_gate is not None:\n"
            "            await self.durability_gate()\n",
            "",
        ),),
        append="",
        expect_test=(
            "tests/rt/test_group_commit.py::TestGate::"
            "test_a_decision_waits_for_the_fsync_covering_its_decide"
        ),
    ),
    Mutation(
        name="told-ahead-of-the-gate",
        # flush writes the turn's told replies before it awaits the gate:
        # the caller hears "committed" of a DECIDE the log could lose
        paths=("repro/rt/transport.py",),
        replacements=((
            "        told, self._told = self._told, []\n",
            "        told, self._told = self._told, []\n"
            "        for link, reply in told:\n"
            "            self._write(link, [reply])\n"
            "        told = []\n",
        ),),
        append="",
        expect_test=(
            "tests/rt/test_commit_point.py::TestDurableBeforeTold::"
            "test_submit_resolves_after_the_fsync_covering_its_decide"
        ),
    ),
    Mutation(
        name="drop-commit-point-barrier",
        # the daemon tells a caller "committed" at the commit point; written
        # straight to the socket instead of through transport.tell, the
        # reply skips the barrier and can reveal a DECIDE record the log
        # could still lose
        paths=("repro/rt/daemon.py",),
        replacements=(
            ("from repro.rt.wire import WireError,",
             "from repro.rt.wire import WireError, encode_frame,"),
            (
                "        self.transport.tell(link, {\"kind\": \"told\", "
                "\"txn\": txn_id, **body}, covers)\n",
                "        link.writer.write(encode_frame({\"kind\": \"told\", "
                "\"txn\": txn_id, **body}))\n",
            ),
        ),
        append="",
        expect_test=_ROUND_TRIP + "test_transfer_commits_across_sockets",
        expect_failure=_LOOP,
    ),
    Mutation(
        name="register-base-participant-for-paxos",
        # the wrong class in one registry row: every engine's declarations
        # stay intact, but the PAXOS participant now answers VOTE_REQ with
        # a VOTE no PAXOS role collects — the vote is stranded at runtime
        paths=("repro/protocols/__init__.py",),
        replacements=((
            "CommitScheme.PAXOS, PaxosCommitCoordinator, PaxosParticipant,",
            "CommitScheme.PAXOS, PaxosCommitCoordinator, Participant,",
        ),),
        append="",
        expect_test=(
            "tests/protocols/test_message_flow.py::"
            "test_every_message_sent_has_a_receiver[PAXOS]"
        ),
        expect_failure=_FLOW,
    ),
    Mutation(
        name="drop-prepare-force",
        # the 2PL YES vote's PREPARE record becomes a lazy append: the vote
        # can leave the site before the prepared state is durable
        paths=("repro/txn/local_manager.py",),
        replacements=((
            "        self.site.wal.append(RecordType.PREPARE, txn_id, "
            "force=True)\n        self.status[txn_id] = TxnStatus.PREPARED\n",
            "        self.site.wal.append(RecordType.PREPARE, txn_id)\n"
            "        self.status[txn_id] = TxnStatus.PREPARED\n",
        ),),
        append="",
        expect_test=(
            "tests/net/test_covering.py::"
            "test_a_committing_transaction_passes_the_seam[TWO_PL]"
        ),
    ),
    Mutation(
        name="acceptor-reply-before-force",
        # the acceptor's PAXOS_ACCEPTED leaves before its ACCEPTOR record
        # is forced: a power loss can forget a vote the leader counted
        paths=("repro/protocols/acceptor.py",),
        replacements=((
            "        accepted.covers = self._record(change)\n"
            "        self.network.send(accepted)\n",
            "        self.network.send(accepted)\n"
            "        accepted.covers = self._record(change)\n",
        ),),
        append="",
        expect_test=(
            "tests/net/test_covering.py::"
            "test_a_committing_transaction_passes_the_seam[PAXOS]"
        ),
    ),
    Mutation(
        name="ack-before-commit-force",
        # the participant's COMMIT record becomes a lazy append: its ACK
        # can reach the coordinator, which then forgets the transaction,
        # before a crash could no longer lose the COMMIT (restart would
        # ask, hear the presumed ABORT and undo a committed transaction)
        paths=("repro/txn/local_manager.py",),
        replacements=((
            "        self.site.wal.append(RecordType.COMMIT, txn_id, "
            "force=True)\n        self._terminate(txn_id, "
            "TxnStatus.COMMITTED)\n",
            "        self.site.wal.append(RecordType.COMMIT, txn_id)\n"
            "        self._terminate(txn_id, TxnStatus.COMMITTED)\n",
        ),),
        append="",
        expect_test=(
            "tests/net/test_covering.py::"
            "test_a_committing_transaction_passes_the_seam[O2PC]"
        ),
    ),
    Mutation(
        name="vote-req-never-sent",
        # the base coordinator opens its vote phase with the wrong type:
        # the participants' VOTE_REQ handler is never reached, so no
        # participant of O2PC, TWO_PL or SHORT ever votes
        paths=("repro/commit/coordinator.py",),
        replacements=((
            "                msg_type=MsgType.VOTE_REQ,\n",
            "                msg_type=MsgType.SUBTXN_REQ,\n",
        ),),
        append="",
        expect_test=(
            "tests/protocols/test_message_flow.py::"
            "test_every_declared_receiver_is_reached[O2PC]"
        ),
        expect_failure=_FLOW,
    ),
    Mutation(
        name="low-water-ignores-locally-committed",
        # a locally committed, undecided transaction counts as settled: a
        # checkpoint drops its records, so a restart forgets it and a
        # later ABORT finds no UPDATE records to build the undo program of
        # its compensation from
        paths=("repro/storage/wal.py",),
        replacements=((
            "_SETTLING = (RecordType.COMMIT, RecordType.ABORT, "
            "RecordType.COORD_END)\n",
            "_SETTLING = (RecordType.COMMIT, RecordType.ABORT, "
            "RecordType.COORD_END, RecordType.LOCAL_COMMIT)\n",
        ),),
        append="",
        expect_test=(
            "tests/storage/test_restart_parity.py::"
            "test_truncated_restart_equals_full_restart[O2PC]"
        ),
        expect_failure="restart parity",
    ),
    Mutation(
        name="prune-one-step-early",
        # the judge forgets a settled transaction that an open one still
        # reaches: a later edge from that open transaction can close a
        # cycle through it, or its write was the one a later read saw
        paths=("repro/sg/judge.py",),
        replacements=((
            "blocked = open_groups | {_group(t) for t in reached}",
            "blocked = set(open_groups)",
        ),),
        append="",
        expect_test=(
            "tests/sg/test_judge_parity.py::"
            "test_pruned_verdicts_equal_the_full_history[O2PC]"
        ),
        expect_failure="judge parity",
    ),
    Mutation(
        name="semantic-op-keeps-params-dict",
        # an operation keeps the caller's one-entry dict (184 B) instead
        # of its compact parameters (56 B): every kept spec grows
        paths=("repro/txn/operations.py",),
        replacements=((
            '_set(self, "params", Params(*params.items()))',
            '_set(self, "params", params)',
        ),),
        append="",
        expect_test=(
            "tests/txn/test_spec_footprint.py::"
            "test_a_kept_spec_costs_what_it_says"
        ),
        expect_failure="spec footprint",
    ),
    Mutation(
        name="event-report-skips-lock-releases",
        # the event-stream reader drops every lock hold: a cluster's
        # report would show no lock-hold time at all
        paths=("repro/obs/metrics.py",),
        replacements=((
            "            holds.append(event.held)\n",
            "            pass\n",
        ),),
        append="",
        expect_test=(
            "tests/obs/test_metrics.py::TestStreamingParity::"
            "test_sums_and_means_exact"
        ),
        expect_failure="metrics parity",
    ),
    Mutation(
        name="inject-acceptor-file-io",
        # synchronous file IO in the Paxos acceptor's accept handler: it
        # runs on the daemon's loop although it lives outside rt/
        paths=("repro/protocols/acceptor.py",),
        replacements=((
            "    def _handle_accept(self, msg: Message) -> None:\n",
            "    def _handle_accept(self, msg: Message) -> None:\n"
            "        open(\"/dev/null\").close()\n",
        ),),
        append="",
        expect_test=(
            "tests/rt/test_daemon.py::TestCompetitorSchemesOverSockets::"
            "test_paxos_commits_over_sockets"
        ),
        expect_failure=_LOOP,
    ),
]


def run_lint(src_dir: Path) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json"],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"lint crashed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return proc.returncode, json.loads(proc.stdout)


def run_tests(checkout: Path, nodes: list[str]) -> tuple[int | None, str]:
    """Run pytest ``nodes`` in ``checkout`` (a src/ copy plus the tests);
    exit code None when the run outlasts :data:`TIMEOUT`."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *nodes],
            capture_output=True, text=True, cwd=checkout, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT} s"
    return proc.returncode, proc.stdout + proc.stderr


def checkout(root: Path, mutation: Mutation | None) -> Path:
    """A copy of ``src/`` under ``root`` with ``mutation`` applied; a
    dynamic mutation gets the tests and their conftest beside it."""
    root.mkdir()
    shutil.copytree(SRC, root / "src")
    if mutation is not None:
        mutate(root / "src", mutation)
    if mutation is None or mutation.expect_test is not None:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(REPO / "tests", root / "tests", ignore=ignore)
        for name in ("conftest.py", "pyproject.toml"):
            shutil.copy(REPO / name, root / name)
    return root


def mutate(src_dir: Path, mutation: Mutation) -> None:
    for path in mutation.paths:
        target = src_dir / path
        text = target.read_text()
        for old, new in mutation.replacements:
            if old not in text:
                raise SystemExit(
                    f"{mutation.name}: pattern not found in {path!r}: "
                    f"{old!r} — the mutation no longer applies, update "
                    f"this script"
                )
            text = text.replace(old, new)
        target.write_text(text + mutation.append)


def caught(root: Path, mutation: Mutation) -> tuple[bool, str]:
    """Whether the mutated checkout at ``root`` fails as expected."""
    if mutation.expect_test is not None:
        code, output = run_tests(root, [mutation.expect_test])
        if code is None:
            return False, "timed out"
        if code == 1 and mutation.expect_failure in output:
            return True, f"{mutation.expect_test} ({mutation.expect_failure})"
        return False, f"{mutation.expect_test} exit {code}"
    code, report = run_lint(root / "src")
    rules = [f["rule"] for f in report["findings"]]
    if code == 1 and mutation.expect_rule in rules:
        return True, str(mutation.expect_rule)
    return False, f"exit {code}, rules {rules}"


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint-mutation-") as tmp:
        pristine = checkout(Path(tmp) / "pristine", None)
        code, report = run_lint(pristine / "src")
        if code != 0 or report["findings"]:
            raise SystemExit(
                "pristine copy is not clean — fix the lint findings before "
                f"trusting the mutation check:\n{json.dumps(report, indent=2)}"
            )
        nodes = sorted({m.expect_test for m in MUTATIONS if m.expect_test})
        code, output = run_tests(pristine, nodes)
        if code != 0:
            raise SystemExit(
                "a named test fails on the pristine copy — fix it before "
                f"trusting the mutation check:\n{output}"
            )
        print("pristine copy: clean (lint exit 0, named tests pass)")

        for mutation in MUTATIONS:
            root = checkout(Path(tmp) / mutation.name, mutation)
            ok, detail = caught(root, mutation)
            if ok:
                print(f"{mutation.name}: caught by {detail}")
            else:
                failures.append(mutation.name)
                print(f"{mutation.name}: not caught ({detail})")

    if failures:
        print(f"\n{len(failures)} mutation(s) survived: {failures}")
        return 1
    print(f"\nall {len(MUTATIONS)} mutations caught")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
