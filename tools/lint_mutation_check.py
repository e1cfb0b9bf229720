#!/usr/bin/env python
"""Self-test for ``repro lint``: seeded mutations must be caught.

A linter that never fires is indistinguishable from a working one, so CI
runs this script after the clean lint pass: it copies ``src/`` to a temp
directory, applies one protocol-breaking mutation at a time, and asserts
the lint exits 1 with the expected rule.  The unmutated copy must stay
clean (exit 0) to prove the harness itself isn't producing the findings.

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


@dataclass(frozen=True)
class Mutation:
    """One seeded defect: edit ``paths`` and expect ``expect_rule`` to fire."""

    name: str
    paths: tuple[str, ...]  # relative to the copied src/ tree
    replacements: tuple[tuple[str, str], ...]  # (old, new); "" new = delete
    append: str  # text appended to each file (for injections)
    expect_rule: str


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
        # the receivable set is the UNION of every participant-side
        # engine's _HANDLERS, so the decision handler must vanish from
        # all of them before MsgType.DECISION becomes unreceivable
        paths=(
            "repro/commit/participant.py",
            "repro/protocols/paxos.py",
            "repro/protocols/short.py",
        ),
        replacements=((
            'MsgType.DECISION: "_handle_decision",\n', "",
        ),),
        append="",
        expect_rule="dispatch/missing-handler",
    ),
    Mutation(
        name="move-force-after-send",
        # swap the 2PL prepare force point to AFTER the YES vote leaves
        # the site: the O2PC branch still forces via local_commit, so
        # the AND-merge over the if-arms leaves the send uncovered
        paths=("repro/commit/participant.py",),
        replacements=(
            ("            self.site.ltm.prepare(txn_id)\n", ""),
            (
                '        self._reply(msg, MsgType.VOTE, {"vote": "YES"})\n',
                '        self._reply(msg, MsgType.VOTE, {"vote": "YES"})\n'
                "        self.site.ltm.prepare(txn_id)\n",
            ),
        ),
        append="",
        expect_rule="flow/unforced-send",
    ),
    Mutation(
        name="drop-paxos-decision-handler",
        # delete the DECISION handler from the Paxos participant ONLY:
        # the union-based dispatch rules stay quiet (base Participant
        # still declares it) but the PAXOS scheme's flow graph now has
        # DECISION senders with no receiver
        paths=("repro/protocols/paxos.py",),
        replacements=((
            'MsgType.DECISION: "_handle_decision",\n', "",
        ),),
        append="",
        expect_rule="msgflow/orphan-send",
    ),
    Mutation(
        name="inject-sync-fsync",
        # a bare fsync in the receive path stalls the daemon's event loop
        # on every frame.  Half of a hop is a plain callback now (the
        # connection's data_received delivers straight to the inboxes), so
        # this is caught only while protocol methods seed the analysis
        # (the group-commit barrier's wal.sync() stays the one designated
        # fsync site)
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
        expect_rule="blocking/sync-fsync",
    ),
    Mutation(
        name="inject-sync-sleep",
        # this and the next two block inside RealtimePump.wait_for, the
        # coroutine a caller awaits its transaction in: the call succeeds,
        # and every connection on the loop waits for it
        paths=("repro/rt/pump.py",),
        replacements=(
            ("from __future__ import annotations",
             "from __future__ import annotations\nimport time"),
            (_WAIT_FOR, "        time.sleep(0.001)\n" + _WAIT_FOR),
        ),
        append="",
        expect_rule="blocking/sync-sleep",
    ),
    Mutation(
        name="inject-sync-file-io",
        paths=("repro/rt/pump.py",),
        replacements=((
            _WAIT_FOR, '        open("/dev/null").close()\n' + _WAIT_FOR,
        ),),
        append="",
        expect_rule="blocking/sync-file-io",
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
        expect_rule="blocking/subprocess",
    ),
    Mutation(
        name="drop-coordinator-host-durability-gate",
        # the coordinator's DECIDE record is a deferred (group-commit)
        # append in its daemon's WAL: without the gate a DECISION frame can
        # leave before its fsync
        paths=("repro/rt/daemon.py",),
        replacements=((
            "        self.transport.durability_gate = "
            "self.flusher.barrier\n",
            "",
        ),),
        append="",
        expect_rule="flow/rt-durability-gate",
    ),
    Mutation(
        name="drop-commit-point-barrier",
        # the daemon tells a caller "committed" at the commit point; written
        # straight to the socket instead of through transport.tell, the
        # reply skips the barrier and can reveal a DECIDE record the log
        # could still lose
        paths=("repro/rt/daemon.py",),
        replacements=((
            "        self.transport.tell(link, {\"kind\": \"told\", \"txn\": "
            "txn_id, **body})\n",
            "        link.writer.write(encode_frame({\"kind\": \"told\", "
            "\"txn\": txn_id, **body}))\n",
        ),),
        append="",
        expect_rule="flow/rt-durability-gate",
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
        expect_rule="msgflow/orphan-send",
    ),
    Mutation(
        name="drop-prepare-force",
        # the 2PL YES vote's PREPARE record becomes a lazy append while
        # _FORCE_POINTS still promises a force: the vote can leave the
        # site before the prepared state is durable
        paths=("repro/txn/local_manager.py",),
        replacements=((
            "        self.site.wal.append(RecordType.PREPARE, txn_id, "
            "force=True)\n        self.status[txn_id] = TxnStatus.PREPARED\n",
            "        self.site.wal.append(RecordType.PREPARE, txn_id)\n"
            "        self.status[txn_id] = TxnStatus.PREPARED\n",
        ),),
        append="",
        expect_rule="flow/force-point-drift",
    ),
    Mutation(
        name="acceptor-reply-before-force",
        # the acceptor's PAXOS_ACCEPTED leaves before its ACCEPTOR record
        # is forced: a power loss can forget a vote the leader counted
        paths=("repro/protocols/acceptor.py",),
        replacements=(
            (
                "        self._record(change)\n"
                "        self.network.send(Message(\n",
                "        self.network.send(Message(\n",
            ),
            (
                '                "value": value,\n            },\n        ))\n',
                '                "value": value,\n            },\n        ))\n'
                "        self._record(change)\n",
            ),
        ),
        append="",
        expect_rule="flow/unforced-send",
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
        expect_rule="msgflow/dead-handler",
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


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint-mutation-") as tmp:
        pristine = Path(tmp) / "src"
        shutil.copytree(SRC, pristine)

        code, report = run_lint(pristine)
        if code != 0 or report["findings"]:
            raise SystemExit(
                "pristine copy is not clean — fix the lint findings before "
                f"trusting the mutation check:\n{json.dumps(report, indent=2)}"
            )
        print("pristine copy: clean (exit 0)")

        for mutation in MUTATIONS:
            mutated = Path(tmp) / f"src-{mutation.name}"
            shutil.copytree(SRC, mutated)
            mutate(mutated, mutation)
            code, report = run_lint(mutated)
            rules = [f["rule"] for f in report["findings"]]
            if code == 1 and mutation.expect_rule in rules:
                print(f"{mutation.name}: caught by {mutation.expect_rule}")
            else:
                failures.append(mutation.name)
                print(
                    f"{mutation.name}: NOT CAUGHT "
                    f"(exit {code}, rules {rules})"
                )

    if failures:
        print(f"\n{len(failures)} mutation(s) survived: {failures}")
        return 1
    print(f"\nall {len(MUTATIONS)} mutations caught")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
