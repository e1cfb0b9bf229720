"""Unit tests for the command-line interface."""

import hashlib
import json
import re

import pytest

from repro.cli import build_parser, main
from tests.test_examples import run_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _audit_sections():
    # The regular-cycle audit is examples/correctness_audit.py, which runs
    # the adversarial interleaving under protocol none, then under P1.
    out = run_example("correctness_audit.py")
    unprotected, protected = out.split("=== O2PC + protocol P1 ===")
    return unprotected, protected


def test_audit_none_flags_cycle():
    out, _ = _audit_sections()
    assert "regular cycle" in out
    assert "INCORRECT" in out


def test_audit_p1_is_clean():
    _, out = _audit_sections()
    assert "no regular cycle" in out


@pytest.mark.parametrize("scheme", ["O2PC", "TWO_PL", "PAXOS", "SHORT"])
def test_trace_is_deterministic(capsys, scheme):
    code1, out1 = run_cli(capsys, "trace", "--seed", "7",
                          "--transactions", "6", "--scheme", scheme)
    code2, out2 = run_cli(capsys, "trace", "--seed", "7",
                          "--transactions", "6", "--scheme", scheme)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert records[0]["kind"] == "txn.submit"
    assert [r["seq"] for r in records] == list(range(len(records)))


#: sha256 of ``repro trace --seed 7 --scheme S`` at the default size.  The
#: trace does not depend on PYTHONHASHSEED or the interpreter version (CI
#: runs this on 3.11-3.13), so a change that moves a digest changed what
#: the simulation does, and must say why.  PAXOS and SHORT moved when a
#: timed inbox get replaced the coordinator's AnyOf race: a message now
#: resumes its coordinator one kernel hop earlier, which reorders events
#: within a tick (their unordered digests below did not move).
TRACE_DIGESTS = {
    "TWO_PL": "a28552c9c0ef5c4a1a3b8d039626336212d59070e560dbacc450550b938e7e65",
    "O2PC": "209e510783cbe8aee1ecf8892d7a30f4ac699d884ffcd0824e6dce5b594753f5",
    "PAXOS": "d38fd18d94233f1c6279db640e3e5d2b9300395caf518fe8f080775288dc1165",
    "SHORT": "9d3ba4d894020a09127a1818767f77289f44f5767e0504e5529767cdf1b78d6c",
}

#: sha256 of the same trace's lines with ``seq`` removed, sorted: it moves
#: only when the simulation records different events, not when it records
#: the same events in a different same-tick order.
UNORDERED_TRACE_DIGESTS = {
    "TWO_PL": "052dc676ab19ea6a23de07ed15278c05fb5d225a578fb2120284f32bc22e8423",
    "O2PC": "981c5c09547c03e4d7cd2f8b1e3878af87f95c20f4cebdafe4fbbf838b07f1ea",
    "PAXOS": "d9bad7b11ee3c46b14a45e3a35c7caf5a0891e8c6fac42983926161f6b1eda98",
    "SHORT": "7a3b62d79e060bc9d679e2a8cabb9d85a2c53c56ac8362032b2f173648912656",
}


@pytest.mark.parametrize("scheme", sorted(TRACE_DIGESTS))
def test_trace_matches_pinned_digest(capsys, scheme):
    code, out = run_cli(capsys, "trace", "--seed", "7", "--scheme", scheme)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_DIGESTS[scheme]


def unordered_digest(trace: str) -> str:
    """sha256 of the trace's records without ``seq``, as sorted lines."""
    lines = []
    for line in trace.splitlines():
        record = json.loads(line)
        del record["seq"]
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(UNORDERED_TRACE_DIGESTS))
def test_trace_matches_pinned_unordered_digest(capsys, scheme):
    code, out = run_cli(capsys, "trace", "--seed", "7", "--scheme", scheme)
    assert code == 0
    assert unordered_digest(out) == UNORDERED_TRACE_DIGESTS[scheme]


def test_trace_seed_changes_stream(capsys):
    _, out1 = run_cli(capsys, "trace", "--seed", "7", "--transactions", "6")
    _, out2 = run_cli(capsys, "trace", "--seed", "8", "--transactions", "6")
    assert out1 != out2


def test_trace_writes_file(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "trace", "--transactions", "4",
                        "--out", str(path))
    assert code == 0
    assert f"events -> {path}" in out
    lines = path.read_text().splitlines()
    assert lines
    assert str(len(lines)) in out


def test_metrics_summary(capsys):
    code, out = run_cli(capsys, "metrics", "--transactions", "8")
    assert code == 0
    assert "== metrics ==" in out
    for name in ("committed", "aborted", "p99_latency", "messages_total"):
        assert name in out


def test_metrics_watch_prints_snapshots(capsys):
    code, out = run_cli(capsys, "metrics", "--watch",
                        "--transactions", "8", "--window", "20")
    assert code == 0
    assert "t=" in out
    assert "p50=" in out
    assert "== metrics ==" in out
    # each snapshot shows the commits since the previous one
    deltas = re.findall(r"committed=\s*\d+ \(\+(\d+)\)", out)
    final = re.search(r"^committed\s+(\d+)$", out, re.MULTILINE)
    assert deltas and final
    assert sum(map(int, deltas)) == int(final.group(1)) > 0


def test_metrics_records_no_events(capsys, monkeypatch):
    # The report reads the logs, so the metrics verb records no event.
    from repro import cli

    built, real = [], cli.System
    monkeypatch.setattr(cli, "System", lambda c: built.append(real(c)) or built[-1])
    for argv in (["metrics"], ["metrics", "--watch"], ["trace"]):
        run_cli(capsys, *argv, "--transactions", "4", "--seed", "0")
    metrics, watch, trace = (len(s.events()) for s in built)
    assert metrics == watch == 0 < trace


def test_metrics_rejects_nonpositive_window():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["metrics", "--window", "0"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare_rejects_nonpositive_vote_timeout():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "--vote-timeout", "-1"])


class TestSharedParents:
    """--seed/--protocol/--scheme are one definition shared by every verb.

    The per-verb defaults below pin the argparse pitfall this layout has:
    ``set_defaults`` mutates ``action.default`` on the shared action
    object, so parents must be fresh parser instances per subcommand or
    the last verb's default leaks into all of them.
    """

    @pytest.mark.parametrize("verb,expected", [
        (["trace"], {"protocol": "P1", "scheme": "O2PC"}),
        (["metrics"], {"protocol": "P1", "scheme": "O2PC"}),
        (["check"], {"protocol": "P1", "scheme": "O2PC"}),
        (["serve", "S1", "--cluster", "c.json"], {"protocol": "none"}),
        # the daemons decide scheme and protocol: seed is all it shares
        (["client", "--cluster", "c.json"], {"seed": 0}),
    ])
    def test_per_verb_defaults_do_not_leak(self, verb, expected):
        args = build_parser().parse_args(verb)
        for key, value in expected.items():
            assert getattr(args, key) == value, (verb, key)

    def test_shared_options_accepted_after_any_verb(self):
        args = build_parser().parse_args(
            ["check", "--seed", "9", "--protocol", "P2", "--scheme", "PAXOS"]
        )
        assert args.seed == 9
        assert args.protocol == "P2"
        assert args.scheme == "PAXOS"

    @pytest.mark.parametrize("argv", [
        ["bench", "--smoke"],
        ["trace", "--backend", "sim"],
        ["serve", "S1", "--cluster", "c.json", "--backend", "net"],
        ["demo"],
        ["drill"],
        ["audit"],
        ["sweep"],
        ["report"],
        ["compare", "--baseline", "x"],
        ["compare", "--update-baseline"],
        ["check", "--paranoid"],
        ["check", "--jobs", "0"],
        ["check", "--jobs", "-3"],
        ["client", "--cluster", "c.json", "--scheme", "TWO_PL"],
        ["client", "--cluster", "c.json", "--protocol", "P1"],
    ])
    def test_removed_verb_and_option_are_parser_errors(self, argv):
        # The backend is fixed per verb, performance is measured by
        # bench/run.py and narration lives in examples/: no removed
        # spelling may linger as a silent no-op, and neither may a job
        # count below one.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_metrics_cluster_file_alone_selects_live_aggregation(
        self, tmp_path, capsys,
    ):
        from repro.rt.config import local_cluster

        cluster_file = str(tmp_path / "cluster.json")
        local_cluster(["S1", "S2"], data_dir=str(tmp_path)).save(cluster_file)
        assert main(["metrics", "--cluster", cluster_file]) == 0
        out = capsys.readouterr().out
        assert "== cluster event streams ==" in out
        assert "== metrics ==" in out


class TestServeClientCli:
    def test_serve_requires_cluster(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "S1"])

    def test_client_status_unreachable_daemon_fails_cleanly(
        self, tmp_path, capsys,
    ):
        from repro.rt.config import local_cluster

        cluster_file = str(tmp_path / "cluster.json")
        local_cluster(["S1", "S2"], data_dir=str(tmp_path)).save(cluster_file)
        code = main(["client", "--cluster", cluster_file, "--status", "S1"])
        assert code == 1
        assert "cannot reach S1" in capsys.readouterr().err

    def test_client_transfer_needs_two_sites(self, tmp_path, capsys):
        from repro.rt.config import local_cluster

        cluster_file = str(tmp_path / "cluster.json")
        local_cluster(["S1"], data_dir=str(tmp_path)).save(cluster_file)
        code = main(["client", "--cluster", cluster_file])
        assert code == 2
        assert "at least two sites" in capsys.readouterr().err
