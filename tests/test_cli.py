"""Unit tests for the command-line interface."""

import json

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
        (["client", "--cluster", "c.json"], {"protocol": "none"}),
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
    ])
    def test_removed_verb_and_option_are_parser_errors(self, argv):
        # The backend is fixed per verb, performance is measured by
        # bench/run.py and narration lives in examples/: no removed
        # spelling may linger as a silent no-op.
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
