"""The lint runner and the ``repro lint`` CLI verb."""

import json

import pytest

from repro import analysis
from repro.analysis import render_json, render_text, run_all
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.cli import main


class TestRunner:
    def test_shipped_repo_has_zero_findings(self):
        report = run_all()
        assert report.ok
        assert report.findings == []
        assert list(report.stats) == ["files_scanned"]
        assert report.stats["files_scanned"] > 50

    def test_json_report_is_deterministic(self):
        a = render_json(run_all())
        b = render_json(run_all())
        assert a == b
        payload = json.loads(a)
        assert payload["ok"] is True
        assert payload["version"] == 1
        assert payload["findings"] == []

    def test_text_report_mentions_inputs(self):
        report = run_all()
        text = render_text(report)
        assert "no findings" in text
        assert f"{report.stats['files_scanned']} source files" in text

    def test_sort_findings_is_total_and_stable(self):
        f1 = Finding("b/rule", Severity.ERROR, "loc1", "m")
        f2 = Finding("a/rule", Severity.ERROR, "loc2", "m")
        f3 = Finding("a/rule", Severity.ERROR, "loc1", "m")
        assert sort_findings([f1, f2, f3]) == [f3, f2, f1]

    def test_findings_render_with_anchor(self):
        f = Finding(
            "flow/rt-durability-gate", Severity.ERROR,
            "commit/participant.py:7", "VOTE before its force",
            anchor="Section 4",
        )
        text = f.render()
        assert "ERROR" in text
        assert "commit/participant.py:7" in text
        assert "[Section 4]" in text


class TestCli:
    def test_lint_exits_zero_on_clean_repo(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_lint_exits_one_on_findings(self, capsys, monkeypatch):
        finding = Finding(
            "determinism/wall-clock", Severity.ERROR,
            "commit/base.py:1", "call to time.time()",
            anchor="checker replay",
        )

        def fake_run_all(root=None):
            return analysis.LintReport(findings=[finding], stats={})

        monkeypatch.setattr(analysis, "run_all", fake_run_all)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "determinism/wall-clock" in out
        assert "1 finding(s)" in out

    def test_lint_root_points_ast_families_elsewhere(self, tmp_path, capsys):
        # A minimal fake tree: the runtime files the write-seam rule reads
        # and one module with a wall-clock leak — proves --root rescans,
        # and the exit code gates.
        (tmp_path / "commit").mkdir()
        (tmp_path / "rt").mkdir()
        (tmp_path / "commit" / "participant.py").write_text(
            "import time\n"
            "class Participant:\n"
            "    WALL = time.time()\n"
        )
        (tmp_path / "rt" / "daemon.py").write_text(
            "class SiteDaemon:\n"
            "    def boot(self):\n"
            "        self.transport.durability_gate = gate\n"
        )
        (tmp_path / "rt" / "transport.py").write_text(
            "class TcpTransport:\n"
            "    async def flush(self):\n"
            "        await self.durability_gate()\n"
            "        self._write(link, batch)\n"
            "    def _write(self, link, messages):\n"
            "        link.writer.write(b'')\n"
        )
        assert main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "determinism/wall-clock" in out
        # only the seeded leak fires — the runtime rules are clean on
        # this tree
        assert "1 finding(s)" in out


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_lint_runs_from_module_entry(flag, capsys):
    # `python -m repro lint` goes through the same main()
    assert main(["lint", *flag]) == 0
