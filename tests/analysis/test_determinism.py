"""Family 1: the determinism lint (AST pass, no execution)."""

import textwrap

import pytest

from repro.analysis import analyze_file, analyze_tree, default_root
from repro.analysis.determinism import DEFAULT_ALLOWLIST
from repro.errors import AnalysisError


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_file(path, name)


def rules_of(findings):
    return [f.rule for f in findings]


class TestWallClock:
    def test_time_time_call(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time
            def stamp():
                return time.time()
        """)
        assert rules_of(findings) == ["determinism/wall-clock"]
        assert findings[0].location == "mod.py:4"

    def test_from_import_alias(self, tmp_path):
        findings = lint_source(tmp_path, """
            from time import time as wall
            def stamp():
                return wall()
        """)
        assert rules_of(findings) == ["determinism/wall-clock"]

    def test_datetime_now(self, tmp_path):
        findings = lint_source(tmp_path, """
            from datetime import datetime
            def stamp():
                return datetime.now()
        """)
        assert rules_of(findings) == ["determinism/wall-clock"]

    def test_uncalled_reference_still_flagged(self, tmp_path):
        # e.g. default_factory=time.time
        findings = lint_source(tmp_path, """
            import time
            CLOCK = time.time
        """)
        assert rules_of(findings) == ["determinism/wall-clock"]

    def test_perf_counter_tolerated_for_budget_accounting(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time
            def budget():
                return time.perf_counter()
        """)
        assert findings == []


class TestRandomAndEntropy:
    def test_module_level_random(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random
            def draw():
                return random.randint(1, 6)
        """)
        assert rules_of(findings) == ["determinism/unseeded-random"]

    def test_unseeded_random_instance(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random
            RNG = random.Random()
        """)
        assert rules_of(findings) == ["determinism/unseeded-random"]

    def test_seeded_random_instance_allowed(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random
            RNG = random.Random(42)
        """)
        assert findings == []

    def test_os_urandom_and_uuid4(self, tmp_path):
        findings = lint_source(tmp_path, """
            import os
            import uuid
            def token():
                return os.urandom(8), uuid.uuid4()
        """)
        assert rules_of(findings) == [
            "determinism/entropy", "determinism/entropy",
        ]

    def test_secrets_module(self, tmp_path):
        findings = lint_source(tmp_path, """
            import secrets
            def token():
                return secrets.token_hex(4)
        """)
        assert rules_of(findings) == ["determinism/entropy"]


class TestSetIteration:
    def test_for_over_set_literal(self, tmp_path):
        findings = lint_source(tmp_path, """
            def drain(a, b):
                for item in {a, b}:
                    print(item)
        """)
        assert rules_of(findings) == ["determinism/set-iteration"]

    def test_comprehension_over_set_call(self, tmp_path):
        findings = lint_source(tmp_path, """
            def dedupe(items):
                return [x for x in set(items)]
        """)
        assert rules_of(findings) == ["determinism/set-iteration"]

    def test_sorted_set_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """
            def dedupe(items):
                for x in sorted(set(items)):
                    print(x)
                return sorted({i for i in items})
        """)
        assert findings == []

    def test_membership_test_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """
            def member(x, items):
                return x in set(items)
        """)
        assert findings == []


class TestPragmaAndTree:
    def test_pragma_suppresses_line(self, tmp_path):
        findings = lint_source(tmp_path, """
            import time
            WALL = time.time()  # lint: allow-nondeterminism
            LEAK = time.time()
        """)
        assert len(findings) == 1
        assert findings[0].location == "mod.py:4"

    def test_syntax_error_raises_analysis_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def oops(:\n")
        with pytest.raises(AnalysisError):
            analyze_file(path, "broken.py")

    def test_allowlist_skips_rng(self, tmp_path):
        pkg = tmp_path / "sim"
        pkg.mkdir()
        (pkg / "rng.py").write_text("import random\nX = random.random()\n")
        assert analyze_tree(tmp_path) == []
        assert rules_of(analyze_tree(tmp_path, allowlist=frozenset())) == [
            "determinism/unseeded-random"
        ]

    def test_shipped_source_tree_is_clean(self):
        # The load-bearing assertion: the protocol, sim, and check packages
        # contain none of the forbidden constructs (sim/rng.py allowlisted).
        assert analyze_tree(default_root()) == []

    def test_default_allowlist_names_the_rng_wrapper(self):
        assert "sim/rng.py" in DEFAULT_ALLOWLIST
