"""Every lint rule is named by a seeded mutation in
``tools/lint_mutation_check.py``, and every test a mutation names exists.

A rule no mutation fires could be dead and nobody would know.  This test
reads the rule ids straight out of the analyzer sources (every string
literal shaped ``family/rule-name``) and each mutation's ``expect_rule``
out of the script, parsing both and running neither.  A dynamic
mutation's ``expect_test`` is a pytest node id; pytest must collect it.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

from repro.analysis import default_root

REPO = Path(__file__).resolve().parents[2]

_RULE_ID = re.compile(r"^[a-z]+/[a-z]+(-[a-z]+)*$")


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def analyzer_rules() -> set[str]:
    return {
        node.value
        for path in sorted((default_root() / "analysis").glob("*.py"))
        for node in _nodes(path)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _RULE_ID.match(node.value)
    }


def _expected(arg: str) -> set[str]:
    return {
        node.value.value
        for node in _nodes(REPO / "tools" / "lint_mutation_check.py")
        if isinstance(node, ast.keyword) and node.arg == arg
        and isinstance(node.value, ast.Constant)
    }


def mutated_rules() -> set[str]:
    return _expected("expect_rule")


def mutated_tests() -> set[str]:
    return _expected("expect_test")


def test_every_rule_is_named_by_a_mutation():
    assert analyzer_rules() <= mutated_rules()


def test_every_mutation_names_a_rule_the_analyzers_define():
    assert mutated_rules() <= analyzer_rules()


def test_every_mutation_expects_a_rule_or_a_test():
    calls = [
        node for node in _nodes(REPO / "tools" / "lint_mutation_check.py")
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "Mutation"
    ]
    assert calls
    for call in calls:
        named = {kw.arg for kw in call.keywords} & {
            "expect_rule", "expect_test",
        }
        assert len(named) == 1, ast.unparse(call)[:80]


def test_every_named_test_exists():
    nodes = sorted(mutated_tests())
    assert nodes
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only",
         "-p", "no:cacheprovider", *nodes],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert sorted(collected) == nodes
