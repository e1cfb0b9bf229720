"""Every lint rule is named by a seeded mutation in
``tools/lint_mutation_check.py``.

A rule no mutation fires could be dead and nobody would know.  This test
reads the rule ids straight out of the analyzer sources (every string
literal shaped ``family/rule-name``) and each mutation's ``expect_rule``
out of the script, parsing both and running neither.
"""

import ast
import re
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


def mutated_rules() -> set[str]:
    return {
        node.value.value
        for node in _nodes(REPO / "tools" / "lint_mutation_check.py")
        if isinstance(node, ast.keyword) and node.arg == "expect_rule"
    }


def test_every_rule_is_named_by_a_mutation():
    assert analyzer_rules() <= mutated_rules()


def test_every_mutation_names_a_rule_the_analyzers_define():
    assert mutated_rules() <= analyzer_rules()
