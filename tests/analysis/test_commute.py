"""Family 2: commutativity matrix and stratification-risk warnings."""

import pytest

from repro.analysis import (
    analyze_matrix,
    analyze_workload_commutativity,
    build_matrix,
    ops_commute,
)
from repro.analysis.findings import Severity
from repro.compensation import (
    ActionRegistry,
    SemanticAction,
    standard_registry,
)
from repro.txn import GlobalTxnSpec, ReadOp, SemanticOp, SubtxnSpec, WriteOp
from repro.workload import standard_scenarios


@pytest.fixture
def registry():
    return standard_registry()


@pytest.fixture
def matrix(registry):
    return build_matrix(registry)


class TestMatrix:
    def test_additive_group_commutes_both_ways(self, matrix):
        assert "withdraw" in matrix["deposit"]
        assert "deposit" in matrix["withdraw"]
        assert "deposit" in matrix["deposit"]  # self-commuting

    def test_set_commutes_with_nothing(self, matrix):
        assert matrix["set"] == set()

    def test_symmetric_closure_of_one_sided_declaration(self):
        registry = ActionRegistry()
        registry.register(SemanticAction(
            name="a", apply=lambda c: c, commutes_with=frozenset({"b"}),
        ))
        registry.register(SemanticAction(name="b", apply=lambda c: c))
        matrix = build_matrix(registry)
        assert "a" in matrix["b"] and "b" in matrix["a"]

    def test_standard_matrix_is_clean(self, registry):
        assert analyze_matrix(registry) == []

    def test_unknown_commute_ref_flagged(self):
        registry = ActionRegistry()
        registry.register(SemanticAction(
            name="a", apply=lambda c: c,
            commutes_with=frozenset({"phantom"}),
        ))
        findings = analyze_matrix(registry)
        assert [f.rule for f in findings] == ["commute/unknown-commute-ref"]
        assert findings[0].location == "registry:a"


class TestOpsCommute:
    def test_reads_commute(self, matrix):
        assert ops_commute(matrix, ReadOp("k"), ReadOp("k"))

    def test_read_write_conflict(self, matrix):
        assert not ops_commute(matrix, ReadOp("k"), WriteOp("k", 1))

    def test_blind_writes_never_commute(self, matrix):
        assert not ops_commute(matrix, WriteOp("k", 1), WriteOp("k", 2))

    def test_semantic_by_declaration(self, matrix):
        dep = SemanticOp("deposit", "k", {"amount": 1})
        wdr = SemanticOp("withdraw", "k", {"amount": 2})
        stv = SemanticOp("set", "k", {"value": 9})
        assert ops_commute(matrix, dep, wdr)
        assert not ops_commute(matrix, dep, stv)
        assert not ops_commute(matrix, stv, stv)


def crossing(op_builder_a, op_builder_b):
    """Two transactions meeting at both S1 and S2 on key k0."""
    return {"adv": [
        GlobalTxnSpec(txn_id="T1", subtxns=[
            SubtxnSpec("S1", [op_builder_a()]),
            SubtxnSpec("S2", [op_builder_a()]),
        ]),
        GlobalTxnSpec(txn_id="T2", subtxns=[
            SubtxnSpec("S1", [op_builder_b()]),
            SubtxnSpec("S2", [op_builder_b()]),
        ]),
    ]}


class TestStratificationRisk:
    def test_standard_scenarios_are_clean(self, registry):
        assert analyze_workload_commutativity(
            registry, standard_scenarios()
        ) == []

    def test_crossing_set_writers_warned(self, registry):
        # The correctness-audit shape: dirty set at both sites, reader
        # behind it.
        findings = analyze_workload_commutativity(registry, crossing(
            lambda: SemanticOp("set", "k0", {"value": "dirty"}),
            lambda: ReadOp("k0"),
        ))
        assert [f.rule for f in findings] == ["commute/stratification-risk"]
        finding = findings[0]
        assert finding.severity is Severity.WARNING
        assert finding.location == "workload:adv/T1+T2"
        assert "S1,S2" in finding.message
        assert "A1-A4" in finding.anchor

    def test_commuting_crossers_not_warned(self, registry):
        findings = analyze_workload_commutativity(registry, crossing(
            lambda: SemanticOp("deposit", "k0", {"amount": 3}),
            lambda: SemanticOp("withdraw", "k0", {"amount": 1}),
        ))
        assert findings == []

    def test_single_site_conflict_not_warned(self, registry):
        # One shared conflicting site cannot order differently at two
        # sites — no static S1/S2 risk.
        specs = {"one": [
            GlobalTxnSpec(txn_id="T1", subtxns=[
                SubtxnSpec("S1", [SemanticOp("set", "k0", {"value": 1})]),
                SubtxnSpec("S2", [SemanticOp("deposit", "k1", {"amount": 1})]),
            ]),
            GlobalTxnSpec(txn_id="T2", subtxns=[
                SubtxnSpec("S1", [SemanticOp("set", "k0", {"value": 2})]),
                SubtxnSpec("S2", [SemanticOp("withdraw", "k1", {"amount": 1})]),
            ]),
        ]}
        findings = analyze_workload_commutativity(standard_registry(), specs)
        assert findings == []
