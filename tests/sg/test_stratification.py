"""Unit tests for active-wrt, predicates A1-A4, S1/S2, and C1/C2."""

from repro.sg import (
    GlobalSG,
    active_wrt,
    cycle_condition_c1,
    cycle_condition_c2,
    predicate_a1,
    predicate_a2,
    predicate_a3,
    predicate_a4,
    stratification_s1,
    stratification_s2,
)
from tests.sg.figures import add_path


def fig1a() -> GlobalSG:
    """The canonical regular cycle: T2 -> CT1 @S1, CT1 -> T2 @S2."""
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T2", "CT1")
    gsg.site("S2").add_edge("CT1", "T2")
    # T1 executed at both sites (its compensation did too).
    gsg.site("S1").add_edge("T1", "CT1")
    gsg.site("S2").add_edge("T1", "CT1")
    return gsg


def stratified_s1() -> GlobalSG:
    """T2 consistently after CT1 everywhere (A1 shape)."""
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "T1", "CT1", "T2")
    add_path(gsg.site("S2"), "T1", "CT1", "T2")
    return gsg


def stratified_before() -> GlobalSG:
    """T2 consistently before CT1, never after T1 (A2/A4 shape)."""
    gsg = GlobalSG()
    gsg.site("S1").add_edge("T2", "CT1")
    gsg.site("S1").add_edge("T1", "CT1")
    gsg.site("S2").add_edge("T2", "CT1")
    gsg.site("S2").add_edge("T1", "CT1")
    return gsg


class TestActiveWrt:
    def test_active_when_path_to_ct_and_no_tj_ti_path(self):
        gsg = fig1a()
        assert active_wrt(gsg, "T1", "T2")

    def test_not_active_without_ct_connection(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "T2")
        assert not active_wrt(gsg, "T1", "T2")

    def test_not_active_when_tj_precedes_ti(self):
        gsg = GlobalSG()
        # T2 -> T1 -> CT1: T2 is connected to CT1, but T2 -> T1 exists.
        add_path(gsg.site("S1"), "T2", "T1", "CT1")
        assert not active_wrt(gsg, "T1", "T2")

    def test_requires_common_site(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "CT1")
        gsg.site("S2").add_edge("T2", "CT9")
        assert not active_wrt(gsg, "T1", "T2")


class TestPredicates:
    def test_a1_holds_when_ti_cti_tj_everywhere(self):
        gsg = stratified_s1()
        assert predicate_a1(gsg, "T1", "T2")

    def test_a1_fails_when_some_site_lacks_path(self):
        gsg = stratified_s1()
        gsg.site("S3").add_edge("T2", "CT9")  # T2 appears without T1 -> CT1 -> T2
        assert not predicate_a1(gsg, "T1", "T2")

    def test_a2_holds_when_tj_precedes_ct_everywhere(self):
        gsg = stratified_before()
        assert predicate_a2(gsg, "T1", "T2")

    def test_a2_requires_path_avoiding_ti(self):
        gsg = GlobalSG()
        # Only path T2 -> CT1 passes through T1.
        add_path(gsg.site("S1"), "T2", "T1", "CT1")
        assert not predicate_a2(gsg, "T1", "T2")

    def test_a3_vacuous_when_unconnected(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "X1")
        gsg.site("S1").add_edge("T2", "X2")
        assert predicate_a3(gsg, "T1", "T2")

    def test_a3_enforced_when_connected(self):
        gsg = stratified_s1()
        assert predicate_a3(gsg, "T1", "T2")
        bad = GlobalSG()
        bad.site("S1").add_edge("T2", "T1")  # connected but wrong shape
        bad.site("S1").add_edge("T1", "CT1")
        assert not predicate_a3(bad, "T1", "T2")

    def test_a4_holds_for_tj_before_ct(self):
        gsg = stratified_before()
        assert predicate_a4(gsg, "T1", "T2")

    def test_a4_fails_when_ct_precedes_tj(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "CT1")
        gsg.site("S1").add_edge("CT1", "T2")
        assert not predicate_a4(gsg, "T1", "T2")


class TestStratificationProperties:
    def test_s1_holds_for_consistent_after_ordering(self):
        assert stratification_s1(stratified_s1())

    def test_s1_and_s2_fail_on_fig1a(self):
        gsg = fig1a()
        assert not stratification_s1(gsg)
        assert not stratification_s2(gsg)

    def test_s2_holds_for_consistent_before_ordering(self):
        assert stratification_s2(stratified_before())

    def test_vacuously_true_without_active_pairs(self):
        gsg = GlobalSG()
        gsg.site("S1").add_edge("T1", "T2")
        assert stratification_s1(gsg)
        assert stratification_s2(gsg)


class TestCycleConditions:
    def test_fig1a_satisfies_c1_and_c2(self):
        gsg = fig1a()
        assert cycle_condition_c1(gsg)
        assert cycle_condition_c2(gsg)

    def test_clean_history_fails_conditions(self):
        gsg = stratified_s1()
        assert not cycle_condition_c1(gsg)
        gsg2 = stratified_before()
        assert not cycle_condition_c2(gsg2)
