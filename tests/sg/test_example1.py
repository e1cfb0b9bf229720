"""Reproduction of the paper's Example 1 (Section 5).

Local paths:
    CT1 -> T2            in SG1
    CT1 -> T2 -> CT3     in SG2
    CT3 -> CT1           in SG3

The paper's observations, verified here:

* the global path ``CT1 -> CT3`` has two representations; the minimal one is
  the single segment inside SG2;
* the global path ``CT1 -> CT3`` does **not** include ``T2``;
* there are no regular cycles.
"""

from repro.sg import (
    GlobalSG,
    find_regular_cycle,
    global_path_exists,
    is_correct,
    minimal_representations,
    path_includes,
)
from tests.sg.figures import add_path


def example1() -> GlobalSG:
    gsg = GlobalSG()
    add_path(gsg.site("S1"), "CT1", "T2")
    add_path(gsg.site("S2"), "CT1", "T2", "CT3")
    add_path(gsg.site("S3"), "CT3", "CT1")
    return gsg


def test_global_path_ct1_to_ct3_exists():
    assert global_path_exists(example1(), "CT1", "CT3")


def test_minimal_representation_is_single_sg2_segment():
    reps = minimal_representations(example1(), "CT1", "CT3")
    assert len(reps) == 1
    (rep,) = reps
    assert len(rep) == 1
    segment = rep[0]
    assert (segment.src, segment.dst) == ("CT1", "CT3")
    assert segment.sites == frozenset({"S2"})


def test_path_does_not_include_t2():
    gsg = example1()
    assert not path_includes(gsg, "CT1", "CT3", "T2")


def test_path_includes_endpoints():
    gsg = example1()
    assert path_includes(gsg, "CT1", "CT3", "CT1")
    assert path_includes(gsg, "CT1", "CT3", "CT3")


def test_two_segment_path_includes_intermediate():
    # CT1 -> T2 is 1 segment; the path CT1 -> CT3 via S1 then S2 is 2
    # segments and hence non-minimal, but T2 -> CT3's own minimal path
    # includes its endpoints.
    gsg = example1()
    assert path_includes(gsg, "T2", "CT3", "T2")


def test_no_regular_cycles_in_example1():
    """The paper: "Observe that there are no regular cycles in Example 1."

    The cyclic path ``T2 -> CT3 -> CT1 -> T2`` exists in the union graph,
    but its minimal cyclic representation is ``CT3 -> CT1 -> CT3`` (the SG2
    segment ``CT1 -> CT3`` shortcuts through ``T2``), which contains no
    regular transaction.
    """
    gsg = example1()
    assert find_regular_cycle(gsg) is None
    assert is_correct(gsg)


def test_ct_only_cycle_is_allowed():
    reps = minimal_representations(example1(), "CT1", "CT1")
    assert reps, "a cyclic path through CT1 exists"
    for rep in reps:
        boundary = {seg.src for seg in rep} | {seg.dst for seg in rep}
        assert boundary <= {"CT1", "CT3"}
