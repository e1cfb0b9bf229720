"""Serialization-graph theory toolkit (Section 5 of the paper).

This subpackage implements the paper's formal machinery independently of the
simulator, so the correctness criterion can be checked both on hand-built
histories (the paper's figures and example) and on histories recorded from
simulation runs:

* :mod:`repro.sg.conflicts` — operations and the conflict relation;
* :mod:`repro.sg.history` — per-site histories and the reads-from relation;
* :mod:`repro.sg.graph` — local and global serialization graphs;
* :mod:`repro.sg.paths` — global paths, representations, *minimal*
  representations, and the "includes" relation (Example 1);
* :mod:`repro.sg.cycles` — regular-cycle detection: the correctness criterion;
* :mod:`repro.sg.stratification` — ``active wrt``, predicates A1–A4,
  stratification properties S1/S2, and cycle conditions C1/C2 (Lemmas 2–3);
* :mod:`repro.sg.atomicity` — atomicity of compensation (Theorem 2).
"""

from repro.sg.atomicity import check_atomicity_of_compensation
from repro.sg.conflicts import OpKind, Operation, conflicts
from repro.sg.cycles import find_regular_cycle, is_correct
from repro.sg.explain import explain_cycle, render_explanation
from repro.sg.graph import SG, GlobalSG, TxnKind, classify
from repro.sg.history import GlobalHistory, SiteHistory
from repro.sg.index import ConflictIndex
from repro.sg.order import is_serializable, serialization_order
from repro.sg.serialize import dump_history, load_history
from repro.sg.paths import (
    global_path_exists,
    minimal_representations,
    path_includes,
)
from repro.sg.stratification import (
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

__all__ = [
    "ConflictIndex",
    "GlobalHistory",
    "GlobalSG",
    "OpKind",
    "Operation",
    "SG",
    "SiteHistory",
    "TxnKind",
    "active_wrt",
    "check_atomicity_of_compensation",
    "classify",
    "conflicts",
    "dump_history",
    "explain_cycle",
    "cycle_condition_c1",
    "cycle_condition_c2",
    "find_regular_cycle",
    "global_path_exists",
    "is_serializable",
    "load_history",
    "render_explanation",
    "is_correct",
    "minimal_representations",
    "path_includes",
    "serialization_order",
    "predicate_a1",
    "predicate_a2",
    "predicate_a3",
    "predicate_a4",
    "stratification_s1",
    "stratification_s2",
]
