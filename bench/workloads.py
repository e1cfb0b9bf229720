"""The six workloads and the seeded generators of their inputs.

Everything a window feeds the system is made here from ``--seed``:
transaction plans (plain tuples, so two plans compare with ``==``),
arrival gaps, transfers and the checker scenario.  ``repro.workload`` and
``repro.harness.bench`` are deliberately not imported, so a change under
``src/`` cannot move the inputs.

A *unit* of work is one global transaction (sim and net workloads) or one
explored schedule (``check_dfs``).  ``units_per_second`` sizes a window:
``--seconds`` is split over :data:`WINDOWS` windows and each window runs
``units_per_second * seconds / WINDOWS`` units, a pure function of the
arguments, so counts repeat exactly.  The rates are what the reference
2-core host sustains; the work is fixed, not the wall time.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

#: timed windows per run, each in a fresh process
WINDOWS = 2

#: one operation of a plan: (name, key, amount); name is "read",
#: "deposit" or "withdraw" (amount 0 for reads)
OpPlan = tuple[str, str, int]
#: one subtransaction: (site id, operations, forced NO vote)
SubPlan = tuple[str, tuple[OpPlan, ...], bool]
#: one transaction: (txn id, virtual-tick gap before it arrives, subtxns)
TxnPlan = tuple[str, float, tuple[SubPlan, ...]]


@dataclass(frozen=True)
class Workload:
    """One row of the workload table."""

    name: str
    #: "sim" (deterministic simulator), "net" (daemons over loopback TCP)
    #: or "check" (model checker)
    kind: str
    why: str
    #: attempted units per second of ``--seconds`` (see module docstring)
    units_per_second: float
    scheme: str = "O2PC"
    protocol: str = "none"
    sites: int = 2
    keys_per_site: int = 20
    zipf_theta: float = 0.0
    #: sim: mean of the exponential inter-arrival gap, in virtual ticks
    arrival_mean: float = 1.0
    #: share of transactions given a forced NO vote at one site
    force_no: float = 0.0
    #: sim: ticks a blocked lock request waits before it fails (None:
    #: forever; deadlocks are still detected)
    lock_timeout: float | None = None
    #: net: closed-loop client sessions
    sessions: int = 1
    #: check: DFS depth bound and crash budget
    depth: int = 14
    crashes: int = 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim_o2pc_p1", kind="sim", units_per_second=1600,
            protocol="P1", sites=4, keys_per_site=64, zipf_theta=0.6,
            arrival_mean=8.0, force_no=0.01,
            why="O2PC with P1 marking inside P1's viable regime: the only "
                "data-path workload where core marking, rejection and "
                "compensation do work",
        ),
        Workload(
            name="sim_2pl_contended", kind="sim", units_per_second=1200,
            scheme="TWO_PL", sites=8, keys_per_site=128, zipf_theta=0.8,
            arrival_mean=0.5, force_no=0.05, lock_timeout=25.0,
            why="same lock manager with locks held to the decision: lock "
                "wait, deadlock detection and lock timeouts dominate, core "
                "and compensation are bypassed",
        ),
        Workload(
            name="sim_scale_64", kind="sim", units_per_second=2000,
            sites=64, keys_per_site=32, zipf_theta=0.9,
            arrival_mean=0.2, force_no=0.05,
            why="many concurrent coordinators over 64 sites: kernel "
                "dispatch, net delivery, commit engines and compensation "
                "do the work, locking is light, history growth shows",
        ),
        Workload(
            name="net_serial", kind="net", units_per_second=120,
            sites=3, keys_per_site=20, zipf_theta=0.8, sessions=1,
            why="one closed-loop session over 3 daemons: the latency "
                "budget of one transaction with nothing overlapped; "
                "coalescing and group commit are bypassed",
        ),
        Workload(
            name="net_pipelined", kind="net", units_per_second=600,
            sites=3, keys_per_site=20, zipf_theta=0.8, sessions=16,
            why="16 closed-loop sessions over the same cluster: frame "
                "coalescing and WAL group commit do most of the work",
        ),
        Workload(
            name="check_dfs", kind="check", units_per_second=500,
            protocol="P1", sites=2,
            why="model-checker DFS with crash injection: the other "
                "consumer of sim, sg and core, through the controlled "
                "scheduler's all-heap queue and fork prefix reuse",
        ),
    )
}


def window_units(workload: Workload, seconds: float, smoke: bool) -> int:
    """Units one window attempts (``--smoke`` runs 1/20 of the size)."""
    units = workload.units_per_second * seconds / WINDOWS
    return max(1, round(units / 20 if smoke else units))


def stream(seed: int, name: str) -> random.Random:
    """An independent generator for ``(seed, name)``, stable across
    processes (a digest, not Python's per-process string hash)."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _zipf_cdf(n: int, theta: float) -> list[float]:
    weights = [1.0 / (i + 1) ** theta for i in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def site_ids(workload: Workload) -> list[str]:
    """The system's site ids (``repro.ids`` names sites ``S1``..``Sn``)."""
    return [f"S{n}" for n in range(1, workload.sites + 1)]


def sim_plan(workload: Workload, seed: int, units: int) -> list[TxnPlan]:
    """The transaction stream of a sim window.

    2-3 sites per transaction in sorted order, 1-3 operations per
    subtransaction, half of them reads and the rest deposits or withdrawals
    of 1-10 on Zipf-skewed keys, a forced NO vote at one site for
    ``force_no`` of the transactions, exponential arrival gaps.
    """
    rng = stream(seed, workload.name)
    sites = site_ids(workload)
    cdf = _zipf_cdf(workload.keys_per_site, workload.zipf_theta)
    plan: list[TxnPlan] = []
    for i in range(1, units + 1):
        chosen = sorted(rng.sample(sites, rng.randint(2, min(3, len(sites)))))
        subs: list[list[Any]] = []
        for site in chosen:
            ops: list[OpPlan] = []
            for _ in range(rng.randint(1, 3)):
                key = f"k{bisect_left(cdf, rng.random())}"
                if rng.random() < 0.5:
                    ops.append(("read", key, 0))
                else:
                    ops.append((
                        rng.choice(("deposit", "withdraw")), key,
                        rng.randint(1, 10),
                    ))
            subs.append([site, tuple(ops), False])
        if rng.random() < workload.force_no:
            subs[rng.randrange(len(subs))][2] = True
        gap = rng.expovariate(1.0 / workload.arrival_mean)
        plan.append((f"T{i}", gap, tuple(tuple(s) for s in subs)))
    return plan


def net_plan(workload: Workload, seed: int, units: int) -> list[TxnPlan]:
    """Site-ordered two-site transfers for a net window.

    Each transfer withdraws 1-5 from a uniform key at one site and
    deposits it on a Zipf-skewed key at another, visiting the two sites in
    sorted order: concurrent sessions contend on hot keys but cannot
    cross-deadlock into the vote timeout, so nothing fails and the
    cluster-wide balance is conserved by every outcome.
    """
    rng = stream(seed, workload.name)
    sites = site_ids(workload)
    cdf = _zipf_cdf(workload.keys_per_site, workload.zipf_theta)
    plan: list[TxnPlan] = []
    for i in range(1, units + 1):
        src, dst = rng.sample(sites, 2)
        amount = rng.randint(1, 5)
        legs = {
            src: ("withdraw", f"k{rng.randrange(workload.keys_per_site)}",
                  amount),
            dst: ("deposit", f"k{bisect_left(cdf, rng.random())}", amount),
        }
        plan.append((
            f"T{i}", 0.0,
            tuple((site, (legs[site],), False) for site in sorted(legs)),
        ))
    return plan


def net_effect(txn: TxnPlan) -> int:
    """What committing ``txn`` adds to the sum of all stored values."""
    return sum(
        amount if name == "deposit" else -amount
        for _site, ops, _no in txn[2]
        for name, _key, amount in ops
        if name != "read"
    )


def forced_no(txn: TxnPlan) -> bool:
    """True when the plan injects a NO vote into ``txn``."""
    return any(no for _site, _ops, no in txn[2])


def to_specs(plan: list[TxnPlan]) -> list[Any]:
    """Build the ``GlobalTxnSpec`` objects the system consumes."""
    from repro.txn.operations import ReadOp, SemanticOp
    from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy

    def op(name: str, key: str, amount: int) -> Any:
        if name == "read":
            return ReadOp(key)
        return SemanticOp(name, key, {"amount": amount})

    return [
        GlobalTxnSpec(txn_id=txn_id, subtxns=[
            SubtxnSpec(
                site, [op(*o) for o in ops],
                vote=VotePolicy.FORCE_NO if no else VotePolicy.AUTO,
            )
            for site, ops, no in subs
        ])
        for txn_id, _gap, subs in plan
    ]


def check_plan(seed: int) -> tuple[str, int]:
    """The seeded part of the checker scenario: the contended key and the
    value the writer installs."""
    rng = stream(seed, "check_dfs")
    return f"k{rng.randrange(4)}", rng.randint(1, 1_000_000)


def check_scenario(seed: int) -> Any:
    """The Section 4 exposure race on a seeded key.

    ``T1`` writes the key at both sites and is forced to vote NO at S2, so
    S1 locally commits and is later compensated; ``T2``, arriving 4 ticks
    later, reads the key at S2 and then at S1.  Same conflict structure as
    the checker's built-in ``conflict`` scenario, with the data from the
    seed.
    """
    from repro.check.workloads import Scenario
    from repro.txn.operations import ReadOp, WriteOp
    from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy

    key, value = check_plan(seed)

    def build(system: Any) -> list[Any]:
        t1 = GlobalTxnSpec("T1", [
            SubtxnSpec("S1", [WriteOp(key, value)]),
            SubtxnSpec("S2", [WriteOp(key, value)],
                       vote=VotePolicy.FORCE_NO),
        ])
        t2 = GlobalTxnSpec("T2", [
            SubtxnSpec("S2", [ReadOp(key)]),
            SubtxnSpec("S1", [ReadOp(key)]),
        ])

        def late():
            yield system.env.timeout(4.0)
            outcome = yield system.submit(t2)
            return outcome

        return [
            system.submit(t1),
            system.env.process(late(), name="submit:T2"),
        ]

    return Scenario(
        name="bench-conflict",
        description="writer compensated at S1, reader crossing S2->S1",
        n_sites=2, txn_ids=("T1", "T2"), build=build,
    )
