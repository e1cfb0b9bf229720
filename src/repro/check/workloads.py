"""Checker workloads: small, adversarial multi-site scenarios.

A :class:`Scenario` is a named builder that submits a handful of global
transactions into a freshly assembled :class:`~repro.harness.system.System`.
The scenarios are deliberately tiny — two sites, two transactions — because
the checker re-executes the whole simulation once per schedule; what matters
is that the *conflict structure* covers the paper's danger cases:

* ``conflict`` — the Section 4 exposure race: ``T1`` updates ``k0`` at both
  sites and is forced to vote NO at ``S2``, so ``S1`` locally commits and is
  later compensated.  ``T2`` reads ``k0`` at ``S2`` then at ``S1``.  Without
  the marking rules a schedule exists where ``T2`` sees ``T1``'s exposed
  update at one site and its rolled-back state at the other — the regular
  cycle the serializability oracle catches.
* ``duel`` — two writers crossing: ``T1`` writes ``S1`` then ``S2``, ``T2``
  writes ``S2`` then ``S1``, both forced to abort at their second site; both
  compensations race each other and any reader of the marking state.
* ``crashcoord`` — the blocking drill: a two-site transfer whose
  coordinating site ``S1`` crashes *after the votes land but before the
  decision is logged*, taking the coordinator with it, and stays down far
  longer than every protocol timeout (with one acceptor down too, so Paxos
  must decide from a bare 2-of-3 quorum).  Under PAXOS the surviving
  participant's termination protocol must reach a decision during the
  outage — the non-blocking oracle asserts exactly that; 2PC-family schemes
  legitimately sit in doubt until ``S1`` returns and presumes abort.

Commit timeouts are compressed relative to the library defaults so a single
run stays short, but the decision-retransmission window (``decision_retries
× ack_timeout``) is kept well above the crash enumerator's outage so that
every injected crash still lets the run terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.commit.base import CommitConfig, CommitScheme
from repro.core.protocols import MarkingProtocol
from repro.harness.system import PROTOCOLS, System, SystemConfig
from repro.net.failures import CrashPlan
from repro.net.network import LatencyModel
from repro.sim.process import Process
from repro.txn.operations import ReadOp, WriteOp
from repro.txn.transaction import GlobalTxnSpec, SubtxnSpec, VotePolicy

#: protocol spec accepted by the checker: a name from
#: :data:`~repro.harness.system.PROTOCOLS` or a factory producing a fresh
#: (stateful!) protocol instance per run
ProtocolSpec = "str | Callable[[], MarkingProtocol]"


@dataclass(frozen=True)
class Scenario:
    """A named checker workload."""

    name: str
    description: str
    n_sites: int
    txn_ids: tuple[str, ...]
    #: submits the workload; returns the processes whose termination the
    #: liveness oracle asserts
    build: Callable[[System], list[Process]]


def _submit_delayed(
    system: System, spec: GlobalTxnSpec, delay: float
) -> Process:
    """Submit ``spec`` after ``delay`` time units; the returned process
    terminates when the transaction does."""

    def runner():
        yield system.env.timeout(delay)
        outcome = yield system.submit(spec)
        return outcome

    return system.env.process(runner(), name=f"submit:{spec.txn_id}")


def _build_conflict(system: System) -> list[Process]:
    t1 = GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)]),
        SubtxnSpec("S2", [WriteOp("k0", 1)], vote=VotePolicy.FORCE_NO),
    ])
    t2 = GlobalTxnSpec("T2", [
        SubtxnSpec("S2", [ReadOp("k0")]),
        SubtxnSpec("S1", [ReadOp("k0")]),
    ])
    return [
        system.submit(t1),
        _submit_delayed(system, t2, 4.0),
    ]


def _build_duel(system: System) -> list[Process]:
    t1 = GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 11)]),
        SubtxnSpec("S2", [WriteOp("k1", 11)], vote=VotePolicy.FORCE_NO),
    ])
    t2 = GlobalTxnSpec("T2", [
        SubtxnSpec("S2", [WriteOp("k0", 22)]),
        SubtxnSpec("S1", [WriteOp("k1", 22)], vote=VotePolicy.FORCE_NO),
    ])
    return [
        system.submit(t1),
        _submit_delayed(system, t2, 2.0),
    ]


#: when the crashcoord coordinating site goes down (after votes, before
#: the decision is logged; with unit latency votes land by ~6) and for how
#: long (far beyond every protocol timeout, so only a termination protocol
#: can decide in time)
CRASHCOORD_AT = 6.2
CRASHCOORD_OUTAGE = 400.0


def _build_crashcoord(system: System) -> list[Process]:
    if system.acceptors:
        # One acceptor down from the start: the ensemble must decide from
        # a bare majority.
        system.failures.schedule(
            CrashPlan("acc.3", at=0.5, duration=CRASHCOORD_OUTAGE)
        )
    system.failures.schedule(CrashPlan(
        "S1", at=CRASHCOORD_AT, duration=CRASHCOORD_OUTAGE,
    ))
    t1 = GlobalTxnSpec("T1", [
        SubtxnSpec("S1", [WriteOp("k0", 1)]),
        SubtxnSpec("S2", [WriteOp("k1", 1)]),
    ])
    return [system.submit(t1)]


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="conflict",
            description="writer compensated at S1, reader crossing S2->S1",
            n_sites=2,
            txn_ids=("T1", "T2"),
            build=_build_conflict,
        ),
        Scenario(
            name="duel",
            description="two crossing writers, both compensated",
            n_sites=2,
            txn_ids=("T1", "T2"),
            build=_build_duel,
        ),
        Scenario(
            name="crashcoord",
            description="coordinating site down after the votes, one "
            "acceptor down throughout",
            n_sites=2,
            txn_ids=("T1",),
            build=_build_crashcoord,
        ),
    )
}


def get_scenario(name: str | Scenario) -> Scenario:
    """Resolve a scenario by name (pass-through for ready instances)."""
    if isinstance(name, Scenario):
        return name
    try:
        return SCENARIOS[name]
    except KeyError:
        valid = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown scenario {name!r}: expected one of {valid}"
        ) from None


def make_protocol(protocol: "ProtocolSpec") -> "str | MarkingProtocol":
    """Materialize the per-run protocol argument for SystemConfig.

    Factories are called per run: protocol instances are stateful (they own
    the marking directory), so sharing one across runs would leak state
    between schedules and break replay determinism.
    """
    if callable(protocol) and not isinstance(protocol, str):
        instance = protocol()
        if not isinstance(instance, MarkingProtocol):
            raise TypeError(
                f"protocol factory returned {type(instance).__name__}, "
                "expected a MarkingProtocol"
            )
        return instance
    if protocol not in PROTOCOLS:
        valid = ", ".join(sorted(PROTOCOLS))
        raise ValueError(
            f"unknown protocol {protocol!r}: expected one of {valid} "
            "or a factory"
        )
    return protocol


#: the checker's (and ``repro compare``'s) commit timeouts, compressed: a
#: Paxos watchdog waiting the default 60 units would outlast the run
CHECK_COMMIT = CommitConfig(
    spawn_timeout=30.0,
    spawn_retry_delay=2.0,
    max_spawn_retries=10,
    vote_timeout=30.0,
    ack_timeout=15.0,
    decision_retries=5,
    decision_log_delay=0.5,
    sequential_spawn=True,
    paxos_acceptors=3,
    paxos_decision_timeout=10.0,
    short_dependency_timeout=25.0,
)


def make_system_config(
    scenario: Scenario,
    protocol: "ProtocolSpec",
    seed: int,
    scheme: CommitScheme = CommitScheme.O2PC,
    observability: bool = True,
) -> SystemConfig:
    """The checker's standard system configuration for ``scenario``.

    Fixed unit latency (no jitter) keeps message arrival times a pure
    function of send times, so the controlled scheduler's choice points are
    identical across same-vector runs.  ``observability`` records the run's
    events for the trace renderer; the explorer turns it off (emission is
    passive, so the run is the same either way).
    """
    return SystemConfig(
        n_sites=scenario.n_sites,
        scheme=scheme,
        protocol=make_protocol(protocol),
        seed=seed,
        latency=LatencyModel(base=1.0, jitter=0.0),
        message_loss=0.0,
        commit=CHECK_COMMIT,
        observability=observability,
    )
