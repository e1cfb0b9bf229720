"""The explorer: stateless search over schedules and crash points.

Every run re-executes the simulation from scratch under a
:class:`~repro.check.scheduler.ControlledEnvironment`; the run is fully
determined by ``(scenario, protocol, seed, choice vector)``.  Exhaustive
mode is a depth-first search over choice vectors: after a run that followed
prefix ``P`` and logged choices ``L``, every unexplored alternative at a
depth ``d >= len(P)`` (alternatives below ``len(P)`` belong to an ancestor)
spawns the frontier vector ``L[0..d).chosen + [alt]``.  Distinct vectors
yield distinct schedules by construction, so ``explored`` counts schedules,
not redundant re-runs.  Bounded mode replaces the DFS with ``bounded``
random walks (a seeded :class:`~repro.check.scheduler.RandomPolicy`),
deduplicated by vector — the cheap way to sample deep interleavings the
depth bound would cut off.

A failed run becomes a :class:`Counterexample` carrying the minimal choice
vector (trailing default choices stripped), every oracle verdict, and the
run's JSONL event trace; :func:`replay` re-executes it byte-for-byte.
Only that trace is ever recorded: exploration runs with observability off
(see :mod:`repro.check.parallel`).

Both search modes drain the frontier in fixed-size *waves* handed to a
:class:`~repro.check.parallel.Runner`: wave composition, result order, and
budget checks are independent of how a wave is executed, so ``jobs=N``
reports are byte-identical to ``jobs=1`` (modulo ``elapsed``) — parallelism
changes wall-clock time only.  The one caveat is ``time_budget``: a
wall-clock cutoff lands on whatever wave boundary the host reaches in time,
on any job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.check.crashes import CrashInjector
from repro.check.oracles import Violation, run_oracles
from repro.check.parallel import WAVE_SIZE, RunRecord, Runner
from repro.check.scheduler import (
    Choice,
    ChoicePolicy,
    ControlledEnvironment,
)
from repro.check.workloads import Scenario, get_scenario, make_system_config
from repro.commit.base import CommitScheme
from repro.errors import (
    HistoryError,
    InvalidTransactionState,
    PersistenceViolation,
    ProtocolViolation,
    SimulationDeadlock,
    StepBudgetExceeded,
)
from repro.harness.system import System


@dataclass
class CheckConfig:
    """One model-checking job."""

    scenario: "str | Scenario" = "conflict"
    #: protocol name or per-run factory (see :mod:`repro.check.workloads`)
    protocol: object = "P1"
    scheme: CommitScheme = CommitScheme.O2PC
    seed: int = 0
    #: choice points eligible for DFS branching (depth bound)
    depth: int = 12
    #: crash budget per run (0 disables the crash enumerator)
    crashes: int = 0
    #: outage length of injected crashes; must stay below the decision
    #: retransmission window or explored runs stop terminating
    crash_outage: float = 10.0
    #: stop after this many schedules (the search reports ``exhausted=False``)
    max_schedules: int = 2000
    #: per-run event budget (livelock guard)
    max_steps: int = 20000
    #: partial-order pruning of commuting deliveries (see scheduler docs)
    prune: bool = True
    #: > 0: bounded mode — this many random walks instead of the DFS
    bounded: int = 0
    #: wall-clock budget in seconds (None = unbounded)
    time_budget: float | None = None
    #: serializability oracle: literal criterion instead of effective
    strict: bool = False
    #: worker processes; > 1 shards waves over a multiprocessing pool with
    #: a report byte-identical to ``jobs=1``
    jobs: int = 1


@dataclass
class RunOutcome:
    """One executed schedule."""

    vector: tuple[int, ...]
    log: tuple[Choice, ...]
    violations: tuple[Violation, ...]
    #: the run's system (live objects, for trace rendering / inspection)
    system: System

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Counterexample:
    """A replayable failing schedule."""

    #: minimal choice vector: replaying it reproduces the run exactly
    choices: tuple[int, ...]
    violations: tuple[Violation, ...]
    #: the full choice log of the failing run (labels for rendering)
    log: tuple[Choice, ...]
    #: deterministic JSONL event trace of the failing run
    jsonl: str


@dataclass
class CheckReport:
    """Result of one model-checking job."""

    #: distinct schedules executed
    explored: int
    counterexamples: list[Counterexample]
    #: True when the DFS frontier drained within every budget
    exhausted: bool
    #: wall-clock seconds spent
    elapsed: float
    #: choice points seen in the first (all-defaults) run, for reporting
    first_run_choice_points: int = 0

    @property
    def ok(self) -> bool:
        return not self.counterexamples


@dataclass
class ModelChecker:
    """Drives the search described in the module docstring."""

    config: CheckConfig
    #: build each run's system with observability on; the runner clears it
    #: while it explores (see :mod:`repro.check.parallel`)
    recording: bool = field(init=False, default=True)
    _scenario: Scenario = field(init=False)

    def __post_init__(self) -> None:
        self._scenario = get_scenario(self.config.scenario)

    # -- single-run execution -------------------------------------------------

    def execute(self, policy: ChoicePolicy) -> RunOutcome:
        """Run one schedule under ``policy``; judge it with the oracles.

        The outcome's ``system.obs`` holds the run's events when
        :attr:`recording` is on (the default, and always for
        :func:`replay`).
        """
        config = self.config
        env = ControlledEnvironment(
            policy, max_steps=config.max_steps, prune=config.prune
        )
        system = System(
            make_system_config(
                self._scenario, config.protocol, config.seed,
                scheme=config.scheme, observability=self.recording,
            ),
            env=env,
        )
        if config.crashes > 0:
            CrashInjector(
                system, policy,
                budget=config.crashes,
                outage=config.crash_outage,
            )
        processes = self._scenario.build(system)
        violations: list[Violation] = []
        try:
            env.run()
        except StepBudgetExceeded as exc:
            violations.append(Violation("budget", str(exc)))
        except SimulationDeadlock as exc:
            violations.append(Violation("deadlock", str(exc)))
        except (
            ProtocolViolation,
            InvalidTransactionState,
            HistoryError,
            PersistenceViolation,
        ) as exc:
            violations.append(Violation(
                "invariant", f"{type(exc).__name__}: {exc}"
            ))
        if not violations:
            for process in processes:
                if not process.processed:
                    violations.append(Violation(
                        "liveness",
                        f"{process!r} never terminated although the event "
                        "queue drained",
                    ))
            violations.extend(run_oracles(system, strict=config.strict))
        return RunOutcome(
            vector=policy.vector,
            log=tuple(policy.log),
            violations=tuple(violations),
            system=system,
        )

    # -- search modes -------------------------------------------------------------

    def run(self) -> CheckReport:
        """Execute the configured search (DFS or bounded random walks)."""
        # Wall-budget accounting only: elapsed time never influences which
        # schedules are explored, just when the search stops.
        started = time.monotonic()  # lint: allow-nondeterminism
        runner = Runner(self)
        try:
            if self.config.bounded > 0:
                report = self._run_bounded(started, runner)
            else:
                report = self._run_dfs(started, runner)
        finally:
            runner.close()
        report.elapsed = (
            time.monotonic() - started  # lint: allow-nondeterminism
        )
        return report

    def _budget_left(self, started: float, explored: int) -> bool:
        if explored >= self.config.max_schedules:
            return False
        if (
            self.config.time_budget is not None
            and time.monotonic() - started  # lint: allow-nondeterminism
            >= self.config.time_budget
        ):
            return False
        return True

    def _run_dfs(self, started: float, runner) -> CheckReport:
        """Wave-based DFS: pop up to ``WAVE_SIZE`` frontier vectors, run
        them through the runner, process the records in wave order.

        Wave size is capped by the remaining schedule budget (never by the
        job count), so the frontier evolves identically for any ``jobs``.
        """
        stack: list[tuple[int, ...]] = [()]
        seen: set[tuple[int, ...]] = {()}
        explored = 0
        first_points = 0
        counterexamples: list[Counterexample] = []
        exhausted = True
        while stack:
            if not self._budget_left(started, explored):
                exhausted = False
                break
            take = min(
                len(stack), self.config.max_schedules - explored, WAVE_SIZE
            )
            wave = [stack.pop() for _ in range(take)]
            for record in runner.run_vectors(wave):
                explored += 1
                if explored == 1:
                    first_points = len(record.log)
                if record.violations:
                    counterexamples.append(_as_counterexample(record))
                for depth in range(
                    len(record.prefix),
                    min(len(record.log), self.config.depth),
                ):
                    choice = record.log[depth]
                    stem = tuple(c.chosen for c in record.log[:depth])
                    for alternative in choice.branch:
                        if alternative == choice.chosen:
                            continue
                        vector = stem + (alternative,)
                        if vector not in seen:
                            seen.add(vector)
                            stack.append(vector)
        return CheckReport(
            explored=explored,
            counterexamples=counterexamples,
            exhausted=exhausted,
            elapsed=0.0,
            first_run_choice_points=first_points,
        )

    def _run_bounded(self, started: float, runner) -> CheckReport:
        """Bounded mode in waves of walk indices (walks are reconstructible
        from their index alone, so they shard trivially)."""
        explored = 0
        first_points = 0
        seen: set[tuple[int, ...]] = set()
        counterexamples: list[Counterexample] = []
        exhausted = True
        walk = 0
        while walk < self.config.bounded and exhausted:
            take = min(WAVE_SIZE, self.config.bounded - walk)
            records = runner.run_walks(range(walk, walk + take))
            walk += take
            for record in records:
                if not self._budget_left(started, explored):
                    exhausted = False
                    break
                if record.vector in seen:
                    continue
                seen.add(record.vector)
                explored += 1
                if explored == 1:
                    first_points = len(record.log)
                if record.violations:
                    counterexamples.append(_as_counterexample(record))
        return CheckReport(
            explored=explored,
            counterexamples=counterexamples,
            exhausted=exhausted,
            elapsed=0.0,
            first_run_choice_points=first_points,
        )


def _as_counterexample(record: RunRecord) -> Counterexample:
    """Package a failing run; strips trailing default (0) choices — replay
    fills anything past the vector with defaults, so they are redundant."""
    vector = list(record.vector)
    while vector and vector[-1] == 0:
        vector.pop()
    return Counterexample(
        choices=tuple(vector),
        violations=record.violations,
        log=record.log,
        jsonl=record.jsonl or "",
    )


def replay(config: CheckConfig, choices: Sequence[int]) -> RunOutcome:
    """Re-execute one schedule from its choice vector.

    Deterministic by construction: the same config and vector reproduce the
    identical run — including a byte-identical JSONL trace — which is how
    counterexamples in the regression corpus stay diagnosable.
    """
    return ModelChecker(config).execute(ChoicePolicy(choices))
