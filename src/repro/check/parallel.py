"""Run execution for the explorer: one path, in-process or on a pool.

The explorer (see :mod:`repro.check.explorer`) asks a :class:`Runner` to
execute waves of work — choice-vector prefixes in DFS mode, walk indices in
bounded mode — and gets back picklable :class:`RunRecord` results in
submission order.  Every vector runs from scratch through :func:`run_one`
and every walk through :func:`run_walk`: with ``jobs == 1`` the runner
calls them in-process, with ``jobs > 1`` it maps them over a
``multiprocessing`` pool whose workers each rebuild their own
``ModelChecker`` from the :class:`~repro.check.explorer.CheckConfig`.
Because wave composition and result processing are independent of how the
wave was executed, ``--jobs N`` produces a byte-identical report to
``--jobs 1``: parallelism changes wall-clock time only.

Both paths run a schedule with recording off (``ModelChecker.recording``),
so it builds and publishes no events the verdict does not read.  A failing
schedule runs once more from its full choice vector with recording on; the
replay guarantee (same config and vector, byte-identical run) makes that
JSONL the failing run's own.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.check.oracles import Violation
from repro.check.scheduler import Choice, ChoicePolicy, RandomPolicy
from repro.sim.rng import Rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.explorer import ModelChecker

#: runs per wave.  Fixed (never derived from ``--jobs``) so the frontier
#: evolves identically for every job count — the determinism contract.
WAVE_SIZE = 64


@dataclass(frozen=True)
class RunRecord:
    """The picklable result of one executed schedule."""

    #: the vector the explorer scheduled (stem of the full vector)
    prefix: tuple[int, ...]
    #: the full choice vector the run actually took
    vector: tuple[int, ...]
    log: tuple[Choice, ...]
    violations: tuple[Violation, ...]
    #: JSONL event trace, captured only for failing runs
    jsonl: str | None

    @property
    def ok(self) -> bool:
        return not self.violations


def _explore(
    checker: "ModelChecker", prefix: Sequence[int], policy: ChoicePolicy
) -> RunRecord:
    """Execute one schedule unrecorded; record only a failing one, by
    running its vector again."""
    checker.recording = False
    try:
        outcome = checker.execute(policy)
    finally:
        checker.recording = True
    jsonl = None
    if outcome.violations:
        replayed = checker.execute(ChoicePolicy(outcome.vector))
        jsonl = replayed.system.obs.jsonl()
    return RunRecord(
        prefix=tuple(prefix),
        vector=outcome.vector,
        log=outcome.log,
        violations=outcome.violations,
        jsonl=jsonl,
    )


def run_one(checker: "ModelChecker", vector: tuple[int, ...]) -> RunRecord:
    """Execute one schedule from scratch."""
    return _explore(checker, vector, ChoicePolicy(vector))


def run_walk(checker: "ModelChecker", walk: int) -> RunRecord:
    """Execute bounded-mode walk number ``walk``.

    ``Rng.fork`` is stateless (stable digest of seed + stream name), so a
    walk is reconstructible from its index alone — in any process.
    """
    rng = Rng(checker.config.seed).fork("bounded-walks").fork(f"walk-{walk}")
    return _explore(checker, (), RandomPolicy(rng))


# Per-worker state, built once by the pool initializer: config travels to
# the worker a single time instead of once per task.
_WORKER_CHECKER: "ModelChecker | None" = None


def _init_worker(config) -> None:
    global _WORKER_CHECKER
    from repro.check.explorer import ModelChecker

    _WORKER_CHECKER = ModelChecker(config)


def _worker_vector(vector: tuple[int, ...]) -> RunRecord:
    return run_one(_WORKER_CHECKER, vector)


def _worker_walk(walk: int) -> RunRecord:
    return run_walk(_WORKER_CHECKER, walk)


class Runner:
    """Executes waves in-process (``jobs == 1``) or on a pool (``jobs > 1``).

    ``pool.map`` preserves task order, which is all the determinism
    contract needs — the explorer does the rest by keeping wave
    composition independent of the job count.
    """

    def __init__(self, checker: "ModelChecker") -> None:
        self.checker = checker
        self.pool = None
        config = checker.config
        if config.jobs > 1:
            import multiprocessing

            try:
                pickle.dumps(config)
            except Exception as exc:
                raise ValueError(
                    "--jobs > 1 requires a picklable CheckConfig (named "
                    f"scenario/protocol, no closures): {exc}"
                ) from exc
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self.pool = context.Pool(
                processes=config.jobs, initializer=_init_worker,
                initargs=(config,),
            )

    def run_vectors(
        self, wave: Sequence[tuple[int, ...]]
    ) -> list[RunRecord]:
        if self.pool is None:
            return [run_one(self.checker, vector) for vector in wave]
        return self.pool.map(_worker_vector, list(wave))

    def run_walks(self, walks: Sequence[int]) -> list[RunRecord]:
        if self.pool is None:
            return [run_walk(self.checker, walk) for walk in walks]
        return self.pool.map(_worker_walk, list(walks))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
