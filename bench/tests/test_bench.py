"""Self-tests of the benchmark: ``python -m pytest bench/tests``.

Every workload runs here at 1/20 size (``--smoke``); the numbers mean
nothing, the checks are on names, determinism and verification.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import trace  # noqa: E402  (bench/trace.py, not the stdlib module)
import window  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = run.contract()
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = float(CONTRACT["run_seconds"])


def smoke_window(name: str, mode: str, seed: int = 1) -> dict:
    units = workloads.window_units(WORKLOADS[name], SECONDS, smoke=True)
    return run.window(name, seed, units, mode)


@pytest.fixture(scope="module")
def smoke() -> dict[str, dict[str, dict]]:
    """One untraced and one traced smoke window of every workload."""
    return {
        name: {mode: smoke_window(name, mode) for mode in ("timed", "traced")}
        for name in WORKLOADS
    }


def _untimed(layers: dict[str, float]) -> dict[str, float]:
    timed = run.time_metrics(CONTRACT)
    return {k: v for k, v in layers.items() if k not in timed}


def test_names_match_the_contract(smoke):
    declared = {
        kind: [m["name"] for m in CONTRACT[kind]]
        for kind in ("end_to_end", "per_layer")
    }
    names = declared["end_to_end"] + declared["per_layer"]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    emitted: set[str] = {
        "trace.overhead_share",  # computed by run.py from two windows
        "commit_latency_p99_ms",  # needs 1 000 samples: full size only
    }
    for name, windows in smoke.items():
        for win in windows.values():
            assert win["correct"], (name, win["problems"])
            assert set(win["end_to_end"]) == set(declared["end_to_end"])
            assert all(v > 0 for v in win["end_to_end"].values()), name
            emitted |= set(win["layers"])
    assert emitted == set(declared["per_layer"])


def test_workloads_exercise_and_bypass_what_they_claim(smoke):
    def layer(name: str, metric: str) -> float:
        windows = smoke[name]
        return {**windows["traced"]["layers"],
                **windows["timed"]["layers"]}.get(metric, 0.0)

    assert layer("net_serial", "rt.transport.messages_per_frame") == 1.0
    assert layer("net_serial", "rt.group_commit.forces_per_fsync") < 2
    assert layer("net_pipelined", "rt.group_commit.forces_per_fsync") > 2
    assert layer("sim_o2pc_p1", "core.checks_per_txn") > 0
    assert layer("check_dfs", "core.checks_per_txn") > 0
    for bypassed in ("sim_2pl_contended", "sim_scale_64", "net_serial"):
        assert layer(bypassed, "core.checks_per_txn") == 0
        assert layer(bypassed, "core.self_ms_per_txn") == 0
    assert layer("sim_2pl_contended", "compensation.runs_per_ktxn") == 0
    assert layer("sim_scale_64", "compensation.runs_per_ktxn") > 0
    for name, workload in WORKLOADS.items():
        assert layer(name, "failed_share") == 0 or workload.kind == "sim"
        if workload.kind != "net":
            # the wrapped layers account for the whole traced window
            assert 0.9 < layer(name, "trace.accounted_share") <= 1.0


def test_seeds_move_the_inputs_and_nothing_else_does():
    for name, workload in WORKLOADS.items():
        plan = {"sim": workloads.sim_plan, "net": workloads.net_plan}.get(
            workload.kind
        )
        if plan is None:
            assert workloads.check_plan(1) == workloads.check_plan(1)
            assert workloads.check_plan(1) != workloads.check_plan(2)
            continue
        assert plan(workload, 1, 200) == plan(workload, 1, 200)
        assert plan(workload, 1, 200) != plan(workload, 2, 200)


def test_same_seed_gives_identical_sim_counts(smoke):
    for name, workload in WORKLOADS.items():
        if workload.kind != "sim":
            continue
        again = smoke_window(name, "timed")
        first = smoke[name]["timed"]
        assert _untimed(again["layers"]) == _untimed(first["layers"])
        assert again["good"] == first["good"]
        # and the timers change no count either
        traced = _untimed(smoke[name]["traced"]["layers"])
        assert all(traced[k] == v
                   for k, v in _untimed(first["layers"]).items())


def test_unbalanced_store_fails_verification():
    workload = WORKLOADS["sim_o2pc_p1"]
    plan = workloads.sim_plan(workload, 1, 50)
    system = window.build_sim(workload, 1)
    window.drive_sim(system, plan, workloads.to_specs(plan))
    assert window.sim_totals_ok(system, workload, plan)
    store = system.sites["S1"].store
    store.put("k0", store.get("k0") + 1)
    assert not window.sim_totals_ok(system, workload, plan)


def test_command_prints_the_contract_result_line():
    for traced, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
             "--workload", "check_dfs", "--seed", "2",
             "--seconds", str(SECONDS), "--trace", str(traced)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in CONTRACT[kind]]
        for m in CONTRACT[kind]:
            entry = result["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], float)


def test_self_time_excludes_wrapped_callees_and_suspended_generators():
    class Layered:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def steps(self, txn_id):
            first = yield "a"
            second = yield self.inner()
            return first + second

    tracer = trace.Tracer()
    tracer.wrap(Layered, "outer", "upper")
    tracer.wrap(Layered, "inner", "lower")
    tracer.wrap(Layered, "steps", "upper", txn=lambda args: args[1])
    try:
        obj = Layered()
        assert obj.outer() == 2
        generator = obj.steps("T50")
        assert next(generator) == "a"
        assert generator.send(10) == 1
        with pytest.raises(StopIteration) as stop:
            generator.send(5)
        assert stop.value.value == 15
    finally:
        tracer.uninstall()
    totals = tracer.aggregates()
    assert totals["calls"] == {
        "Layered.outer": 1, "Layered.inner": 2, "Layered.steps": 1,
    }
    assert totals["self_s"]["upper"] > 0 and totals["self_s"]["lower"] > 0
    # T50 is sampled (50 ≡ 0 mod 50): one span per resumption, closed
    spans = [s for s in tracer.spans if s[0] == "Layered.steps"]
    assert len(spans) == 4 and all(s[3] is not None for s in spans)
    assert Layered.outer.__name__ == "outer"  # uninstalled


def test_forked_children_report_their_share(tmp_path):
    class Work:
        def unit(self):
            return 1

    tracer = trace.Tracer()
    tracer.wrap(Work, "unit", "layer")
    path = str(tmp_path / "forks.jsonl")
    tracer.follow_forks(path)
    try:
        Work().unit()
        pid = os.fork()
        if pid == 0:
            Work().unit()
            Work().unit()
            os._exit(0)
        os.waitpid(pid, 0)
    finally:
        tracer.uninstall()
    totals = tracer.aggregates()
    assert totals["calls"]["Work.unit"] == 1
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            trace.merge(totals, json.loads(line))
    assert totals["calls"]["Work.unit"] == 3
    assert totals["tally"]["os.fork"] == 1
