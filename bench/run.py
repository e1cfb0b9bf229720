"""The benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of its output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports every end-to-end metric of ``BENCHMARK.json`` as the median of
``WINDOWS`` untraced windows (``setup_s``: of those plus one more set-up);
``--trace 1`` reports every per-layer metric from one untraced window
(counts, latencies, recovery) and one window under the ``bench/trace.py``
timers (self times), plus the overhead the timers added.  Each window is a
fresh ``bench/window.py`` process with ``PYTHONHASHSEED`` pinned.

Without ``--workload`` every workload is run both ways and printed as a
table.  ``--check-repeat N`` runs two sets of N seeds of every workload (or
of ``--workload``) on the same code and applies the benchmark's own
acceptance rule to them.
``--smoke`` runs 1/20 of the size; it exists for ``bench/tests`` and its
numbers are not to be reported.

The exit code is 0 only when every window verified its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import WINDOWS, WORKLOADS  # noqa: E402


def contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def window(name: str, seed: int, units: int, mode: str) -> dict[str, Any]:
    """Run one ``window.py`` process; ``mode`` is timed, traced or setup."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "window.py"),
         name, str(seed), str(units), mode, OUT],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _verdict(windows: list[dict[str, Any]]) -> dict[str, Any]:
    for win in windows:
        for problem in win["problems"]:
            print(f"verification failed: {problem}", file=sys.stderr)
    return {
        "correct": all(w["correct"] for w in windows),
        "attempted": sum(w["attempted"] for w in windows),
        "failed": sum(w["failed"] for w in windows),
    }


def run_untraced(
    name: str, seed: int, seconds: float, smoke: bool,
) -> dict[str, Any]:
    """``WINDOWS`` timed windows and one more set-up; medians of each
    end-to-end metric, and the (deterministic on sim) layer counts."""
    units = workloads.window_units(WORKLOADS[name], seconds, smoke)
    windows = [window(name, seed, units, "timed") for _ in range(WINDOWS)]
    setups = [w["end_to_end"]["setup_s"] for w in windows]
    setups.append(window(name, seed, units, "setup")["end_to_end"]["setup_s"])
    metrics = {
        metric: statistics.median(w["end_to_end"][metric] for w in windows)
        for metric in windows[0]["end_to_end"]
    }
    metrics["setup_s"] = statistics.median(setups)
    return {**_verdict(windows), "metrics": metrics,
            "layers": windows[0]["layers"]}


def run_traced(
    name: str, seed: int, seconds: float, smoke: bool,
) -> dict[str, Any]:
    """One untraced and one traced window of the same inputs."""
    units = workloads.window_units(WORKLOADS[name], seconds, smoke)
    plain = window(name, seed, units, "timed")
    traced = window(name, seed, units, "traced")
    # What the untraced window measured wins: its counts are the same on
    # sim and its latencies were not slowed by the timers.
    metrics = {**traced["layers"], **plain["layers"]}
    metrics["trace.overhead_share"] = 1.0 - (
        traced["end_to_end"]["goodput_per_s"]
        / plain["end_to_end"]["goodput_per_s"]
    )
    return {**_verdict([plain, traced]), "metrics": metrics}


def report(
    result: dict[str, Any], declared: list[dict[str, Any]],
) -> dict[str, Any]:
    """The contract's result object: exactly the declared metrics, with
    units; a layer the workload does not execute reports 0."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {
                "value": float(result["metrics"].get(m["name"], 0.0)),
                "unit": m["unit"],
            }
            for m in declared
        },
    }


# -- --check-repeat ------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def time_metrics(declared: dict[str, Any]) -> set[str]:
    """Names of the per-layer metrics measured in wall or CPU time (the
    others are counts and ticks, exact for a seed on sim)."""
    return {m["name"] for m in declared["per_layer"]
            if m["unit"] in ("s", "ms", "us")}


def check_repeat(
    names: list[str], runs: int, seconds: float, smoke: bool,
) -> int:
    """Two sets of ``runs`` seeds of each named workload on the same code.

    Fails when the second set's median of an end-to-end metric is worse
    than the first's by more than the metric's bound, or when a sim count
    or tick metric differs at all between the sets; a metric whose
    run-to-run spread exceeds its bound is reported as unresolved.
    """
    timed = time_metrics(contract())
    declared = contract()["end_to_end"]
    sets: list[dict[str, list[dict[str, Any]]]] = []
    for index in (1, 2):
        sets.append({})
        for name in names:
            sets[-1][name] = []
            for seed in range(1, runs + 1):
                started = time.perf_counter()
                result = run_untraced(name, seed, seconds, smoke)
                sets[-1][name].append(result)
                print(f"set {index} {name} seed {seed} took "
                      f"{time.perf_counter() - started:.1f} s: "
                      f"{json.dumps(result['metrics'])}", flush=True)
    failures = 0
    table: dict[str, Any] = {}
    for name in names:
        first, second = sets[0][name], sets[1][name]
        failures += sum(not r["correct"] for r in first + second)
        if WORKLOADS[name].kind == "sim":
            for seed, (a, b) in enumerate(zip(first, second), start=1):
                for metric, value in a["layers"].items():
                    if metric not in timed and b["layers"][metric] != value:
                        failures += 1
                        print(f"NOT IDENTICAL {name} seed {seed} {metric}: "
                              f"{value} then {b['layers'][metric]}")
        table[name] = {}
        for m in declared:
            values = [[r["metrics"][m["name"]] for r in runs_]
                      for runs_ in (first, second)]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            shift = worsening(medians[0], medians[1], m["better"])
            verdict = "ok"
            if max(spreads) > m["bound"]:
                verdict = "unresolved"
            if shift > m["bound"]:
                verdict = "FAIL"
                failures += 1
            table[name][m["name"]] = {
                "medians": medians, "spreads": spreads, "shift": shift,
                "bound": m["bound"], "verdict": verdict,
            }
            print(f"{name:18} {m['name']:16} median {medians[0]:10.4f} "
                  f"{medians[1]:10.4f}  spread {spreads[0]:6.3f} "
                  f"{spreads[1]:6.3f}  shift {shift:+7.3f}  "
                  f"bound {m['bound']:.2f}  {verdict}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "check-repeat.json"), "w",
              encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
    return 1 if failures else 0


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", type=int, metavar="RUNS")
    args = parser.parse_args(argv)
    declared = contract()
    seconds = args.seconds or float(declared["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_repeat:
        return check_repeat(names, args.check_repeat, seconds, args.smoke)
    if args.smoke:
        print("--smoke: 1/20 size, not for reported numbers", file=sys.stderr)
    correct = True
    for name in names:
        for traced in (0, 1) if args.trace is None else (args.trace,):
            run = run_traced if traced else run_untraced
            result = run(name, args.seed, seconds, args.smoke)
            correct = correct and result["correct"]
            shown = report(
                result, declared["per_layer" if traced else "end_to_end"]
            )
            if args.workload and args.trace is not None:
                print(json.dumps(shown))
                continue
            print(f"== {name} ({'traced' if traced else 'untraced'}) ==")
            for metric, entry in shown["metrics"].items():
                print(f"{metric:34} {entry['value']:14.4f} {entry['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
