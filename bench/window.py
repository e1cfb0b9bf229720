"""One window of one workload, run in a process of its own.

``run.py`` starts this file once per window with ``PYTHONHASHSEED`` pinned
(the set-heavy simulator spreads 25 % between hash seeds) and reads one
JSON object from the last line of its output.  A fresh process per window
matters: a second run inside one process is 10-15 % slower from heap
growth.

A window sets the system up (timed from process start as ``setup_s``),
runs the workload's units between two clock reads, verifies what the
program produced, and reports the window's values of every metric it can
measure.  With ``traced`` the ``bench/trace.py`` wrappers are installed
first and the self times are reported too.
"""

from __future__ import annotations

import time

#: set-up is timed from here: before the program under test is imported
T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import trace  # noqa: E402  (bench/trace.py: HERE is first on sys.path)
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

#: a commit slower than this counts as stalled (net workloads)
STALL_MS = 100.0
#: transactions of the replica run that is checked against the paper's
#: correctness criterion (the full-size SG check would take minutes)
REPLICA_TXNS = 500
#: real seconds per protocol tick on the net workloads
TIME_SCALE = 0.004
INITIAL_VALUE = 100


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, min(len(ordered) - 1,
                              round(q / 100 * (len(ordered) - 1))))]


def _cpu_seconds() -> float:
    """CPU this process and its waited-for children have used."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Window:
    """Measurements of one window, accumulated by the ``run_*`` functions."""

    def __init__(self, workload: Workload, units: int) -> None:
        self.workload = workload
        self.attempted = units
        self.good = 0
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: units with no correct terminal outcome, plus failed checks
        self.unresolved = 0
        self.problems: list[str] = []
        #: per-layer metric values this window could measure
        self.layers: dict[str, float] = {}

    def ready(self) -> None:
        """Set-up is done; the timed window starts after this."""
        self.setup_s = time.perf_counter() - T0

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def per_unit(self, name: str, total: float, scale: float = 1.0) -> None:
        self.layers[name] = scale * total / self.attempted

    def result(self) -> dict[str, Any]:
        good = max(self.good, 1)
        return {
            "attempted": self.attempted,
            "good": self.good,
            "failed": self.unresolved,
            "correct": not self.problems and self.unresolved == 0,
            "problems": self.problems,
            "end_to_end": {
                "setup_s": self.setup_s,
                "goodput_per_s": self.good / self.wall_s,
                "good_share": self.good / self.attempted,
                "cpu_ms_per_unit": 1000.0 * self.cpu_s / good,
                "peak_rss_mb": _peak_rss_mb(),
            },
            "layers": self.layers,
        }


# -- sim workloads -------------------------------------------------------------


def build_sim(workload: Workload, seed: int) -> Any:
    from repro.commit.base import CommitScheme
    from repro.harness.system import System, SystemConfig

    return System(SystemConfig(
        n_sites=workload.sites,
        scheme=CommitScheme[workload.scheme],
        protocol=workload.protocol,
        keys_per_site=workload.keys_per_site,
        initial_value=INITIAL_VALUE,
        lock_timeout=workload.lock_timeout,
        seed=seed,
    ))


def drive_sim(
    system: Any, plan: list[workloads.TxnPlan], specs: list[Any],
) -> None:
    """Submit ``specs`` (built from ``plan``) open-loop in virtual time and
    run to quiescence."""
    env = system.env

    def arrivals() -> Any:
        running = []
        for (_txn, gap, _subs), spec in zip(plan, specs):
            yield env.timeout(gap)
            running.append(system.submit(spec))
        yield env.all_of(running)

    env.run(env.process(arrivals(), name="arrivals"))
    env.run()  # trailing compensations and acknowledgements


def stored_total(system: Any) -> int:
    """Sum of every data item of every site of a sim system."""
    return sum(
        value
        for site in system.sites.values()
        for key, value in site.store.snapshot().items()
        if key.startswith("k")
    )


def sim_totals_ok(
    system: Any, workload: Workload, plan: list[workloads.TxnPlan],
) -> bool:
    """Final store total == initial total + net effect of exactly the
    committed transactions (aborted ones must have left nothing behind)."""
    committed = {o.txn_id for o in system.outcomes if o.committed}
    expected = (
        workload.sites * workload.keys_per_site * INITIAL_VALUE
        + sum(workloads.net_effect(t) for t in plan if t[0] in committed)
    )
    return stored_total(system) == expected


def run_sim(win: Window, seed: int, tracer: Any, only_setup: bool) -> None:
    workload = win.workload
    plan = workloads.sim_plan(workload, seed, win.attempted)
    specs = workloads.to_specs(plan)
    system = build_sim(workload, seed)
    win.ready()
    if only_setup:
        return
    env = system.env
    traced_before = tracer.aggregates() if tracer is not None else None
    cpu, dispatched = _cpu_seconds(), env.schedule_count
    started = time.perf_counter()
    drive_sim(system, plan, specs)
    win.wall_s = time.perf_counter() - started
    win.cpu_s = _cpu_seconds() - cpu
    dispatched = env.schedule_count - dispatched
    if tracer is not None:
        trace_layers(win, trace.minus(tracer.aggregates(), traced_before))

    outcomes = {o.txn_id: o for o in system.outcomes}
    committed = [o for o in system.outcomes if o.committed]
    win.good = len(committed)
    win.unresolved = sum(1 for t in plan if t[0] not in outcomes)
    win.check(sim_totals_ok(system, workload, plan),
              "store total differs from initial + committed effects")
    injected = sum(map(workloads.forced_no, plan))
    layers = win.layers
    layers["counts.attempted"] = win.attempted
    layers["counts.committed"] = win.good
    layers["counts.injected_aborts"] = injected
    layers["counts.failed"] = win.attempted - win.good - injected
    layers["failed_share"] = layers["counts.failed"] / win.attempted

    latencies = [o.latency for o in committed]
    holds = [h.duration for s in system.sites.values()
             for h in s.locks.hold_log]
    waits = [w[2] for s in system.sites.values() for w in s.locks.wait_log]
    layers["sim_latency_p50_ticks"] = percentile(latencies, 50)
    layers["sim_latency_p99_ticks"] = percentile(latencies, 99)
    layers["lock_hold_p50_ticks"] = percentile(holds, 50)
    layers["lock_hold_p99_ticks"] = percentile(holds, 99)
    layers["locking.wait_p99_ticks"] = percentile(waits, 99)
    win.per_unit("sim.dispatches_per_txn", dispatched)
    win.per_unit("net.messages_per_txn", system.network.total_sent())
    win.per_unit("locking.acquires_per_txn", len(waits))
    win.per_unit("locking.deadlocks_per_ktxn", sum(
        len(s.locks.detector.detected) for s in system.sites.values()
    ), 1000.0)
    win.per_unit("storage.appends_per_txn",
                 sum(len(s.wal) for s in system.sites.values()))
    win.per_unit("storage.forces_per_txn",
                 sum(s.wal.forced_writes for s in system.sites.values()))
    win.per_unit("core.rejections_per_ktxn", system.marking.rejections,
                 1000.0)
    win.per_unit("compensation.runs_per_ktxn", sum(
        p.compensator.stats.completed for p in system.participants.values()
    ), 1000.0)
    if workload.protocol != "none" or workload.scheme == "TWO_PL":
        # Only where the paper promises the criterion: O2PC without a
        # marking protocol may legitimately produce regular cycles.
        check_replica(win, seed, plan[:REPLICA_TXNS])


def check_replica(
    win: Window, seed: int, plan: list[workloads.TxnPlan],
) -> None:
    """Run the first transactions again on a fresh system of the same
    configuration and seed, and check the correctness criterion on it."""
    from repro.errors import CorrectnessViolation

    replica = build_sim(win.workload, seed)
    drive_sim(replica, plan, workloads.to_specs(plan))
    started = time.perf_counter()
    try:
        replica.check_correctness()
    except CorrectnessViolation as exc:
        win.problems.append(f"replica violates the criterion: {exc}")
    win.layers["sg.verify_s"] = time.perf_counter() - started
    win.layers["sg.edges_per_txn"] = sum(
        len(site.history.index) for site in replica.sites.values()
    ) / len(plan)


# -- net workloads -------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of one process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def open_cluster(workload: Workload, data_dir: str, traced: bool) -> Any:
    """The workload's cluster, not yet started, with its cluster file and
    WALs under ``data_dir``."""
    from repro.commit.base import CommitScheme
    from repro.harness.system import SystemConfig
    from repro.rt.config import local_cluster
    from repro.rt.system import NetSystem

    class BenchNetSystem(NetSystem):
        def serve_argv(self, site_id: str) -> list[str]:
            argv = super().serve_argv(site_id)
            if traced:
                # python -m repro serve ... -> python traced_serve.py serve ...
                argv[1:3] = [os.path.join(HERE, "traced_serve.py")]
            return argv

    os.makedirs(data_dir)
    cluster_file = os.path.join(data_dir, "cluster.json")
    local_cluster(workloads.site_ids(workload), data_dir).save(cluster_file)
    return BenchNetSystem(SystemConfig(
        n_sites=workload.sites,
        scheme=CommitScheme[workload.scheme],
        protocol=workload.protocol,
        keys_per_site=workload.keys_per_site,
        backend="net",
        sites_file=cluster_file,
        time_scale=TIME_SCALE,
    ))


def cluster_total(system: Any, workload: Workload) -> int:
    """Sum of every data item of every daemon, read over the admin channel."""
    from repro.rt.client import site_read

    return sum(
        site_read(system.cluster, site, f"k{i}")
        for site in system.cluster.site_ids
        for i in range(workload.keys_per_site)
    )


def crash_and_recover(win: Window, system: Any) -> float:
    """SIGKILL every daemon, restart it, and check what recovery found.

    Returns the seconds from the kill until the last daemon answered with
    its recovery report.
    """
    sites = system.cluster.site_ids
    started = time.perf_counter()
    for site in sites:
        system.kill_site(site)
    for site in sites:
        system.start_site(site)
    reports = {}
    for site in sites:
        while site not in reports:
            try:
                status = system.site_status(site)
            except OSError:
                status = None
            if status is not None and status["recovered"] is not None:
                reports[site] = status["recovered"]
            elif time.perf_counter() - started > 60.0:
                win.problems.append(f"{site} did not recover within 60 s")
                return time.perf_counter() - started
            else:
                time.sleep(0.02)
    elapsed = time.perf_counter() - started
    if system.client.pending_decisions:
        system.client.resend_pending()
    win.check(not system.client.pending_decisions,
              "decisions still unacknowledged after resend_pending")
    for site, report in reports.items():
        win.check(not report["in_doubt"] and not report["locally_committed"],
                  f"{site} restarted with undecided transactions: {report}")
    return elapsed


def daemon_traces(system: Any) -> dict[str, Any]:
    """What each traced daemon dumped at its latest status request."""
    dumps = {}
    for site in system.cluster.site_ids:
        path = os.path.join(system.cluster.data_dir, f"{site}.trace.json")
        with open(path, encoding="utf-8") as handle:
            dumps[site] = json.load(handle)
    return dumps


def run_net(
    win: Window, seed: int, tracer: Any, only_setup: bool, data_dir: str,
) -> dict[str, Any]:
    """Returns the traced daemons' dumps (empty when not traced)."""
    workload = win.workload
    plan = workloads.net_plan(workload, seed, win.attempted)
    specs = workloads.to_specs(plan)
    traced = tracer is not None
    system = open_cluster(workload, data_dir, traced)
    try:
        system.start()
        sites = system.cluster.site_ids
        before = {s: system.site_status(s) for s in sites}  # also connects
        win.ready()
        if only_setup:
            return {}
        if traced:
            traced_before = tracer.aggregates()
            dumps_before = daemon_traces(system)
        pids = [system.procs[s].pid for s in sites]
        wal_bytes = sum(
            os.path.getsize(system.cluster.wal_path(s)) for s in sites
        )
        daemon_cpu = sum(map(_proc_cpu_seconds, pids))
        client_cpu = time.process_time()
        started = time.perf_counter()
        outcomes = system.run_transactions(specs, sessions=workload.sessions)
        win.wall_s = time.perf_counter() - started
        client_cpu = time.process_time() - client_cpu
        daemon_cpu = sum(map(_proc_cpu_seconds, pids)) - daemon_cpu
        after = {s: system.site_status(s) for s in sites}
        dumps = daemon_traces(system) if traced else {}
        wal_bytes = sum(
            os.path.getsize(system.cluster.wal_path(s)) for s in sites
        ) - wal_bytes
        win.cpu_s = client_cpu + daemon_cpu
        if traced:
            totals = trace.minus(tracer.aggregates(), traced_before)
            for site in sites:
                trace.merge(
                    totals, trace.minus(dumps[site], dumps_before[site])
                )
            net_trace_layers(win, totals, dumps)

        win.good = sum(1 for o in outcomes if o.committed)
        # Nothing in a net plan votes NO and site-ordered transfers cannot
        # deadlock, so anything short of a commit is a failure.
        win.unresolved = win.attempted - win.good
        expected = workload.sites * workload.keys_per_site * INITIAL_VALUE
        win.check(cluster_total(system, workload) == expected,
                  "cluster-wide balance not conserved")
        recovery_s = crash_and_recover(win, system)
        win.check(cluster_total(system, workload) == expected,
                  "cluster-wide balance not conserved after crash recovery")

        def delta(field: str) -> int:
            return sum(after[s][field] - before[s][field] for s in sites)

        transport = system.client.transport
        latencies = [1000.0 * s for s in system.client.latencies]
        stalled = sum(1 for ms in latencies if ms > STALL_MS)
        stalled += win.attempted - len(latencies)
        frames = delta("frames_sent") + transport.frames_sent
        framed = delta("messages_framed") + transport.messages_framed
        forces, fsyncs = delta("forced_writes"), delta("fsyncs")
        layers = win.layers
        layers["counts.attempted"] = win.attempted
        layers["counts.committed"] = win.good
        layers["counts.injected_aborts"] = 0
        layers["counts.failed"] = win.unresolved
        layers["failed_share"] = win.unresolved / win.attempted
        layers["stalled_share"] = stalled / win.attempted
        layers["commit_latency_p50_ms"] = percentile(latencies, 50)
        layers["commit_latency_p95_ms"] = percentile(latencies, 95)
        if len(latencies) >= 1000:  # p99 needs ten samples beyond it
            layers["commit_latency_p99_ms"] = percentile(latencies, 99)
        win.per_unit("net.messages_per_txn", transport.total_sent() + sum(
            sum(after[s]["messages"].values())
            - sum(before[s]["messages"].values())
            for s in sites
        ))
        win.per_unit("storage.appends_per_txn", delta("wal_records"))
        win.per_unit("storage.forces_per_txn", forces)
        win.per_unit("storage.fsyncs_per_txn", fsyncs)
        win.per_unit("storage.wal_bytes_per_txn", wal_bytes)
        layers["storage.recovery_s"] = recovery_s
        win.per_unit("rt.transport.frames_per_txn", frames)
        layers["rt.transport.messages_per_frame"] = framed / max(frames, 1)
        layers["rt.group_commit.forces_per_fsync"] = forces / max(fsyncs, 1)
        processes = 1 + len(sites)
        layers["rt.pump.idle_share"] = 1.0 - win.cpu_s / (
            processes * win.wall_s
        )
        win.per_unit("rt.client.cpu_ms_per_txn", client_cpu, 1000.0)
        win.per_unit("rt.daemon.cpu_ms_per_txn", daemon_cpu, 1000.0)
        return dumps
    finally:
        system.stop()
        shutil.rmtree(data_dir, ignore_errors=True)


# -- check workload ------------------------------------------------------------


def run_check(
    win: Window, seed: int, tracer: Any, only_setup: bool, out_dir: str,
) -> None:
    from repro.check.explorer import CheckConfig, ModelChecker

    workload = win.workload
    checker = ModelChecker(CheckConfig(
        scenario=workloads.check_scenario(seed),
        protocol=workload.protocol, seed=seed, depth=workload.depth,
        crashes=workload.crashes, max_schedules=win.attempted, jobs=1,
    ))
    win.ready()
    if only_setup:
        return
    forks_file = os.path.join(out_dir, f"forks-{os.getpid()}.jsonl")
    if tracer is not None:
        tracer.follow_forks(forks_file)
    traced_before = tracer.aggregates() if tracer is not None else None
    cpu = _cpu_seconds()
    started = time.perf_counter()
    report = checker.run()
    win.wall_s = time.perf_counter() - started
    win.cpu_s = _cpu_seconds() - cpu
    win.good = report.explored - len(report.counterexamples)
    win.unresolved = win.attempted - win.good
    win.check(report.ok, f"{len(report.counterexamples)} schedules "
                         "violated an oracle")
    win.check(report.explored == win.attempted,
              f"explored {report.explored} of {win.attempted} schedules")
    layers = win.layers
    layers["counts.attempted"] = win.attempted
    layers["counts.committed"] = win.good
    layers["counts.injected_aborts"] = 0
    layers["counts.failed"] = win.unresolved
    layers["failed_share"] = win.unresolved / win.attempted
    if tracer is not None:
        totals = trace.minus(tracer.aggregates(), traced_before)
        if os.path.exists(forks_file):
            with open(forks_file, encoding="utf-8") as handle:
                for line in handle:
                    trace.merge(totals, json.loads(line))
            os.remove(forks_file)
        trace_layers(win, totals)
        self_s = totals["self_s"]
        # One schedule = assembling a system and running it (everything
        # under ModelChecker.execute but the oracles), then judging it.
        win.per_unit("check.sim_ms_per_schedule", sum(
            self_s.get(layer, 0.0) for layer in ("check", *SELF_TIME_LAYERS)
        ), 1000.0)
        win.per_unit("check.oracle_ms_per_schedule",
                     self_s.get("oracle", 0.0) + self_s.get("sg", 0.0),
                     1000.0)
        win.per_unit("check.forks_per_schedule",
                     totals["tally"].get("os.fork", 0))


# -- per-layer numbers from the tracer -----------------------------------------

#: layers whose self time is reported as ``<layer>.self_ms_per_txn``
SELF_TIME_LAYERS = (
    "sim", "net", "locking", "storage", "txn", "commit", "core",
    "compensation",
)


def trace_layers(win: Window, totals: dict[str, Any]) -> None:
    """Per-layer metrics from trace aggregates (of one process, or merged
    over the processes of the window)."""
    self_s, calls, tally = totals["self_s"], totals["calls"], totals["tally"]

    def called(*suffixes: str) -> int:
        return sum(n for name, n in calls.items() if name.endswith(suffixes))

    for layer in SELF_TIME_LAYERS:
        win.per_unit(f"{layer}.self_ms_per_txn", self_s.get(layer, 0.0),
                     1000.0)
    win.per_unit("sg.record_ms_per_txn", self_s.get("sg", 0.0), 1000.0)
    if win.workload.kind != "net":
        # One process: the wrapped layers should account for the window.
        win.layers["trace.accounted_share"] = (
            sum(self_s.values()) - self_s.get(trace.ROOT, 0.0)
        ) / win.wall_s
    win.layers["locking.wait_share"] = (
        tally.get("locking.queued", 0) / max(called(".acquire"), 1)
    )
    win.per_unit("locking.timeouts_per_ktxn", sum(
        tally.get(f"locking.wait_failed.{error}", 0)
        for error in ("LockTimeout", "TransactionAborted")
    ), 1000.0)
    win.per_unit("core.checks_per_txn", called(".check_spawn"))
    # Counts the program's own counters also give; those win where the
    # window can reach them (they are assigned after this, or come from
    # the untraced window).
    win.per_unit("sim.dispatches_per_txn", called("Environment.step"))
    win.per_unit("net.messages_per_txn", called(".send"))
    win.per_unit("locking.acquires_per_txn", called(".acquire"))
    win.per_unit("locking.deadlocks_per_ktxn",
                 tally.get("locking.wait_failed.DeadlockDetected", 0), 1000.0)
    win.per_unit("storage.appends_per_txn", called("WriteAheadLog.append"))


def net_trace_layers(
    win: Window, totals: dict[str, Any], dumps: dict[str, Any],
) -> None:
    """Layers only a traced net window can measure: ``totals`` merges the
    client's tracer with the daemons' dumps over the window."""
    trace_layers(win, totals)
    calls, self_s, tally = totals["calls"], totals["self_s"], totals["tally"]
    samples: dict[str, list[float]] = {}
    for dump in dumps.values():
        for name, values in dump["samples"].items():
            samples.setdefault(name, []).extend(values)
    win.layers["rt.wire.encode_us_per_msg"] = (
        1e6 * self_s.get("rt.encode", 0.0)
        / max(calls.get("rt.wire.message_to_json", 0), 1)
    )
    win.layers["rt.wire.decode_us_per_msg"] = (
        1e6 * self_s.get("rt.decode", 0.0)
        / max(calls.get("rt.wire.message_from_json", 0), 1)
    )
    win.per_unit("rt.wire.bytes_per_txn", tally.get("rt.wire.bytes", 0))
    win.layers["storage.fsync_ms_p50"] = 1000.0 * percentile(
        samples.get("storage.sync_s", []), 50
    )
    win.layers["rt.group_commit.hold_ms_p50"] = 1000.0 * percentile(
        samples.get("rt.group_commit.hold_s", []), 50
    )


# -- entry point ---------------------------------------------------------------


def main(argv: list[str]) -> int:
    name, seed, units, mode, out_dir = argv
    workload = workloads.WORKLOADS[name]
    only_setup = mode == "setup"
    os.makedirs(out_dir, exist_ok=True)
    tracer = trace.install() if mode == "traced" else None
    win = Window(workload, int(units))
    dumps: dict[str, Any] = {}
    if workload.kind == "sim":
        run_sim(win, int(seed), tracer, only_setup)
    elif workload.kind == "net":
        dumps = run_net(win, int(seed), tracer, only_setup,
                        os.path.join(out_dir, f"cluster-{os.getpid()}"))
    else:
        run_check(win, int(seed), tracer, only_setup, out_dir)
    if only_setup:
        print(json.dumps({"end_to_end": {"setup_s": win.setup_s}}))
        return 0
    if tracer is not None:
        win.layers["trace.wrapped_targets"] = tracer.wrapped
        path = os.path.join(out_dir, f"spans-{name}-{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.snapshot(), "daemons": dumps}, handle)
    print(json.dumps(win.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
