"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — a narrated end-to-end run (commit, abort + compensation,
  correctness check);
* ``drill`` — the coordinator-failure drill with lock timelines for both
  schemes (the paper's blocking problem, visually);
* ``sweep`` — the abort-probability sweep (CLAIM-THRU's table) from the
  command line, with configurable sizes;
* ``audit`` — the adversarial interleaving that forms a regular cycle,
  under a chosen protocol, with the marking audit trail;
* ``trace`` — run a workload with observability on and emit the typed
  event stream as deterministic JSONL (same seed → byte-identical output);
* ``metrics`` — run a workload with streaming metrics; ``--watch`` prints
  a snapshot per simulation window instead of only the final report;
* ``check`` — the protocol model checker: enumerate message interleavings
  and crash points of an adversarial scenario and judge every explored
  schedule with the paper-invariant oracles (``--smoke`` is the CI
  preset; ``--jobs N`` shards the search with an identical report);
* ``compare`` — every registered commit scheme (O2PC, 2PC/2PL, Paxos
  Commit, Short-Commit) over identical seeded workloads plus the
  coordinator-crash drill: blocking time, lock-hold tail, abort and
  compensation rates, messages per transaction (``BENCH_compare.json``,
  gated against the committed baseline in ``benchmarks/baselines/``;
  ``--vote-timeout`` sweeps the collection timeout);
* ``lint`` — the static compensation-soundness and determinism analyzers:
  repertoire inverse closure, Theorem 2 write coverage, commutativity /
  stratification preconditions, the determinism lint over the sources, and
  dispatch exhaustiveness — zero schedules executed, exit 1 on findings;
* ``serve`` — run one site as a real daemon over TCP (the ``net``
  backend): the unmodified Participant state machine with a file-backed
  WAL that survives ``kill -9`` (see ``docs/RUNTIME.md``);
* ``client`` — drive a transaction against a live cluster, or query /
  shut down one daemon over its admin channel.

Performance is measured by ``bench/run.py`` (see ``bench/README.md``),
not by a verb here.

Shared options (``--seed``, ``--protocol``, ``--scheme``) are defined
once as parent parsers and accepted uniformly by the verbs that take
them.  Everything simulated is deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.commit import CommitScheme
from repro.harness import (
    ExperimentResult,
    System,
    SystemConfig,
    format_table,
)
from repro.harness.system import PROTOCOLS
from repro.net.failures import CrashPlan
from repro.sg import explain_cycle, find_regular_cycle, render_explanation
from repro.txn import GlobalTxnSpec, ReadOp, SemanticOp, SubtxnSpec, VotePolicy
from repro.workload import WorkloadConfig, WorkloadGenerator


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        )
    return value


def cmd_demo(args: argparse.Namespace) -> int:
    """Narrated end-to-end run: commit, refused transfer, criterion check."""
    system = System(SystemConfig(
        n_sites=3, scheme=CommitScheme.O2PC, protocol=args.protocol,
        seed=args.seed,
    ))
    print("== O2PC demo:", ", ".join(sorted(system.sites)), "==")
    ok = system.run_transaction(GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 30})]),
        SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 30})]),
    ]))
    print(f"T1 transfer: {'COMMIT' if ok.committed else 'ABORT'} "
          f"in {ok.latency:.1f}u; S1.k0={system.sites['S1'].store.get('k0')} "
          f"S2.k0={system.sites['S2'].store.get('k0')}")
    bad = system.run_transaction(GlobalTxnSpec(txn_id="T2", subtxns=[
        SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 50})]),
        SubtxnSpec("S3", [SemanticOp("deposit", "k0", {"amount": 50})],
                   vote=VotePolicy.FORCE_NO),
    ]))
    system.env.run()
    print(f"T2 refused transfer: {'COMMIT' if bad.committed else 'ABORT'}; "
          f"compensated at {bad.compensated_sites}; "
          f"S1.k0={system.sites['S1'].store.get('k0')} (restored)")
    system.check_correctness()
    print("correctness criterion: OK")
    print()
    print(system.timeline())
    return 0


def cmd_drill(args: argparse.Namespace) -> int:
    """Coordinator-crash drill with lock timelines for both schemes."""
    for scheme in (CommitScheme.TWO_PL, CommitScheme.O2PC):
        system = System(SystemConfig(scheme=scheme, seed=args.seed))
        proc = system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
            SubtxnSpec("S1", [SemanticOp("withdraw", "k0", {"amount": 10})]),
            SubtxnSpec("S2", [SemanticOp("deposit", "k0", {"amount": 10})]),
        ]))
        system.failures.schedule(
            CrashPlan(site_id="coord.T1", at=6.2, duration=args.outage)
        )
        outcome = system.env.run(proc)
        system.env.run()
        print(f"== {scheme.value}: coordinator down for {args.outage:.0f}u ==")
        print(f"T1 {'COMMIT' if outcome.committed else 'ABORT'} "
              f"at t={outcome.end_time:.1f}")
        print(system.lock_gantt("S1"))
        print()
    print("2PL bars span the outage; O2PC bars end at the vote.")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Abort-probability sweep: throughput and lock-wait, 2PL vs O2PC."""
    rows = []
    for p in (0.0, 0.1, 0.25, 0.5):
        measures: dict[str, float] = {}
        for scheme in (CommitScheme.TWO_PL, CommitScheme.O2PC):
            system = System(SystemConfig(
                scheme=scheme, n_sites=args.sites, keys_per_site=8,
                seed=args.seed,
            ))
            gen = WorkloadGenerator(system, WorkloadConfig(
                n_transactions=args.transactions, abort_probability=p,
                read_fraction=0.4, arrival_mean=2.0, zipf_theta=0.6,
            ), seed=args.seed)
            elapsed = gen.run()
            report = system.metrics(elapsed)
            tag = "2pl" if scheme is CommitScheme.TWO_PL else "o2pc"
            measures[f"thru_{tag}"] = report.throughput
            measures[f"wait_{tag}"] = report.total_lock_wait
            if scheme is CommitScheme.O2PC:
                measures["compensations"] = report.compensations
        rows.append(ExperimentResult(params={"abort_p": p}, measures=measures))
    print(format_table(
        rows, title="throughput / lock-wait vs abort probability",
    ))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Adversarial interleaving: show (or show prevented) a regular cycle."""
    system = System(SystemConfig(
        scheme=CommitScheme.O2PC, protocol=args.protocol, n_sites=2,
        seed=args.seed,
    ))
    system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
        SubtxnSpec("S1", [SemanticOp("set", "k0", {"value": "dirty"})]),
        SubtxnSpec("S2", [SemanticOp("set", "k0", {"value": "dirty"})],
                   vote=VotePolicy.FORCE_NO),
    ]))

    def submit_t2():
        yield system.env.timeout(4.2)
        yield system.submit(GlobalTxnSpec(txn_id="T2", subtxns=[
            SubtxnSpec("S2", [ReadOp("k0")]),
            SubtxnSpec("S1", [ReadOp("k0")]),
        ]))

    system.env.process(submit_t2())
    system.env.run()
    cycle = find_regular_cycle(
        system.global_sg(), system.effective_regular_nodes()
    )
    print(f"protocol={args.protocol}")
    print(system.timeline())
    print()
    if cycle:
        print("regular cycle:", " -> ".join(cycle), "(history INCORRECT)")
        print(render_explanation(explain_cycle(
            system.global_sg(), cycle, system.global_history(),
        )))
    else:
        print("no regular cycle (criterion holds)")
    print()
    print(system.marking_audit())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the quick experiment set and write a markdown report.

    Writes ``report.md`` plus one JSON file per experiment into ``--out``
    (created if missing).  A lighter-weight alternative to
    ``pytest benchmarks/ -s`` when only the artifact files are wanted.
    """
    import os

    from repro.harness.experiment import save_results, to_markdown
    from repro.net.network import LatencyModel

    os.makedirs(args.out, exist_ok=True)
    sections: list[str] = ["# O2PC experiment report", ""]

    def emit(name: str, title: str, rows: list[ExperimentResult]) -> None:
        save_results(rows, os.path.join(args.out, f"{name}.json"))
        sections.append(to_markdown(rows, title=title))
        sections.append("")
        print(f"  wrote {name} ({len(rows)} rows)")

    # CLAIM-LOCK (compact)
    rows = []
    for base in (0.5, 1.0, 2.0):
        measures: dict[str, float] = {}
        for scheme in (CommitScheme.TWO_PL, CommitScheme.O2PC):
            system = System(SystemConfig(
                scheme=scheme, n_sites=4, keys_per_site=100,
                latency=LatencyModel(base=base), seed=args.seed,
            ))
            gen = WorkloadGenerator(system, WorkloadConfig(
                n_transactions=40, read_fraction=0.3,
                arrival_mean=4.0 * base,
            ), seed=args.seed)
            elapsed = gen.run()
            report = system.metrics(elapsed)
            tag = "2pl" if scheme is CommitScheme.TWO_PL else "o2pc"
            measures[f"hold_{tag}"] = report.mean_lock_hold
        measures["gap"] = measures["hold_2pl"] - measures["hold_o2pc"]
        rows.append(ExperimentResult(params={"latency": base},
                                     measures=measures))
    emit("claim_lock", "CLAIM-LOCK: mean lock-hold vs latency", rows)

    # CLAIM-BLOCK (compact)
    rows = []
    for outage in (25.0, 100.0):
        measures = {}
        for scheme in (CommitScheme.TWO_PL, CommitScheme.O2PC):
            system = System(SystemConfig(scheme=scheme, seed=args.seed))
            proc = system.submit(GlobalTxnSpec(txn_id="T1", subtxns=[
                SubtxnSpec("S1", [SemanticOp("withdraw", "k0",
                                             {"amount": 1})]),
                SubtxnSpec("S2", [SemanticOp("deposit", "k0",
                                             {"amount": 1})]),
            ]))
            system.failures.schedule(
                CrashPlan(site_id="coord.T1", at=6.2, duration=outage)
            )
            system.env.run(proc)
            system.env.run()
            tag = "2pl" if scheme is CommitScheme.TWO_PL else "o2pc"
            measures[f"max_hold_{tag}"] = max(
                h.duration for s in system.sites.values()
                for h in s.locks.hold_log
            )
        rows.append(ExperimentResult(params={"outage": outage},
                                     measures=measures))
    emit("claim_block", "CLAIM-BLOCK: max lock-hold vs outage", rows)

    # CLAIM-MSG (compact)
    rows = []
    for label, scheme, protocol in (
        ("2PC/2PL", CommitScheme.TWO_PL, "none"),
        ("O2PC", CommitScheme.O2PC, "none"),
        ("O2PC/P1", CommitScheme.O2PC, "P1"),
    ):
        system = System(SystemConfig(
            scheme=scheme, protocol=protocol, n_sites=3,
            keys_per_site=100, seed=args.seed,
        ))
        gen = WorkloadGenerator(system, WorkloadConfig(
            n_transactions=20, arrival_mean=6.0, read_fraction=1.0,
        ), seed=args.seed)
        gen.run()
        rows.append(ExperimentResult(
            params={"scheme": label},
            measures=dict(system.network.counts_by_type()),
        ))
    emit("claim_msg", "CLAIM-MSG: wire messages by scheme", rows)

    path = os.path.join(args.out, "report.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    print(f"report: {path}")
    return 0


def _observed_run(args: argparse.Namespace) -> tuple[System, "WorkloadGenerator"]:
    """A system with observability on plus its (unrun) workload generator."""
    system = System(SystemConfig(
        n_sites=args.sites, scheme=CommitScheme[args.scheme],
        protocol=args.protocol, seed=args.seed, observability=True,
        metrics_window=getattr(args, "window", 10.0),
    ))
    gen = WorkloadGenerator(system, WorkloadConfig(
        n_transactions=args.transactions, abort_probability=0.2,
        read_fraction=0.4, arrival_mean=3.0, zipf_theta=0.5,
    ), seed=args.seed)
    return system, gen


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload with the event bus on; emit the stream as JSONL.

    The stream is deterministic: the same ``--seed`` produces byte-identical
    output (events carry only simulation time, a gap-free sequence number,
    and primitive fields; the JSON encoding uses sorted keys and fixed
    separators).
    """
    system, gen = _observed_run(args)
    gen.run()
    text = system.obs.jsonl()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{len(system.events())} events -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _print_metrics_report(report: Any) -> None:
    print("== metrics ==")
    for name in (
        "committed", "aborted", "abort_rate", "throughput",
        "mean_latency", "p50_latency", "p99_latency",
        "mean_lock_hold", "mean_lock_wait",
        "messages_total", "messages_per_txn",
        "compensations", "deadlocks", "rejections",
    ):
        value = getattr(report, name)
        shown = f"{value:.3f}" if isinstance(value, float) else str(value)
        print(f"{name:18} {shown}")


def _metrics_net(args: argparse.Namespace) -> int:
    """Aggregate a live cluster's per-site event streams into one report."""
    from repro.rt.config import load_cluster
    from repro.rt.obs_sink import aggregate_cluster

    cluster = load_cluster(args.cluster)
    report, per_site = aggregate_cluster(cluster)
    print("== cluster event streams ==")
    for site_id in cluster.site_ids:
        path = cluster.events_path(site_id)
        print(f"{site_id:18} {per_site[site_id]:6d} events  ({path})")
    _print_metrics_report(report)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a workload with streaming metrics; report at the end or --watch.

    With ``--cluster c.json`` no workload is run: the command instead
    folds the JSONL event streams of a live (or stopped) ``--obs`` cluster
    (``repro serve --obs``) into the same report.
    """
    if args.cluster:
        return _metrics_net(args)
    system, gen = _observed_run(args)
    env = system.env
    if args.watch:
        stream = system.obs.stream
        system.submit_stream(
            gen.specs(), arrival_mean=gen.config.arrival_mean,
            seed=args.seed,
        )
        while env.peek() < float("inf"):
            env.run(until=env.now + args.window)
            snap = system.metrics()
            window_commits = stream.commit_series.value_at(
                env.now - args.window
            )
            print(
                f"t={env.now:8.1f}  committed={snap.committed:4d} "
                f"(+{window_commits:.0f})  aborted={snap.aborted:3d}  "
                f"msgs={snap.messages_total:5d}  "
                f"p50={snap.p50_latency:6.2f}  p99={snap.p99_latency:6.2f}"
            )
        elapsed = env.now
    else:
        elapsed = gen.run()
    report = system.metrics(elapsed)
    _print_metrics_report(report)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Model-check a scenario: explore schedules/crashes, run the oracles.

    Exit code 0 when every explored schedule satisfies the oracles (and,
    under ``--smoke``, when the exploration met its schedule quota); 1 when
    a counterexample was found.  Counterexamples print their replay vector:
    ``repro check --replay`` re-executes one byte-for-byte.
    """
    from repro.check import (
        CheckConfig,
        ModelChecker,
        render_counterexample,
        replay,
    )

    config = CheckConfig(
        scenario=args.scenario,
        protocol=args.protocol,
        scheme=CommitScheme[args.scheme],
        seed=args.seed,
        depth=args.depth,
        crashes=args.crashes,
        max_schedules=args.max_schedules,
        bounded=args.bounded,
        prune=not args.no_prune,
        time_budget=args.budget,
        strict=args.strict,
        jobs=args.jobs,
        paranoid=args.paranoid,
    )
    smoke_quota = 0
    if args.smoke:
        # CI preset: the conflict scenario under P1 with crash injection
        # must clear >= 1000 distinct schedules, all violation-free.
        config.scenario = "conflict"
        config.protocol = "P1"
        config.depth = 14
        config.crashes = 2
        config.max_schedules = 1500
        config.time_budget = args.budget if args.budget else 55.0
        smoke_quota = 1000

    if args.replay is not None:
        choices = tuple(
            int(piece) for piece in args.replay.split(",") if piece != ""
        )
        outcome = replay(config, choices)
        sys.stdout.write(outcome.system.obs.jsonl())
        for violation in outcome.violations:
            print(violation, file=sys.stderr)
        return 1 if outcome.violations else 0

    report = ModelChecker(config).run()
    mode = f"bounded({config.bounded})" if config.bounded else "dfs"
    print(
        f"scenario={config.scenario} protocol={config.protocol} "
        f"scheme={config.scheme.name} mode={mode} depth={config.depth} "
        f"crashes={config.crashes} prune={config.prune} jobs={config.jobs}"
    )
    print(
        f"explored {report.explored} distinct schedules in "
        f"{report.elapsed:.1f}s "
        f"({'exhausted' if report.exhausted else 'budget-capped'}; "
        f"{report.first_run_choice_points} choice points on the default "
        f"schedule)"
    )
    if report.counterexamples:
        shown = report.counterexamples[: args.show]
        print(
            f"FOUND {len(report.counterexamples)} counterexample(s); "
            f"showing {len(shown)}:"
        )
        for counterexample in shown:
            print()
            print(render_counterexample(counterexample))
        return 1
    print("no oracle violations")
    if smoke_quota and report.explored < smoke_quota:
        print(
            f"SMOKE FAILURE: explored {report.explored} < {smoke_quota} "
            "required schedules"
        )
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Head-to-head commit-scheme comparison; writes BENCH_compare.json.

    Every registered scheme runs the same seeded contention workload and
    the same coordinator-crash drill (see :mod:`repro.harness.compare`).
    ``--vote-timeout`` (repeatable) sweeps the coordinator's vote-collection
    timeout across every scheme.  The gated metrics are compared to the
    ``--baseline`` directory's copy: exit 1 on a regression beyond
    ``--tolerance`` or on anything the baseline has that this run lacks
    (so a sweep needs its own baseline directory), exit 2 when there is no
    baseline to compare against.  ``--update-baseline`` rewrites the
    baseline from this run instead (deliberately, on the reference host).
    """
    import json as _json
    import os

    from repro.harness.compare import (
        compare_to_baseline, run_compare, to_json,
    )

    payloads = run_compare(
        smoke=args.smoke, seed=args.seed,
        vote_timeouts=tuple(args.vote_timeout or ()),
    )
    os.makedirs(args.out, exist_ok=True)
    for name, payload in payloads.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_json(payload))
        print(f"wrote {path}")
        for block, metrics in sorted(payload["results"].items()):
            print(
                f"  {block}: txns_per_s={metrics['txns_per_s']:.1f}  "
                f"msgs/txn={metrics['messages_per_txn']:.1f}  "
                f"abort={metrics['abort_rate']:.2f}  "
                f"comp={metrics['compensation_rate']:.2f}  "
                f"hold_p99={metrics['lock_hold_p99']:.1f}  "
                f"blocking={metrics['blocking_time']:.1f}"
                f"{' (decided in outage)' if metrics['decided_in_outage'] else ''}"
            )

    if args.update_baseline:
        os.makedirs(args.baseline, exist_ok=True)
        for name, payload in payloads.items():
            path = os.path.join(args.baseline, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(to_json(payload))
            print(f"baseline updated: {path}")
        return 0

    regressions: list[str] = []
    for name, payload in payloads.items():
        path = os.path.join(args.baseline, name)
        if not os.path.exists(path):
            print(
                f"repro compare: no baseline {path} to gate against "
                "(record one with --update-baseline)",
                file=sys.stderr,
            )
            return 2
        with open(path, encoding="utf-8") as handle:
            baseline = _json.load(handle)
        regressions.extend(
            compare_to_baseline(payload, baseline, args.tolerance)
        )
    if regressions:
        print("PERF REGRESSION:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"within {args.tolerance:.0%} of baseline")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzers; exit 1 when any rule fires.

    Six families (see ``docs/ANALYSIS.md``): repertoire/compensation
    soundness (inverse closure, Theorem 2 write coverage, Section 2 real
    actions), the commutativity matrix against the A1–A4 stratification
    preconditions, the determinism lint over ``src/repro``,
    coordinator/participant dispatch exhaustiveness, protocol-flow
    verification (force-before-send plus per-scheme message-flow graphs),
    and the event-loop blocking-call analyzer over ``repro.rt``.  Nothing
    is executed: no schedules, no simulation, no state.
    """
    from pathlib import Path

    from repro.analysis import render_json, render_text, run_all

    root = Path(args.root) if args.root else None
    report = run_all(root)
    if args.flow_dot:
        from repro.analysis import default_root, render_flow_dot

        out_dir = Path(args.flow_dot)
        out_dir.mkdir(parents=True, exist_ok=True)
        graphs = render_flow_dot(root if root is not None else default_root())
        for scheme, dot in sorted(graphs.items()):
            (out_dir / f"flow_{scheme}.dot").write_text(
                dot, encoding="utf-8"
            )
    if args.json:
        sys.stdout.write(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one site daemon until an admin shutdown or Ctrl-C."""
    from repro.rt.config import load_cluster
    from repro.rt.daemon import SiteDaemon, serve_forever

    cluster = load_cluster(args.cluster)
    daemon = SiteDaemon(
        args.site,
        cluster,
        scheme=CommitScheme[args.scheme],
        protocol=args.protocol,
        time_scale=args.time_scale,
        keys_per_site=args.keys,
        initial_value=args.value,
        obs_path=(
            cluster.events_path(args.site) if args.obs else None
        ),
    )
    spec = cluster.site(args.site)
    print(
        f"repro serve: {args.site} on {spec.host}:{spec.port} "
        f"(wal: {cluster.wal_path(args.site)}, scheme={args.scheme}, "
        f"protocol={args.protocol})",
        flush=True,
    )
    try:
        serve_forever(daemon)
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Admin queries or a demo transfer against a live cluster."""
    import json

    from repro.rt.client import NetClient, site_shutdown, site_status
    from repro.rt.config import load_cluster

    cluster = load_cluster(args.cluster)
    if args.status:
        try:
            status = site_status(cluster, args.status)
        except OSError as exc:
            print(f"cannot reach {args.status}: {exc}", file=sys.stderr)
            return 1
        if status is None:
            print(f"no status reply from {args.status}", file=sys.stderr)
            return 1
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    if args.shutdown:
        try:
            reply = site_shutdown(cluster, args.shutdown)
        except OSError as exc:
            print(f"cannot reach {args.shutdown}: {exc}", file=sys.stderr)
            return 1
        print(f"{args.shutdown}: {'ok' if reply else 'no reply'}")
        return 0 if reply else 1

    sites = cluster.site_ids
    if len(sites) < 2:
        print("need at least two sites for the transfer demo",
              file=sys.stderr)
        return 2
    src, dst = sites[0], sites[1]
    client = NetClient(
        cluster, scheme=CommitScheme[args.scheme], protocol=args.protocol,
    )
    outcome = client.run_transaction(GlobalTxnSpec(
        txn_id=args.txn,
        subtxns=[
            SubtxnSpec(src, [SemanticOp("withdraw", args.key,
                                        {"amount": args.amount})]),
            SubtxnSpec(dst, [SemanticOp("deposit", args.key,
                                        {"amount": args.amount})]),
        ],
    ))
    print(
        f"{args.txn}: {'COMMIT' if outcome.committed else 'ABORT'} "
        f"({src} -> {dst}, {args.key} amount={args.amount}); "
        f"no_votes={outcome.no_votes} "
        f"compensated={outcome.compensated_sites}"
    )
    return 0 if outcome.committed else 1


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="O2PC reproduction (Levy, Korth & Silberschatz, "
                    "SIGMOD 1991)",
    )
    parser.add_argument("--seed", type=int, default=0)

    # Shared options are defined once and accepted after any subcommand
    # that lists them (``repro trace --seed 7``).  SUPPRESS keeps a
    # subparser from clobbering a top-level value and lets each verb pick
    # its own default via set_defaults.  The factories matter: argparse's
    # set_defaults mutates ``action.default`` on the action object, and
    # ``parents=`` shares actions by reference — a single shared parent
    # would leak one verb's default into every other verb.
    def seed_parent() -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        return p

    def protocol_parent() -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(
            "--protocol", default=argparse.SUPPRESS,
            choices=sorted(PROTOCOLS),
            help="marking protocol",
        )
        return p

    def scheme_parent() -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(
            "--scheme", default=argparse.SUPPRESS,
            choices=sorted(s.name for s in CommitScheme),
            help="commit scheme (engine registry)",
        )
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", parents=[seed_parent(), protocol_parent()],
                          help="narrated end-to-end run")
    demo.set_defaults(fn=cmd_demo, protocol="P1")

    drill = sub.add_parser("drill", parents=[seed_parent()],
                           help="coordinator-failure drill")
    drill.add_argument("--outage", type=float, default=100.0)
    drill.set_defaults(fn=cmd_drill)

    sweep = sub.add_parser("sweep", parents=[seed_parent()],
                           help="abort-probability sweep")
    sweep.add_argument("--transactions", type=int, default=60)
    sweep.add_argument("--sites", type=int, default=4)
    sweep.set_defaults(fn=cmd_sweep)

    report = sub.add_parser("report", parents=[seed_parent()],
                            help="write experiment artifacts")
    report.add_argument("--out", default="results")
    report.set_defaults(fn=cmd_report)

    audit = sub.add_parser("audit", parents=[seed_parent(), protocol_parent()],
                           help="regular-cycle audit")
    audit.set_defaults(fn=cmd_audit, protocol="none")

    trace = sub.add_parser(
        "trace", parents=[seed_parent(), protocol_parent(), scheme_parent()],
        help="emit a deterministic JSONL event trace",
    )
    trace.add_argument("--transactions", type=int, default=20)
    trace.add_argument("--sites", type=int, default=3)
    trace.add_argument("--out", default=None,
                       help="write JSONL here instead of stdout")
    trace.set_defaults(fn=cmd_trace, protocol="P1", scheme="O2PC")

    metrics = sub.add_parser(
        "metrics", parents=[seed_parent(), protocol_parent(), scheme_parent()],
        help="streaming metrics over a workload",
    )
    metrics.add_argument("--transactions", type=int, default=40)
    metrics.add_argument("--sites", type=int, default=3)
    metrics.add_argument("--watch", action="store_true",
                         help="print one snapshot per simulation window")
    metrics.add_argument("--window", type=_positive_float, default=10.0)
    metrics.add_argument("--cluster", default=None,
                         help="aggregate this live cluster's --obs event "
                              "streams instead of running a workload")
    metrics.set_defaults(fn=cmd_metrics, protocol="P1", scheme="O2PC")

    check = sub.add_parser(
        "check", parents=[seed_parent(), protocol_parent(), scheme_parent()],
        help="model-check protocol schedules and crash points",
    )
    check.add_argument("--scenario", default="conflict",
                       choices=["conflict", "crashcoord", "duel"])
    check.add_argument("--depth", type=int, default=12,
                       help="choice points eligible for DFS branching")
    check.add_argument("--crashes", type=int, default=0,
                       help="crash budget per run (0 = no crash injection)")
    check.add_argument("--max-schedules", type=int, default=2000)
    check.add_argument("--bounded", type=int, default=0,
                       help="N seeded random walks instead of the DFS")
    check.add_argument("--no-prune", action="store_true",
                       help="disable partial-order pruning (full search)")
    check.add_argument("--budget", type=_positive_float, default=None,
                       help="wall-clock budget in seconds")
    check.add_argument("--strict", action="store_true",
                       help="literal criterion instead of effective")
    check.add_argument("--jobs", type=int, default=1,
                       help="worker processes; report is byte-identical "
                            "to --jobs 1")
    check.add_argument("--paranoid", action="store_true",
                       help="cross-check the incremental conflict index "
                            "against the O(n^2) SG rebuild on every run")
    check.add_argument("--smoke", action="store_true",
                       help="CI preset: conflict/P1, crashes, 1k-schedule "
                            "quota")
    check.add_argument("--show", type=int, default=3,
                       help="max counterexamples to render")
    check.add_argument("--replay", default=None, metavar="V0,V1,...",
                       help="replay one choice vector; prints its JSONL "
                            "trace")
    check.set_defaults(fn=cmd_check, protocol="P1", scheme="O2PC")

    compare = sub.add_parser(
        "compare", parents=[seed_parent()],
        help="head-to-head commit schemes; BENCH_compare.json + gate",
    )
    compare.add_argument("--smoke", action="store_true",
                         help="CI-sized workload (same metrics, smaller "
                              "pins)")
    compare.add_argument("--vote-timeout", type=_positive_float,
                         action="append", metavar="UNITS",
                         help="sweep the coordinator's vote-collection "
                              "timeout (repeatable; one result block per "
                              "scheme x value)")
    compare.add_argument("--out", default="bench-artifacts",
                         help="directory for BENCH_compare.json")
    compare.add_argument("--baseline", default="benchmarks/baselines",
                         help="committed baseline directory for the "
                              "regression gate")
    compare.add_argument("--tolerance", type=_positive_float, default=0.25,
                         help="allowed fractional drop in gated metrics")
    compare.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline file from this run")
    compare.set_defaults(fn=cmd_compare)

    lint = sub.add_parser(
        "lint",
        help="static compensation-soundness + determinism analyzers",
    )
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (stable key order)")
    lint.add_argument("--root", default=None,
                      help="source tree to scan instead of the installed "
                           "package (AST families only)")
    lint.add_argument("--flow-dot", default=None, metavar="DIR",
                      help="also write one Graphviz flow_<SCHEME>.dot "
                           "message-flow graph per commit scheme to DIR")
    lint.set_defaults(fn=cmd_lint)

    serve = sub.add_parser(
        "serve", parents=[seed_parent(), protocol_parent()],
        help="run one site as a TCP daemon (net backend)",
    )
    serve.add_argument("site", help="site id from the cluster file")
    serve.add_argument("--cluster", required=True,
                       help="cluster file (site addresses + data_dir)")
    serve.add_argument("--scheme", default="O2PC",
                       choices=sorted(s.name for s in CommitScheme))
    serve.add_argument("--time-scale", type=_positive_float, default=0.01,
                       help="real seconds per simulation unit")
    serve.add_argument("--keys", type=int, default=20,
                       help="keys preloaded on first boot")
    serve.add_argument("--value", type=int, default=100,
                       help="initial value of preloaded keys")
    serve.add_argument("--obs", action="store_true",
                       help="stream this site's events to "
                            "<data_dir>/<site>.events.jsonl (read back "
                            "with 'repro metrics --cluster')")
    serve.set_defaults(fn=cmd_serve, protocol="none")

    client = sub.add_parser(
        "client", parents=[seed_parent(), protocol_parent()],
        help="run a transaction / admin command against a live cluster",
    )
    client.add_argument("--cluster", required=True,
                        help="cluster file (site addresses + data_dir)")
    client.add_argument("--status", metavar="SITE", default=None,
                        help="print one daemon's status snapshot as JSON")
    client.add_argument("--shutdown", metavar="SITE", default=None,
                        help="ask one daemon to shut down cleanly")
    client.add_argument("--scheme", default="O2PC",
                        choices=sorted(s.name for s in CommitScheme))
    client.add_argument("--txn", default="T1", help="transaction id")
    client.add_argument("--key", default="k0",
                        help="key moved by the transfer demo")
    client.add_argument("--amount", type=int, default=10,
                        help="amount moved by the transfer demo")
    client.set_defaults(fn=cmd_client, protocol="none")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
