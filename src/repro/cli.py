"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``trace`` — run a workload with observability on and emit the typed
  event stream as deterministic JSONL (same seed → byte-identical output);
* ``metrics`` — run a workload and print its exact metrics report;
  ``--watch`` also prints a snapshot per simulation window;
* ``check`` — the protocol model checker: enumerate message interleavings
  and crash points of an adversarial scenario and judge every explored
  schedule with the paper-invariant oracles (``--smoke`` is the CI
  preset; ``--jobs N`` shards the search with an identical report);
* ``compare`` — every registered commit scheme (O2PC, 2PC/2PL, Paxos
  Commit, Short-Commit) over identical seeded workloads plus the
  coordinator-crash drill: one deterministic table of blocking time,
  lock-hold tail, abort and compensation rates and messages per
  transaction (``--vote-timeout`` sweeps the collection timeout);
* ``lint`` — the static determinism lint over the sources — zero
  schedules executed, exit 1 on findings;
* ``serve`` — run one site as a real daemon over TCP (the ``net``
  backend): the unmodified Participant state machine with a file-backed
  WAL that survives ``kill -9`` (see ``docs/RUNTIME.md``);
* ``client`` — submit a transaction to a live cluster (its first site's
  daemon coordinates it, under the scheme and marking protocol that
  daemon serves), or query / shut down one daemon over its admin channel.

Performance is measured by ``bench/run.py`` (see ``bench/README.md``),
not by a verb here.  Narrated walk-throughs (a transfer and its
compensation, the coordinator-failure drill, the regular-cycle audit) are
the scripts in ``examples/``; the paper's claims are asserted by
``tests/claims/``.

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
from repro.txn import GlobalTxnSpec, SemanticOp, SubtxnSpec
from repro.workload import WorkloadConfig, WorkloadGenerator


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _workload_run(
    args: argparse.Namespace, observability: bool,
) -> tuple[System, "WorkloadGenerator"]:
    """A system plus its (unrun) workload generator."""
    system = System(SystemConfig(
        n_sites=args.sites, scheme=CommitScheme[args.scheme],
        protocol=args.protocol, seed=args.seed, observability=observability,
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
    system, gen = _workload_run(args, observability=True)
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
    """Run a workload; print its metrics report (and, with --watch, a
    snapshot per ``--window`` of simulation time with the commits since
    the previous one).

    With ``--cluster c.json`` no workload is run: the command instead
    folds the JSONL event streams of a live (or stopped) ``--obs`` cluster
    (``repro serve --obs``) into the same report.
    """
    if args.cluster:
        return _metrics_net(args)
    # The report reads the logs: no event is recorded for it.
    system, gen = _workload_run(args, observability=False)
    env = system.env
    if args.watch:
        system.submit_stream(
            gen.specs(), arrival_mean=gen.config.arrival_mean,
            seed=args.seed,
        )
        committed = 0
        while env.peek() < float("inf"):
            env.run(until=env.now + args.window)
            snap = system.metrics()
            print(
                f"t={env.now:8.1f}  committed={snap.committed:4d} "
                f"(+{snap.committed - committed})  aborted={snap.aborted:3d}  "
                f"msgs={snap.messages_total:5d}  "
                f"p50={snap.p50_latency:6.2f}  p99={snap.p99_latency:6.2f}"
            )
            committed = snap.committed
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
    """Head-to-head commit-scheme comparison as one deterministic table.

    Every registered scheme runs the same seeded contention workload and
    the same coordinator-crash drill (see :mod:`repro.harness.compare`);
    every column is simulation-derived, so the same ``--seed`` prints
    byte-identical output.  ``--vote-timeout`` (repeatable) sweeps the
    coordinator's vote-collection timeout across every scheme.
    """
    from repro.harness.compare import compare_schemes

    results = compare_schemes(
        seed=args.seed, vote_timeouts=tuple(args.vote_timeout or ()),
    )
    rows = [
        ExperimentResult(
            params={"block": block.removeprefix("compare_")}, measures=metrics,
        )
        for block, metrics in sorted(results.items())
    ]
    print(format_table(
        rows, title=f"commit schemes head to head (seed {args.seed})",
        precision=2,
    ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism lint over ``src/repro``; exit 1 when any rule
    fires (see ``docs/ANALYSIS.md``).  Only source files are read:
    nothing is imported or executed.
    """
    from pathlib import Path

    from repro.analysis import render_json, render_text, run_all

    root = Path(args.root) if args.root else None
    report = run_all(root)
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
    client = NetClient(cluster)
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
        f"no_votes={list(outcome.no_votes)} "
        f"compensated={list(outcome.compensated_sites)}"
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
        help="exact metrics of a workload or a live cluster",
    )
    metrics.add_argument("--transactions", type=int, default=40)
    metrics.add_argument("--sites", type=int, default=3)
    metrics.add_argument("--watch", action="store_true",
                         help="print one snapshot per simulation window")
    metrics.add_argument("--window", type=_positive_float, default=10.0,
                         help="simulation time between --watch snapshots")
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
    check.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes; report is byte-identical "
                            "to --jobs 1")
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
        help="head-to-head commit schemes plus the crash drill",
    )
    compare.add_argument("--vote-timeout", type=_positive_float,
                         action="append", metavar="UNITS",
                         help="sweep the coordinator's vote-collection "
                              "timeout (repeatable; one result row per "
                              "scheme x value)")
    compare.set_defaults(fn=cmd_compare)

    lint = sub.add_parser(
        "lint",
        help="static determinism lint",
    )
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (stable key order)")
    lint.add_argument("--root", default=None,
                      help="source tree to scan instead of the installed "
                           "package")
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
        "client", parents=[seed_parent()],
        help="run a transaction / admin command against a live cluster",
    )
    client.add_argument("--cluster", required=True,
                        help="cluster file (site addresses + data_dir)")
    client.add_argument("--status", metavar="SITE", default=None,
                        help="print one daemon's status snapshot as JSON")
    client.add_argument("--shutdown", metavar="SITE", default=None,
                        help="ask one daemon to shut down cleanly")
    client.add_argument("--txn", default="T1", help="transaction id")
    client.add_argument("--key", default="k0",
                        help="key moved by the transfer demo")
    client.add_argument("--amount", type=int, default=10,
                        help="amount moved by the transfer demo")
    client.set_defaults(fn=cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
