"""System assembly: one call builds a complete simulated multidatabase.

A :class:`System` owns the environment, RNG, network, failure injector,
sites, participants, and the marking protocol, and provides:

* :meth:`System.submit` / :meth:`System.run_transaction` — run global
  transactions through a coordinator;
* :meth:`System.run_local` — run an independent local transaction at one
  site (subject only to local strict 2PL: autonomy);
* :meth:`System.global_history` / :meth:`System.global_sg` — collect the
  recorded histories into the theory layer's structures;
* :meth:`System.check_correctness` — the paper's criterion on the run;
* :meth:`System.metrics` / :meth:`System.events` / :meth:`System.spans` /
  :meth:`System.timeline` / :meth:`System.lock_gantt` /
  :meth:`System.marking_audit` — the observability surface (see
  :mod:`repro.obs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.commit.base import CommitConfig, CommitScheme
from repro.commit.host import CoordinatorHost
from repro.commit.participant import Participant
from repro.core.marks import MarkingDirectory
from repro.core.protocols import (
    MarkingProtocol,
    NoProtocol,
    P1Protocol,
    P2Protocol,
    SagaMode,
    SimpleProtocol,
)
from repro.errors import DeadlockDetected, LockTimeout
from repro.ids import site_id as make_site_id
from repro.net.failures import FailureInjector
from repro.net.network import LatencyModel, Network
from repro.obs.events import Event
from repro.obs.hub import Observability
from repro.obs.metrics import MetricsReport, report_from_logs
from repro.obs.render import (
    render_lock_gantt,
    render_marking_audit,
    render_timeline,
)
from repro.obs.spans import Span
from repro.protocols import acceptor_ids, engine_for
from repro.protocols.acceptor import Acceptor
from repro.sg.cycles import assert_correct
from repro.sg.graph import GlobalSG, TxnKind
from repro.sg.history import GlobalHistory
from repro.sg.judge import HistoryJudge
from repro.sim.engine import Environment
from repro.sim.events import Event as SimEvent
from repro.sim.process import Process
from repro.sim.rng import Rng
from repro.storage.wal import WriteAheadLog
from repro.txn.operations import Op
from repro.txn.site import Site
from repro.txn.transaction import GlobalTxnSpec, TxnOutcome


#: marking-protocol factory names accepted by SystemConfig.protocol
PROTOCOLS = {
    "none": NoProtocol,
    "saga": SagaMode,
    "P1": P1Protocol,
    "P2": P2Protocol,
    "SIMPLE": SimpleProtocol,
}

#: transport backends accepted by SystemConfig.backend: the discrete-event
#: simulation, or real per-site daemons over TCP (see :mod:`repro.rt`)
BACKENDS = ("sim", "net")


@dataclass
class SystemConfig:
    """Configuration of one simulated multidatabase."""

    n_sites: int = 3
    scheme: CommitScheme = CommitScheme.O2PC
    #: marking protocol: "none", "saga", "P1", "P2", or "SIMPLE" — or a
    #: ready-built :class:`~repro.core.protocols.MarkingProtocol` instance
    #: (its directory is adopted by the system)
    protocol: str | MarkingProtocol = "none"
    seed: int = 0
    latency: LatencyModel = field(default_factory=lambda: LatencyModel(base=1.0))
    message_loss: float = 0.0
    commit: CommitConfig = field(default_factory=CommitConfig)
    #: initial value stored under every preloaded key
    initial_value: int = 100
    #: keys preloaded per site (``k0`` .. ``k{n-1}`` at each site)
    keys_per_site: int = 20
    #: per-operation processing time at every site
    op_duration: float = 0.0
    #: per-request lock-wait timeout at every site (None = wait forever;
    #: local deadlocks are still resolved by detection, and cross-site ones
    #: by the coordinator's spawn timeout)
    lock_timeout: float | None = None
    #: store marking sets as lockable data items (Section 6.2's deadlock-
    #: prone option) instead of the latch-and-revalidate compromise
    lock_marks: bool = False
    #: ablation: quiescence-based mark clearing (UDUM1 stays active either way)
    quiescence_clearing: bool = True
    #: ablation: P1's eager full-rule evaluation at spawn
    p1_eager_rule: bool = True
    #: record typed events on the system's bus (spans, JSONL export); off
    #: by default — a disabled bus costs one branch per would-be event
    observability: bool = False
    #: transport backend: "sim" (discrete-event, in-process) or "net"
    #: (real per-site daemons over TCP — built by
    #: :class:`repro.rt.NetSystem`)
    backend: str = "sim"
    #: cluster file for backend="net" (site addresses + data_dir); None
    #: gives an ephemeral localhost cluster with a temporary data_dir
    sites_file: str | None = None
    #: real seconds per simulation time unit for backend="net" daemons and
    #: client (ignored by the sim backend, which runs as fast as possible)
    time_scale: float = 0.01

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            valid = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {self.backend!r}: expected one of {valid}"
            )
        if isinstance(self.protocol, MarkingProtocol):
            return
        if self.protocol not in PROTOCOLS:
            valid = ", ".join(sorted(PROTOCOLS))
            raise ValueError(
                f"unknown marking protocol {self.protocol!r}: "
                f"expected one of {valid}, or a MarkingProtocol instance"
            )


class System:
    """A complete simulated multidatabase system."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        env: Environment | None = None,
    ) -> None:
        self.config = config or SystemConfig()
        if self.config.backend != "sim":
            raise ValueError(
                f"System is the backend='sim' implementation; for "
                f"backend={self.config.backend!r} use repro.rt.NetSystem"
            )
        #: ``env`` lets a caller supply a pre-built environment — the model
        #: checker injects its controlled scheduler this way
        self.env = env or Environment()
        self.rng = Rng(self.config.seed)
        self.network = Network(
            self.env,
            rng=self.rng.fork("network"),
            latency=self.config.latency,
            loss_probability=self.config.message_loss,
        )
        self.failures = FailureInjector(self.env, self.network)
        if isinstance(self.config.protocol, MarkingProtocol):
            # A ready-built protocol: adopt it (and its directory) as-is.
            self.marking: MarkingProtocol = self.config.protocol
            self.directory = self.marking.directory
        else:
            self.directory = MarkingDirectory()
            self.marking = PROTOCOLS[self.config.protocol](
                directory=self.directory
            )
            if isinstance(self.marking, P1Protocol):
                self.marking.eager_rule = self.config.p1_eager_rule
        self.directory.quiescence_enabled = self.config.quiescence_clearing
        self.directory.bus = self.env.bus
        self.obs = Observability(self.env.bus)
        if self.config.observability:
            self.obs.enable()
        #: the commit-scheme engine (role classes from the protocols registry)
        self.engine = engine_for(self.config.scheme)
        #: acceptor processes (Paxos Commit only; empty otherwise), each on
        #: its own in-memory log, from which recovery rebuilds its tables
        self.acceptors: dict[str, Acceptor] = {}
        self._acceptor_ids: tuple[str, ...] = ()
        if self.engine.acceptor is not None:
            self._acceptor_ids = acceptor_ids(
                self.config.commit.paxos_acceptors
            )
            for acc_id in self._acceptor_ids:
                self.acceptors[acc_id] = self.engine.acceptor(
                    self.env, self.network, acc_id, WriteAheadLog(acc_id)
                )
                self.failures.register_site(acc_id)
        self.sites: dict[str, Site] = {}
        self.participants: dict[str, Participant] = {}
        #: each site's coordinator host: the coordinators of the
        #: transactions it is the first site of
        self.hosts: dict[str, CoordinatorHost] = {}
        self.outcomes: list[TxnOutcome] = []
        for n in range(1, self.config.n_sites + 1):
            sid = make_site_id(n)
            site = Site(
                self.env, sid, op_duration=self.config.op_duration,
                lock_timeout=self.config.lock_timeout,
            )
            if not isinstance(self.marking, NoProtocol):
                from repro.core.marks import MARKS_KEY

                site.marks_key = MARKS_KEY
            site.load({
                f"k{i}": self.config.initial_value
                for i in range(self.config.keys_per_site)
            })
            self.sites[sid] = site
            self.participants[sid] = self.engine.participant(
                site=site, network=self.network, scheme=self.config.scheme,
                marking=self.marking, lock_marks=self.config.lock_marks,
                commit=self.config.commit, acceptors=self._acceptor_ids,
            )
            self.hosts[sid] = CoordinatorHost(
                self.participants[sid], outcomes=self.outcomes,
            )
            self.failures.register_site(sid)
        #: every submitted spec by txn id: what a finished transaction is
        #: judged by, in place of its coordinator
        self.specs: dict[str, GlobalTxnSpec] = {}
        #: forgets what can no longer change a verdict, so the sites'
        #: histories and the marking audit hold O(in-flight) state
        self.judge = HistoryJudge(self.sites, live=self._live)
        self.judge.on_prune.append(self.directory.keep_audit)
        self._local_seq = 0
        # Wire site crash/recovery to the failure injector: a crashed site
        # loses its volatile state and its coordinators immediately; on
        # recovery it restarts from its log (re-installing in-doubt and
        # locally committed transactions, then its coordinators) in a
        # background process.
        self.failures.on_crash(self._on_site_crash)
        self.failures.on_recover(self._on_site_recover)
        self.env.add_deadlock_diagnostic(self._waits_for_snapshot)

    def _live(self, txn_id: str) -> bool:
        """True while ``txn_id``'s coordination runs or owes a decision
        (it may still start a subtransaction somewhere)."""
        spec = self.specs.get(txn_id)
        if spec is None:
            return False
        host = self.hosts[spec.subtxns[0].site_id]
        return txn_id in host.coordinating or txn_id in host.pending

    def _waits_for_snapshot(self) -> str:
        """Render every site's lock wait-for graph (deadlock diagnostics)."""
        lines = []
        for sid in sorted(self.sites):
            edges = self.sites[sid].locks.waits_for.edges()
            if edges:
                lines.append(
                    f"  {sid}: "
                    + ", ".join(f"{a} -> {b}" for a, b in edges)
                )
        if not lines:
            return ""
        return "lock wait-for graph at deadlock:\n" + "\n".join(lines)

    def _on_site_crash(self, endpoint_id: str) -> None:
        participant = self.participants.get(endpoint_id)
        if participant is not None:
            participant.crash()
            lost = self.hosts[endpoint_id].crash()
            # What a lost coordinator left unvoted elsewhere is orphaned.
            for host in self.hosts.values():
                if lost and host.site.site_id != endpoint_id:
                    host.orphaned(lost)
        if endpoint_id in self.acceptors:
            self.acceptors[endpoint_id].crash()

    def _on_site_recover(self, endpoint_id: str) -> None:
        if endpoint_id in self.participants:
            self.env.process(
                self._restart(endpoint_id), name=f"recover:{endpoint_id}"
            )
        if endpoint_id in self.acceptors:
            self.acceptors[endpoint_id].recover()

    def _restart(self, site_id: str):
        """The participant first, so a re-sent decision finds its locally
        committed / in-doubt state rebuilt; then the coordinators."""
        report = yield from self.participants[site_id].recover()
        self.hosts[site_id].recover()
        return report

    # -- running global transactions ----------------------------------------------

    def submit(self, spec: GlobalTxnSpec) -> SimEvent:
        """Start ``spec``'s coordinator at its first site; returns its
        process.

        The process's value is the :class:`TxnOutcome`; it is also appended
        to :attr:`outcomes` on completion.  A site that is down starts no
        coordinator: the returned event holds an aborted outcome at once.
        """
        self.specs[spec.txn_id] = spec
        host = self.hosts[spec.subtxns[0].site_id]
        return host.submit(spec, self.config.commit)

    def run_transaction(self, spec: GlobalTxnSpec) -> TxnOutcome:
        """Submit ``spec`` and run the simulation until it terminates."""
        return self.env.run(self.submit(spec))

    def submit_stream(
        self,
        specs: list[GlobalTxnSpec],
        arrival_mean: float = 3.0,
        seed: int = 0,
    ) -> Process:
        """Submit ``specs`` with exponential inter-arrival spacing.

        Staggered arrivals keep the system in a realistic operating regime
        (submitting a whole batch at t=0 manufactures contention storms).
        Returns a process that finishes when every transaction has
        terminated.
        """
        rng = self.rng.fork(f"arrivals-{seed}")

        def driver():
            waiters = []
            for spec in specs:
                yield self.env.timeout(rng.exponential(arrival_mean))
                waiters.append(self.submit(spec))
            if waiters:
                yield self.env.all_of(waiters)

        return self.env.process(driver(), name="submit_stream")

    # -- running local transactions --------------------------------------------------

    def run_local(
        self, site_id: str, txn_id: str, ops: list[Op],
        max_retries: int = 20, retry_delay: float = 1.0,
    ) -> Process:
        """Run an independent local transaction at one site.

        Local transactions bypass the commit protocols and marking checks
        entirely (site autonomy); deadlock victims and lock-wait timeouts
        are retried.  After committing, the transaction is recorded as a
        UDUM1 witness.
        """
        site = self.sites[site_id]

        def runner():
            for _attempt in range(max_retries):
                site.ltm.begin(txn_id)
                try:
                    yield from site.ltm.run_ops(txn_id, ops)
                    site.ltm.commit(txn_id)
                    self.marking.on_executed(txn_id, site_id)
                    return True
                except (DeadlockDetected, LockTimeout):
                    site.ltm.abort_local(txn_id)
                    yield self.env.timeout(retry_delay)
            return False

        return self.env.process(runner(), name=f"local:{txn_id}")

    def next_local_id(self) -> str:
        """Fresh local-transaction id (``L1``, ``L2``, ...)."""
        self._local_seq += 1
        return f"L{self._local_seq}"

    # -- theory-layer views -------------------------------------------------------------

    def global_history(self) -> GlobalHistory:
        """The run's global history (live view of the sites' histories):
        what :attr:`judge` retains, which every end-of-run judge reads to
        the verdicts of the full history."""
        return GlobalHistory(
            sites={sid: site.history for sid, site in self.sites.items()}
        )

    def global_sg(self) -> GlobalSG:
        """The run's global serialization graph."""
        return GlobalSG.from_history(self.global_history())

    def effective_regular_nodes(self, gsg: GlobalSG | None = None) -> set[str]:
        """Global transactions that count as regular for the *effective*
        criterion: everything except globally-aborted ones.

        An aborted transaction's exposed updates were all revoked by its
        compensation; together with its ``CT_i`` it belongs to the
        compensation population, so cycles confined to such pairs are
        treated like the CT-only cycles the criterion allows.  Pass the
        ``gsg`` already built to save building it again.
        """
        aborted = {o.txn_id for o in self.outcomes if not o.committed}
        gsg = gsg or self.global_sg()
        return gsg.nodes_of_kind(TxnKind.GLOBAL) - aborted

    def check_correctness(self, strict: bool = False) -> None:
        """Assert the paper's correctness criterion on the run so far.

        ``strict=False`` (default) checks the *effective* criterion — no
        regular cycle through a committed transaction — which is the
        guarantee the practical protocol implementation provides.
        ``strict=True`` checks the paper's literal criterion (any regular
        transaction, aborted ones included); the compromise implementation
        of P1 can violate it in multi-abort corner cases (see the
        CLAIM-CORRECT experiment).  Raises
        :class:`~repro.errors.CorrectnessViolation` with the offending
        cycle on failure.
        """
        gsg = self.global_sg()
        regular = None if strict else self.effective_regular_nodes(gsg)
        assert_correct(gsg, regular)

    # -- observability surface ----------------------------------------------------------

    def events(self) -> list[Event]:
        """Every recorded event, in publish order (empty when disabled)."""
        return self.obs.events()

    def spans(self) -> dict[str, Span]:
        """Per-transaction span trees folded from the recorded events."""
        return self.obs.spans()

    def metrics(self, elapsed: float | None = None) -> MetricsReport:
        """Aggregated metrics of the run so far, read exactly from the
        system's logs (with observability on or off).  ``elapsed``
        overrides the throughput denominator (defaults to the current
        simulation time).
        """
        return report_from_logs(self, elapsed)

    def timeline(self, width: int = 50) -> str:
        """Text timeline: one line per terminated global transaction."""
        return render_timeline(self, width)

    def lock_gantt(
        self, site_id: str, width: int = 50, keys: list[str] | None = None
    ) -> str:
        """Text Gantt chart of lock-hold intervals at one site."""
        return render_lock_gantt(self, site_id, width, keys)

    def marking_audit(self) -> str:
        """Chronology of marking transitions and clearings."""
        return render_marking_audit(self)
