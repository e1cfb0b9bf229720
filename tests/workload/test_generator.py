"""Unit and integration tests for the workload generator."""

from repro.commit import CommitScheme
from repro.harness import System, SystemConfig
from repro.txn import ReadOp, SemanticOp, WriteOp
from repro.txn.transaction import VotePolicy
from repro.workload import WorkloadConfig, WorkloadGenerator


def make(config=None, sys_config=None, seed=1):
    system = System(sys_config or SystemConfig(n_sites=4))
    return system, WorkloadGenerator(system, config, seed=seed)


class TestSpecGeneration:
    def test_deterministic_given_seed(self):
        _, g1 = make(seed=5)
        _, g2 = make(seed=5)
        assert [s.site_ids for s in g1.specs()] == [
            s.site_ids for s in g2.specs()
        ]

    def test_site_count_within_bounds(self):
        _, gen = make(WorkloadConfig(min_sites=2, max_sites=3))
        for spec in gen.specs():
            assert 2 <= len(spec.site_ids) <= 3
            assert len(set(spec.site_ids)) == len(spec.site_ids)

    def test_ops_count_within_bounds(self):
        _, gen = make(WorkloadConfig(min_ops=2, max_ops=4))
        for spec in gen.specs():
            for sub in spec.subtxns:
                assert 2 <= len(sub.ops) <= 4

    def test_read_fraction_extremes(self):
        _, gen = make(WorkloadConfig(read_fraction=1.0))
        assert all(
            isinstance(op, ReadOp)
            for spec in gen.specs() for sub in spec.subtxns for op in sub.ops
        )
        _, gen = make(WorkloadConfig(read_fraction=0.0, semantic_fraction=1.0))
        assert all(
            isinstance(op, SemanticOp)
            for spec in gen.specs() for sub in spec.subtxns for op in sub.ops
        )

    def test_generic_model_selection(self):
        _, gen = make(WorkloadConfig(read_fraction=0.0, semantic_fraction=0.0))
        assert all(
            isinstance(op, WriteOp)
            for spec in gen.specs() for sub in spec.subtxns for op in sub.ops
        )

    def test_abort_probability_injects_force_no(self):
        _, gen = make(WorkloadConfig(n_transactions=100, abort_probability=0.5))
        forced = sum(
            1 for spec in gen.specs()
            if any(s.vote is VotePolicy.FORCE_NO for s in spec.subtxns)
        )
        assert 25 < forced < 75

    def test_zero_abort_probability_injects_none(self):
        _, gen = make(WorkloadConfig(n_transactions=50, abort_probability=0.0))
        assert not any(
            s.vote is VotePolicy.FORCE_NO
            for spec in gen.specs() for s in spec.subtxns
        )


class TestDriving:
    def test_run_completes_all_transactions(self):
        system, gen = make(WorkloadConfig(n_transactions=20))
        gen.run()
        assert len(system.outcomes) == 20
        assert all(o.committed for o in system.outcomes)
        system.check_correctness()

    def test_run_with_aborts_compensates_and_stays_correct(self):
        system, gen = make(
            WorkloadConfig(n_transactions=30, abort_probability=0.3),
            SystemConfig(n_sites=4, protocol="P1"),
        )
        gen.run()
        report = system.metrics()
        assert report.aborted > 0
        assert report.compensations > 0
        system.check_correctness()

    def test_locals_interleaved(self):
        system, gen = make(
            WorkloadConfig(n_transactions=10, locals_per_global=2.0),
        )
        gen.run()
        local_commits = sum(
            1 for site in system.sites.values()
            for txn in site.history.committed if txn.startswith("L")
        )
        assert local_commits > 0

    def test_metrics_report_sane(self):
        system, gen = make(WorkloadConfig(n_transactions=15))
        elapsed = gen.run()
        report = system.metrics(elapsed=elapsed)
        # A contended workload may lose a few transactions to cross-site
        # deadlocks (resolved by coordinator timeout), never silently.
        assert report.committed + report.aborted == 15
        assert report.committed >= 12
        assert report.throughput > 0
        assert report.mean_latency > 0
        assert report.messages_per_txn >= 8  # 2 sites x 4 round-trips min
        system.check_correctness()


class TestScenarios:
    def test_banking_conserves_money(self):
        from repro.workload import banking_transfers

        system = System(SystemConfig(n_sites=3, scheme=CommitScheme.O2PC))
        total_before = sum(
            sum(v for v in site.store.snapshot().values())
            for site in system.sites.values()
        )
        for spec in banking_transfers(sorted(system.sites), n_transfers=15):
            system.submit(spec)
        system.env.run()
        assert all(o.committed for o in system.outcomes)
        total_after = sum(
            sum(v for v in site.store.snapshot().values())
            for site in system.sites.values()
        )
        assert total_after == total_before
        system.check_correctness()

    def test_banking_conserves_money_even_with_aborts(self):
        """Semantic atomicity: an aborted transfer nets to zero because the
        compensation reverses the locally-committed leg."""
        from repro.workload import banking_transfers

        system = System(SystemConfig(
            n_sites=3, scheme=CommitScheme.O2PC, protocol="P1",
        ))
        total_before = sum(
            sum(site.store.snapshot().values())
            for site in system.sites.values()
        )
        for spec in banking_transfers(
            sorted(system.sites), n_transfers=25, abort_probability=0.4,
        ):
            system.submit(spec)
        system.env.run()
        assert any(not o.committed for o in system.outcomes)
        total_after = sum(
            sum(site.store.snapshot().values())
            for site in system.sites.values()
        )
        assert total_after == total_before
        system.check_correctness()

    def test_reservations_run_correctly(self):
        from repro.workload import travel_reservations

        system = System(SystemConfig(
            n_sites=4, scheme=CommitScheme.O2PC, protocol="P1",
        ))
        for spec in travel_reservations(sorted(system.sites), n_trips=20):
            system.submit(spec)
        system.env.run()
        assert system.outcomes
        system.check_correctness()

    def test_inventory_runs_correctly(self):
        from repro.workload import inventory_orders

        system = System(SystemConfig(
            n_sites=4, scheme=CommitScheme.O2PC, protocol="P1",
        ))
        for spec in inventory_orders(sorted(system.sites), n_orders=20):
            system.submit(spec)
        system.env.run()
        assert system.outcomes
        system.check_correctness()

    def test_optimistic_subtransactions_are_compensatable(self):
        """Paper §2: a real action belongs only in a lock-holding
        (``real_action``) subtransaction; every other operation of the
        shipped scenarios needs a registered inverse (§3.2)."""
        from repro.compensation import standard_registry
        from repro.workload import standard_scenarios

        registry = standard_registry()
        optimistic = [
            op
            for specs in standard_scenarios().values()
            for spec in specs
            for sub in spec.subtxns
            if not sub.real_action
            for op in sub.ops
        ]
        assert len(optimistic) > 60
        assert [
            op for op in optimistic if not registry.is_compensatable(op)
        ] == []
