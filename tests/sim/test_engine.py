"""Tests for the closed-loop simulator."""

import pytest

from repro.baselines.two_phase_locking import TwoPhaseLocking
from repro.core.scheduler import HDDScheduler
from repro.errors import NotSerializableError, ReproError
from repro.sim.engine import Simulator
from repro.sim.inventory import build_inventory_partition, build_inventory_workload
from repro.txn.schedule import Action


@pytest.fixture
def workload():
    return build_inventory_workload(granules_per_segment=8)


class TestDeterminism:
    def test_same_seed_same_result(self, workload):
        def run():
            s = HDDScheduler(build_inventory_partition())
            return Simulator(
                s, workload, clients=4, seed=9, target_commits=100
            ).run()

        a, b = run(), run()
        assert a.commits == b.commits
        assert a.steps == b.steps
        assert a.latencies == b.latencies
        assert a.stats.read_registrations == b.stats.read_registrations

    def test_different_seed_different_trace(self, workload):
        def run(seed):
            s = HDDScheduler(build_inventory_partition())
            return Simulator(
                s, workload, clients=4, seed=seed, target_commits=100
            ).run()

        assert run(1).latencies != run(2).latencies


class TestTermination:
    def test_target_commits_reached(self, workload):
        s = HDDScheduler(build_inventory_partition())
        result = Simulator(
            s, workload, clients=4, seed=0, target_commits=50
        ).run()
        assert result.commits >= 50
        assert result.steps < 50_000

    def test_max_steps_respected(self, workload):
        s = HDDScheduler(build_inventory_partition())
        result = Simulator(s, workload, clients=2, seed=0, max_steps=500).run()
        assert result.steps == 500

    def test_needs_a_client(self, workload):
        s = HDDScheduler(build_inventory_partition())
        with pytest.raises(ReproError):
            Simulator(s, workload, clients=0)


class TestBlockingAndRestart:
    def test_2pl_run_completes_with_blocks(self, workload):
        s = TwoPhaseLocking()
        result = Simulator(
            s,
            workload,
            clients=8,
            seed=3,
            target_commits=200,
            audit=True,
        ).run()
        assert result.commits >= 200
        # With 8 clients on 8 granules/segment there must be contention.
        assert s.stats.read_blocks + s.stats.write_blocks > 0

    def test_restarts_counted(self, workload):
        s = HDDScheduler(build_inventory_partition(), protocol_b="to")
        result = Simulator(
            s, workload, clients=8, seed=3, target_commits=300, audit=True
        ).run()
        assert result.restarts == s.stats.aborts

    def test_think_time_slows_throughput(self, workload):
        def run(think):
            s = HDDScheduler(build_inventory_partition())
            return Simulator(
                s,
                workload,
                clients=2,
                seed=0,
                target_commits=50,
                think_time=think,
            ).run()

        assert run(10).steps > run(0).steps


class TestAudit:
    def test_audit_passes_for_every_scheduler(self, workload):
        from repro.baselines import (
            MultiversionTimestampOrdering,
            MultiversionTwoPhaseLocking,
            SDD1Pipelining,
            TimestampOrdering,
        )

        makers = [
            lambda: HDDScheduler(build_inventory_partition()),
            lambda: HDDScheduler(build_inventory_partition(), protocol_b="to"),
            TwoPhaseLocking,
            TimestampOrdering,
            MultiversionTimestampOrdering,
            MultiversionTwoPhaseLocking,
            lambda: SDD1Pipelining(build_inventory_partition()),
        ]
        for make in makers:
            result = Simulator(
                make(),
                workload,
                clients=6,
                seed=11,
                target_commits=120,
                audit=True,
            ).run()
            assert result.commits >= 120

    def test_audit_catches_unsafe_scheduler(self, workload):
        """2PL without read locks must eventually produce a
        non-serializable execution that the audit rejects."""
        caught = False
        for seed in range(25):
            s = TwoPhaseLocking(read_locks=False)
            sim = Simulator(
                s,
                workload,
                clients=8,
                seed=seed,
                target_commits=300,
                audit=True,
            )
            try:
                sim.run()
            except NotSerializableError as error:
                assert "not serializable" in str(error)
                # The error carries the cycle and the commit closing it.
                assert len(error.cycle) >= 2
                for dep, following in zip(
                    error.cycle, error.cycle[1:] + error.cycle[:1]
                ):
                    assert dep.earlier == following.later
                    assert str(dep) in str(error)
                closing = s.schedule.steps[error.closing_step]
                assert closing.action is Action.COMMIT
                caught = True
                break
        assert caught, "unsafe 2PL never produced an anomaly in 25 seeds"


class TestWallMetrics:
    def test_wall_releases_reported(self, workload):
        s = HDDScheduler(build_inventory_partition(), wall_interval=10)
        result = Simulator(
            s, workload, clients=4, seed=0, target_commits=100
        ).run()
        assert result.wall_releases >= 1
