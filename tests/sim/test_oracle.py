"""Tests for the serial-replay oracle and RMW workloads."""

import pytest

from repro.baselines import (
    MultiversionTimestampOrdering,
    MultiversionTwoPhaseLocking,
    ReedMultiversionTimestampOrdering,
    SDD1Pipelining,
    TimestampOrdering,
    TwoPhaseLocking,
)
from repro.core.scheduler import HDDScheduler
from repro.errors import ReproError
from repro.sim.engine import Simulator
from repro.sim.inventory import build_inventory_partition
from repro.sim.oracle import (
    counter_invariant,
    replay_serially,
    verify_serial_equivalence,
)
from repro.sim.workload import Op, TransactionTemplate, TxnSpec, Workload
from repro.txn.depgraph import is_serializable, serialization_order


def rmw_workload(partition, granules=4) -> Workload:
    """A counter-increment heavy mix over the inventory schema."""
    return Workload(
        partition=partition,
        templates=[
            TransactionTemplate(
                name="bump_event_counter",
                profile="type1_log_event",
                recipe=(("events", "m"),),
                weight=2.0,
            ),
            TransactionTemplate(
                name="post_inventory",
                profile="type2_post_inventory",
                recipe=(("events", "r"), ("inventory", "m")),
                weight=1.0,
            ),
            TransactionTemplate(
                name="report",
                profile="report",
                recipe=(("events", "r"), ("inventory", "r")),
                read_only=True,
                weight=0.5,
            ),
        ],
        granules_per_segment=granules,
        skew=2.0,
    )


def run(scheduler, workload, seed=3, commits=200):
    # max_steps caps the Reed variants' thrashing on hot counters; the
    # well-behaved schedulers reach the commit target in ~2k steps.
    simulator = Simulator(
        scheduler,
        workload,
        clients=8,
        seed=seed,
        target_commits=commits,
        max_steps=60_000,
        audit=True,
    )
    simulator.run()
    return simulator


class TestRMWExecution:
    def test_rmw_splits_into_read_then_write(self):
        partition = build_inventory_partition()
        scheduler = HDDScheduler(partition)
        simulator = run(scheduler, rmw_workload(partition), commits=50)
        assert simulator.committed_specs
        # Every committed RMW produced both a read and a write step.
        assert scheduler.stats.reads > 0 and scheduler.stats.writes > 0

    def test_rmw_template_validation(self):
        partition = build_inventory_partition()
        with pytest.raises(ReproError):
            Workload(
                partition=partition,
                templates=[
                    TransactionTemplate(
                        name="bad",
                        profile="type1_log_event",
                        recipe=(("inventory", "m"),),  # not its write segment
                    )
                ],
            )

    def test_read_only_rmw_rejected(self):
        with pytest.raises(ReproError):
            TransactionTemplate(
                name="bad", profile=None, recipe=(("events", "m"),), read_only=True
            )


SCHEDULER_MAKERS = [
    ("hdd", lambda p: HDDScheduler(p)),
    ("hdd-to", lambda p: HDDScheduler(p, protocol_b="to")),
    ("hdd-reed", lambda p: HDDScheduler(p, protocol_b="mvto-reed")),
    ("2pl", lambda p: TwoPhaseLocking()),
    ("to", lambda p: TimestampOrdering()),
    ("mvto", lambda p: MultiversionTimestampOrdering()),
    ("mvto-reed", lambda p: ReedMultiversionTimestampOrdering()),
    ("mv2pl", lambda p: MultiversionTwoPhaseLocking()),
    ("sdd1", lambda p: SDD1Pipelining(p)),
]


class TestSerialReplay:
    @pytest.mark.parametrize("name,maker", SCHEDULER_MAKERS)
    def test_replay_matches_final_state(self, name, maker):
        partition = build_inventory_partition()
        scheduler = maker(partition)
        simulator = run(scheduler, rmw_workload(partition))
        report = replay_serially(scheduler, simulator.committed_specs)
        assert report.ok, f"{name}: {report}"
        # Every commit must be replayed; how many commits a scheduler
        # manages is not this test's subject (the Reed variants thrash
        # on hot RMW counters — see the ablation benchmark).
        assert report.transactions_replayed == scheduler.stats.commits
        assert report.transactions_replayed > 10

    @pytest.mark.parametrize("name,maker", SCHEDULER_MAKERS)
    def test_counter_invariant(self, name, maker):
        """The large-scale lost-update detector: every counter granule
        ends at exactly the sum of committed deltas."""
        partition = build_inventory_partition()
        scheduler = maker(partition)
        simulator = run(scheduler, rmw_workload(partition, granules=2))
        counters = {
            op.granule
            for spec in simulator.committed_specs.values()
            for op in spec.ops
            if op.kind == "m"
        }
        assert counters
        for granule in counters:
            expected, actual = counter_invariant(
                scheduler, simulator.committed_specs, granule
            )
            assert expected == actual, f"{name}: {granule}"

    def test_unsafe_scheduler_fails_the_counter(self):
        """2PL without read locks loses increments — the oracle's teeth."""
        partition = build_inventory_partition()
        failures = 0
        for seed in range(10):
            scheduler = TwoPhaseLocking(read_locks=False)
            workload = rmw_workload(partition, granules=1)
            simulator = Simulator(
                scheduler,
                workload,
                clients=8,
                seed=seed,
                target_commits=150,
                max_steps=200_000,
            )
            simulator.run()
            counters = {
                op.granule
                for spec in simulator.committed_specs.values()
                for op in spec.ops
                if op.kind == "m"
            }
            for granule in counters:
                expected, actual = counter_invariant(
                    scheduler, simulator.committed_specs, granule
                )
                if expected != actual:
                    failures += 1
                    break
        assert failures > 0

    def test_unsafe_scheduler_fails_replay(self):
        """The refined final-writer comparison still catches lost
        updates: every unsafe run either fails replay or is not even
        paper-serializable."""
        partition = build_inventory_partition()
        caught = 0
        for seed in range(10):
            scheduler = TwoPhaseLocking(read_locks=False)
            workload = rmw_workload(partition, granules=1)
            simulator = Simulator(
                scheduler,
                workload,
                clients=8,
                seed=seed,
                target_commits=150,
                max_steps=60_000,
            )
            simulator.run()
            try:
                report = replay_serially(scheduler, simulator.committed_specs)
            except ReproError:
                caught += 1  # no serial order exists at all
                continue
            if not report.ok:
                caught += 1
        assert caught == 10

    def test_never_read_blind_write_is_ordered_by_the_mvsg(self):
        """t10 and then t9 blind-write x, t11 reads t10's 100 and adds
        7.  The paper's TG leaves x^9 (never read) unordered against
        x^10, and with two-digit ids its topological order put t9
        between t10 and t11: a replay of 12 against an actual 107 on a
        serializable schedule.  The MVSG orders x^9 before x^10."""
        scheduler = MultiversionTimestampOrdering()
        for _ in range(8):  # burn ids 1-8 so that "10" sorts before "9"
            scheduler.commit(scheduler.begin())
        t9, t10, t11 = (scheduler.begin() for _ in range(3))
        scheduler.write(t10, "x", 100)
        scheduler.commit(t10)
        scheduler.write(t9, "x", 5)
        scheduler.commit(t9)
        seen = scheduler.read(t11, "x")
        assert seen.value == 100
        scheduler.write(t11, "x", seen.value + 7)
        scheduler.commit(t11)
        assert is_serializable(scheduler.schedule, mode="mvsg")

        def spec(kind, value):
            return TxnSpec("hand", None, False, (Op(kind, "x", value),))

        specs = {
            t9.txn_id: spec("w", 5),
            t10.txn_id: spec("w", 100),
            t11.txn_id: spec("m", 7),
        }
        order = serialization_order(scheduler.schedule)
        assert order.index(9) < order.index(10) < order.index(11)
        report = replay_serially(scheduler, specs)
        assert report.ok, str(report)
        assert report.granules_checked == 1

    def test_verify_wrapper_raises_on_mismatch(self):
        partition = build_inventory_partition()
        scheduler = HDDScheduler(partition)
        simulator = run(scheduler, rmw_workload(partition), commits=50)
        # Sabotage the store to prove the wrapper actually compares.
        granule = next(
            op.granule
            for spec in simulator.committed_specs.values()
            for op in spec.ops
            if op.kind == "m"
        )
        scheduler.store.chain(granule).latest_committed().value = -999
        with pytest.raises(ReproError, match="MISMATCH"):
            verify_serial_equivalence(scheduler, simulator.committed_specs)

    def test_blind_write_invalidates_counter_invariant(self):
        partition = build_inventory_partition()
        scheduler = HDDScheduler(partition)
        workload = Workload(
            partition=partition,
            templates=[
                TransactionTemplate(
                    name="blind",
                    profile="type1_log_event",
                    recipe=(("events", "w"),),
                )
            ],
            granules_per_segment=1,
        )
        simulator = run(scheduler, workload, commits=10)
        granule = next(iter(
            op.granule
            for spec in simulator.committed_specs.values()
            for op in spec.ops
        ))
        with pytest.raises(ReproError, match="blind-written"):
            counter_invariant(scheduler, simulator.committed_specs, granule)
