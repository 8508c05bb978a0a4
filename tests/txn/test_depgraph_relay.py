"""The linear-time audit: closing step, cycle provenance, graph size."""

import pytest

from repro.baselines.timestamp_ordering import TimestampOrdering
from repro.baselines.two_phase_locking import TwoPhaseLocking
from repro.core.scheduler import HDDScheduler
from repro.sim.engine import Simulator
from repro.sim.hierarchies import build_hierarchy_workload, star_partition
from repro.sim.inventory import build_inventory_partition
from repro.txn.depgraph import (
    _relay_graph,
    build_dependency_graph,
    closing_step,
    find_dependency_cycle,
    is_serializable,
)
from repro.txn.schedule import Action, Schedule, ScheduleIndex

EVENT, LEVEL, ORDER = "events:arrival-y", "inventory:item-x", "orders:item-x"


def figure_timing(scheduler, profiles=(None, None, None)):
    """The interleaving of the paper's Figures 3 and 4."""
    t1, t2, t3 = (
        scheduler.begin(profile=p) if p else scheduler.begin()
        for p in profiles
    )
    scheduler.read(t3, EVENT)
    scheduler.write(t1, EVENT, "arrived")
    scheduler.commit(t1)
    scheduler.read(t2, EVENT)
    scheduler.write(t2, LEVEL, 17)
    scheduler.commit(t2)
    scheduler.read(t3, LEVEL)
    scheduler.write(t3, ORDER, "reorder")
    scheduler.commit(t3)
    return scheduler.schedule


def star2_run(steps, audit=False):
    partition = star_partition(2)
    scheduler = HDDScheduler(partition)
    workload = build_hierarchy_workload(
        partition, read_only_share=0.25, granules_per_segment=8
    )
    result = Simulator(
        scheduler,
        workload,
        clients=8,
        seed=7,
        max_steps=steps,
        gc_interval=500,
        audit=audit,
    ).run()
    return scheduler.schedule, result


class TestClosingStep:
    @pytest.mark.parametrize(
        "scheduler",
        [
            lambda: TwoPhaseLocking(read_locks=False),  # Figure 3
            lambda: TimestampOrdering(register_reads=False),  # Figure 4
        ],
    )
    @pytest.mark.parametrize("mode", ["paper", "mvsg"])
    def test_negative_controls_name_the_last_commit(self, scheduler, mode):
        schedule = figure_timing(scheduler())
        last = len(schedule.steps) - 1
        assert schedule.steps[last].action is Action.COMMIT
        assert closing_step(schedule, mode=mode) == last

    def test_serializable_schedule_has_none(self):
        schedule = figure_timing(
            HDDScheduler(build_inventory_partition()),
            ("type1_log_event", "type2_post_inventory", "type3_reorder"),
        )
        assert closing_step(schedule, mode="mvsg") is None

    def test_steps_after_the_closing_commit_do_not_move_it(self):
        schedule = figure_timing(TimestampOrdering(register_reads=False))
        closed_at = len(schedule.steps) - 1
        schedule.record_write(9, ORDER, 9)
        schedule.record_commit(9)
        schedule.record_read(10, ORDER, 9)
        assert closing_step(schedule, mode="mvsg") == closed_at


class TestCycleProvenance:
    def test_relay_path_maps_back_to_one_version_order_arc(self):
        # r1(x0) r2(x0) w1(x5) w2(x6) w3(x7): t3 -> t1 and t3 -> t2 only
        # exist as version-order arcs, t1 <-> t2 closes the cycle.
        s = Schedule()
        s.record_read(1, "x", 0)
        s.record_read(2, "x", 0)
        s.record_write(1, "x", 5)
        s.record_write(2, "x", 6)
        s.record_write(3, "x", 7)
        for txn in (1, 2, 3):
            s.record_commit(txn)
        _, deps = build_dependency_graph(s, mode="mvsg")
        cycle = find_dependency_cycle(s, mode="mvsg")
        assert cycle is not None
        assert {d.later for d in cycle} == {1, 2}
        assert all(d in deps and d.kind == "version-order" for d in cycle)

    def test_own_later_version_is_not_a_cycle(self):
        # An RMW chain: every reader owns the next version.
        s = Schedule()
        for txn in (1, 2, 3):
            s.record_read(txn, "x", txn - 1)
            s.record_write(txn, "x", txn)
            s.record_commit(txn)
        assert is_serializable(s, mode="mvsg")


class TestGraphSize:
    """The audited graph is O(steps): counted, never timed."""

    @pytest.mark.parametrize("steps", [6_000, 60_000])
    def test_relay_nodes_and_arcs_are_linear_in_steps(self, steps):
        schedule, _ = star2_run(steps)
        index = ScheduleIndex(schedule.steps)
        graph = _relay_graph(index, "mvsg")
        relays = graph.node_count() - len(index.committed)
        assert 0 < relays <= len(schedule)
        assert relays + graph.arc_count() <= 3 * len(schedule)

    def test_audited_run_at_60k_steps(self):
        schedule, result = star2_run(60_000, audit=True)
        assert result.commits > 9_000
        assert len(schedule) > 45_000
