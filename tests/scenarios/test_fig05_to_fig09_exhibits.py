"""Scenario twins for Figures 5-9: the paper's worked examples, exactly.

Each figure's setup is reproduced with the concrete values the paper
draws, asserting the headline fact the figure illustrates.  (The
machinery behind each exhibit is exercised in depth by the unit and
property tests; these are the one-to-one figure replicas.)
"""

from repro.core.activity import ActivityTracker
from repro.core.graph import Digraph, SemiTreeIndex, is_transitive_semi_tree
from repro.core.partition import HierarchicalPartition, TransactionProfile
from repro.core.relation import topologically_follows
from repro.core.scheduler import HDDScheduler
from repro.core.timewall import TimeWallManager
from repro.txn.clock import LogicalClock
from repro.txn.depgraph import is_serializable


def three_level_tracker():
    graph = Digraph(
        arcs=[("mid", "top"), ("bottom", "mid"), ("bottom", "top")]
    )
    return ActivityTracker(SemiTreeIndex(graph))


class TestFigure5:
    """A transitive semi-tree: a semi-tree plus transitive arcs."""

    def test_exhibit(self):
        graph = Digraph(
            arcs=[
                ("b", "a"),
                ("c", "b"),
                ("c", "a"),  # transitively induced
                ("d", "b"),
            ]
        )
        assert is_transitive_semi_tree(graph)
        index = SemiTreeIndex(graph)
        # The reduction (the underlying semi-tree) has exactly the
        # critical arcs; (c, a) is recognised as induced.
        assert sorted(index.critical_arcs()) == [
            ("b", "a"),
            ("c", "b"),
            ("d", "b"),
        ]
        # ... and exactly one critical path per connected ordered pair.
        assert index.critical_path("c", "a") == ("c", "b", "a")


class TestFigure6:
    """A maps a time to successively older active initiations."""

    def test_exhibit(self):
        tracker = three_level_tracker()
        tracker.record_begin("top", 1, 7)
        tracker.record_begin("mid", 2, 12)
        tracker.record_end("top", 1, 30)
        assert tracker.i_old("mid", 20) == 12
        assert tracker.a_func("bottom", "top", 20) == 7


class TestFigure7:
    """The three cases of t1 => t2."""

    def test_exhibit(self):
        tracker = three_level_tracker()
        tracker.record_begin("top", 1, 4)
        assert topologically_follows("mid", 10, "mid", 5, tracker)
        assert topologically_follows("top", 4, "mid", 10, tracker)
        assert topologically_follows("mid", 10, "top", 3, tracker)
        assert not topologically_follows("mid", 10, "top", 4, tracker)


class TestFigure8:
    """t1 reads one critical path (fictitious class); t2 does not
    (Protocol C)."""

    def partition(self) -> HierarchicalPartition:
        return HierarchicalPartition(
            segments=["top", "left", "right"],
            profiles=[
                TransactionProfile.update("w_top", writes=["top"]),
                TransactionProfile.update(
                    "w_left", writes=["left"], reads=["top", "left"]
                ),
                TransactionProfile.update(
                    "w_right", writes=["right"], reads=["top", "right"]
                ),
                TransactionProfile.read_only("t1", reads=["top", "left"]),
                TransactionProfile.read_only("t2", reads=["left", "right"]),
            ],
        )

    def test_exhibit(self):
        partition = self.partition()
        assert partition.read_only_on_one_critical_path(["top", "left"])
        assert not partition.read_only_on_one_critical_path(["left", "right"])
        scheduler = HDDScheduler(partition, wall_interval=1)
        writer = scheduler.begin(profile="w_left")
        scheduler.write(writer, "left:g", 5)
        scheduler.commit(writer)
        t1 = scheduler.begin(profile="t1", read_only=True)
        assert scheduler.read(t1, "left:g").granted
        assert t1.txn_id not in scheduler.protocol.pinned  # fictitious path
        t2 = scheduler.begin(profile="t2", read_only=True)
        assert scheduler.read(t2, "left:g").granted
        assert t2.txn_id in scheduler.protocol.pinned  # Protocol C
        scheduler.commit(t1)
        scheduler.commit(t2)
        assert scheduler.stats.read_registrations == 0
        assert is_serializable(scheduler.schedule)


class TestFigure9:
    """A released time wall: one component per class, anchored at T_s."""

    def test_exhibit(self):
        graph = Digraph(
            arcs=[("mid", "top"), ("bottom", "mid"), ("bottom", "top")]
        )
        tracker = ActivityTracker(SemiTreeIndex(graph))
        clock = LogicalClock()
        tracker.record_begin("top", 1, 3)
        tracker.record_end("top", 1, 6)
        clock.advance_to(10)
        manager = TimeWallManager(
            tracker, clock, interval=1, start_class="bottom"
        )
        wall = manager.force_release()
        assert wall.components["bottom"] == 10  # E_s^s(m) = m
        assert set(wall.components) == {"top", "mid", "bottom"}
        # Every component is a real time at or below the base.
        for value in wall.components.values():
            assert 0 <= value <= 10
