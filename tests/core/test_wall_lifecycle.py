"""Tests for the bounded time-wall lifecycle (DESIGN.md §8).

Released walls used to accumulate forever; now a wall is live only
while pinned by a Protocol C reader or still servable (the newest wall,
plus ``wall_for(I(t))`` of readers that have not pinned yet), and
everything else can be retired.  These tests cover the pin/unpin/retire
API, the monotonic release counter, the bisected ``wall_for``, and the
scheduler-level retirement driver.
"""

import pytest

from repro.core.activity import ActivityTracker
from repro.core.graph import Digraph, SemiTreeIndex
from repro.core.scheduler import HDDScheduler
from repro.core.timewall import TimeWall, TimeWallManager
from repro.txn.clock import LogicalClock


def fork_setup():
    graph = Digraph(arcs=[("l", "top"), ("r", "top")])
    tracker = ActivityTracker(SemiTreeIndex(graph))
    clock = LogicalClock()
    return tracker, clock


def release_walls(manager, clock, count, spacing=5):
    walls = []
    for _ in range(count):
        clock.advance_to(clock.now + spacing)
        wall = manager.poll()
        assert wall is not None
        walls.append(wall)
    return walls


def churn(scheduler, profile, granule, n):
    for value in range(n):
        t = scheduler.begin(profile=profile)
        scheduler.write(t, granule, value)
        scheduler.commit(t)


class TestFrozenComponents:
    def test_components_are_read_only(self):
        wall = TimeWall("l", 3, 4, {"l": 3, "top": 3})
        with pytest.raises(TypeError):
            wall.components["l"] = 99  # type: ignore[index]
        with pytest.raises((TypeError, AttributeError)):
            wall.components.clear()  # type: ignore[attr-defined]

    def test_components_snapshot_the_input(self):
        source = {"l": 3, "top": 3}
        wall = TimeWall("l", 3, 4, source)
        source["l"] = 99
        assert wall.components["l"] == 3

    def test_component_lookup_still_works(self):
        wall = TimeWall("l", 3, 4, {"l": 3, "top": 7})
        assert wall.component("top") == 7


class TestReleaseCounter:
    def test_total_released_is_monotonic_across_retirement(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=5, start_class="l")
        release_walls(manager, clock, 4)
        assert manager.total_released == 4
        assert len(manager.released) == 4
        retired = manager.retire()
        assert retired == 3
        assert manager.total_retired == 3
        assert len(manager.released) == 1
        assert manager.total_released == 4  # unchanged by retirement
        release_walls(manager, clock, 1)
        assert manager.total_released == 5


class TestWallForBisect:
    def test_matches_linear_scan(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=3, start_class="l")
        walls = release_walls(manager, clock, 6, spacing=4)
        for probe in range(0, clock.now + 3):
            expected = None
            for wall in walls:
                if wall.release_ts < probe:
                    if expected is None or wall.release_ts > expected.release_ts:
                        expected = wall
            assert manager.wall_for(probe) is expected

    def test_correct_after_retirement(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=3, start_class="l")
        walls = release_walls(manager, clock, 5, spacing=4)
        manager.retire(keep=[walls[2].release_ts])
        assert manager.released == [walls[2], walls[4]]
        assert manager.wall_for(walls[2].release_ts + 1) is walls[2]
        assert manager.wall_for(walls[4].release_ts + 1) is walls[4]
        assert manager.wall_for(walls[2].release_ts) is None

    def test_empty_manager(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, start_class="l")
        assert manager.wall_for(100) is None


class TestPinRetire:
    def test_pinned_wall_survives_retirement(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=2, start_class="l")
        walls = release_walls(manager, clock, 5)
        manager.pin(walls[1])
        retired = manager.retire()
        assert walls[1] in manager.released
        assert manager.released[-1] is walls[4]  # newest always kept
        assert retired == 3

    def test_unpin_releases_for_retirement(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=2, start_class="l")
        walls = release_walls(manager, clock, 3)
        manager.pin(walls[0])
        manager.pin(walls[0])  # two readers on the same wall
        manager.unpin(walls[0])
        assert manager.retire() == 1  # walls[1]; walls[0] still pinned
        manager.unpin(walls[0])
        assert manager.retire() == 1  # now walls[0] goes too
        assert manager.released == [walls[2]]

    def test_keep_list_is_honoured(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=2, start_class="l")
        walls = release_walls(manager, clock, 4)
        manager.retire(keep=[walls[1].release_ts])
        assert manager.released == [walls[1], walls[3]]

    def test_newest_never_retired(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, interval=2, start_class="l")
        release_walls(manager, clock, 1)
        assert manager.retire() == 0
        assert len(manager.released) == 1

    def test_retire_on_empty_manager(self):
        tracker, clock = fork_setup()
        manager = TimeWallManager(tracker, clock, start_class="l")
        assert manager.retire() == 0


class TestSchedulerRetirement:
    def test_long_lived_reader_pins_across_gc(self, fork_partition):
        """A Protocol C reader's wall survives retirement + version GC
        and keeps serving the same consistent snapshot."""
        s = HDDScheduler(fork_partition, wall_interval=2)
        churn(s, "w_left", "left:g", 3)
        ro = s.begin(profile="cross", read_only=True)
        first = s.read(ro, "left:g").value
        assert s.walls.pinned_walls() == 1
        churn(s, "w_left", "left:g", 10)  # many newer walls release
        report = s.collect_garbage()
        assert report.walls_retired > 0
        # Pinned wall + newest survive; dead history is gone.
        assert len(s.walls.released) <= 2 + s.walls.pinned_walls()
        assert s.read(ro, "left:g").value == first
        assert s.read(ro, "right:g").granted
        s.commit(ro)
        assert s.walls.pinned_walls() == 0
        s.collect_garbage()
        assert len(s.walls.released) == 1  # only the newest remains

    def test_abort_unpins(self, fork_partition):
        s = HDDScheduler(fork_partition, wall_interval=2)
        churn(s, "w_left", "left:g", 2)
        ro = s.begin(profile="cross", read_only=True)
        s.read(ro, "left:g")
        assert s.walls.pinned_walls() == 1
        s.abort(ro, "test")
        assert s.walls.pinned_walls() == 0

    def test_unpinned_reader_keeps_its_candidate_wall(self, fork_partition):
        """An active Protocol C transaction that has not read yet must
        still be handed wall_for(I(t)) later — retirement keeps it."""
        s = HDDScheduler(fork_partition, wall_interval=2)
        churn(s, "w_left", "left:g", 2)
        ro = s.begin(profile="cross", read_only=True)  # no read yet
        candidate = s.walls.wall_for(ro.initiation_ts)
        assert candidate is not None
        expected = candidate.component("left")
        churn(s, "w_left", "left:g", 8)
        assert s.retire_walls() > 0
        assert candidate in s.walls.released
        # The late first read pins exactly that wall.
        s.read(ro, "left:g")
        assert s.protocol.pinned[ro.txn_id].wall is candidate
        assert s.protocol.pinned[ro.txn_id].component("left") == expected

    def test_watermarks_ignore_retired_walls(self, fork_partition):
        """After retirement the watermark is clamped by live walls only,
        so GC makes progress a full history would have blocked."""
        s = HDDScheduler(fork_partition, wall_interval=2)
        churn(s, "w_left", "left:g", 10)
        stale_clamp = min(
            wall.component("left") for wall in s.walls.released
        )
        s.retire_walls()
        marks = s.safe_watermarks()
        assert marks["left"] > stale_clamp

    def test_forget_is_constant_size(self, fork_partition):
        """The per-transaction wall cache drops in one pop (regression:
        it used to sweep every segment)."""
        s = HDDScheduler(fork_partition, wall_interval=2)
        churn(s, "w_top", "top:g", 1)
        t = s.begin(profile="w_left")
        s.read(t, "top:g")
        assert t.txn_id in s.protocol.a_walls
        s.commit(t)
        assert t.txn_id not in s.protocol.a_walls
