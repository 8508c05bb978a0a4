"""Tests for read-only transaction handling (§5): fictitious class and
Protocol C."""

from repro.core.scheduler import HDDScheduler
from repro.scheduling import WAIT_TIMEWALL
from repro.txn.depgraph import is_serializable


class TestFictitiousClassPath:
    """Read segments on one critical path: Protocol-A-style walls from a
    fictitious class below the lowest declared class."""

    def test_read_without_wall_manager(self, chain3_partition):
        s = HDDScheduler(chain3_partition)
        writer = s.begin(profile="w_top")
        s.write(writer, "top:g", 3)
        s.commit(writer)
        ro = s.begin(profile="scan", read_only=True)
        outcome = s.read(ro, "top:g")
        assert outcome.granted and outcome.value == 3
        assert s.stats.read_registrations == 0
        # The fictitious path never consults released time walls.
        assert ro.txn_id not in s.protocol.pinned

    def test_never_blocks(self, chain3_partition):
        s = HDDScheduler(chain3_partition)
        writer = s.begin(profile="w_top")
        s.write(writer, "top:g", 3)  # uncommitted
        ro = s.begin(profile="scan", read_only=True)
        outcome = s.read(ro, "top:g")
        assert outcome.granted and outcome.value == 0

    def test_consistent_cut_across_levels(self, chain3_partition):
        """The reader must not see a bottom effect without its top cause."""
        s = HDDScheduler(chain3_partition)
        # Cause: top write; effect: mid write computed from it.
        t1 = s.begin(profile="w_top")
        s.write(t1, "top:g", 1)
        s.commit(t1)
        t2 = s.begin(profile="w_mid")
        cause = s.read(t2, "top:g").value
        s.write(t2, "mid:h", cause * 10)
        s.commit(t2)
        ro = s.begin(profile="scan", read_only=True)
        top_seen = s.read(ro, "top:g").value
        mid_seen = s.read(ro, "mid:h").value
        # Seeing the effect (10) implies seeing the cause (1).
        if mid_seen == 10:
            assert top_seen == 1
        assert is_serializable(s.schedule)

    def test_commit_of_read_only(self, chain3_partition):
        s = HDDScheduler(chain3_partition)
        ro = s.begin(profile="scan", read_only=True)
        s.read(ro, "top:g")
        assert s.commit(ro).granted
        assert ro.is_committed


class TestProtocolC:
    def test_undeclared_read_only_uses_time_walls(self, fork_partition):
        s = HDDScheduler(fork_partition, wall_interval=1)
        writer = s.begin(profile="w_left")
        s.write(writer, "left:g", 5)
        s.commit(writer)
        ro = s.begin(read_only=True)  # no profile: ad-hoc, Protocol C
        outcome = s.read(ro, "left:g")
        assert outcome.granted
        assert ro.txn_id in s.protocol.pinned

    def test_cross_branch_consistency(self, fork_partition):
        """A Protocol C reader over both branches sees a wall-consistent
        cut and the execution stays serializable."""
        s = HDDScheduler(fork_partition, wall_interval=1)
        for value in range(3):
            wl = s.begin(profile="w_left")
            s.write(wl, "left:g", value)
            s.commit(wl)
            wr = s.begin(profile="w_right")
            s.write(wr, "right:g", value)
            s.commit(wr)
        ro = s.begin(profile="cross", read_only=True)
        left = s.read(ro, "left:g")
        right = s.read(ro, "right:g")
        assert left.granted and right.granted
        s.commit(ro)
        assert is_serializable(s.schedule)

    def test_reads_pin_one_wall(self, fork_partition):
        s = HDDScheduler(fork_partition, wall_interval=1)
        ro = s.begin(profile="cross", read_only=True)
        s.read(ro, "left:g")
        pinned = s.protocol.pinned[ro.txn_id]
        # Generate newer walls.
        for _ in range(5):
            w = s.begin(profile="w_left")
            s.write(w, "left:g", 9)
            s.commit(w)
        s.read(ro, "right:g")
        assert s.protocol.pinned[ro.txn_id] is pinned

    def test_first_wall_releases_at_first_begin(self, fork_partition):
        """The begin-time poll releases a wall immediately on a fresh
        system, so Protocol C readers normally never block."""
        s = HDDScheduler(fork_partition, wall_interval=10_000)
        s.begin(profile="w_left")
        assert len(s.walls.released) == 1

    def test_blocks_until_first_wall(self, fork_partition):
        """Defensive path: if no wall is available and the pending
        attempt cannot settle, the read blocks until it can.

        Unreachable through the public API alone (the first begin always
        releases a wall), so the released list is cleared white-box to
        simulate a scheduler taking over pre-existing activity.
        """
        s = HDDScheduler(fork_partition, wall_interval=10_000)
        blocker = s.begin(profile=f"w_{s.walls.start_class}")
        s.walls.released.clear()  # simulate: no wall survives
        ro = s.begin(profile="cross", read_only=True)
        outcome = s.read(ro, "left:g")
        assert outcome.blocked
        assert outcome.waiting_for == WAIT_TIMEWALL
        s.commit(blocker)  # settles the start class; poll releases
        retry = s.read(ro, "left:g")
        assert retry.granted

    def test_read_registrations_zero_for_protocol_c(self, fork_partition):
        s = HDDScheduler(fork_partition, wall_interval=1)
        ro = s.begin(profile="cross", read_only=True)
        s.read(ro, "left:g")
        s.read(ro, "right:g")
        assert s.stats.read_registrations == 0
        assert s.stats.unregistered_reads == 2


class TestWallReleaseIntegration:
    def test_walls_release_during_traffic(self, fork_partition):
        s = HDDScheduler(fork_partition, wall_interval=2)
        for value in range(10):
            w = s.begin(profile="w_left")
            s.write(w, "left:g", value)
            s.commit(w)
        assert len(s.walls.released) >= 2
        # Components never decrease across releases.
        for older, newer in zip(s.walls.released, s.walls.released[1:]):
            for segment, wall in older.components.items():
                assert newer.components[segment] >= wall
