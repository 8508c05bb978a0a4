"""Tests for schedule recording and its queries."""

from repro.txn.schedule import Action, Schedule, ScheduleIndex, Step


def sample_schedule() -> Schedule:
    s = Schedule()
    s.record_write(1, "d", 1)
    s.record_read(2, "d", 1)
    s.record_write(2, "d", 2)
    s.record_commit(1)
    s.record_commit(2)
    s.record_write(3, "d", 3)
    s.record_abort(3)
    return s


class TestRecording:
    def test_step_order_preserved(self):
        s = sample_schedule()
        assert [step.action for step in s] == [
            Action.WRITE,
            Action.READ,
            Action.WRITE,
            Action.COMMIT,
            Action.COMMIT,
            Action.WRITE,
            Action.ABORT,
        ]

    def test_len(self):
        assert len(sample_schedule()) == 7

    def test_str_matches_paper_notation(self):
        step = Step(1, Action.WRITE, "d", 3)
        assert str(step) == "<t1,w,d^3>"
        assert str(Step(2, Action.COMMIT)) == "<t2,c>"


class TestQueries:
    def test_committed_and_aborted_sets(self):
        s = sample_schedule()
        assert s.committed_txn_ids() == {1, 2}
        assert s.aborted_txn_ids() == {3}

    def test_version_order_excludes_aborted_writes(self):
        s = sample_schedule()
        assert s.version_order("d") == [1, 2]

    def test_version_order_sorted_even_if_installed_out_of_order(self):
        s = Schedule()
        s.record_write(2, "d", 5)
        s.record_write(1, "d", 3)  # older txn writes later (MVTO)
        s.record_commit(1)
        s.record_commit(2)
        assert s.version_order("d") == [3, 5]

    def test_index_keeps_committed_reads_writers_and_version_orders(self):
        index = ScheduleIndex(sample_schedule().steps)
        assert index.committed == {1, 2}
        assert index.reads == [(2, "d", 1)]
        assert index.writer_of == {("d", 1): 1, ("d", 2): 2}
        assert index.versions == {"d": [1, 2]}

    def test_index_of_a_prefix_sees_only_its_commit_markers(self):
        steps = sample_schedule().steps
        first_commit = next(
            i for i, step in enumerate(steps) if step.action is Action.COMMIT
        )
        index = ScheduleIndex(steps[: first_commit + 1])
        assert len(index.committed) == 1
        assert all(w in index.committed for w in index.writer_of.values())
