"""Tests for simulation metrics."""

from repro.obs.metrics import percentile
from repro.scheduling import SchedulerStats
from repro.sim.metrics import SimulationResult, format_table


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7], 0.95) == 7.0

    def test_median_interpolates(self):
        assert percentile([1, 3], 0.5) == 2.0

    def test_p95(self):
        samples = list(range(1, 101))
        assert abs(percentile(samples, 0.95) - 95.05) < 1e-9

    def test_order_independent(self):
        assert percentile([5, 1, 3], 0.5) == percentile([1, 3, 5], 0.5)

    def test_accepts_floats(self):
        assert percentile([1.5, 2.5], 0.5) == 2.0
        assert percentile([0.25], 0.95) == 0.25

    def test_mixed_int_float(self):
        assert percentile([1, 2.0, 3], 0.5) == 2.0

    def test_input_not_mutated(self):
        samples = [5.0, 1.0, 3.0]
        percentile(samples, 0.5)
        assert samples == [5.0, 1.0, 3.0]


class TestSimulationResult:
    def make(self) -> SimulationResult:
        stats = SchedulerStats()
        stats.commits = 10
        stats.aborts = 2
        stats.read_registrations = 30
        return SimulationResult(
            scheduler_name="x",
            steps=100,
            commits=10,
            restarts=2,
            latencies=[5, 10, 15],
            stats=stats,
        )

    def test_throughput(self):
        assert self.make().throughput == 0.1

    def test_zero_steps(self):
        result = SimulationResult("x", steps=0, commits=0, restarts=0)
        assert result.throughput == 0.0
        assert result.mean_latency == 0.0

    def test_latency_stats(self):
        result = self.make()
        assert result.mean_latency == 10.0
        assert result.p95_latency > 10.0

    def test_abort_rate(self):
        assert self.make().abort_rate == 0.2

    def test_summary_keys(self):
        summary = self.make().summary()
        assert summary["scheduler"] == "x"
        assert summary["read_registrations_per_commit"] == 3.0

    def test_summary_includes_backlog_and_blocking(self):
        """Regression: backlog and blocked_steps_per_commit were tracked
        but silently dropped from the summary row."""
        result = self.make()
        result.backlog = 7
        result.blocked_client_steps = 50
        summary = result.summary()
        assert summary["backlog"] == 7
        assert summary["blocked_steps_per_commit"] == 5.0

    def test_summary_includes_staleness_when_tracked(self):
        result = self.make()
        assert "mean_staleness" not in result.summary()
        result.staleness_samples = [0, 0, 2]
        summary = result.summary()
        assert summary["mean_staleness"] == round(2 / 3, 4)
        assert summary["fresh_read_fraction"] == round(2 / 3, 4)
        assert "p95_staleness" in summary

    def test_summary_includes_gc_gauges_when_gc_ran(self):
        result = self.make()
        assert "retained_walls" not in result.summary()
        result.gc_pruned_versions = 40
        result.gc_walls_retired = 9
        result.retained_walls = 2
        result.retained_versions = 31
        summary = result.summary()
        assert summary["retained_walls"] == 2
        assert summary["retained_versions"] == 31
        assert summary["gc_pruned_versions"] == 40
        assert summary["gc_walls_retired"] == 9


class TestFormatTable:
    def test_alignment(self):
        rows = [
            {"name": "hdd", "value": 1},
            {"name": "two-phase", "value": 22},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_column_union_across_rows(self):
        """Regression: columns were keyed off rows[0] only, so metrics
        present in later rows (staleness, GC gauges) vanished."""
        rows = [
            {"name": "a", "value": 1},
            {"name": "b", "value": 2, "extra": 9},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert "extra" in lines[0]
        assert lines[-1].rstrip().endswith("9")
        assert all(len(line) == len(lines[0]) for line in lines[1:])
