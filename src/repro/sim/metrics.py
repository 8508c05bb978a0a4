"""Simulation metrics: what Figure 10 and the efficacy sweeps report."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import percentile
from repro.scheduling import SchedulerStats


@dataclass
class SimulationResult:
    """Outcome of one simulator run.

    ``latencies`` are per-committed-transaction durations in engine
    steps, first begin (of the first attempt) to commit — restarts are
    inside the latency, as a user would experience them.
    """

    scheduler_name: str
    steps: int
    commits: int
    restarts: int
    latencies: list[int] = field(default_factory=list)
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    wall_releases: int = 0
    #: Per-read staleness samples (committed versions newer than the one
    #: served), collected when the simulator runs with
    #: ``track_staleness=True``.
    staleness_samples: list[int] = field(default_factory=list)
    #: Open-loop mode: transactions still queued when the run ended.
    #: A growing backlog across rising arrival rates marks saturation.
    backlog: int = 0
    #: Total client-steps spent in the BLOCKED state (waiting on locks,
    #: older writers, or time walls) — the latency breakdown numerator.
    blocked_client_steps: int = 0
    #: Live (non-retired) walls at the end of the run; bounded on a
    #: healthy long run, ``== wall_releases`` when nothing retires.
    retained_walls: int = 0
    #: Store-wide version count at the end of the run.
    retained_versions: int = 0
    #: Cumulative versions pruned by the periodic GC driver.
    gc_pruned_versions: int = 0
    #: Cumulative walls retired by the periodic GC driver.
    gc_walls_retired: int = 0
    #: Largest live-wall count observed at any GC pass.
    peak_retained_walls: int = 0
    #: Largest store-wide version count observed at any GC pass.
    peak_retained_versions: int = 0

    @property
    def blocked_steps_per_commit(self) -> float:
        return self.blocked_client_steps / max(self.commits, 1)

    @property
    def throughput(self) -> float:
        """Committed transactions per engine step."""
        return self.commits / self.steps if self.steps else 0.0

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def p95_latency(self) -> float:
        return percentile(self.latencies, 0.95)

    @property
    def abort_rate(self) -> float:
        """Aborts per committed transaction."""
        return self.stats.aborts / max(self.commits, 1)

    @property
    def mean_staleness(self) -> float:
        if not self.staleness_samples:
            return 0.0
        return sum(self.staleness_samples) / len(self.staleness_samples)

    @property
    def p95_staleness(self) -> float:
        return percentile(self.staleness_samples, 0.95)

    @property
    def fresh_read_fraction(self) -> float:
        """Share of reads that saw the newest committed version."""
        if not self.staleness_samples:
            return 0.0
        fresh = sum(1 for s in self.staleness_samples if s == 0)
        return fresh / len(self.staleness_samples)

    def summary(self) -> dict[str, float]:
        row = {
            "scheduler": self.scheduler_name,
            "commits": self.commits,
            "steps": self.steps,
            "throughput": round(self.throughput, 5),
            "restarts": self.restarts,
            "abort_rate": round(self.abort_rate, 4),
            "mean_latency": round(self.mean_latency, 2),
            "p95_latency": round(self.p95_latency, 2),
            "backlog": self.backlog,
            "blocked_steps_per_commit": round(
                self.blocked_steps_per_commit, 4
            ),
        }
        if self.staleness_samples:
            row["mean_staleness"] = round(self.mean_staleness, 4)
            row["p95_staleness"] = round(self.p95_staleness, 2)
            row["fresh_read_fraction"] = round(self.fresh_read_fraction, 4)
        if self.gc_pruned_versions or self.gc_walls_retired:
            row["retained_walls"] = self.retained_walls
            row["retained_versions"] = self.retained_versions
            row["gc_pruned_versions"] = self.gc_pruned_versions
            row["gc_walls_retired"] = self.gc_walls_retired
        row.update(
            {
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in self.stats.as_row().items()
            }
        )
        return row


def format_table(rows: list[dict[str, object]]) -> str:
    """Render result rows as an aligned text table (benchmark output).

    Columns are the union across all rows (first-appearance order), so
    rows carrying extra metrics — staleness, GC gauges — never vanish
    just because the first row lacks them.
    """
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    seen: set[str] = set()
    for row in rows:
        for column in row:
            if column not in seen:
                seen.add(column)
                columns.append(column)
    widths = {
        column: max(len(str(column)), *(len(str(r.get(column, ""))) for r in rows))
        for column in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    ruler = "  ".join("-" * widths[c] for c in columns)
    lines = [header, ruler]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)
