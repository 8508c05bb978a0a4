"""Open-loop load generator for ``repro serve``.

Closed-loop drivers (the simulator, most toy benchmarks) only issue the
next transaction after the previous one finishes, so the offered load
adapts to the system and latency under overload looks deceptively flat
— the coordinated-omission trap.  This generator is **open-loop**:
transaction *arrivals* follow a fixed schedule that does not care how
the server is doing.  Arrivals that find every lane busy queue up, and
their latency clock starts at *arrival*, not at dispatch, so queueing
delay is part of every percentile (DESIGN.md §14).

Concurrency model: arrivals are assigned round-robin to the pool's
connections, and each connection runs its queue serially — one
transaction in flight per connection, like the simulator's open-loop
mode where ``clients`` caps multiprogramming.  The connection count is
therefore *the* concurrency knob: the serve throughput benchmark sweeps
it to show HDD's gate-free read path holding its efficiency while the
locking/timestamp baselines pay more contention per added connection.

Two arrival modes:

``rate=<txn/s>``
    Paced arrivals: one transaction every ``1/rate`` seconds of wall
    time, drawn from the seeded :class:`~repro.sim.workload.Workload`.
    The CLI's ``repro load`` uses this against a live server.
``rate=None``
    Saturating arrivals: the whole run's transactions arrive at time
    zero.  Equivalent to an arrival rate far above capacity, which is
    the honest way to measure peak throughput *and* keeps the run
    deterministic — no wall-clock timers decide interleaving, so on the
    in-process memory transport the committed schedule is a pure
    function of the seed.  The benchmark uses this mode.

Aborted transactions are retried with the same spec (like the
simulator's restart loop) up to ``max_retries``; every retry is
accounted as a restart, and abort reasons are bucketed through
:func:`repro.obs.metrics.abort_kind` so a load report splits
``rejected read`` from ``deadlock victim`` from ``client gone``.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import abort_kind, percentile
from repro.serve.client import ClientPool, run_transaction
from repro.sim.workload import Workload

#: Queue sentinel: the lane's arrival stream is over.
_DONE = None


@dataclass
class LoadReport:
    """Everything one load run measured."""

    scheduler: str = ""
    connections: int = 0
    offered: int = 0
    commits: int = 0
    #: Transactions that exhausted their retries without committing.
    failures: int = 0
    #: Aborted attempts (each successful retry still counts its aborts).
    restarts: int = 0
    aborts_by_kind: dict[str, int] = field(default_factory=dict)
    #: Per-transaction commit latencies, seconds from *arrival*.
    latencies: list[float] = field(default_factory=list)
    #: Commit latencies of read-only transactions alone (the paper's
    #: protected species).
    ro_latencies: list[float] = field(default_factory=list)
    #: Read-only transactions committed (never restarted under HDD).
    ro_commits: int = 0
    #: Restarted attempts that belonged to read-only transactions.
    ro_restarts: int = 0
    wall_seconds: float = 0.0
    #: Server-side counters captured after the run (stats op).
    server: dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.commits / self.wall_seconds if self.wall_seconds else 0.0

    def latency_summary(self, samples: list[float]) -> dict[str, float]:
        return {
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "p99": percentile(samples, 0.99),
            "max": max(samples) if samples else 0.0,
            "samples": len(samples),
        }

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "connections": self.connections,
            "offered": self.offered,
            "commits": self.commits,
            "failures": self.failures,
            "restarts": self.restarts,
            "ro_commits": self.ro_commits,
            "ro_restarts": self.ro_restarts,
            "aborts_by_kind": dict(self.aborts_by_kind),
            "throughput_txn_per_s": round(self.throughput, 1),
            "wall_seconds": round(self.wall_seconds, 4),
            "latency_s": self.latency_summary(self.latencies),
            "ro_latency_s": self.latency_summary(self.ro_latencies),
            "server": dict(self.server),
        }


class LoadGenerator:
    """Drive one server (or address) with an open-loop workload.

    Parameters
    ----------
    pool:
        The connection stripe; arrivals are assigned round-robin, one
        in flight per connection, so ``len(pool)`` is the
        multiprogramming level.
    workload:
        Seeded transaction mix (specs are drawn up front so the spec
        stream is independent of completion timing).
    transactions:
        Total arrivals for the run.
    seed:
        RNG seed for the spec stream.
    rate:
        Arrivals per second of wall time, or ``None`` for saturating
        arrivals (see module docstring).
    max_retries:
        Restart budget per transaction before counting it failed.
    """

    def __init__(
        self,
        pool: ClientPool,
        workload: Workload,
        transactions: int,
        seed: int = 0,
        rate: Optional[float] = None,
        max_retries: int = 20,
    ) -> None:
        self.pool = pool
        self.workload = workload
        self.transactions = transactions
        self.rate = rate
        self.max_retries = max_retries
        rng = random.Random(seed)
        #: The full arrival sequence, drawn before anything runs.
        self.specs = [
            workload.next_transaction(rng) for _ in range(transactions)
        ]

    async def run(self) -> LoadReport:
        report = LoadReport(
            connections=len(self.pool), offered=self.transactions
        )
        lanes: list[asyncio.Queue] = [
            asyncio.Queue() for _ in range(len(self.pool))
        ]
        started = time.perf_counter()
        workers = [
            asyncio.ensure_future(
                self._lane(self.pool.next(), queue, report)
            )
            for queue in lanes
        ]
        interval = (1.0 / self.rate) if self.rate else 0.0
        for index, spec in enumerate(self.specs):
            if interval:
                due = started + index * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                arrival = due
            else:
                arrival = started
            lanes[index % len(lanes)].put_nowait((spec, arrival))
        for queue in lanes:
            queue.put_nowait(_DONE)
        await asyncio.gather(*workers)
        report.wall_seconds = time.perf_counter() - started
        report.server = await self.pool.next().stats()
        report.scheduler = str(report.server.get("scheduler", ""))
        return report

    async def _lane(self, client, queue: asyncio.Queue, report) -> None:
        """One connection's serial transaction loop."""
        while True:
            item = await queue.get()
            if item is _DONE:
                return
            spec, arrival = item
            await self._one_transaction(client, spec, arrival, report)

    async def _one_transaction(
        self, client, spec, arrival: float, report: LoadReport
    ) -> None:
        for _attempt in range(self.max_retries + 1):
            outcome = await run_transaction(client, spec)
            if outcome["committed"]:
                latency = time.perf_counter() - arrival
                report.commits += 1
                report.latencies.append(latency)
                if spec.read_only:
                    report.ro_commits += 1
                    report.ro_latencies.append(latency)
                return
            report.restarts += 1
            if spec.read_only:
                report.ro_restarts += 1
            kind = abort_kind(outcome["reason"] or "unknown")
            report.aborts_by_kind[kind] = (
                report.aborts_by_kind.get(kind, 0) + 1
            )
        report.failures += 1
