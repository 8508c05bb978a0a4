"""The seven ledger workloads: how each is set up, timed and checked.

A run is *one* full-size instance of the workload: set up (build
everything, pre-draw inputs, warm up), then one timed region, then the
checks *outside* it.  The sizes below are ISSUE 12's: each timed region
lasts 4-8 s on the 2-core reference box, long enough for what grows with
run length — version chains the distributed runtime never collects, the
schedule and message logs, the quadratic audit — to be part of what is
measured.  ``--seconds`` scales every size by ``seconds / 5``.

Set-up is cheap next to the timed region, so it is done ``SETUPS`` times
(each a complete, independent set-up; the last instance is the one that
runs) and ``setup_s`` is their median.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from loadgen import LoadResult, drive
from tracing import SCHEDULER_OPS, Tracer

from repro.baselines.timestamp_ordering import TimestampOrdering
from repro.core.partition import HierarchicalPartition
from repro.core.scheduler import HDDScheduler
from repro.dist import DistributedRuntime
from repro.serve import ClientPool, ServeClient, TransactionServer
from repro.sim.engine import Simulator
from repro.sim.hierarchies import (
    build_hierarchy_workload,
    chain_partition,
    star_partition,
)
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from repro.sim.metrics import percentile
from repro.txn import depgraph
from repro.txn.schedule import Schedule

#: Connections the serve workloads open.
CONNECTIONS = 2
#: ``--seconds`` at which the sizes are ISSUE 12's.
NOMINAL_SECONDS = 5
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: No size scales below this (smoke runs still commit something).
MIN_SIZE = 50


@dataclass
class Run:
    """What one run measured."""

    wall_s: float
    commits: int
    steps: int
    setup_s: float = 0.0
    #: The process's high-water RSS when the timed region ended — before
    #: the checks, whose own graphs would otherwise be what it measures.
    peak_rss_mb: float = 0.0
    restarts: int = 0
    failures: int = 0
    #: Submission (or due time) -> commit, per committed transaction.
    latencies_ms: list[float] = field(default_factory=list)
    ro_latencies_ms: list[float] = field(default_factory=list)
    update_latencies_ms: list[float] = field(default_factory=list)
    #: The committed schedule, for the checks; its md5 pins it.
    schedule: Optional[Schedule] = None
    schedule_md5: Optional[str] = None
    #: The scheduler's merged ``SchedulerStats`` (simulator runs), for
    #: the twin comparison.
    stats: object = None
    #: Counters read off the program's objects after the timed region
    #: (per-layer metrics that are not spans).
    layer: dict[str, float] = field(default_factory=dict)
    #: Failed checks that needed the live objects (the rest are
    #: :meth:`Workload.check`'s).
    problems: list[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def schedule_md5(schedule: Schedule) -> str:
    return hashlib.md5(str(schedule).encode()).hexdigest()


def median_setup(set_up: Callable[[], object]) -> tuple[float, object]:
    """``set_up()`` ``SETUPS`` times: (median seconds, the last result)."""
    samples = []
    for _ in range(SETUPS):
        built = None  # the previous set-up is garbage before the next
        gc.collect()
        started = time.perf_counter()
        built = set_up()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), built


class Workload:
    """Interface the runner drives; see the module docstring."""

    name: str
    #: Same seed and size => same commits/restarts/schedule, so the
    #: golden pins apply.
    deterministic = True
    #: Client connections the workload opens (the runner refuses to open
    #: more than there are usable cores).
    connections = 0
    #: Sizes at ``NOMINAL_SECONDS``.
    full_sizes: dict[str, int]

    def sizes(self, scale: float) -> dict[str, int]:
        return {
            key: max(int(value * scale), MIN_SIZE)
            for key, value in self.full_sizes.items()
        }

    def run(
        self, seed: int, sizes: dict[str, int], tracer: Optional[Tracer] = None
    ) -> Run:
        """Set up and time one run.

        With a ``tracer`` (its layer wrappers already installed, because
        some must be in place before the program's objects are built)
        the timed region is traced; every wrapper is removed as soon as
        the region ends, so the checks run on the bare program.
        """
        raise NotImplementedError

    def check(self, seed: int, sizes: dict[str, int], run: Run) -> list[str]:
        """The checks of ``run``'s output that need no live objects:
        the full-size schedule, and reduced or twin runs of ``seed``."""
        raise NotImplementedError


def _paper_tg_problem(schedule: Schedule) -> list[str]:
    if depgraph.is_serializable(schedule, mode="paper"):
        return []
    return ["paper-mode dependency graph of the full-size schedule is cyclic"]


# ----------------------------------------------------------------------
# mono_* and dist_mixed: the closed-loop simulator
# ----------------------------------------------------------------------
class SimWorkload(Workload):
    """``Simulator`` + 8 closed-loop clients over a hierarchy workload."""

    CLIENTS = 8
    GC_INTERVAL = 500
    GRANULES = 8

    def __init__(
        self,
        name: str,
        partition: Callable[[], HierarchicalPartition],
        read_only_share: float,
        steps: int,
        dist: bool = False,
    ) -> None:
        self.name = name
        self._partition = partition
        self._read_only_share = read_only_share
        self._dist = dist
        self.full_sizes = {
            "steps": steps,
            "warmup_steps": steps // 20,
            # The quadratic audit of this many steps takes under 3 s.
            "audit_twin_steps": 10_000,
        }

    def build(self, seed: int, steps: int, dist: bool, gc: bool = True):
        partition = self._partition()
        workload = build_hierarchy_workload(
            partition,
            read_only_share=self._read_only_share,
            granules_per_segment=self.GRANULES,
        )
        if dist:
            scheduler = DistributedRuntime(
                partition, mode="hdd", seed=seed, transport="sim"
            )
        else:
            scheduler = HDDScheduler(partition)
        simulator = Simulator(
            scheduler,
            workload,
            clients=self.CLIENTS,
            seed=seed,
            max_steps=steps,
            gc_interval=self.GC_INTERVAL if gc else None,
        )
        return scheduler, simulator

    def run(
        self, seed: int, sizes: dict[str, int], tracer: Optional[Tracer] = None
    ) -> Run:
        def set_up():
            _, warmup = self.build(seed, sizes["warmup_steps"], self._dist)
            warmup.run()
            return self.build(seed, sizes["steps"], self._dist)

        setup_s, (scheduler, simulator) = median_setup(set_up)
        if tracer is not None:
            tracer.install_ops(scheduler, SCHEDULER_OPS)
            tracer.reset()
        started = time.perf_counter()
        result = simulator.run()
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        run = Run(
            wall_s=wall_s,
            commits=result.commits,
            steps=result.steps,
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb(),
            restarts=result.restarts,
            schedule=scheduler.schedule,
            schedule_md5=schedule_md5(scheduler.schedule),
            stats=scheduler.stats,
        )
        # The engine counts latency in steps; a closed-loop client waits
        # that many steps of the measured wall time per step.
        ms_per_step = 1000.0 * wall_s / max(result.steps, 1)
        # committed_specs is filled in commit order, like the latencies.
        for spec, latency in zip(
            simulator.committed_specs.values(), result.latencies
        ):
            latency_ms = latency * ms_per_step
            run.latencies_ms.append(latency_ms)
            if spec.read_only:
                run.ro_latencies_ms.append(latency_ms)
            else:
                run.update_latencies_ms.append(latency_ms)
        run.layer = _scheduler_counters(scheduler)
        run.layer.update(
            {
                "sim.engine.steps": result.steps,
                "sim.engine.blocked_client_steps": result.blocked_client_steps,
                "sim.engine.restarts": result.restarts,
                "storage.gc.pruned_versions": result.gc_pruned_versions,
            }
        )
        return run

    def check(self, seed: int, sizes: dict[str, int], run: Run) -> list[str]:
        problems = _paper_tg_problem(run.schedule)
        scheduler, twin = self.build(
            seed, sizes["audit_twin_steps"], self._dist
        )
        twin.run()
        if not depgraph.is_serializable(scheduler.schedule, mode="mvsg"):
            problems.append("MVSG audit of the reduced twin found a cycle")
        if self._dist:
            # The runtime never collects, so its twin does not either.
            mono, mono_sim = self.build(seed, sizes["steps"], False, gc=False)
            mono_sim.run()
            if schedule_md5(mono.schedule) != run.schedule_md5:
                problems.append("schedule differs from the monolith twin's")
            if mono.stats != run.stats:
                problems.append("stats differ from the monolith twin's")
        return problems


def _scheduler_counters(scheduler) -> dict[str, float]:
    """Per-layer counts held by the scheduler's own objects."""
    cache = scheduler.store.snapshot_cache_report()
    lookups = cache["hits"] + cache["misses"] + cache["cold"]
    counters = {
        "core.timewall.released": scheduler.walls.total_released,
        "core.timewall.retained": len(scheduler.walls.released),
        "storage.cache.hits": cache["hits"],
        "storage.cache.misses": cache["misses"],
        "storage.cache.cold": cache["cold"],
        "storage.cache.entries": cache["entries"],
        "storage.cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "storage.versions_retained": scheduler.store.total_versions(),
        "txn.schedule.steps_recorded": len(scheduler.schedule),
    }
    network = getattr(scheduler, "network", None)
    if network is not None:
        commits = max(scheduler.stats.commits, 1)
        sent = sum(network.sent_by_kind.values())
        counters.update(
            {
                "dist.net.sent_total": sent,
                "dist.net.sent.POLL": network.sent_by_kind.get("POLL", 0),
                "dist.net.sent.GOSSIP": network.sent_by_kind.get("GOSSIP", 0),
                "dist.net.dropped_total": sum(
                    network.dropped_by_kind.values()
                ),
                "dist.net.ticks": network.tick_now,
                "dist.net.log_len": len(network.log),
                "dist.net.sends_per_commit": sent / commits,
            }
        )
    return counters


# ----------------------------------------------------------------------
# serve_*: the asyncio transaction server
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """``TransactionServer(hdd)`` driven over ``CONNECTIONS`` connections.

    ``rate=None``: closed loop on the in-process memory transport —
    deterministic, no kernel sockets.  ``rate=<txn/s>``: open loop over
    TCP loopback, server and generator on one event loop.
    """

    RO_SHARE = 0.6
    SKEW = 1.0
    connections = CONNECTIONS

    def __init__(
        self, name: str, transactions: int, rate: Optional[float]
    ) -> None:
        self.name = name
        self._rate = rate
        self.deterministic = rate is None
        self.full_sizes = {
            "transactions": transactions,
            "warmup_transactions": 500,
            "audit_twin_transactions": 4_000,
        }

    def _specs(self, seed: int, count: int):
        partition = build_inventory_partition()
        workload = build_inventory_workload(
            partition, read_only_share=self.RO_SHARE, skew=self.SKEW
        )
        rng = random.Random(seed)
        return partition, [
            workload.next_transaction(rng) for _ in range(count)
        ]

    def run(
        self, seed: int, sizes: dict[str, int], tracer: Optional[Tracer] = None
    ) -> Run:
        return asyncio.run(self._run(seed, sizes, tracer))

    async def _set_up(self, seed: int, sizes: dict[str, int]):
        warmup = sizes["warmup_transactions"]
        partition, specs = self._specs(seed, warmup + sizes["transactions"])
        server = TransactionServer(HDDScheduler(partition))
        if self._rate is None:
            pool = ClientPool.connect_memory(server, CONNECTIONS)
        else:
            host, port = await server.start_tcp("127.0.0.1", 0)
            pool = await ClientPool.connect_tcp(host, port, CONNECTIONS)
        await drive(pool, specs[:warmup], None)
        return server, pool, specs[warmup:]

    async def _run(self, seed, sizes, tracer) -> Run:
        samples = []
        for attempt in range(SETUPS):
            gc.collect()
            started = time.perf_counter()
            server, pool, specs = await self._set_up(seed, sizes)
            samples.append(time.perf_counter() - started)
            if attempt < SETUPS - 1:
                await pool.close()
                await server.close()
        scheduler = server.scheduler
        before = server.stats_view()
        round_trips: dict[str, list[float]] = {}
        if tracer is None:
            load = await drive(pool, specs, self._rate)
        else:
            tracer.install_ops(scheduler, SCHEDULER_OPS)
            tracer.patch(ServeClient, "submit", _timed_submit(round_trips))
            tracer.reset()
            with tracer.span("serve.loop"):
                load = await drive(pool, specs, self._rate)
            tracer.uninstall()
        peak_rss = peak_rss_mb()
        after = server.stats_view()
        await pool.close()
        await server.close()
        run = Run(
            wall_s=load.wall_s,
            commits=load.commits,
            steps=after["steps"] - before["steps"],
            setup_s=statistics.median(samples),
            peak_rss_mb=peak_rss,
            restarts=load.restarts,
            failures=load.failures,
            latencies_ms=[1000.0 * s for s in load.latencies],
            ro_latencies_ms=[1000.0 * s for s in load.ro_latencies],
            update_latencies_ms=[1000.0 * s for s in load.update_latencies],
            schedule=scheduler.schedule,
            problems=_serve_problems(load, after, scheduler),
        )
        if self.deterministic:
            run.schedule_md5 = schedule_md5(scheduler.schedule)
        run.layer = _scheduler_counters(scheduler)
        run.layer.update(_serve_counters(before, after, load))
        for op, trips in round_trips.items():
            for q, tag in ((0.50, "p50_ms"), (0.95, "p95_ms")):
                run.layer[f"serve.client.{op}.{tag}"] = 1000.0 * percentile(
                    trips, q
                )
        return run

    def check(self, seed: int, sizes: dict[str, int], run: Run) -> list[str]:
        async def twin() -> bool:
            partition, specs = self._specs(
                seed, sizes["audit_twin_transactions"]
            )
            server = TransactionServer(HDDScheduler(partition))
            pool = ClientPool.connect_memory(server, CONNECTIONS)
            await drive(pool, specs, None)
            await pool.close()
            await server.close()
            return server.audit()

        problems = _paper_tg_problem(run.schedule)
        if not asyncio.run(twin()):
            problems.append(
                "server.audit() (MVSG) of the reduced twin found a cycle"
            )
        return problems


def _timed_submit(round_trips: dict[str, list[float]]):
    """``ServeClient.submit`` timed to its response, by op (a round trip
    is a wait, not a span: it overlaps other requests)."""
    submit = ServeClient.submit

    def timed(self, op, **fields):
        started = time.perf_counter()
        future = submit(self, op, **fields)
        future.add_done_callback(
            lambda _f: round_trips.setdefault(op, []).append(
                time.perf_counter() - started
            )
        )
        return future

    return timed


def _serve_problems(load: LoadResult, stats: dict, scheduler) -> list[str]:
    problems = []
    if load.failures:
        problems.append(f"{load.failures} transactions exhausted retries")
    if stats["protocol_errors"]:
        problems.append(f"{stats['protocol_errors']} protocol errors")
    if stats["gate_free_reads"] != scheduler.stats.unregistered_reads:
        problems.append(
            f"gate_free_reads {stats['gate_free_reads']} != "
            f"unregistered_reads {scheduler.stats.unregistered_reads}"
        )
    return problems


def _serve_counters(before: dict, after: dict, load: LoadResult) -> dict:
    counters = {
        f"serve.server.{key}": after[key] - before[key]
        for key in (
            "requests",
            "steps",
            "gate_free_reads",
            "gated_reads",
            "gated_ops",
            "gate_waits",
            "parked_ops",
        )
    }
    reads = counters["serve.server.gate_free_reads"] + counters[
        "serve.server.gated_reads"
    ]
    counters["serve.server.gate_free_share"] = (
        counters["serve.server.gate_free_reads"] / reads if reads else 0.0
    )
    counters["serve.server.max_queue_depth"] = after["max_queue_depth"]
    counters["serve.loadgen.achieved_rate"] = load.commits / load.wall_s
    counters["serve.loadgen.lag_ms_p95"] = 1000.0 * percentile(load.lags, 0.95)
    counters["serve.loadgen.backlog_max"] = load.backlog_max
    return counters


# ----------------------------------------------------------------------
# audit_mixed: the serializability oracle
# ----------------------------------------------------------------------
class AuditWorkload(Workload):
    """Set-up records a ``mono_mixed`` schedule; the timed region is the
    MVSG audit of it (``txn/depgraph.py`` and nothing else)."""

    name = "audit_mixed"

    def __init__(self, source: SimWorkload, steps: int) -> None:
        self._source = source
        self.full_sizes = {"steps": steps}

    def run(
        self, seed: int, sizes: dict[str, int], tracer: Optional[Tracer] = None
    ) -> Run:
        def set_up():
            scheduler, simulator = self._source.build(
                seed, sizes["steps"], dist=False
            )
            simulator.run()
            return scheduler.schedule

        setup_s, schedule = median_setup(set_up)
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        # Looked up on the module, so the traced run times the wrapper.
        verdict = depgraph.is_serializable(schedule, mode="mvsg")
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        run = Run(
            wall_s=wall_s,
            commits=len(schedule.committed_txn_ids()),
            steps=len(schedule),
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb(),
            failures=0 if verdict else 1,
            latencies_ms=[1000.0 * wall_s],
            schedule_md5=schedule_md5(schedule),
            problems=[] if verdict else ["MVSG audit rejected an HDD schedule"],
        )
        run.layer = {"txn.schedule.steps_recorded": len(schedule)}
        if tracer is not None:  # a second build: only the traced run pays
            graph, _ = depgraph.build_dependency_graph(schedule, mode="mvsg")
            run.layer["txn.depgraph.nodes"] = graph.node_count()
            run.layer["txn.depgraph.arcs"] = graph.arc_count()
        return run

    def check(self, seed: int, sizes: dict[str, int], run: Run) -> list[str]:
        """Negative control: the oracle must reject the Figure 4 anomaly
        (timestamp ordering with reads left unstamped)."""
        scheduler = TimestampOrdering(register_reads=False)
        event, level, order = (
            "events:arrival-y",
            "inventory:item-x",
            "orders:item-x",
        )
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        scheduler.read(t3, event)
        scheduler.write(t1, event, "arrived")
        scheduler.commit(t1)
        scheduler.read(t2, event)
        scheduler.write(t2, level, 17)
        scheduler.commit(t2)
        scheduler.read(t3, level)
        scheduler.write(t3, order, "reorder")
        scheduler.commit(t3)
        if depgraph.is_serializable(scheduler.schedule, mode="mvsg"):
            return ["negative control: Figure 4 anomaly schedule accepted"]
        return []


# ----------------------------------------------------------------------
# The registry (names and order are fixed; BENCHMARK.json holds the whys)
# ----------------------------------------------------------------------
def _star2() -> HierarchicalPartition:
    return star_partition(2)


def _chain5() -> HierarchicalPartition:
    return chain_partition(5)


_MONO_MIXED = SimWorkload("mono_mixed", _star2, 0.25, steps=300_000)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _MONO_MIXED,
        SimWorkload("mono_readers", _star2, 0.9, steps=300_000),
        SimWorkload("mono_updates", _chain5, 0.0, steps=300_000),
        SimWorkload("dist_mixed", _star2, 0.25, steps=60_000, dist=True),
        ServeWorkload("serve_saturated", transactions=12_000, rate=None),
        ServeWorkload("serve_paced", transactions=6_000, rate=1_000.0),
        AuditWorkload(_MONO_MIXED, steps=30_000),
    )
}
