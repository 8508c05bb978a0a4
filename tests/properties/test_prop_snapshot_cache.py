"""Property tests for the frozen-prefix snapshot cache (DESIGN.md §12).

The hot-path read engine memoizes (wall -> version) lookups below each
chain's ``frozen_below`` mark, serves commit-ts-bounded reads from a
secondary index, and shares one resolved ``WallSnapshot`` per wall.
None of that may change a single scheduling decision: on any random
workload the cached run must replay the uncached run byte for byte —
same schedule, same stats, same committed values — with GC interleaved
or not, and through the distributed runtime just the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import HDDScheduler
from repro.dist import DistributedRuntime, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.hierarchies import (
    build_hierarchy_workload,
    chain_partition,
    star_partition,
    tree_partition,
)
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)

PARTITION_MAKERS = [
    build_inventory_partition,
    lambda: chain_partition(4),
    lambda: tree_partition(3, 2),
    lambda: star_partition(2),
]


def run_sim(scheduler, partition, seed, clients, read_only_share,
            gc_interval=None):
    workload = (
        build_inventory_workload(
            partition, granules_per_segment=4,
            read_only_share=read_only_share,
        )
        if partition.segments == ["events", "inventory", "orders"]
        else build_hierarchy_workload(
            partition, granules_per_segment=4,
            read_only_share=read_only_share,
        )
    )
    result = Simulator(
        scheduler,
        workload,
        clients=clients,
        seed=seed,
        target_commits=100,
        max_steps=30_000,
        gc_interval=gc_interval,
        audit=False,
    ).run()
    assert result.commits > 0
    return result


def fingerprint(scheduler, partition):
    """Everything observable about an execution, for byte-identity."""
    return (
        str(scheduler.schedule),
        scheduler.stats,
        {
            granule: scheduler.store.committed_value(granule)
            for granule in scheduler.store.granules()
        },
        [
            (w.base_time, w.release_ts, dict(w.components))
            for w in scheduler.walls.released
        ],
    )


@given(
    partition_maker=st.sampled_from(PARTITION_MAKERS),
    protocol_b=st.sampled_from(["mvto", "to", "mvto-reed"]),
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 10),
    read_only_share=st.sampled_from([0.0, 0.25, 0.5]),
    wall_interval=st.sampled_from([3, 7, 20]),
)
@settings(max_examples=25, deadline=None)
def test_cached_run_byte_identical_to_uncached(
    partition_maker, protocol_b, seed, clients, read_only_share,
    wall_interval,
):
    runs = []
    for snapshot_cache in (False, True):
        partition = partition_maker()
        scheduler = HDDScheduler(
            partition,
            protocol_b=protocol_b,
            wall_interval=wall_interval,
            snapshot_cache=snapshot_cache,
        )
        result = run_sim(
            scheduler, partition, seed, clients, read_only_share
        )
        runs.append((fingerprint(scheduler, partition), result, scheduler))
    (base_fp, base_result, base), (cached_fp, cached_result, cached) = runs
    assert cached_fp == base_fp
    assert cached_result.commits == base_result.commits
    assert cached_result.steps == base_result.steps
    # The uncached run must not be silently exercising the cache.
    assert base.store.snapshot_cache_stats() == (0, 0)
    assert base.store.snapshot_cache_report()["cold"] == 0
    # Admission accounting: every resident entry was paid for by one
    # admitted miss, and a wall only goes hot after being seen cold.
    report = cached.store.snapshot_cache_report()
    assert report["entries"] <= report["misses"]
    assert report["hot_walls"] <= report["tracked_walls"]
    assert report["hits"] >= 0 and report["cold"] >= 0


@given(
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 8),
    gc_interval=st.sampled_from([100, 500]),
)
@settings(max_examples=15, deadline=None)
def test_cache_survives_interleaved_gc(seed, clients, gc_interval):
    """GC prunes at the frozen-mark boundary the cache keys off; with
    both interleaved the cached run still replays the uncached one."""
    runs = []
    for snapshot_cache in (False, True):
        partition = star_partition(2)
        scheduler = HDDScheduler(partition, snapshot_cache=snapshot_cache)
        run_sim(
            scheduler, partition, seed, clients,
            read_only_share=0.25, gc_interval=gc_interval,
        )
        runs.append(fingerprint(scheduler, partition))
    assert runs[0] == runs[1]


@given(
    mode=st.sampled_from(["hdd", "hdd-to"]),
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 8),
)
@settings(max_examples=10, deadline=None)
def test_dist_runtime_matches_uncached_monolith(mode, seed, clients):
    """The distributed runtime reads through the same cached chains; on
    an ideal plan it must still replay the cache-disabled monolithic
    scheduler exactly."""
    protocol_b = "to" if mode == "hdd-to" else "mvto"
    partition = build_inventory_partition()
    mono = HDDScheduler(
        partition, protocol_b=protocol_b, snapshot_cache=False
    )
    mono_result = run_sim(
        mono, partition, seed, clients, read_only_share=0.25
    )

    dist_partition = build_inventory_partition()
    dist = DistributedRuntime(
        dist_partition,
        mode=mode,
        plan=FaultPlan(),
        seed=0,
    )
    dist_result = run_sim(
        dist, dist_partition, seed, clients, read_only_share=0.25
    )
    assert fingerprint(dist, dist_partition) == fingerprint(
        mono, partition
    )
    assert dist_result.commits == mono_result.commits
    assert dist_result.steps == mono_result.steps


@given(
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 8),
)
@settings(max_examples=8, deadline=None)
def test_dist_cache_toggle_byte_identical(seed, clients):
    """Node-side frozen marks come from first-hand activity logs, so
    disabling the cache on every segment node must not move a single
    read: the two distributed runs replay each other exactly."""
    runs = []
    for snapshot_cache in (False, True):
        partition = build_inventory_partition()
        dist = DistributedRuntime(
            partition,
            mode="hdd",
            plan=FaultPlan(),
            seed=0,
            snapshot_cache=snapshot_cache,
        )
        run_sim(dist, partition, seed, clients, read_only_share=0.25)
        runs.append((fingerprint(dist, partition), dist))
    (base_fp, base), (cached_fp, cached) = runs
    assert cached_fp == base_fp
    assert base.store.snapshot_cache_stats() == (0, 0)
    report = cached.store.snapshot_cache_report()
    assert report["entries"] <= report["misses"]
