"""Property tests for the Theorem-1 frozen prefix (DESIGN.md §12).

Below each chain's ``frozen_below`` mark every version is committed and
final, so ``latest_before`` answers those walls with one bisection
instead of the committed-flag scan.  On any random workload — GC
interleaved or not — that bisection must agree with the scan for both
``committed_only`` values at every wall at or below the mark, and the
distributed runtime, whose nodes advance their own marks, must still
replay the monolith byte for byte.
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


def check_frozen_prefix(store):
    """Assert the one-bisection answer equals the scan at every wall at
    or below each chain's mark; return how many chains are frozen.

    Answers only change at a version's ``ts`` and ``ts + 1``, so those
    walls (plus 0 and the mark itself) cover every distinct answer.
    """
    frozen = 0
    for chain in store:
        mark = chain.frozen_below
        if mark:
            frozen += 1
        walls = {0, mark}
        for version in chain:
            walls.update(w for w in (version.ts, version.ts + 1) if w <= mark)
        for wall in walls:
            answer = chain._frozen_before(wall)
            assert answer is chain._scan_before(wall, committed_only=True)
            assert answer is chain._scan_before(wall, committed_only=False)
            assert answer is chain.latest_before(wall, committed_only=False)
    return frozen


@given(
    partition_maker=st.sampled_from(PARTITION_MAKERS),
    protocol_b=st.sampled_from(["mvto", "to", "mvto-reed"]),
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 10),
    read_only_share=st.sampled_from([0.0, 0.25, 0.5]),
    wall_interval=st.sampled_from([3, 7, 20]),
    gc_interval=st.sampled_from([None, 100, 500]),
)
@settings(max_examples=30, deadline=None)
def test_frozen_bisection_matches_scan(
    partition_maker, protocol_b, seed, clients, read_only_share,
    wall_interval, gc_interval,
):
    partition = partition_maker()
    scheduler = HDDScheduler(
        partition, protocol_b=protocol_b, wall_interval=wall_interval
    )
    collect = scheduler.collect_garbage

    def checked_collect():
        check_frozen_prefix(scheduler.store)
        report = collect()
        check_frozen_prefix(scheduler.store)
        return report

    scheduler.collect_garbage = checked_collect
    run_sim(
        scheduler, partition, seed, clients, read_only_share,
        gc_interval=gc_interval,
    )
    assert check_frozen_prefix(scheduler.store) > 0


@given(
    mode=st.sampled_from(["hdd", "hdd-to"]),
    seed=st.integers(0, 10_000),
    clients=st.integers(2, 8),
)
@settings(max_examples=10, deadline=None)
def test_dist_runtime_matches_monolith(mode, seed, clients):
    """Segment nodes advance their frozen marks from first-hand
    activity logs, the monolith from released walls; on an ideal plan
    the distributed runtime must still replay the monolithic scheduler
    exactly."""
    protocol_b = "to" if mode == "hdd-to" else "mvto"
    partition = build_inventory_partition()
    mono = HDDScheduler(partition, protocol_b=protocol_b)
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

