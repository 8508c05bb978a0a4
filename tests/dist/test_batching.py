"""The ideal-plan wire: same execution, fewer messages.

An HDD runtime on an ideal plan defers journal gossip into per-link
batches flushed at digest-consumption barriers, governs wall polls, and
drops the (unread) WALL broadcast; every other plan keeps the eager
wire.  The choice is the runtime's, made from the plan.  These tests
pin the whole contract: the coalesced wire must replay the monolithic
scheduler byte for byte, a faulty plan must stay on the eager wire and
stay deterministic, the message count must actually shrink, and a POLL
reply must cost the walls it carries — not every wall ever released.
"""

import pytest

from repro.core.scheduler import HDDScheduler
from repro.dist import Crash, DistributedRuntime, FaultPlan, node_name
from repro.dist.node import SegmentNode
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)

COMMITS = 150


def run_one(make_scheduler, target_commits=COMMITS):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    scheduler = make_scheduler(partition)
    result = Simulator(
        scheduler,
        workload,
        clients=8,
        seed=42,
        target_commits=target_commits,
        max_steps=200_000,
        audit=True,
    ).run()
    return scheduler, result


def dist(partition, mode="hdd", plan=None, seed=0):
    return DistributedRuntime(
        partition,
        mode=mode,
        plan=plan if plan is not None else FaultPlan(),
        seed=seed,
    )


@pytest.mark.parametrize("mode", ["hdd", "hdd-to"])
def test_batched_ideal_run_byte_identical_to_monolithic(mode):
    protocol_b = "to" if mode == "hdd-to" else "mvto"
    mono, mono_result = run_one(
        lambda p: HDDScheduler(p, protocol_b=protocol_b)
    )
    ideal, ideal_result = run_one(lambda p: dist(p, mode=mode))
    assert ideal.batch_gossip
    assert str(ideal.schedule) == str(mono.schedule)
    assert ideal_result.commits == mono_result.commits
    assert ideal_result.steps == mono_result.steps
    assert ideal.stats == mono.stats
    for granule in mono.store.granules():
        assert ideal.store.committed_value(
            granule
        ) == mono.store.committed_value(granule)


def test_batched_walls_match_monolithic_releases():
    mono, _ = run_one(lambda p: HDDScheduler(p))
    ideal, _ = run_one(dist)
    mono_walls = [
        (w.base_time, w.release_ts, dict(w.components))
        for w in mono.walls.released
    ]
    dist_walls = [
        (w.base_time, w.release_ts, dict(w.components))
        for w in ideal.walls.released
    ]
    assert dist_walls == mono_walls


def test_batched_wire_is_smaller_and_governed():
    """The ideal plan's wire against a lossless latency-1 run of the
    same seed — the nearest plan that keeps the eager wire."""
    eager, _ = run_one(lambda p: dist(p, plan=FaultPlan(latency=1)))
    ideal, _ = run_one(dist)
    assert len(ideal.network.log) < len(eager.network.log)
    # The governor actually fired, and the WALL broadcast is gone.
    assert ideal.batch_gossip and ideal._gov_active
    assert ideal.polls_skipped > 0
    assert ideal.network.sent_by_kind.get("WALL", 0) == 0
    # A non-ideal plan — even a lossless one — never coalesces: the
    # governor stays disarmed and walls are still broadcast.
    assert not eager.batch_gossip and not eager._gov_active
    assert eager.polls_skipped == 0
    assert eager.network.sent_by_kind.get("WALL", 0) > 0
    # Fewer POLL round-trips and fewer (coalesced) gossip messages.
    assert ideal.network.sent_by_kind["POLL"] < eager.network.sent_by_kind[
        "POLL"
    ]
    assert ideal.network.sent_by_kind["GOSSIP"] < eager.network.sent_by_kind[
        "GOSSIP"
    ]


class CountingWalls(list):
    """The leader's ``released`` list, counting every wall handed out
    (by iteration, index or slice)."""

    examined = 0

    def __iter__(self):
        for wall in super().__iter__():
            self.examined += 1
            yield wall

    def __getitem__(self, where):
        got = super().__getitem__(where)
        self.examined += len(got) if isinstance(where, slice) else 1
        return got


def test_poll_replies_cost_the_new_walls_only(monkeypatch):
    """A POLL reply costs O(new walls).  Over a run the leader examines
    a few walls per POLL (one bisection) plus each released wall about
    once, and serializes each wall about once — where scanning the
    whole ``released`` list per POLL examined polls x walls of them,
    quadratic in run length.
    """
    serialized = 0
    original = SegmentNode._serialize_wall

    def counting(wall):
        nonlocal serialized
        serialized += 1
        return original(wall)

    monkeypatch.setattr(
        SegmentNode, "_serialize_wall", staticmethod(counting)
    )
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    runtime = dist(partition)
    walls = CountingWalls()
    runtime.nodes[runtime.leader_class].walls.released = walls
    Simulator(runtime, workload, clients=8, seed=42, max_steps=3_000).run()
    released = runtime.walls.total_released
    polls = runtime.network.sent_by_kind["POLL"]
    assert released > 20 and len(walls) == released
    assert serialized <= 2 * released + 8, (serialized, released)
    # log2(released) probes plus a cadence check per POLL, plus every
    # wall once in some reply; the scan examined about polls * released / 2.
    assert walls.examined <= 12 * polls + 2 * released, (
        walls.examined,
        polls,
        released,
    )


def test_poll_reply_is_exactly_the_walls_above_after():
    runtime = DistributedRuntime(
        build_inventory_partition(), wall_interval=2
    )
    leader = runtime.nodes[runtime.leader_class]

    def commit_some():
        for value in range(6):
            txn = runtime.begin(profile="type1_log_event")
            assert runtime.write(txn, "events:e1", value).granted
            assert runtime.commit(txn).granted

    def reply_ts(after):
        walls = leader._handle_poll({"after": after})["walls"]
        return [w["release_ts"] for w in walls]

    commit_some()
    held = [w.release_ts for w in leader.walls.released]
    assert len(held) > 3
    assert [w.release_ts for w in runtime.walls.released] == held
    # Idle leader: these polls release nothing new.
    assert reply_ts(-1) == held
    assert reply_ts(held[-1]) == []
    assert reply_ts(held[1]) == held[2:]
    # A restarted leader starts from a fresh wall manager (numbering
    # and broadcast cursor reset); its replies are still exactly the
    # walls it has released above ``after``.
    leader.on_recover()
    assert leader.walls.released == [] and leader._broadcast_through == 0
    assert reply_ts(held[-1]) == []
    commit_some()
    # (The direct poll above ran on the restarted node's zeroed clock
    # and may have released a wall at or below ``after``: never sent.)
    rebuilt = [
        w.release_ts
        for w in leader.walls.released
        if w.release_ts > held[-1]
    ]
    assert len(rebuilt) > 3
    assert [w.release_ts for w in runtime.walls.released] == held + rebuilt
    assert reply_ts(held[-1]) == rebuilt
    assert reply_ts(rebuilt[0]) == rebuilt[1:]


def faulty_run():
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    plan = FaultPlan(
        latency=1,
        jitter=2,
        drop_rate=0.08,
        spike_rate=0.05,
        spike_ticks=4,
        crashes=(Crash(node_name("inventory"), 200, 230),),
    )
    runtime = dist(partition, plan=plan, seed=9)
    result = Simulator(
        runtime,
        workload,
        clients=8,
        seed=7,
        target_commits=80,
        max_steps=200_000,
        audit=True,
    ).run()
    return runtime, result


def test_batched_faulty_runs_stay_deterministic():
    first, first_result = faulty_run()
    second, second_result = faulty_run()
    assert first.network.log_lines() == second.network.log_lines()
    assert str(first.schedule) == str(second.schedule)
    assert first.stats == second.stats
    assert first_result.steps == second_result.steps
    assert first_result.commits == 80
    # A faulty plan keeps the eager wire and a disarmed governor: a
    # lost POLL response could otherwise wedge it on stale state.
    assert not first.batch_gossip
    assert not first._gov_active
    assert first.polls_skipped == 0
