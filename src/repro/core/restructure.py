"""Dynamic restructuring of a database decomposition (paper Section 7.1.1).

An *ad-hoc* transaction may demand an access pattern the current
partition forbids — writing several segments, or reading a segment that
is not higher than its root.  The paper's future-work answer is to
restructure the partition on line.  This module implements that scheme
in two parts:

* :func:`plan_restructure` computes the minimal-by-greed merge of
  segments that legalises a requested ``(writes, reads)`` pattern: all
  written segments collapse into one, then read segments that are still
  not higher than the merged root are folded in, then the §7.2.1
  coarsening repairs any remaining semi-tree damage.  The plan reports
  exactly which segments merge, so the operator can see the concurrency
  cost before applying it.

* :meth:`RestructuringHDDScheduler.restructure` applies a plan to a
  *live* scheduler.  The activity logs of merged classes are merged
  (interleaving their records by initiation time — the global clock
  makes that order strict) and in-flight transactions keep running:
  transactions of merged classes simply find themselves in the merged
  class, which only ever *widens* what they may access.  No global
  quiescence is needed; the paper's goal.  The one subtlety is wall
  monotonicity: merged activity logs make ``I_old`` *smaller or equal*
  (more transactions qualify as active), so walls computed after the
  merge are conservative with respect to walls cached before it —
  Protocol A reads stay safe.  Released time walls are discarded; the
  manager re-releases against the new hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.activity import ActivityTracker
from repro.core.analysis import _UnionFind, coarsen_to_tst
from repro.core.graph import Digraph
from repro.core.partition import HierarchicalPartition, TransactionProfile
from repro.core.scheduler import HDDScheduler
from repro.core.timewall import TimeWallManager
from repro.errors import PartitionError, ProtocolViolation
from repro.txn.transaction import SegmentId


@dataclass(frozen=True)
class RestructurePlan:
    """A computed segment merge.

    ``merged_into`` maps every old segment to its new segment id (the
    lexicographically first member of its merge group, so unmerged
    segments keep their names).  ``new_root`` is the segment an ad-hoc
    profile with the requested pattern would write.
    """

    merged_into: dict[SegmentId, SegmentId]
    new_root: SegmentId
    reads: frozenset[SegmentId]

    @property
    def merge_groups(self) -> dict[SegmentId, list[SegmentId]]:
        groups: dict[SegmentId, list[SegmentId]] = {}
        for old, new in sorted(self.merged_into.items()):
            groups.setdefault(new, []).append(old)
        return {k: v for k, v in groups.items() if len(v) > 1}

    @property
    def is_noop(self) -> bool:
        return all(old == new for old, new in self.merged_into.items())


def plan_restructure(
    partition: HierarchicalPartition,
    writes: Iterable[SegmentId],
    reads: Iterable[SegmentId] = (),
) -> RestructurePlan:
    """Plan the merges that make ``(writes, reads)`` a legal profile."""
    write_set = set(writes)
    read_set = set(reads)
    if not write_set:
        raise PartitionError("an ad-hoc update pattern must write somewhere")
    unknown = (write_set | read_set) - set(partition.segments)
    if unknown:
        raise PartitionError(f"unknown segments: {sorted(unknown)}")

    uf = _UnionFind()
    for segment in partition.segments:
        uf.add(segment)
    ordered_writes = sorted(write_set)
    for segment in ordered_writes[1:]:
        uf.union(ordered_writes[0], segment)

    def quotient_with_adhoc() -> Digraph:
        """Current merge quotient plus the ad-hoc profile's arcs."""
        leader = {s: uf.find(s) for s in partition.segments}
        merged = Digraph(nodes=set(leader.values()))
        for u, v in partition.dhg.arcs:
            if leader[u] != leader[v]:
                merged.add_arc(leader[u], leader[v])
        root = leader[ordered_writes[0]]
        for segment in read_set:
            if leader[segment] != root:
                merged.add_arc(root, leader[segment])
        return merged

    # Fold in whatever the §7.2.1 coarsening still needs to merge.
    while True:
        graph = quotient_with_adhoc()
        further = coarsen_to_tst(graph)
        if all(further[node] == node for node in graph.nodes):
            break
        for node, leader in further.items():
            uf.union(node, leader)

    # Canonical names: smallest member of each group.
    groups: dict[SegmentId, list[SegmentId]] = {}
    for segment in partition.segments:
        groups.setdefault(uf.find(segment), []).append(segment)
    canonical = {
        leader: min(members) for leader, members in groups.items()
    }
    merged_into = {
        segment: canonical[uf.find(segment)]
        for segment in partition.segments
    }
    return RestructurePlan(
        merged_into=merged_into,
        new_root=merged_into[ordered_writes[0]],
        reads=frozenset(merged_into[s] for s in read_set),
    )


def restructured_partition(
    partition: HierarchicalPartition,
    plan: RestructurePlan,
    adhoc_profile: Optional[str] = None,
) -> HierarchicalPartition:
    """Build the post-merge partition (optionally adding the ad-hoc profile).

    Granules keep their original ``"<old segment>:<name>"`` ids via an
    explicit alias map from old segment prefixes, so no data moves.
    """
    new_segments = sorted(set(plan.merged_into.values()))
    profiles = []
    for profile in partition.profiles.values():
        writes = {plan.merged_into[s] for s in profile.writes}
        reads = {plan.merged_into[s] for s in profile.reads}
        if profile.is_read_only:
            profiles.append(TransactionProfile.read_only(profile.name, reads))
        else:
            profiles.append(
                TransactionProfile.update(profile.name, writes, reads)
            )
    if adhoc_profile is not None:
        profiles.append(
            TransactionProfile.update(
                adhoc_profile, writes={plan.new_root}, reads=plan.reads
            )
        )
    merged = _SegmentAliasingPartition(
        segments=new_segments,
        profiles=profiles,
        alias=dict(plan.merged_into),
    )
    return merged


class _SegmentAliasingPartition(HierarchicalPartition):
    """A partition whose granule ids may carry pre-merge segment prefixes."""

    def __init__(self, segments, profiles, alias: dict[SegmentId, SegmentId]):
        super().__init__(segments, profiles)
        self._alias = alias

    def segment_of(self, granule):
        prefix, separator, _ = granule.partition(":")
        if separator and prefix in self._alias:
            return self._alias[prefix]
        return super().segment_of(granule)

    def granule(self, segment, name):
        # New granules are created under the *current* segment names.
        if segment in self._alias and self._alias[segment] != segment:
            segment = self._alias[segment]
        return super().granule(segment, name)


def merge_activity_logs(
    tracker: ActivityTracker,
    plan: RestructurePlan,
    new_tracker: ActivityTracker,
) -> None:
    """Replay old per-class activity records into the merged classes.

    Records of classes merging into one are interleaved by initiation
    time; the global clock makes initiation times unique, so the merged
    sequence is strictly increasing as :class:`ClassActivityLog`
    requires.
    """
    buckets: dict[SegmentId, list[tuple[int, int, Optional[int]]]] = {}
    for old_class, log in tracker.logs.items():
        target = plan.merged_into[old_class]
        buckets.setdefault(target, []).extend(log.records())
    for target, records in buckets.items():
        records.sort(key=lambda record: record[1])
        merged_log = new_tracker.logs[target]
        for txn_id, start, end in records:
            merged_log.record_begin(txn_id, start)
            if end is not None:
                merged_log.record_end(txn_id, end)


class RestructuringHDDScheduler(HDDScheduler):
    """An HDD scheduler that accepts ad-hoc patterns by restructuring.

    :meth:`run_adhoc_profile` plans the merge for a requested pattern,
    applies it on line, registers the ad-hoc profile and returns it;
    the caller then runs ordinary transactions under that profile.
    """

    name = "hdd-dynamic"

    #: Clock time of the last applied restructure (0 = never); PSR
    #: audits should pass this as their ``since`` bound.
    restructured_at: int = 0

    def restructure(
        self, plan: RestructurePlan, adhoc_profile: Optional[str] = None
    ) -> None:
        """Apply ``plan`` without quiescing the database.

        In-flight transactions keep their class ids, which are remapped
        through the plan; the protocol core drops their Protocol A wall
        caches, so subsequent reads use walls from the merged
        (conservative) logs, and re-decides declared read-only routes.
        """
        if plan.is_noop and adhoc_profile is None:
            return
        new_partition = restructured_partition(
            self.partition, plan, adhoc_profile
        )
        new_tracker = ActivityTracker(new_partition.index)
        merge_activity_logs(self.tracker, plan, new_tracker)
        self.partition = new_partition
        self.tracker = new_tracker
        self.walls = TimeWallManager(
            new_tracker, self.clock, interval=self.walls.interval
        )
        self.walls.set_sink(self._sink, step_source=self)
        self.protocol.repartitioned(plan.merged_into)
        self._wm_plan = None  # class pairs and hops changed with it
        for txn in self.active_transactions():
            if txn.class_id is not None:
                txn.class_id = plan.merged_into[txn.class_id]
        self.restructured_at = self.clock.now
        self.poll_walls()

    def run_adhoc_profile(
        self,
        name: str,
        writes: Iterable[SegmentId],
        reads: Iterable[SegmentId] = (),
    ) -> str:
        """Legalise and register an ad-hoc update profile; returns its name."""
        if name in self.partition.profiles:
            raise ProtocolViolation(f"profile {name!r} already exists")
        plan = plan_restructure(self.partition, writes, reads)
        self.restructure(plan, adhoc_profile=name)
        return name
