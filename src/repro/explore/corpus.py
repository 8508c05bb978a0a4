"""The mutation corpus: deliberately broken targets the explorer must
catch (and the real targets it must leave alone).

Each :class:`CorpusEntry` pairs a subtly broken scheduler or runtime
variant with the case template under which the bug is *reachable* — a
wall-wait skip needs Protocol A readers racing writers, an unclamped
digest needs gossip lag, a dropped incarnation fence needs crashes.
The corpus is the explore subsystem's own test oracle: a search stack
that cannot find these within budget is not trustworthy on the real
schedulers, and a search stack that "finds" violations in the genuine
article has a false-positive bug.

The mutants mirror real bug classes in this codebase's history and in
the paper's own anomaly constructions (Figures 3-4):

* ``hdd-skip-wall-wait`` — Protocol A/C reads ignore the time wall and
  serve the newest committed version (the Figure 3 anomaly machine).
* ``to-no-read-ts`` — timestamp ordering without read registration
  (the Figure 4 anomaly machine, available as the paper's own
  ``register_reads=False`` switch).
* ``dist-stale-digest`` — a node pretends its gossip horizon is
  infinite, admitting digest raises real activity never justified.
* ``dist-no-fence`` — the coordinator drops every incarnation fence,
  so transactions survive node restarts that lost their engine state.
* ``dist-skip-barrier`` — the coalesced wire skips the consumption
  barrier before wall-computing reads.
* ``dist-skewed-spans`` — commit op-spans are recorded one tick short,
  breaking the critical-path exactness invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ConfigError
from repro.explore.cases import ExploreCase, build_real_scheduler


@dataclass(frozen=True)
class CorpusEntry:
    """One deliberately broken target plus the case shape that reaches
    its bug and the oracle kinds allowed to report it."""

    name: str
    description: str
    #: Violation kinds that count as "caught" for this mutant.
    expected: tuple[str, ...]
    #: ExploreCase overrides (everything except ``mutant``/``choices``).
    template: Mapping[str, object] = field(default_factory=dict)
    #: ``(case, partition) -> scheduler`` for the broken target.
    factory: Callable = None  # type: ignore[assignment]

    def build(self, case: ExploreCase, partition):
        return self.factory(case, partition)

    def case(self, **overrides) -> ExploreCase:
        merged = {**self.template, **overrides, "mutant": self.name}
        return ExploreCase(**merged)


# ----------------------------------------------------------------------
# Simulator-level mutants
# ----------------------------------------------------------------------
def _hdd_skip_wall_wait(case: ExploreCase, partition):
    from repro.core.scheduler import HDDScheduler
    from repro.scheduling import granted

    class SkipWallWait(HDDScheduler):
        """Protocol A/C visibility without the wall: read the newest
        committed version instead of the one below the wall."""

        def _read_below_wall(self, txn, granule, wall, segment):
            chain = self.store.chain(granule)
            version = chain.latest_before(
                self.clock.now + 1, committed_only=True
            )
            if version is None:
                return super()._read_below_wall(
                    txn, granule, wall, segment
                )
            txn.record_read(granule)
            self.stats.reads += 1
            self.stats.unregistered_reads += 1
            self.schedule.record_read(txn.txn_id, granule, version.ts)
            return granted(value=version.value, version_ts=version.ts)

    return SkipWallWait(partition)


def _to_no_read_ts(case: ExploreCase, partition):
    from repro.baselines import TimestampOrdering

    return TimestampOrdering(register_reads=False)


# ----------------------------------------------------------------------
# Distributed-runtime mutants
# ----------------------------------------------------------------------
def _dist_stale_digest(case: ExploreCase, partition):
    from repro.dist.node import SegmentNode
    from repro.dist.runtime import DistributedRuntime

    class StaleDigestNode(SegmentNode):
        """Pretend the gossip horizon is infinite: every digest query
        runs unclamped and settlement is claimed for activity the node
        has never heard about."""

        def _build_volatile(self):
            super()._build_volatile()
            for digest in self.tracker.digests.values():
                digest._horizon = lambda: 1 << 30

    class StaleDigestRuntime(DistributedRuntime):
        NODE_CLASS = StaleDigestNode

    return build_real_scheduler(
        case, partition, runtime_class=StaleDigestRuntime
    )


def _dist_no_fence(case: ExploreCase, partition):
    from repro.dist.runtime import DistributedRuntime

    class NoFenceRuntime(DistributedRuntime):
        """Drop every incarnation fence: transactions whose in-flight
        engine state died with a node restart are allowed to commit."""

        def _process_incarnations(self):
            self._inc_seen.clear()

        def _wire_fence(self, txn):
            return None

        def _crash_fence(self, txn):
            return None

    return build_real_scheduler(
        case, partition, runtime_class=NoFenceRuntime
    )


def _dist_skip_barrier(case: ExploreCase, partition):
    from repro.dist.runtime import DistributedRuntime

    class SkipBarrierRuntime(DistributedRuntime):
        """The coalesced wire without the consumption barrier before
        wall-computing READ_A calls."""

        def _flush_for_wall_read(self, start, target, from_below):
            return None

    return build_real_scheduler(
        case, partition, runtime_class=SkipBarrierRuntime
    )


def _dist_skewed_spans(case: ExploreCase, partition):
    from repro.dist.runtime import DistributedRuntime

    class SkewedSpanRuntime(DistributedRuntime):
        """Commit op-spans recorded one tick short."""

        def _span_close(self, op, txn_id, start_tick, status=""):
            if op == "commit":
                start_tick += 1
            super()._span_close(op, txn_id, start_tick, status)

    return build_real_scheduler(
        case, partition, runtime_class=SkewedSpanRuntime
    )


_INVENTORY = {"schema": "inventory", "read_only_share": 0.5}

#: High-contention variant: skewed access over few granules per
#: segment, update-heavy.  Interleaving bugs need conflicts to surface;
#: the uniform default mix can run a whole budget without two
#: transactions ever racing on the same granule.
_CONTENDED = {
    "schema": "inventory",
    "read_only_share": 0.3,
    "skew": 0.9,
    "granules_per_segment": 4,
}

#: Near-pathological contention: almost every transaction is an RMW on
#: one of two hot granules per segment.  The fence mutant needs two
#: same-class writers racing across a crash window, which the milder
#: mixes essentially never produce within a CI-sized budget.
_EXTREME = {
    "schema": "inventory",
    "read_only_share": 0.2,
    "skew": 0.95,
    "granules_per_segment": 2,
}

CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="hdd-skip-wall-wait",
        description="Protocol A/C reads ignore the time wall",
        expected=("serializability", "engine-error"),
        template={
            "scheduler": "hdd",
            "workload": _CONTENDED,
            "clients": 8,
            "target_commits": 80,
        },
        factory=_hdd_skip_wall_wait,
    ),
    CorpusEntry(
        name="to-no-read-ts",
        description="timestamp ordering without read registration",
        expected=("serializability",),
        template={
            "scheduler": "to",
            "workload": _CONTENDED,
            "clients": 8,
            "target_commits": 80,
        },
        factory=_to_no_read_ts,
    ),
    CorpusEntry(
        name="dist-stale-digest",
        description="node admits digest raises past its gossip horizon",
        expected=(
            "digest-conservatism",
            "serializability",
            "engine-error",
        ),
        template={
            "scheduler": "hdd",
            "dist": True,
            "workload": _INVENTORY,
            "clients": 6,
            "target_commits": 50,
            "wall_interval": 10,
            "plan": {"latency": 2, "jitter": 2},
        },
        factory=_dist_stale_digest,
    ),
    CorpusEntry(
        name="dist-no-fence",
        description="coordinator drops every incarnation fence",
        expected=("serializability", "engine-error"),
        # The fence anomaly needs a crash window landing while two
        # same-class RMW transactions are in flight on the same granule
        # — an extreme-contention mix and a mid-run crash make that
        # reachable within a small search budget.
        template={
            "scheduler": "hdd",
            "dist": True,
            "workload": _EXTREME,
            "clients": 8,
            "seed": 2,
            "net_seed": 2,
            "target_commits": 80,
            "plan": {
                "latency": 3,
                "jitter": 2,
                "crashes": [["node:inventory", 400, 430]],
            },
        },
        factory=_dist_no_fence,
    ),
    CorpusEntry(
        name="dist-skip-barrier",
        description="coalesced wire skips the consumption barrier",
        expected=(
            "dist-monolith",
            "serializability",
            "digest-conservatism",
            "engine-error",
        ),
        template={
            "scheduler": "hdd",
            "dist": True,
            "workload": _INVENTORY,
            "clients": 6,
            "target_commits": 50,
            "wall_interval": 10,
        },
        factory=_dist_skip_barrier,
    ),
    CorpusEntry(
        name="dist-skewed-spans",
        description="commit op-spans recorded one tick short",
        expected=("critical-path",),
        template={
            "scheduler": "hdd",
            "dist": True,
            "workload": _INVENTORY,
            "clients": 6,
            "target_commits": 40,
            "plan": {"latency": 1},
        },
        factory=_dist_skewed_spans,
    ),
)

_BY_NAME = {entry.name: entry for entry in CORPUS}


def corpus_entry(name: str) -> CorpusEntry:
    entry = _BY_NAME.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown corpus mutant {name!r}; choose from {sorted(_BY_NAME)}"
        )
    return entry


def real_cases() -> list[ExploreCase]:
    """The genuine targets every campaign must leave clean: monolithic
    HDD, dist on a faulty plan (the eager wire), and dist on an ideal
    plan (the coalesced wire)."""
    return [
        ExploreCase(
            scheduler="hdd",
            workload=_INVENTORY,
            clients=8,
            target_commits=80,
        ),
        ExploreCase(
            scheduler="hdd",
            dist=True,
            workload=_INVENTORY,
            clients=6,
            target_commits=50,
            plan={"latency": 1, "jitter": 1},
        ),
        ExploreCase(
            scheduler="hdd",
            dist=True,
            workload=_INVENTORY,
            clients=6,
            target_commits=50,
        ),
    ]
