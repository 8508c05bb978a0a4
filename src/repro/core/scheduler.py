"""The monolithic HDD scheduler (paper Sections 4.2 and 5.2).

The access rule — which of Protocols A, B and C serves an access, and
what a transaction may not touch — is stated once, in
:class:`repro.core.protocol.HDDProtocol`.  This module is that core's
*in-process host*: it binds the host surface to one activity tracker,
one time-wall manager, one intra-class engine and one store's version
chains, and adds what only a host can do — commit/abort finalisation,
frozen-prefix marks, wall retirement and garbage collection.

Commits are never blocked and never rejected: every conflict was
resolved at access time.  Aborted transactions have their versions
expunged so walls only ever expose final data.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.activity import ActivityTracker
from repro.core.intraclass import ENGINES, IntraClassEngine
from repro.core.partition import HierarchicalPartition
from repro.core.protocol import HDDProtocol
from repro.core.timewall import TimeWall, TimeWallManager, WallSnapshot
from repro.errors import ReproError
from repro.obs.events import GCPassEvent
from repro.scheduling import BaseScheduler, Outcome, granted
from repro.storage.gc import GCReport, WatermarkGC
from repro.storage.store import MultiVersionStore
from repro.txn.clock import LogicalClock, Timestamp
from repro.txn.transaction import GranuleId, SegmentId, Transaction


class HDDScheduler(BaseScheduler):
    """Hierarchical-database-decomposition concurrency control.

    Parameters
    ----------
    partition:
        A validated :class:`HierarchicalPartition`; profiles passed to
        :meth:`begin` must come from it.
    protocol_b:
        Intra-class engine: ``"mvto"`` (default) or ``"to"``.
    wall_interval:
        Release cadence of the Protocol C time-wall manager, in clock
        ticks.
    snapshot_cache:
        Advance per-chain frozen-prefix marks (the newest released
        wall's components) so wall reads below them take the frozen path:
        hot walls (queried more than once store-wide, per the
        :class:`~repro.storage.chain.WallPopularity` admission gate)
        are served from the permanent snapshot cache, cold walls cost
        one bisection.  On by default; turning it off pins every
        chain's ``frozen_below`` at 0, which the equivalence property
        tests use as the reference engine.
    """

    name = "hdd"

    def __init__(
        self,
        partition: HierarchicalPartition,
        protocol_b: str = "mvto",
        wall_interval: int = 25,
        store: Optional[MultiVersionStore] = None,
        clock: Optional[LogicalClock] = None,
        fresh_walls: bool = False,
        snapshot_cache: bool = True,
    ) -> None:
        #: The access rule and its per-transaction state; this
        #: scheduler is its in-process host.  Built first: the base
        #: constructor already binds ``read``/``write`` through it.
        self.protocol = HDDProtocol(self, fresh_walls=fresh_walls)
        super().__init__(store=store, clock=clock)
        self.partition = partition
        self.tracker = ActivityTracker(partition.index)
        self.walls = TimeWallManager(
            self.tracker, self.clock, interval=wall_interval
        )
        engine_cls = ENGINES.get(protocol_b)
        if engine_cls is None:
            raise ValueError(
                f"unknown protocol_b {protocol_b!r}; choose from "
                f"{sorted(ENGINES)}"
            )
        self.protocol_b: IntraClassEngine = engine_cls(
            self.store, self.schedule, self.stats
        )
        # Host calls (and the base's classification hook) that are
        # existing methods under another name — bound per instance so a
        # subclass override is honoured.
        self.admit = self._require_active
        self.engine_read = self.protocol_b.read
        self.engine_write = self.protocol_b.write
        self.component_read = self._read_below_wall
        self._make_transaction = self.protocol.classify
        self.snapshot_cache = snapshot_cache
        #: Per-segment frozen-prefix marks: the components of the newest
        #: released time wall, lazily pushed into chains at read time.
        #: A released component is permanently settled — the invariant
        #: that lets pinned readers re-read below it forever — so every
        #: version below it is committed and no future install can land
        #: under it (:meth:`VersionChain.advance_frozen` debug-checks
        #: the delta rather than trusting this).  Crucially the marks
        #: cost nothing to maintain: the release already computed the
        #: components, so refreshing is a three-entry dict merge, where
        #: recomputing ``I_old`` per segment walked the activity log and
        #: was itself the biggest cached-path overhead.
        self._frozen_marks: dict[SegmentId, Timestamp] = {}
        #: Static watermark evaluation plan: ``(i, j, hop)`` triples in
        #: dependency order (see :meth:`safe_watermarks`); built once
        #: per partition (a restructure resets it).
        self._wm_plan: Optional[
            list[tuple[SegmentId, SegmentId, SegmentId]]
        ] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, profile=None, read_only=False) -> Transaction:
        txn = super().begin(profile=profile, read_only=read_only)
        self.poll_walls()
        return txn

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def set_sink(self, sink) -> None:
        super().set_sink(sink)
        self.walls.set_sink(self._sink, step_source=self)

    # ------------------------------------------------------------------
    # The protocol core's host surface, bound in-process
    # ------------------------------------------------------------------
    def open_interval(self, txn: Transaction) -> None:
        self.tracker.record_begin(
            txn.class_id, txn.txn_id, txn.initiation_ts
        )

    def wall_read(
        self,
        txn: Transaction,
        granule: GranuleId,
        segment: SegmentId,
        start: SegmentId,
        from_below: bool,
        wall: Optional[Timestamp],
    ) -> tuple[Timestamp, Outcome]:
        if wall is None:
            log = self.tracker
            a_func = log.a_func_from_below if from_below else log.a_func
            wall = a_func(start, segment, txn.initiation_ts)
        return wall, self._read_below_wall(txn, granule, wall, segment)

    def pin_wall(self, txn: Transaction, wall: TimeWall) -> WallSnapshot:
        """Pin ``wall`` in the manager so retirement never drops a wall
        someone is still reading below; readers of the same wall share
        one resolved snapshot."""
        self.walls.pin(wall, txn_id=txn.txn_id)
        return self.walls.snapshot(wall)

    def unpin_wall(self, txn: Transaction, pinned: WallSnapshot) -> None:
        self.walls.unpin(pinned.wall, txn_id=txn.txn_id)

    # The algorithm-specific read and write ARE the core's — properties,
    # so the untraced ``self.read = self._do_read`` shortcut of the base
    # reaches them without a delegating frame.
    _do_read = property(lambda self: self.protocol.read)
    _do_write = property(lambda self: self.protocol.write)

    def _read_below_wall(
        self,
        txn: Transaction,
        granule: GranuleId,
        wall: Timestamp,
        segment: SegmentId,
    ) -> Outcome:
        """Common Protocol A / fictitious-class / Protocol C visibility."""
        chain = self.store.chain(granule)
        if self.snapshot_cache and wall > chain.frozen_below:
            mark = self._frozen_marks.get(segment)
            if mark is not None and mark > chain.frozen_below:
                chain.advance_frozen(mark)
        version = chain.latest_before(wall, committed_only=False)
        if version is None:  # pragma: no cover - bootstrap prevents this
            raise ReproError(f"{granule}: no version below wall {wall}")
        if not version.committed:
            # The wall machinery guarantees versions below walls are
            # settled; hitting this means a protocol bug, not a wait.
            raise ReproError(
                f"unsettled version {granule}^{version.ts} below wall "
                f"{wall} — wall settlement invariant broken"
            )
        txn.record_read(granule)
        self.stats.reads += 1
        self.stats.unregistered_reads += 1
        self.schedule.record_read(txn.txn_id, granule, version.ts)
        return granted(value=version.value, version_ts=version.ts)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------
    def _do_commit(self, txn: Transaction) -> Outcome:
        self._require_active(txn)
        if txn.class_id is not None:
            veto = self.protocol_b.commit_check(txn)
            if veto is not None:
                if veto.aborted:
                    self.cleanup_abort(
                        txn, veto.reason or "commit-time rejection"
                    )
                return veto
        commit_ts = self._finish_commit(txn)
        for granule in txn.write_set:
            self.store.chain(granule).commit_version(
                txn.initiation_ts, commit_ts
            )
        if txn.class_id is not None:
            self.tracker.record_end(txn.class_id, txn.txn_id, commit_ts)
        self.protocol_b.forget(txn.txn_id)
        self.protocol.forget(txn)
        self.poll_walls()
        return granted(version_ts=commit_ts)

    def abort(self, txn: Transaction, reason: str) -> None:
        self._require_active(txn)
        self.cleanup_abort(txn, reason)

    def cleanup_abort(self, txn: Transaction, reason: str) -> None:
        """Expunge versions, close the activity interval, record the abort.

        Called both for voluntary aborts and for Protocol B rejections
        (in the latter case the engine already returned ``aborted`` and
        this finishes the job).
        """
        for granule in txn.write_set:
            chain = self.store.chain(granule)
            if chain.has_version(txn.initiation_ts):
                chain.remove(txn.initiation_ts)
        abort_ts = self._finish_abort(txn, reason)
        if txn.class_id is not None:
            self.tracker.record_end(txn.class_id, txn.txn_id, abort_ts)
        self.protocol_b.forget(txn.txn_id)
        self.protocol.forget(txn)
        self.poll_walls()

    # ------------------------------------------------------------------
    # Time walls and garbage collection
    # ------------------------------------------------------------------
    def poll_walls(self, txn_id: Optional[int] = None) -> Optional[TimeWall]:
        """Drive the Protocol C wall-release loop (``txn_id``, the
        transaction a poll serves, only matters to a host with a wire)."""
        released = self.walls.poll()
        if released is not None:
            self._advance_frozen_marks()
        return released

    def _advance_frozen_marks(self) -> None:
        """Adopt the newest released wall's components as frozen marks.

        Called at wall-release cadence (and from GC).  Every *released*
        wall a Protocol C reader can hold has components at or below the
        newest one's (components are monotone in the wall base time), so
        once a chain's ``frozen_below`` catches up those reads all take
        the frozen path — and the few distinct component values are
        exactly the walls readers share, which is what makes cached
        entries reusable.  Per-transaction Protocol A walls can run
        ahead of the mark; those reads simply scan, as they would
        uncached.
        """
        if not self.snapshot_cache or not self.walls.released:
            return
        marks = self._frozen_marks
        for j, component in self.walls.released[-1].components.items():
            if component > marks.get(j, 0):
                marks[j] = component

    def retire_walls(self) -> int:
        """Retire released walls no present or future reader can be handed.

        A wall is *live* iff it is pinned by an active Protocol C
        transaction, is the newest released wall (the only one a future
        reader can be handed — components are monotone in the wall base
        time), or is ``wall_for(I(t))`` of an active read-only
        transaction that has not pinned yet (walls released from now on
        carry ``RT > I(t)``, so that choice is already fixed).
        Everything else is dropped from the manager; returns the number
        retired (DESIGN.md §8).
        """
        keep: set[Timestamp] = set()
        for txn in self.active_transactions():
            if not txn.is_read_only or txn.txn_id in self.protocol.pinned:
                continue
            candidate = self.walls.wall_for(txn.initiation_ts)
            if candidate is not None:
                keep.add(candidate.release_ts)
        return self.walls.retire(keep)

    def safe_watermarks(self) -> dict[SegmentId, Timestamp]:
        """Per-segment GC watermarks no present or future read can undercut.

        For each segment ``j`` the watermark is the minimum over:

        * ``A_i^j(now)`` for every class ``i`` below ``j`` — by
          monotonicity of ``I_old`` (hence of ``A`` in its time
          argument) this lower-bounds the wall of every future update
          transaction, and active transactions' exact walls are
          included separately;
        * ``A`` *from a fictitious class below* every ``i`` below ``j``
          (i.e. ``A_i^j(I_old_i(now))``) — a future declared-path
          read-only transaction's first hop applies ``I_old`` at its
          bottom class, which can reach back to a long-running
          transaction's initiation, below ``A_i^j(now)``;
        * exact walls of active update transactions and declared-path
          read-only transactions (served from the per-transaction wall
          cache, so repeated GC passes do not recompute them);
        * wall components pinned by active Protocol C transactions, the
          ``wall_for(I(t))`` of active Protocol C transactions that have
          not pinned yet, and the latest released wall (the only wall a
          future Protocol C reader can be handed, components being
          monotone in the wall base time) — retired walls are never
          consulted;
        * ``I_old_j(now)`` — intra-class MVTO readers need versions at
          or below their own initiation timestamps.

        ``A`` evaluations at ``now`` follow a *static* per-``(i, j)``
        plan built once from the (immutable) partition, sharing
        critical-path prefixes: ``A_i^j(now) = I_old_j(A_i^hop(now))``
        where ``hop`` is the pair's last path step, so a deep hierarchy
        costs one ``I_old`` per pair per pass — with no per-pass path
        derivation or recursion.
        """
        now = self.clock.now
        tracker = self.tracker
        a_now: dict[tuple[SegmentId, SegmentId], Timestamp] = {}
        for i, j, hop in self._watermark_plan():
            base = now if hop == i else a_now[(i, hop)]
            a_now[(i, j)] = tracker.i_old(j, base)

        marks: dict[SegmentId, Timestamp] = {}
        for j in self.partition.segments:
            candidates = [tracker.i_old(j, now)]
            for i in self.partition.segments:
                if self.partition.is_higher(j, i):
                    candidates.append(a_now[(i, j)])
                    candidates.append(
                        tracker.a_func_from_below(i, j, now)
                    )
            marks[j] = min(candidates)
        protocol = self.protocol
        for txn in self.active_transactions():
            if txn.class_id is not None:
                cache = protocol.a_walls.setdefault(txn.txn_id, {})
                for j in self.partition.segments:
                    if self.partition.is_higher(j, txn.class_id):
                        wall = cache.get(j)
                        if wall is None:
                            wall = tracker.a_func(
                                txn.class_id, j, txn.initiation_ts
                            )
                            cache[j] = wall
                        marks[j] = min(marks[j], wall)
            elif txn.is_read_only:
                pinned = protocol.pinned.get(txn.txn_id)
                bottom = protocol.ro_bottom.get(txn.txn_id)
                if pinned is not None:
                    for j, wall in pinned.components.items():
                        marks[j] = min(marks[j], wall)
                elif bottom is not None:
                    cache = protocol.a_walls.setdefault(txn.txn_id, {})
                    for j in protocol.ro_segments[txn.txn_id]:
                        wall = cache.get(j)
                        if wall is None:
                            wall = tracker.a_func_from_below(
                                bottom, j, txn.initiation_ts
                            )
                            cache[j] = wall
                        marks[j] = min(marks[j], wall)
                else:
                    # Protocol C transaction that has not pinned a wall
                    # yet: it will be handed wall_for(I(t)) — fixed
                    # already, since future walls have RT > I(t) — or
                    # fall back to the newest wall (clamped below).
                    candidate = self.walls.wall_for(txn.initiation_ts)
                    if candidate is not None:
                        for j, wall in candidate.components.items():
                            marks[j] = min(marks[j], wall)
        if self.walls.released:
            for j, wall in self.walls.released[-1].components.items():
                marks[j] = min(marks[j], wall)
        return marks

    def _watermark_plan(
        self,
    ) -> list[tuple[SegmentId, SegmentId, SegmentId]]:
        """Dependency-ordered ``(i, j, hop)`` triples for the ``A``-at-
        ``now`` sweep in :meth:`safe_watermarks`.

        ``hop`` is the last step of the critical path from ``i`` to
        ``j`` (``i`` itself for one-hop pairs); ordering by path length
        guarantees ``(i, hop)`` is evaluated before ``(i, j)``.  Built
        once per partition — ``RestructuringHDDScheduler.restructure``
        resets it when it swaps the partition.
        """
        if self._wm_plan is None:
            index = self.partition.index
            entries: list[
                tuple[int, SegmentId, SegmentId, SegmentId]
            ] = []
            for j in self.partition.segments:
                for i in self.partition.segments:
                    if self.partition.is_higher(j, i):
                        path = index.critical_path(i, j)
                        assert path is not None  # is_higher guarded it
                        entries.append((len(path), i, j, path[-2]))
            entries.sort(key=lambda entry: entry[0])
            self._wm_plan = [(i, j, hop) for _, i, j, hop in entries]
        return self._wm_plan

    def collect_garbage(self) -> GCReport:
        """Prune versions below :meth:`safe_watermarks`.

        First tries to release a fresh time wall (the latest released
        wall clamps every watermark, so refreshing it is what lets the
        collector make progress on a long-quiet wall schedule), then
        retires dead walls so the watermarks consult live walls only.
        """
        started = time.perf_counter()
        try:
            self.walls.force_release()
        except ReproError:
            pass  # not settled right now; collect under the old clamp
        self._advance_frozen_marks()
        retired = self.retire_walls()
        collector = WatermarkGC(self.store, self.partition.segment_of)
        report = collector.collect(self.safe_watermarks())
        report.walls_retired = retired
        report.duration_s = time.perf_counter() - started
        if self._sink is not None:
            cache = self.store.snapshot_cache_report()
            self._sink.emit(
                GCPassEvent(
                    step=self.current_step,
                    ts=self.clock.now,
                    pruned_versions=report.pruned_versions,
                    walls_retired=retired,
                    duration_ms=round(report.duration_s * 1000.0, 3),
                    cache_hits=cache["hits"],
                    cache_misses=cache["misses"],
                    cache_cold=cache["cold"],
                    cache_entries=cache["entries"],
                )
            )
        return report
