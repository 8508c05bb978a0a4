"""Version chains: all versions of one granule, ordered by write timestamp.

The chain is kept sorted by ``ts`` (the writer's initiation timestamp),
which is the version order ``<<`` used throughout the library.  Write
timestamps are unique per granule — two transactions never share an
initiation timestamp — so the order is total.

The chain answers the visibility questions the protocols ask:

* Protocol A / C: *latest committed version with ``ts`` strictly below a
  wall* (:meth:`VersionChain.latest_before`);
* MVTO: *latest version at or below my timestamp, committed or not*
  (:meth:`VersionChain.latest_at_or_before`);
* MV2PL read-only snapshots: *latest version committed before a commit-
  time bound* (:meth:`VersionChain.latest_committed_before_commit_ts`);
* single-version engines: *the newest version* (:meth:`VersionChain.head`).

Frozen prefix (DESIGN.md §12): by Theorem 1 every version below the
oldest active initiation of the granule's segment class is final —
never mutated, never joined by a late sibling, always committed.  The
scheduler advances :attr:`VersionChain.frozen_below` to that mark, and
``latest_before`` answers queries at walls at or below it with one
bisection (no committed-flag walk).  The mutators refuse to touch the
frozen prefix, so the shortcut can never return a stale answer.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from repro.errors import StorageError
from repro.storage.version import Version
from repro.txn.clock import Timestamp
from repro.txn.transaction import GranuleId

class VersionChain:
    """Sorted container of the versions of one granule."""

    def __init__(self, granule: GranuleId, initial_value: object = 0) -> None:
        self.granule = granule
        boot = Version.bootstrap(granule, initial_value)
        self._versions: list[Version] = [boot]
        self._ts_index: list[Timestamp] = [boot.ts]
        #: Committed versions in commit-timestamp order, with a parallel
        #: key list for bisection — the MV2PL snapshot rule asks for the
        #: newest ``commit_ts`` below a bound, which the ``ts``-sorted
        #: chain cannot answer without a scan.
        self._commit_order: list[Version] = [boot]
        self._commit_ts_index: list[Timestamp] = [self._commit_key(boot)]
        #: Everything with ``ts`` strictly below this mark is frozen:
        #: committed, final, and outside the reach of every future
        #: install/remove/commit.  Advanced (monotonically) by the
        #: scheduler from the activity logs; 0 means "nothing frozen".
        self.frozen_below: Timestamp = 0
        #: Mutation epoch for the lazily rebuilt committed-count prefix.
        self._mutations = 0
        self._prefix_epoch = -1
        self._committed_prefix: list[int] = []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install(self, version: Version) -> None:
        """Insert a new version, keeping the chain sorted by ``ts``."""
        if version.granule != self.granule:
            raise StorageError(
                f"version for {version.granule!r} installed into chain "
                f"of {self.granule!r}"
            )
        if version.ts < self.frozen_below:
            raise StorageError(
                f"{self.granule}: install at ts {version.ts} below frozen "
                f"mark {self.frozen_below} — frozen prefix is immutable"
            )
        index = self._ts_index
        if version.ts > index[-1]:
            # Writers are admitted in initiation order far more often
            # than not, so the common install is a pure append.
            self._versions.append(version)
            index.append(version.ts)
        else:
            position = bisect.bisect_left(index, version.ts)
            if position < len(index) and index[position] == version.ts:
                raise StorageError(
                    f"{self.granule}: version with ts {version.ts} "
                    "already exists"
                )
            self._versions.insert(position, version)
            index.insert(position, version.ts)
        if version.committed:
            self._index_commit(version)
        self._mutations += 1

    def remove(self, ts: Timestamp) -> Version:
        """Remove and return the version with timestamp ``ts`` (abort path)."""
        if ts < self.frozen_below:
            raise StorageError(
                f"{self.granule}: remove at ts {ts} below frozen mark "
                f"{self.frozen_below} — frozen prefix is immutable"
            )
        position = self._find(ts)
        if position is None:
            raise StorageError(f"{self.granule}: no version with ts {ts}")
        self._ts_index.pop(position)
        version = self._versions.pop(position)
        if version.committed:
            self._drop_commit(version)
        self._mutations += 1
        return version

    def commit_version(self, ts: Timestamp, commit_ts: Timestamp) -> Version:
        """Mark the version written at ``ts`` committed at ``commit_ts``."""
        if ts < self.frozen_below:
            raise StorageError(
                f"{self.granule}: commit at ts {ts} below frozen mark "
                f"{self.frozen_below} — frozen prefix is immutable"
            )
        version = self.version_at(ts)
        if version.committed:
            # Re-committing would duplicate the commit-ts index entry
            # (and, if commit_ts changed, strand the old one under a
            # stale key) — the idempotent path is a no-op.
            if version.commit_ts != commit_ts:
                raise StorageError(
                    f"{self.granule}: version at ts {ts} already "
                    f"committed at {version.commit_ts}, refusing "
                    f"re-commit at {commit_ts}"
                )
            return version
        version.committed = True
        version.commit_ts = commit_ts
        self._index_commit(version)
        self._mutations += 1
        return version

    def prune_below(self, keep_from_ts: Timestamp) -> list[Version]:
        """Garbage-collect versions no reader at or above ``keep_from_ts``
        can see.

        Readers are handed the newest version *strictly below* their
        wall, so the snapshot base that must survive is
        ``latest_before(keep_from_ts)`` — strict, matching the read
        rule exactly (a watermark equal to a version's timestamp must
        keep the version *below* it).  Everything committed and older
        than that base is pruned and returned.
        """
        base = self._scan_before(keep_from_ts, committed_only=True)
        if base is None:
            return []
        pruned: list[Version] = []
        keep: list[Version] = []
        for version in self._versions:
            if version.committed and version.ts < base.ts:
                pruned.append(version)
            else:
                keep.append(version)
        if pruned:
            self._versions = keep
            self._ts_index = [v.ts for v in keep]
            dead = {id(v) for v in pruned}
            self._commit_order = [
                v for v in self._commit_order if id(v) not in dead
            ]
            self._commit_ts_index = [
                self._commit_key(v) for v in self._commit_order
            ]
            self._mutations += 1
        return pruned

    def advance_frozen(self, mark: Timestamp) -> None:
        """Raise the frozen-prefix mark (monotone; lower marks ignored).

        Soundness is the caller's contract: every version with ``ts``
        below ``mark`` must be committed and no future mutation may
        land below it.  ``I_old`` of the granule's segment class
        satisfies both (writes stay in the writer's root segment and
        carry its initiation timestamp).  In debug builds the committed
        half of the contract is checked on the newly frozen delta —
        each version is inspected exactly once across all advances, so
        the check stays amortised-linear — which is what lets the
        frozen read path answer ``committed_only=False`` queries with
        the committed-only bisection (no uncommitted version can sit
        below the mark).
        """
        if mark <= self.frozen_below:
            return
        if __debug__:
            lo = bisect.bisect_left(self._ts_index, self.frozen_below)
            hi = bisect.bisect_left(self._ts_index, mark)
            for position in range(lo, hi):
                version = self._versions[position]
                assert version.committed, (
                    f"{self.granule}: advance_frozen({mark}) would "
                    f"freeze uncommitted version at ts {version.ts} — "
                    "caller broke the Theorem-1 contract"
                )
        self.frozen_below = mark

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def version_at(self, ts: Timestamp) -> Version:
        position = self._find(ts)
        if position is None:
            raise StorageError(f"{self.granule}: no version with ts {ts}")
        return self._versions[position]

    def has_version(self, ts: Timestamp) -> bool:
        return self._find(ts) is not None

    def latest_before(
        self, wall: Timestamp, committed_only: bool = True
    ) -> Optional[Version]:
        """Newest version with ``ts`` strictly below ``wall``.

        This is the Protocol A / Protocol C visibility rule:
        ``TS(d^0) = max TS(d^v)`` over ``TS(d^v) < wall``.

        Walls at or below :attr:`frozen_below` take the frozen path:
        below the mark every version is committed and final, so the
        ``committed_only`` flag cannot matter — an invariant
        :meth:`advance_frozen` debug-checks instead of trusting — and
        the answer is one bisection (:meth:`_frozen_before`).
        """
        if wall <= self.frozen_below:
            return self._frozen_before(wall)
        return self._scan_before(wall, committed_only)

    def _frozen_before(self, wall: Timestamp) -> Optional[Version]:
        """``latest_before`` under the frozen invariant: one bisection.

        Every version below ``wall <= frozen_below`` is committed, so
        the newest ``ts < wall`` needs no committed-flag walk.
        """
        position = bisect.bisect_left(self._ts_index, wall) - 1
        if position < 0:
            return None
        return self._versions[position]

    def _scan_before(
        self, wall: Timestamp, committed_only: bool
    ) -> Optional[Version]:
        position = bisect.bisect_left(self._ts_index, wall) - 1
        while position >= 0:
            version = self._versions[position]
            if not committed_only or version.committed:
                return version
            position -= 1
        return None

    def latest_at_or_before(
        self, ts: Timestamp, committed_only: bool = False
    ) -> Optional[Version]:
        """Newest version with write timestamp ``<= ts`` (MVTO read rule)."""
        return self.latest_before(ts + 1, committed_only=committed_only)

    def latest_committed_before_commit_ts(
        self, bound: Timestamp
    ) -> Optional[Version]:
        """Newest version with ``commit_ts < bound`` (MV2PL snapshot rule).

        Served from the commit-timestamp index — one bisection instead
        of the full-chain scan the ``ts`` order would force.
        """
        position = bisect.bisect_left(self._commit_ts_index, bound) - 1
        if position < 0:
            return None
        return self._commit_order[position]

    def head(self) -> Version:
        """The newest version regardless of commit state."""
        return self._versions[-1]

    def latest_committed(self) -> Version:
        for version in reversed(self._versions):
            if version.committed:
                return version
        raise StorageError(f"{self.granule}: no committed version")

    def next_after(self, ts: Timestamp) -> Optional[Version]:
        """The immediate successor version of ``ts`` in version order."""
        position = bisect.bisect_right(self._ts_index, ts)
        if position < len(self._versions):
            return self._versions[position]
        return None

    def committed_count_after(self, ts: Timestamp) -> int:
        """How many committed versions are newer than ``ts``.

        This is the *staleness* of a read that returned version ``ts``:
        0 means the read was fresh, k means k committed updates were
        already invisible to it.  Answered from a cumulative
        committed-count prefix, rebuilt lazily when the chain has
        mutated since the last query — runs of queries between
        mutations cost one bisection each instead of a suffix scan.
        """
        if self._prefix_epoch != self._mutations:
            running = 0
            prefix = [0] * (len(self._versions) + 1)
            for index, version in enumerate(self._versions):
                if version.committed:
                    running += 1
                prefix[index + 1] = running
            self._committed_prefix = prefix
            self._prefix_epoch = self._mutations
        position = bisect.bisect_right(self._ts_index, ts)
        prefix = self._committed_prefix
        return prefix[-1] - prefix[position]

    def __iter__(self) -> Iterator[Version]:
        return iter(self._versions)

    def __len__(self) -> int:
        return len(self._versions)

    def _find(self, ts: Timestamp) -> Optional[int]:
        position = bisect.bisect_left(self._ts_index, ts)
        if (
            position < len(self._ts_index)
            and self._ts_index[position] == ts
        ):
            return position
        return None

    @staticmethod
    def _commit_key(version: Version) -> Timestamp:
        """Sort key of ``version`` in the commit-ts index.

        ``commit_ts`` is ``None`` only for bootstrap-style versions
        that predate every real commit, so they key to 0 — explicitly,
        not via ``commit_ts or 0``, which would also coerce a genuine
        commit timestamp of 0 and make the two indistinguishable.
        """
        return 0 if version.commit_ts is None else version.commit_ts

    def _index_commit(self, version: Version) -> None:
        key = self._commit_key(version)
        index = self._commit_ts_index
        if not index or key >= index[-1]:
            # Commits overwhelmingly arrive in commit-timestamp order.
            self._commit_order.append(version)
            index.append(key)
        else:
            position = bisect.bisect_right(index, key)
            self._commit_order.insert(position, version)
            index.insert(position, key)

    def _drop_commit(self, version: Version) -> None:
        """Remove ``version`` from the commit-ts index (abort path).

        The key-directed walk must cover the *whole* run of equal keys
        — several versions may share one (every ``commit_ts=None``
        entry keys to 0) — and must never stop early on an identity
        mismatch, or a removed version would linger in
        :attr:`_commit_order` and be served by
        :meth:`latest_committed_before_commit_ts`.  If the stored key
        went stale (``commit_ts`` mutated after indexing), the identity
        sweep below still guarantees removal.
        """
        key = self._commit_key(version)
        order = self._commit_order
        index = self._commit_ts_index
        position = bisect.bisect_left(index, key)
        while position < len(order) and index[position] == key:
            if order[position] is version:
                order.pop(position)
                index.pop(position)
                return
            position += 1
        for position, entry in enumerate(order):
            if entry is version:
                order.pop(position)
                index.pop(position)
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionChain({self.granule}, {self._versions!r})"
