"""Tests for version chains and their visibility queries."""

import pytest

from repro.errors import StorageError
from repro.storage.chain import VersionChain
from repro.storage.version import Version


def chain_with(*ts_values: int, granule: str = "s:g") -> VersionChain:
    chain = VersionChain(granule, initial_value=0)
    for ts in ts_values:
        chain.install(Version(granule, ts, value=ts * 10, writer_id=ts))
    return chain


class TestInstall:
    def test_bootstrap_present(self):
        chain = VersionChain("s:g", initial_value=7)
        assert len(chain) == 1
        assert chain.head().value == 7

    def test_sorted_insert_out_of_order(self):
        chain = chain_with(5, 3, 8)
        assert [v.ts for v in chain] == [0, 3, 5, 8]

    def test_duplicate_ts_rejected(self):
        chain = chain_with(5)
        with pytest.raises(StorageError):
            chain.install(Version("s:g", 5, 1, writer_id=9))

    def test_wrong_granule_rejected(self):
        chain = VersionChain("s:g")
        with pytest.raises(StorageError):
            chain.install(Version("s:other", 5, 1, writer_id=9))

    def test_remove(self):
        chain = chain_with(5, 7)
        removed = chain.remove(5)
        assert removed.ts == 5
        assert [v.ts for v in chain] == [0, 7]
        with pytest.raises(StorageError):
            chain.remove(5)


class TestVisibility:
    def test_latest_before_strict(self):
        chain = chain_with(3, 5)
        for ts in (3, 5):
            chain.commit_version(ts, ts + 100)
        assert chain.latest_before(5).ts == 3  # strict: wall 5 excludes ts 5
        assert chain.latest_before(6).ts == 5
        assert chain.latest_before(1).ts == 0

    def test_latest_before_skips_uncommitted(self):
        chain = chain_with(3, 5)
        chain.commit_version(3, 103)
        assert chain.latest_before(10, committed_only=True).ts == 3
        assert chain.latest_before(10, committed_only=False).ts == 5

    def test_latest_before_none_when_wall_at_zero(self):
        chain = chain_with()
        assert chain.latest_before(0) is None

    def test_latest_at_or_before_inclusive(self):
        chain = chain_with(3, 5)
        assert chain.latest_at_or_before(5).ts == 5
        assert chain.latest_at_or_before(4).ts == 3

    def test_latest_committed(self):
        chain = chain_with(3)
        assert chain.latest_committed().ts == 0
        chain.commit_version(3, 100)
        assert chain.latest_committed().ts == 3

    def test_latest_committed_before_commit_ts(self):
        chain = chain_with(3, 5)
        chain.commit_version(5, 50)   # ts 5 commits FIRST
        chain.commit_version(3, 60)   # older write commits later
        assert chain.latest_committed_before_commit_ts(55).ts == 5
        assert chain.latest_committed_before_commit_ts(61).ts == 3
        assert chain.latest_committed_before_commit_ts(50).ts == 0

    def test_next_after(self):
        chain = chain_with(3, 5)
        assert chain.next_after(0).ts == 3
        assert chain.next_after(3).ts == 5
        assert chain.next_after(5) is None

    def test_version_at(self):
        chain = chain_with(3)
        assert chain.version_at(3).ts == 3
        with pytest.raises(StorageError):
            chain.version_at(4)


class TestPrune:
    def test_prune_keeps_snapshot_base(self):
        chain = chain_with(3, 5, 8)
        for ts in (3, 5, 8):
            chain.commit_version(ts, ts + 100)
        pruned = chain.prune_below(6)
        # Newest committed <= 6 is ts 5; everything older goes.
        assert [v.ts for v in pruned] == [0, 3]
        assert [v.ts for v in chain] == [5, 8]

    def test_prune_never_removes_uncommitted(self):
        chain = chain_with(3, 5)
        chain.commit_version(5, 105)
        pruned = chain.prune_below(10)
        assert [v.ts for v in pruned] == [0]
        assert [v.ts for v in chain] == [3, 5]

    def test_prune_noop_when_nothing_below(self):
        chain = chain_with()
        assert chain.prune_below(5) == []
        assert len(chain) == 1

    def test_prune_at_exact_version_ts_keeps_strict_base(self):
        """A watermark equal to a version's ts: readers at that wall see
        strictly below it, so the version below must survive."""
        chain = chain_with(3, 5, 8)
        for ts in (3, 5, 8):
            chain.commit_version(ts, ts + 100)
        chain.prune_below(5)
        assert [v.ts for v in chain] == [3, 5, 8]
        assert chain.latest_before(5).ts == 3


class TestFrozenPrefix:
    def frozen_chain(self):
        chain = chain_with(3, 5, 8)
        for ts in (3, 5):
            chain.commit_version(ts, ts + 100)
        chain.advance_frozen(6)  # ts 3 and 5 frozen; 8 still open
        return chain

    def test_advance_is_monotone(self):
        chain = self.frozen_chain()
        chain.advance_frozen(4)  # lower mark: ignored
        assert chain.frozen_below == 6
        chain.commit_version(8, 200)
        chain.advance_frozen(9)
        assert chain.frozen_below == 9

    def test_advance_over_uncommitted_version_is_caught(self):
        """The Theorem-1 contract is debug-checked, not trusted: a mark
        that would freeze an uncommitted version trips the assertion."""
        chain = self.frozen_chain()  # ts 8 still uncommitted
        with pytest.raises(AssertionError):
            chain.advance_frozen(9)
        assert chain.frozen_below == 6  # the bad advance did not land

    def test_walls_above_mark_take_the_scan(self):
        chain = self.frozen_chain()
        assert chain.latest_before(7).ts == 5
        # Unfrozen suffix stays live: committing ts 8 changes the answer.
        chain.commit_version(8, 200)
        assert chain.latest_before(9).ts == 8

    def test_frozen_path_ignores_committed_only_flag(self):
        """Below the mark everything is committed (debug-checked by
        ``advance_frozen``), so both flag values get the same answer
        from the one bisection, however often the wall is asked."""
        chain = self.frozen_chain()
        assert chain.latest_before(6, committed_only=False).ts == 5
        assert chain.latest_before(6, committed_only=True).ts == 5
        assert chain.latest_before(6, committed_only=False).ts == 5
        assert chain.latest_before(6) is chain.version_at(5)

    def test_install_below_mark_rejected(self):
        chain = self.frozen_chain()
        with pytest.raises(StorageError):
            chain.install(Version("s:g", 4, value=1, writer_id=4))
        chain.install(Version("s:g", 7, value=1, writer_id=7))  # above: fine

    def test_remove_below_mark_rejected(self):
        chain = self.frozen_chain()
        with pytest.raises(StorageError):
            chain.remove(5)
        assert chain.remove(8).ts == 8  # above the mark: abort path works

    def test_commit_below_mark_rejected(self):
        """``commit_version`` enforces the same frozen guard as
        ``install``/``remove``: a commit landing under the mark would
        silently break the "frozen prefix is final" invariant the
        one-bisection read depends on."""
        chain = chain_with(3, 5)
        chain.commit_version(3, 103)
        chain.advance_frozen(4)  # ts 3 frozen; ts 5 still uncommitted
        with pytest.raises(StorageError):
            chain.commit_version(3, 999)  # below the mark
        chain.commit_version(5, 105)  # above the mark: fine

    def test_abort_commit_race_around_mark(self):
        """A writer straddling the mark: its version sits above, so both
        the commit and the abort path stay legal — but once the mark
        passes the version, both raise instead of mutating history."""
        chain = chain_with(3, 5, 8)
        for ts in (3, 5):
            chain.commit_version(ts, ts + 100)
        chain.advance_frozen(6)
        # Commit race: ts 8 commits while the mark sits below it.
        chain.commit_version(8, 200)
        chain.advance_frozen(9)
        with pytest.raises(StorageError):
            chain.remove(8)  # too late to abort: frozen
        with pytest.raises(StorageError):
            chain.commit_version(5, 777)  # and no re-commit below it

    def test_commit_below_mark_raises_like_install_and_remove(self):
        chain = self.frozen_chain()
        mutations = (
            lambda: chain.install(Version("s:g", 4, value=1, writer_id=4)),
            lambda: chain.remove(5),
            lambda: chain.commit_version(5, 999),
        )
        for mutate in mutations:
            with pytest.raises(StorageError, match="frozen"):
                mutate()

    def test_frozen_answers_match_either_committed_only_flag(self):
        """The frozen branch serves the committed-only answer for both
        flag values; below the mark that is an invariant, not a hope —
        advance_frozen debug-checks it."""
        chain = self.frozen_chain()
        assert chain.latest_before(0, committed_only=False) is None
        for wall in (4, 6):
            relaxed = chain.latest_before(wall, committed_only=False)
            strict = chain.latest_before(wall, committed_only=True)
            assert relaxed is strict


class TestCommitTsIndex:
    def test_remove_drops_committed_entry(self):
        chain = chain_with(3, 5)
        chain.commit_version(5, 50)
        chain.remove(5)
        assert chain.latest_committed_before_commit_ts(60).ts == 0

    def test_remove_with_duplicate_commit_key_drops_right_version(self):
        # commit_ts is unique in real executions, but the index must not
        # corrupt itself if two entries ever share a key.
        chain = chain_with(3, 5)
        chain.commit_version(3, 50)
        chain.commit_version(5, 50)
        chain.remove(5)
        assert chain.latest_committed_before_commit_ts(51).ts == 3

    def test_remove_two_none_commit_ts_versions_pops_the_right_ones(self):
        """Regression: versions committed without a ``commit_ts`` all
        key to 0 in the commit-ts index (colliding with bootstrap); the
        drop walk must cover the whole equal-key run and remove exactly
        the requested version each time."""
        chain = VersionChain("s:g")
        v3 = Version("s:g", 3, value=30, writer_id=3, committed=True)
        v5 = Version("s:g", 5, value=50, writer_id=5, committed=True)
        chain.install(v3)
        chain.install(v5)
        assert chain._commit_ts_index == [0, 0, 0]
        chain.remove(3)
        assert [v.ts for v in chain._commit_order] == [0, 5]
        chain.remove(5)
        assert [v.ts for v in chain._commit_order] == [0]
        # Only bootstrap is left; no dangling popped version answers.
        assert chain.latest_committed_before_commit_ts(100).ts == 0

    def test_remove_after_commit_ts_mutation_still_drops_the_entry(self):
        """If a version's ``commit_ts`` changes after indexing (stale
        stored key), the identity fallback still removes it — the index
        must never serve a popped version."""
        chain = VersionChain("s:g")
        v3 = Version("s:g", 3, value=30, writer_id=3, committed=True)
        chain.install(v3)  # indexed under key 0 (commit_ts is None)
        v3.commit_ts = 70  # stale: the index still holds key 0
        chain.remove(3)
        assert [v.ts for v in chain._commit_order] == [0]
        assert chain.latest_committed_before_commit_ts(100).ts == 0

    def test_recommit_is_idempotent_but_never_reindexes(self):
        chain = chain_with(3)
        first = chain.commit_version(3, 50)
        again = chain.commit_version(3, 50)  # idempotent replay: no-op
        assert again is first
        assert chain._commit_ts_index.count(50) == 1
        with pytest.raises(StorageError):
            chain.commit_version(3, 60)  # changing the commit ts is not

    def test_out_of_order_commits_bisect_correctly(self):
        chain = chain_with(3, 5, 8)
        chain.commit_version(8, 40)
        chain.commit_version(3, 60)
        chain.commit_version(5, 80)
        assert chain.latest_committed_before_commit_ts(41).ts == 8
        assert chain.latest_committed_before_commit_ts(61).ts == 3
        assert chain.latest_committed_before_commit_ts(81).ts == 5
        assert chain.latest_committed_before_commit_ts(40).ts == 0


class TestCommittedCountPrefix:
    def test_counts_match_naive_scan(self):
        chain = chain_with(3, 5, 8, 11)
        for ts in (3, 8):
            chain.commit_version(ts, ts + 100)
        for probe in (0, 2, 3, 5, 8, 12):
            naive = sum(
                1 for v in chain if v.committed and v.ts > probe
            )
            assert chain.committed_count_after(probe) == naive

    def test_prefix_rebuilds_after_mutation(self):
        chain = chain_with(3, 5)
        chain.commit_version(3, 103)
        assert chain.committed_count_after(0) == 1
        chain.commit_version(5, 105)  # mutation: cached prefix is stale
        assert chain.committed_count_after(0) == 2
        chain.remove(5)
        assert chain.committed_count_after(0) == 1
