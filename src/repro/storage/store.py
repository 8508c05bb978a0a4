"""The multi-version store: a dictionary of version chains.

One :class:`MultiVersionStore` backs every scheduler in the library.
Granules are created lazily with a bootstrap version (ts 0) so reads
always find something; the paper assumes a populated database and this
removes "missing row" noise from the experiments.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.storage.chain import VersionChain
from repro.storage.version import Version
from repro.txn.clock import Timestamp
from repro.txn.transaction import GranuleId


class MultiVersionStore:
    """Granule id -> :class:`VersionChain`, with lazy bootstrap.

    Parameters
    ----------
    initial_value:
        Value of the bootstrap version for lazily-created granules, or
        a callable ``granule_id -> value``.
    """

    def __init__(
        self,
        initial_value: object | Callable[[GranuleId], object] = 0,
    ) -> None:
        self._chains: dict[GranuleId, VersionChain] = {}
        self._initial_value = initial_value

    def chain(self, granule: GranuleId) -> VersionChain:
        existing = self._chains.get(granule)
        if existing is not None:
            return existing
        if callable(self._initial_value):
            value = self._initial_value(granule)
        else:
            value = self._initial_value
        created = VersionChain(granule, initial_value=value)
        self._chains[granule] = created
        return created

    def seed(self, granule: GranuleId, value: object) -> VersionChain:
        """Explicitly create ``granule`` with a given initial value."""
        if granule in self._chains:
            raise KeyError(f"granule {granule!r} already exists")
        chain = VersionChain(granule, initial_value=value)
        self._chains[granule] = chain
        return chain

    def install(self, version: Version) -> None:
        self.chain(version.granule).install(version)

    def granules(self) -> list[GranuleId]:
        return list(self._chains)

    def __contains__(self, granule: GranuleId) -> bool:
        return granule in self._chains

    def __iter__(self) -> Iterator[VersionChain]:
        return iter(self._chains.values())

    # ------------------------------------------------------------------
    # Whole-store statistics (used by GC and the benchmarks)
    # ------------------------------------------------------------------
    def total_versions(self) -> int:
        return sum(len(chain) for chain in self._chains.values())

    def snapshot_cache_report(self) -> dict[str, int]:
        """All-zero counters of the deleted frozen-prefix snapshot cache.

        Kept only because ``bench/workloads.py::_scheduler_counters``
        still reads it into the ledger's ``storage.cache.*`` lines; the
        benchmark-only re-baseline deletes it together with them.
        """
        return {"hits": 0, "misses": 0, "cold": 0, "entries": 0}

    def committed_value(
        self, granule: GranuleId, before: Optional[Timestamp] = None
    ) -> object:
        """Convenience: the latest committed value, optionally below a wall."""
        chain = self.chain(granule)
        if before is None:
            return chain.latest_committed().value
        version = chain.latest_before(before, committed_only=True)
        if version is None:
            raise KeyError(
                f"{granule!r}: no committed version before {before}"
            )
        return version.value
