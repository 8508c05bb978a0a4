"""Garbage collection of old versions (paper Section 7.3, item 3).

The paper defers version maintenance to future work; we implement the
natural watermark collector.  A version of a granule in segment ``D_j``
is reclaimable once no present or future reader can be handed it:

* Protocol A readers see versions below ``A_i^j(I(t))`` walls, which
  only move forward in time;
* Protocol C readers see versions below released time-wall components,
  and only walls released before their initiation;

so the *minimum over every wall any live or future transaction may
use* is a safe watermark: everything strictly older than the newest
committed version below it can never be read again.

:class:`WatermarkGC` is deliberately decoupled from any particular
scheduler — callers feed it a watermark per segment (the HDD scheduler
derives one; baselines can use "oldest active transaction") and it
prunes chains, reporting how much was reclaimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.store import MultiVersionStore
from repro.txn.clock import Timestamp
from repro.txn.transaction import GranuleId, SegmentId


@dataclass
class GCReport:
    """Outcome of one collection pass."""

    pruned_versions: int = 0
    per_granule: dict[GranuleId, int] = field(default_factory=dict)
    #: Time walls retired alongside this pass (HDD scheduler only; the
    #: wall lifecycle and version GC are driven together, DESIGN.md §8).
    walls_retired: int = 0
    #: Wall-clock duration of the whole pass (wall refresh + retirement
    #: + watermark derivation + pruning) — makes the bounded-mode GC
    #: overhead attributable instead of folded into throughput noise.
    duration_s: float = 0.0

    def merge(self, granule: GranuleId, count: int) -> None:
        if count:
            self.pruned_versions += count
            self.per_granule[granule] = (
                self.per_granule.get(granule, 0) + count
            )


class WatermarkGC:
    """Prune versions no visibility rule can reach any more.

    Parameters
    ----------
    store:
        The store to collect.
    segment_of:
        Maps a granule to its segment so per-segment watermarks apply;
        pass ``lambda g: ""`` with a single watermark for flat stores.
    """

    def __init__(
        self,
        store: MultiVersionStore,
        segment_of,
    ) -> None:
        self._store = store
        self._segment_of = segment_of

    def collect(
        self, watermarks: dict[SegmentId, Timestamp]
    ) -> GCReport:
        """Prune each chain below its segment's watermark.

        Chains in segments with no watermark entry are left alone.  The
        newest committed version at or below the watermark is always
        kept (it is the snapshot base for readers at the wall).
        """
        report = GCReport()
        for chain in self._store:
            segment = self._segment_of(chain.granule)
            watermark = watermarks.get(segment)
            if watermark is None:
                continue
            pruned = chain.prune_below(watermark)
            report.merge(chain.granule, len(pruned))
        return report
