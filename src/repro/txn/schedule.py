"""Multi-version schedules, exactly as defined in Section 2 of the paper.

A *schedule* is a sequence of steps ``<transaction id, action, d^v>``
where the action is read or write and ``d^v`` names a version of a data
granule.  Every scheduler in this library appends to a
:class:`Schedule` as it grants operations, so that the serializability
oracle (:mod:`repro.txn.depgraph`) can audit any execution after the
fact.

Commit and abort markers are recorded too.  They are not steps in the
paper's sense, but the oracle needs them to restrict the dependency
graph to committed transactions.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.txn.clock import BOOTSTRAP_TXN_ID, Timestamp
from repro.txn.transaction import GranuleId


class Action(enum.Enum):
    """Step actions.  READ/WRITE are the paper's ``r``/``w``."""

    READ = "r"
    WRITE = "w"
    COMMIT = "c"
    ABORT = "a"


@dataclass(frozen=True)
class Step:
    """One schedule step ``<txn, action, d^v>``.

    ``version_ts`` is the write timestamp of the version read or
    created; it is ``None`` for commit/abort markers.
    """

    txn_id: int
    action: Action
    granule: Optional[GranuleId] = None
    version_ts: Optional[Timestamp] = None

    def __str__(self) -> str:
        if self.action in (Action.COMMIT, Action.ABORT):
            return f"<t{self.txn_id},{self.action.value}>"
        return (
            f"<t{self.txn_id},{self.action.value},"
            f"{self.granule}^{self.version_ts}>"
        )


class ScheduleIndex:
    """Everything the oracle asks of a schedule, from one pass over it.

    ``committed`` holds the ids with a commit marker; ``writer_of`` maps
    ``(granule, version_ts)`` to its committed (or bootstrap) writer;
    ``versions`` is every written granule's committed version order
    ``<<`` (ascending write timestamps); ``reads`` lists the committed
    (and bootstrap) transactions' reads ``(reader, granule, version_ts)``
    in schedule order.  Pass a slice of ``Schedule.steps`` to index a
    prefix.
    """

    __slots__ = ("committed", "writer_of", "versions", "reads")

    def __init__(self, steps: Sequence[Step]) -> None:
        committed = {s.txn_id for s in steps if s.action is Action.COMMIT}
        audited = committed | {BOOTSTRAP_TXN_ID}
        writer_of: dict[tuple[GranuleId, Timestamp], int] = {}
        versions: dict[GranuleId, set[Timestamp]] = defaultdict(set)
        reads: list[tuple[int, GranuleId, Timestamp]] = []
        read, write = Action.READ, Action.WRITE
        for step in steps:
            txn_id, action = step.txn_id, step.action
            if txn_id not in audited:
                continue
            if action is read:
                reads.append((txn_id, step.granule, step.version_ts))
            elif action is write:
                granule, ts = step.granule, step.version_ts
                writer_of[(granule, ts)] = txn_id
                if txn_id in committed:
                    versions[granule].add(ts)
        self.committed = committed
        self.writer_of = writer_of
        self.versions = {g: sorted(v) for g, v in versions.items()}
        self.reads = reads


@dataclass
class Schedule:
    """An append-only record of an execution.

    The class offers the handful of queries the tests need: iteration,
    the committed and aborted transaction sets, and the version order
    of a granule.  The oracle reads a :class:`ScheduleIndex` instead.
    """

    steps: list[Step] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_read(
        self, txn_id: int, granule: GranuleId, version_ts: Timestamp
    ) -> None:
        self.steps.append(Step(txn_id, Action.READ, granule, version_ts))

    def record_write(
        self, txn_id: int, granule: GranuleId, version_ts: Timestamp
    ) -> None:
        self.steps.append(Step(txn_id, Action.WRITE, granule, version_ts))

    def record_commit(self, txn_id: int) -> None:
        self.steps.append(Step(txn_id, Action.COMMIT))

    def record_abort(self, txn_id: int) -> None:
        self.steps.append(Step(txn_id, Action.ABORT))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def committed_txn_ids(self) -> set[int]:
        """Ids of transactions with a commit marker in this schedule."""
        return {s.txn_id for s in self.steps if s.action is Action.COMMIT}

    def aborted_txn_ids(self) -> set[int]:
        return {s.txn_id for s in self.steps if s.action is Action.ABORT}

    def version_order(self, granule: GranuleId) -> list[Timestamp]:
        """Committed versions of ``granule`` ordered by write timestamp.

        This is the version order ``<<`` used to resolve the paper's
        *predecessor* relation.  Write timestamps are unique per granule
        (each writer installs at its own initiation timestamp), so the
        sort is total.  Callers that want every granule's order should
        build one :class:`ScheduleIndex` instead of calling this in a
        loop (each call is a pass over the schedule).
        """
        return ScheduleIndex(self.steps).versions.get(granule, [])

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.steps)
