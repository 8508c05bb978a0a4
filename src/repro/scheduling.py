"""The common scheduler interface shared by HDD and every baseline.

A *scheduler* owns a logical clock, a multi-version store and a recorded
schedule, and answers four requests from a driver (a test, an example
script, or the simulator):

``begin``    -> a new :class:`~repro.txn.transaction.Transaction`
``read``     -> :class:`Outcome` (granted with a value / blocked / aborted)
``write``    -> :class:`Outcome`
``commit``   -> :class:`Outcome`

Blocked outcomes carry what the transaction is waiting for; the driver
retries the same operation after that condition changes (the simulator
does this automatically).  Aborted outcomes mean the scheduler already
cleaned the transaction up — the driver restarts it with a fresh
timestamp if it wants the work retried.

Every granted read/write is appended to the scheduler's
:class:`~repro.txn.schedule.Schedule`, so any execution can be audited
by the serializability oracle afterwards.  Uniform counters in
:class:`SchedulerStats` feed the Figure 10 comparison — in particular
``read_registrations`` (read locks set or read timestamps written, the
overhead the paper attacks) versus ``unregistered_reads``.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import InvalidTransactionState
from repro.obs.events import (
    AbortedEvent,
    BeginEvent,
    BlockedEvent,
    CommittedEvent,
    EventSink,
    NullSink,
    ReadEvent,
    WriteEvent,
)
from repro.storage.store import MultiVersionStore
from repro.txn.clock import LogicalClock, Timestamp
from repro.txn.schedule import Schedule
from repro.txn.transaction import (
    GranuleId,
    Transaction,
    TransactionKind,
)


class OutcomeKind(enum.Enum):
    GRANTED = "granted"
    BLOCKED = "blocked"
    ABORTED = "aborted"


#: What a blocked operation waits on: another transaction's id, or a
#: named condition such as "timewall".
WaitTarget = Union[int, str]

#: Wait-target name for "a time wall must be released first".
WAIT_TIMEWALL = "timewall"


@dataclass(frozen=True)
class Outcome:
    """Result of one scheduler request."""

    kind: OutcomeKind
    value: object = None
    version_ts: Optional[Timestamp] = None
    waiting_for: Optional[WaitTarget] = None
    reason: Optional[str] = None

    @property
    def granted(self) -> bool:
        return self.kind is OutcomeKind.GRANTED

    @property
    def blocked(self) -> bool:
        return self.kind is OutcomeKind.BLOCKED

    @property
    def aborted(self) -> bool:
        return self.kind is OutcomeKind.ABORTED


def granted(
    value: object = None, version_ts: Optional[Timestamp] = None
) -> Outcome:
    return Outcome(OutcomeKind.GRANTED, value=value, version_ts=version_ts)


def blocked(waiting_for: WaitTarget) -> Outcome:
    return Outcome(OutcomeKind.BLOCKED, waiting_for=waiting_for)


def aborted(reason: str) -> Outcome:
    return Outcome(OutcomeKind.ABORTED, reason=reason)


@dataclass
class SchedulerStats:
    """Uniform overhead and progress counters.

    ``read_registrations`` counts every read that left a trace a writer
    must later consult — a read lock or a read timestamp.  This is the
    cost HDD's Protocols A and C eliminate; ``unregistered_reads``
    counts the reads served without any trace.
    """

    begins: int = 0
    commits: int = 0
    aborts: int = 0
    reads: int = 0
    writes: int = 0
    read_registrations: int = 0
    unregistered_reads: int = 0
    read_blocks: int = 0
    write_blocks: int = 0
    commit_blocks: int = 0
    begin_blocks: int = 0
    #: Protocol C waits for a time wall to be released (HDD only); kept
    #: separate from read_blocks so the "read-only transactions never
    #: block" claim can be measured without intra-class noise.
    wall_blocks: int = 0
    read_rejections: int = 0
    write_rejections: int = 0
    deadlock_aborts: int = 0
    aborts_by_reason: dict[str, int] = field(default_factory=dict)

    def count_abort(self, reason: str) -> None:
        self.aborts += 1
        self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1

    def as_row(self) -> dict[str, float]:
        """Per-commit normalised view for the comparison tables."""
        denominator = max(self.commits, 1)
        return {
            "commits": self.commits,
            "aborts": self.aborts,
            "reads": self.reads,
            "read_registrations_per_commit": self.read_registrations / denominator,
            "unregistered_reads_per_commit": self.unregistered_reads / denominator,
            "read_blocks": self.read_blocks,
            "read_rejections": self.read_rejections,
            "deadlock_aborts": self.deadlock_aborts,
        }


class BaseScheduler(abc.ABC):
    """Shared machinery: clock, store, schedule record, stats, registry."""

    #: Human-readable algorithm name (used in reports and benchmarks).
    name: str = "base"
    #: The HDD access-rule core (:class:`repro.core.protocol.HDDProtocol`)
    #: of schedulers that host one; ``None`` for every baseline.
    protocol = None

    def __init__(
        self,
        store: Optional[MultiVersionStore] = None,
        clock: Optional[LogicalClock] = None,
    ) -> None:
        self.store = store if store is not None else MultiVersionStore()
        self.clock = clock if clock is not None else LogicalClock()
        self.schedule = Schedule()
        #: ``_stats`` is what this object's funnels increment, ``stats``
        #: what observers read: one object, except that the distributed
        #: coordinator publishes a view merged with its nodes' counters.
        self._stats = self.stats = SchedulerStats()
        self.transactions: dict[int, Transaction] = {}
        #: Index of transactions still active — kept so hot paths that
        #: iterate active transactions (GC watermarks, deadlock checks)
        #: stay O(active) instead of O(everything ever begun).
        self._active: dict[int, Transaction] = {}
        self._next_txn_id = 1
        #: Event sink, or ``None`` when tracing is off — the hot paths
        #: pay exactly one ``if self._sink is not None`` branch.
        self._sink: Optional[EventSink] = None
        #: The driving engine's step counter; the simulator refreshes it
        #: every step so emitted events localise themselves in the run.
        self.current_step: Optional[int] = None
        # Tracing starts off: shortcut past the instrumented wrappers
        # (see set_sink).
        self.read = self._do_read
        self.write = self._do_write
        self.commit = self._do_commit

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def set_sink(self, sink: Optional[EventSink]) -> None:
        """Attach an event sink (``None`` or ``NullSink`` disables).

        With tracing off, ``read``/``write``/``commit`` are rebound on
        the instance straight to their ``_do_*`` implementations, so
        the untraced hot path pays no wrapper frame at all; attaching a
        real sink removes the shortcut and restores the instrumented
        class methods.
        """
        if isinstance(sink, NullSink):
            sink = None
        self._sink = sink
        if sink is None:
            self.read = self._do_read
            self.write = self._do_write
            self.commit = self._do_commit
        else:
            for name in ("read", "write", "commit"):
                self.__dict__.pop(name, None)

    @property
    def sink(self) -> Optional[EventSink]:
        return self._sink

    def _emit_access(
        self, op: str, txn: Transaction, granule: GranuleId, outcome: Outcome
    ) -> None:
        sink = self._sink
        assert sink is not None
        if outcome.granted:
            cls = ReadEvent if op == "read" else WriteEvent
            # HDD's A/B/C dispatch tag, where a protocol core routes.
            core = self.protocol
            sink.emit(
                cls(
                    step=self.current_step,
                    ts=self.clock.now,
                    txn_id=txn.txn_id,
                    txn_class=txn.class_id,
                    granule=granule,
                    version_ts=outcome.version_ts,
                    protocol=core and core.protocol_tag(txn, granule, op),
                )
            )
        elif outcome.blocked:
            sink.emit(
                BlockedEvent(
                    step=self.current_step,
                    ts=self.clock.now,
                    txn_id=txn.txn_id,
                    txn_class=txn.class_id,
                    op=op,
                    granule=granule,
                    wait_target=outcome.waiting_for,
                )
            )
        # Aborted outcomes already emitted through _finish_abort.

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(
        self,
        profile: Optional[str] = None,
        read_only: bool = False,
    ) -> Transaction:
        """Start a transaction.

        ``profile`` names a declared transaction profile where the
        scheduler uses one (HDD, SDD-1); schedulers that do not classify
        transactions ignore it.  ``read_only`` requests the read-only
        treatment where the algorithm has one.
        """
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        initiation_ts = self.clock.tick()
        kind = TransactionKind.READ_ONLY if read_only else TransactionKind.UPDATE
        txn = self._make_transaction(txn_id, initiation_ts, kind, profile)
        self.transactions[txn_id] = txn
        self._active[txn_id] = txn
        self._stats.begins += 1
        if self._sink is not None:
            self._sink.emit(
                BeginEvent(
                    step=self.current_step,
                    ts=initiation_ts,
                    txn_id=txn_id,
                    txn_class=txn.class_id,
                    read_only=read_only,
                    profile=profile,
                )
            )
        return txn

    def _make_transaction(
        self,
        txn_id: int,
        initiation_ts: Timestamp,
        kind: TransactionKind,
        profile: Optional[str],
    ) -> Transaction:
        """Hook for subclasses that classify transactions."""
        return Transaction(txn_id, initiation_ts, kind)

    def read(self, txn: Transaction, granule: GranuleId) -> Outcome:
        """Request a read; on success the outcome carries the value.

        Template method: the algorithm lives in :meth:`_do_read`; this
        wrapper adds uniform tracing so HDD and every baseline emit the
        same events from the same place (apples-to-apples comparisons).
        """
        outcome = self._do_read(txn, granule)
        if self._sink is not None:
            self._emit_access("read", txn, granule, outcome)
        return outcome

    def write(
        self, txn: Transaction, granule: GranuleId, value: object
    ) -> Outcome:
        """Request a write of ``value``."""
        outcome = self._do_write(txn, granule, value)
        if self._sink is not None:
            self._emit_access("write", txn, granule, outcome)
        return outcome

    def commit(self, txn: Transaction) -> Outcome:
        """Request commit; blocked outcomes mean "retry later"."""
        outcome = self._do_commit(txn)
        if self._sink is not None and outcome.blocked:
            self._sink.emit(
                BlockedEvent(
                    step=self.current_step,
                    ts=self.clock.now,
                    txn_id=txn.txn_id,
                    txn_class=txn.class_id,
                    op="commit",
                    granule=None,
                    wait_target=outcome.waiting_for,
                )
            )
        # Granted commits and aborts are emitted by the _finish_* funnels.
        return outcome

    @abc.abstractmethod
    def _do_read(self, txn: Transaction, granule: GranuleId) -> Outcome:
        """Algorithm-specific read (see :meth:`read`)."""

    @abc.abstractmethod
    def _do_write(
        self, txn: Transaction, granule: GranuleId, value: object
    ) -> Outcome:
        """Algorithm-specific write (see :meth:`write`)."""

    @abc.abstractmethod
    def _do_commit(self, txn: Transaction) -> Outcome:
        """Algorithm-specific commit (see :meth:`commit`)."""

    @abc.abstractmethod
    def abort(self, txn: Transaction, reason: str) -> None:
        """Kill ``txn`` and clean up all its traces."""

    # ------------------------------------------------------------------
    # Common helpers for subclasses
    # ------------------------------------------------------------------
    def _require_active(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise InvalidTransactionState(
                f"txn {txn.txn_id} is {txn.status.value}; "
                "operations require an active transaction"
            )

    def _finish_commit(self, txn: Transaction) -> Timestamp:
        """Stamp the commit, record it, update stats.  Returns C(t)."""
        commit_ts = self.clock.tick()
        txn.mark_committed(commit_ts)
        self._active.pop(txn.txn_id, None)
        self.schedule.record_commit(txn.txn_id)
        self._stats.commits += 1
        if self._sink is not None:
            self._sink.emit(
                CommittedEvent(
                    step=self.current_step,
                    ts=commit_ts,
                    txn_id=txn.txn_id,
                    txn_class=txn.class_id,
                )
            )
        return commit_ts

    def _finish_abort(self, txn: Transaction, reason: str) -> Timestamp:
        abort_ts = self.clock.tick()
        txn.mark_aborted(abort_ts, reason)
        self._active.pop(txn.txn_id, None)
        self.schedule.record_abort(txn.txn_id)
        self._stats.count_abort(reason)
        if self._sink is not None:
            self._sink.emit(
                AbortedEvent(
                    step=self.current_step,
                    ts=abort_ts,
                    txn_id=txn.txn_id,
                    txn_class=txn.class_id,
                    reason=reason,
                )
            )
        return abort_ts

    # ------------------------------------------------------------------
    # Introspection shared by tests and benchmarks
    # ------------------------------------------------------------------
    def committed_transactions(self) -> list[Transaction]:
        return [t for t in self.transactions.values() if t.is_committed]

    def active_transactions(self) -> list[Transaction]:
        # The index can lag a transaction killed without _finish_abort
        # (none do today); filter defensively rather than trust it blindly.
        return [t for t in self._active.values() if t.is_active]
