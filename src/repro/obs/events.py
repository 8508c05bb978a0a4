"""Typed trace events and the sink contract.

Every instrumented subsystem — :class:`~repro.scheduling.BaseScheduler`
(and through it HDD plus all five baselines), the
:class:`~repro.core.timewall.TimeWallManager`, the GC driver and the
simulator — emits these events into a single pluggable *sink*.  Events
are plain frozen dataclasses carrying only JSON-representable values
(ints, strings, dicts, lists), so a trace round-trips losslessly
through the JSONL sink (:mod:`repro.obs.jsonl`).

Common fields:

``step``
    The driving engine's step counter at emission time (``None`` when
    the emitter runs outside a simulator, e.g. a hand-driven test).
``ts``
    The scheduler's logical clock at emission time.  The clock ticks
    faster than the engine (operations draw timestamps), so ``ts``
    orders events totally while ``step`` localises them in the run.

This module deliberately imports nothing from the rest of the library
so every layer (scheduling, timewall, sim) can depend on it without
cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional, Union

#: What a blocked operation waits on: another transaction's id, or a
#: named condition such as ``"timewall"`` / ``"lock:<granule>"``.
#: Mirrors :data:`repro.scheduling.WaitTarget` without importing it.
WaitTargetValue = Union[int, str]


@dataclass(frozen=True, slots=True, kw_only=True)
class Event:
    """Base of every trace event; never emitted itself."""

    kind: ClassVar[str] = "event"

    step: Optional[int] = None
    ts: int = 0

    def to_record(self) -> dict:
        """A flat JSON-ready dict, ``kind`` included."""
        record = {"kind": self.kind}
        record.update(asdict(self))
        return record


# ----------------------------------------------------------------------
# Transaction lifecycle and operations
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True, kw_only=True)
class BeginEvent(Event):
    """A transaction began (``I(t) == ts``)."""

    kind: ClassVar[str] = "begin"

    txn_id: int = 0
    txn_class: Optional[str] = None
    read_only: bool = False
    profile: Optional[str] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class ReadEvent(Event):
    """A granted read.

    ``protocol`` is the HDD dispatch that served it (``"A"`` for
    activity-link walls, including the fictitious-class reader case,
    ``"B"`` for intra-class TO/MVTO, ``"C"`` for time-wall snapshots);
    ``None`` for baselines, which have no protocol split.
    """

    kind: ClassVar[str] = "read"

    txn_id: int = 0
    txn_class: Optional[str] = None
    granule: Optional[str] = None
    version_ts: Optional[int] = None
    protocol: Optional[str] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class WriteEvent(Event):
    """A granted write (version installed at ``version_ts``)."""

    kind: ClassVar[str] = "write"

    txn_id: int = 0
    txn_class: Optional[str] = None
    granule: Optional[str] = None
    version_ts: Optional[int] = None
    protocol: Optional[str] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class BlockedEvent(Event):
    """An operation returned a blocked outcome.

    ``op`` names the blocked request (``read`` / ``write`` /
    ``commit``); ``wait_target`` is what it waits for (a transaction
    id, ``"timewall"``, or ``"lock:<granule>"``).  The wait *ends* at
    the transaction's next event — the explainer pairs them up.
    """

    kind: ClassVar[str] = "blocked"

    txn_id: int = 0
    txn_class: Optional[str] = None
    op: str = "read"
    granule: Optional[str] = None
    wait_target: Optional[WaitTargetValue] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class AbortedEvent(Event):
    """A transaction was aborted (voluntarily, by rejection, or wounded)."""

    kind: ClassVar[str] = "aborted"

    txn_id: int = 0
    txn_class: Optional[str] = None
    reason: Optional[str] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class CommittedEvent(Event):
    """A transaction committed (``C(t) == ts``)."""

    kind: ClassVar[str] = "committed"

    txn_id: int = 0
    txn_class: Optional[str] = None


# ----------------------------------------------------------------------
# Time-wall lifecycle (HDD Protocol C support)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True, kw_only=True)
class WallReleasedEvent(Event):
    """A time wall was released.

    ``wall_id`` is the wall's release sequence number (``w1, w2, ...``
    in rendered output).  ``delayed_by_class`` / ``delayed_by_txn``
    name the unsettled class (and its oldest open transaction) that
    blocked the wall computation most recently before this release —
    the "who held the wall back" half of a Protocol C wait chain.
    """

    kind: ClassVar[str] = "wall_released"

    wall_id: int = 0
    base_time: int = 0
    release_ts: int = 0
    components: dict[str, int] = field(default_factory=dict)
    delayed_by_class: Optional[str] = None
    delayed_by_txn: Optional[int] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class WallPinnedEvent(Event):
    """A Protocol C transaction pinned a wall (its snapshot is fixed)."""

    kind: ClassVar[str] = "wall_pinned"

    wall_id: int = 0
    txn_id: Optional[int] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class WallUnpinnedEvent(Event):
    """A Protocol C transaction released its wall pin (reader finished)."""

    kind: ClassVar[str] = "wall_unpinned"

    wall_id: int = 0
    txn_id: Optional[int] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class WallRetiredEvent(Event):
    """A retirement pass dropped dead walls from the manager."""

    kind: ClassVar[str] = "wall_retired"

    wall_ids: list[int] = field(default_factory=list)
    count: int = 0


# ----------------------------------------------------------------------
# Distributed runtime: network messages and digest staleness
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True, kw_only=True)
class MessageSentEvent(Event):
    """A message left a node (``ts`` here is the *network* tick).

    The causal fields encode the happens-before DAG: ``lamport`` is the
    sender's Lamport stamp, ``txn_id`` the transaction whose work the
    message carries (``None`` for background traffic like heartbeats),
    ``parent_span`` the ``seq`` of the message whose delivery caused
    this send (a response's parent is the request; gossip triggered
    inside a handler points at the handled message), ``retransmit_of``
    the original attempt's ``seq`` for coordinator retransmissions, and
    ``req`` the RPC request id shared by a request, its retransmits and
    its response.
    """

    kind: ClassVar[str] = "msg_sent"

    seq: int = 0
    src: str = ""
    dst: str = ""
    msg_kind: str = ""
    lamport: int = 0
    txn_id: Optional[int] = None
    parent_span: Optional[int] = None
    retransmit_of: Optional[int] = None
    req: Optional[int] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class MessageDeliveredEvent(Event):
    """A message reached its destination handler.

    Carries the same causal fields as :class:`MessageSentEvent` (the
    Lamport stamp is the one carried *on the wire*; the receiver's
    clock advances past it before the handler runs).
    """

    kind: ClassVar[str] = "msg_delivered"

    seq: int = 0
    src: str = ""
    dst: str = ""
    msg_kind: str = ""
    delay: int = 0
    lamport: int = 0
    txn_id: Optional[int] = None
    parent_span: Optional[int] = None
    retransmit_of: Optional[int] = None
    req: Optional[int] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class MessageDroppedEvent(Event):
    """A message died on the wire.

    ``fate`` distinguishes random loss (``dropped``), a link partition
    (``partitioned``) and a crashed destination (``dst-down``).
    """

    kind: ClassVar[str] = "msg_dropped"

    seq: int = 0
    src: str = ""
    dst: str = ""
    msg_kind: str = ""
    fate: str = "dropped"
    lamport: int = 0
    txn_id: Optional[int] = None
    parent_span: Optional[int] = None
    retransmit_of: Optional[int] = None
    req: Optional[int] = None


@dataclass(frozen=True, slots=True, kw_only=True)
class DigestStalenessEvent(Event):
    """A gossip batch advanced a remote-class digest at some node.

    ``staleness`` is how far the receiver's knowledge of the sender's
    class lagged logical time when the batch landed (0 on an ideal
    network) — the price readers pay in extra wall conservatism.
    ``ts`` is the receiver's *logical* clock (``known_now``); ``tick``
    localises the same moment on the network-tick axis the message
    events use, so staleness windows compose with the causal DAG.
    """

    kind: ClassVar[str] = "digest_staleness"

    node: str = ""
    source_class: str = ""
    staleness: int = 0
    applied: int = 0
    tick: int = 0


@dataclass(frozen=True, slots=True, kw_only=True)
class OpSpanEvent(Event):
    """One top-level coordinator operation, in network ticks.

    Emitted when the operation returns (``ts`` is then the network
    tick, equal to ``end_tick``).  Spans of one transaction tile its
    commit latency: ticks between its spans are coordinator queueing
    (the coordinator was serving other clients), ticks inside a span
    belong to the RPCs issued during it.  ``txn_id`` is ``None`` for
    the simulator's idle wall polls; ``status`` is the outcome kind
    (``granted`` / ``blocked`` / ``aborted``) or ``""`` for operations
    without one (begin, poll).

    The transaction server (:mod:`repro.serve`) emits the same event
    per request, with ticks on the scheduler's logical clock instead of
    network ticks and ``status`` ``"error"`` for protocol violations.
    """

    kind: ClassVar[str] = "op_span"

    txn_id: Optional[int] = None
    op: str = ""
    start_tick: int = 0
    end_tick: int = 0
    status: str = ""


@dataclass(frozen=True, slots=True, kw_only=True)
class NodeCrashedEvent(Event):
    """A segment node went down (``ts`` is the network tick).

    With :class:`NodeRecoveredEvent` this brackets the node's down
    window — the critical-path analyzer bills request ticks that
    overlap it to WAL replay rather than retransmit backoff, and the
    fencing aborts of transactions whose state died inside it are the
    crash-recovery edges of the causal DAG.
    """

    kind: ClassVar[str] = "node_crashed"

    node: str = ""


@dataclass(frozen=True, slots=True, kw_only=True)
class NodeRecoveredEvent(Event):
    """A segment node restarted from its write-ahead log.

    ``incarnation`` is the post-recovery incarnation (responses carry
    it; the coordinator fences transactions that touched an older one)
    and ``wal_records`` how many WAL records the rebuild replayed.
    """

    kind: ClassVar[str] = "node_recovered"

    node: str = ""
    incarnation: int = 0
    wal_records: int = 0


@dataclass(frozen=True, slots=True, kw_only=True)
class WorkerProcessEvent(Event):
    """A real worker process changed state (the ``--real`` transport).

    ``what`` is one of ``spawned`` / ``killed`` / ``restarted`` /
    ``exited``; ``pid`` is the OS process id, so a trace can be joined
    against system-level tooling (ps, strace, perf).  Logical crash
    semantics still arrive as :class:`NodeCrashedEvent` /
    :class:`NodeRecoveredEvent` — this event records the *physical*
    process lifecycle underneath them.
    """

    kind: ClassVar[str] = "worker_process"

    node: str = ""
    pid: int = 0
    what: str = ""


# ----------------------------------------------------------------------
# Transaction server (repro serve)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True, kw_only=True)
class ConnOpenedEvent(Event):
    """A client connection reached the transaction server.

    ``peer`` is the transport's description of the remote end (socket
    peername, or the memory transport's label).
    """

    kind: ClassVar[str] = "conn_opened"

    conn_id: int = 0
    peer: str = ""


@dataclass(frozen=True, slots=True, kw_only=True)
class ConnClosedEvent(Event):
    """A client connection ended.

    ``open_txns`` counts transactions the server had to abort because
    the client disappeared mid-transaction (their aborts carry a
    ``client gone:`` reason and precede this event in the trace);
    ``requests`` is the connection's lifetime request count.
    """

    kind: ClassVar[str] = "conn_closed"

    conn_id: int = 0
    open_txns: int = 0
    requests: int = 0


@dataclass(frozen=True, slots=True, kw_only=True)
class QueueDepthEvent(Event):
    """A connection's in-flight pipeline reached a new high-water mark.

    Emitted only when ``depth`` exceeds the connection's previous
    maximum, so traces carry the envelope of queue growth rather than
    one gauge sample per request.
    """

    kind: ClassVar[str] = "queue_depth"

    conn_id: int = 0
    depth: int = 0


# ----------------------------------------------------------------------
# Garbage collection and run bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True, kw_only=True)
class GCPassEvent(Event):
    """One garbage-collection pass completed."""

    kind: ClassVar[str] = "gc_pass"

    pruned_versions: int = 0
    walls_retired: int = 0
    #: Wall-clock cost of the pass — zero/absent in records from
    #: engines that do not time their passes.
    duration_ms: float = 0.0


@dataclass(frozen=True, slots=True, kw_only=True)
class RunEndEvent(Event):
    """The simulator finished; carries its authoritative totals.

    The explainer *derives* commit/restart/blocked-step totals from the
    event stream and uses this record to cross-check them (and to close
    still-blocked episodes at the final step).
    """

    kind: ClassVar[str] = "run_end"

    steps: int = 0
    commits: int = 0
    restarts: int = 0
    blocked_client_steps: int = 0


EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        BeginEvent,
        ReadEvent,
        WriteEvent,
        BlockedEvent,
        AbortedEvent,
        CommittedEvent,
        WallReleasedEvent,
        WallPinnedEvent,
        WallUnpinnedEvent,
        WallRetiredEvent,
        MessageSentEvent,
        MessageDeliveredEvent,
        MessageDroppedEvent,
        DigestStalenessEvent,
        OpSpanEvent,
        NodeCrashedEvent,
        NodeRecoveredEvent,
        WorkerProcessEvent,
        ConnOpenedEvent,
        ConnClosedEvent,
        QueueDepthEvent,
        GCPassEvent,
        RunEndEvent,
    )
}


def event_from_record(record: dict) -> Event:
    """Rebuild an event from :meth:`Event.to_record` output."""
    data = dict(record)
    kind = data.pop("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    return cls(**data)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class EventSink:
    """Where events go.  Implementations must tolerate high rates.

    The contract is two methods: :meth:`emit` (hot path — called for
    every instrumented operation) and :meth:`close` (flush and release
    resources; idempotent).
    """

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default is a no-op
        pass


class NullSink(EventSink):
    """Tracing disabled.

    Schedulers normalise a ``NullSink`` to ``None`` internally
    (:meth:`repro.scheduling.BaseScheduler.set_sink`), so the hot paths
    pay exactly one ``if self._sink is not None`` branch and zero
    event construction — this class never actually sees an event in
    normal operation.  It exists so drivers can pass "explicitly no
    tracing" and so the overhead claim is benchmarkable.
    """

    def emit(self, event: Event) -> None:
        pass


class MemorySink(EventSink):
    """Collect events into a list (tests, in-process explainers)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)


class TeeSink(EventSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, sinks: list[EventSink]) -> None:
        self.sinks = list(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
