"""One segment controller per DHG class (paper Section 7.5).

A :class:`SegmentNode` owns everything local to its segment: the
segment's version store, the class's first-hand activity log, Protocol
B enforcement via the shared intra-class engines, and a write-ahead log
(the only state that survives a crash).  Everything it knows about
*other* classes arrives by gossip into :class:`~repro.dist.digest.
DigestLog` replicas, so the walls it computes are conservative — never
above the true frozen boundary.

Wire protocol (all request/response pairs carry ``req``/``inc``):

===============  ====================================================
``BEGIN``        register an update transaction in the class activity
                 log (WAL + journal + gossip before the ack)
``READ_A``       Protocol A / fictitious-class read below an activity
                 wall computed here from local log + digests
``READ_B``       intra-class engine read (TO/MVTO rules)
``READ_C``       Protocol C read below a wall component chosen by the
                 coordinator
``WRITE``        intra-class engine write (WAL on grant)
``COMMIT_CHECK`` is this transaction still known here? (crash fencing)
``COMMIT_FINALIZE``  commit versions (re-installing any a crash lost),
                 close the activity interval, WAL, gossip
``ABORT_FINALIZE``   expunge versions, close the interval, WAL, gossip
``POLL``         leader only: drive the time-wall manager, broadcast
                 fresh walls to every other node (eager wire only)
``GOSSIP``       one-way activity-digest propagation (+ ``NACK`` gap
                 repair, ``WALL`` broadcast ingestion)
===============  ====================================================

Handlers gossip *before* they acknowledge: on an ideal (zero-latency,
in-order) network every digest entry causally preceding an operation is
therefore applied before the coordinator can issue the next operation —
the delivery-order half of the byte-identity argument.

Crash-restart: the network marks the endpoint down (messages die with
fate ``dst-down``); at the recovery tick the node rebuilds its store
with :func:`repro.recovery.recover`, replays the WAL into a fresh
activity log and journal, resets every digest to horizon 0 (gossip
NACK repair refills them), and bumps its incarnation.  Open intervals
of in-flight transactions stay open — closing them early would be
unsound if the transaction later commits; the coordinator's incarnation
fencing guarantees such transactions abort instead.  Aborted intervals
are re-closed at ``start + 1`` (the WAL abort record carries no
timestamp); that is safe because aborted transactions leave no
versions, so no wall computed from the shorter interval can expose an
unfinal version.  Node-local ``Schedule``/``SchedulerStats`` survive
crashes — they are observability state owned by the experiment, not
database state (DESIGN.md §11).
"""

from __future__ import annotations

import bisect
from typing import Callable, Mapping, Optional, Sequence

from repro.core.graph import SemiTreeIndex
from repro.core.intraclass import ENGINES, IntraClassEngine
from repro.core.timewall import TimeWallManager
from repro.dist.digest import DigestTracker, RemoteClock
from repro.dist.net import Message, SimNetwork
from repro.errors import ReproError
from repro.obs.events import DigestStalenessEvent, EventSink
from repro.recovery import (
    AbortRecord,
    BeginRecord,
    CommitRecord,
    WriteAheadLog,
    WriteRecord,
    recover,
)
from repro.scheduling import Outcome, SchedulerStats
from repro.storage.version import Version
from repro.txn.schedule import Schedule
from repro.txn.transaction import (
    GranuleId,
    SegmentId,
    Transaction,
    TransactionKind,
)


def node_name(class_id: SegmentId) -> str:
    return f"node:{class_id}"


class SegmentNode:
    """The controller of one segment / transaction class.

    Parameters
    ----------
    class_id:
        The DHG class (== segment) this node serves.
    network:
        The shared :class:`~repro.dist.net.SimNetwork`.
    engine_name:
        Intra-class engine (``"to"`` / ``"mvto"``).
    index:
        The semi-tree index, or ``None`` for baseline modes (plain
        engine shards with no activity machinery).
    peers:
        Node names this node gossips its activity journal to (every
        comparable class plus the wall leader).
    all_classes:
        Every class in the partition (digest replicas are kept for all
        of them; classes that never gossip here just stay at horizon 0).
    horizon_for:
        Factory giving each remote class its horizon callable.  The
        runtime passes the shared oracle clock on an ideal network
        (exact digests ⇒ byte-identity) and this node's gossip-stamp
        table otherwise.
    leader:
        Whether this node hosts the :class:`TimeWallManager`.
    batch_gossip:
        Internal wiring the runtime fills in (true exactly for an HDD
        run on an ideal plan — never a caller's choice).  Coalesce
        journal gossip: instead of pushing news to every peer inside
        each handler, entries accumulate and ship as one batched
        message per link when the coordinator *needs* them — via
        :meth:`flush_gossip_to` barriers before digest-consuming RPCs.
        The WALL broadcast is also suppressed (no node ever reads it;
        walls reach the coordinator in POLL responses).
    """

    def __init__(
        self,
        class_id: SegmentId,
        network: SimNetwork,
        engine_name: str = "mvto",
        index: Optional[SemiTreeIndex] = None,
        peers: Sequence[str] = (),
        all_classes: Sequence[SegmentId] = (),
        horizon_for: Optional[
            Callable[["SegmentNode", SegmentId], Callable[[], int]]
        ] = None,
        leader: bool = False,
        wall_interval: int = 25,
        heartbeat: int = 5,
        batch_gossip: bool = False,
        wal: Optional[WriteAheadLog] = None,
        incarnation: int = 0,
    ) -> None:
        self.class_id = class_id
        self.name = node_name(class_id)
        self.network = network
        self.engine_name = engine_name
        self.index = index
        self.peers = [p for p in peers if p != self.name]
        self.all_classes = list(all_classes)
        self._horizon_for = horizon_for
        self.leader = leader
        self.wall_interval = wall_interval
        self.heartbeat = heartbeat
        self.batch_gossip = batch_gossip
        self.incarnation = incarnation
        self.known_now = 0
        self.sink: Optional[EventSink] = None
        #: Durable across crashes: the write-ahead log.  Callers may
        #: inject one (the process transport passes a file-backed log a
        #: respawned worker recovers from) — the default in-memory log
        #: keeps sim semantics unchanged.
        self.wal = WriteAheadLog() if wal is None else wal
        #: Observability state, deliberately crash-immune (owned by the
        #: experiment harness, not the simulated machine).
        self.schedule = Schedule()
        self.stats = SchedulerStats()
        self._build_volatile()
        network.register(self.name, self.handle)
        self._handlers: dict[str, Callable[[Mapping], dict]] = {
            "BEGIN": self._handle_begin,
            "READ_A": self._handle_read_a,
            "READ_B": self._handle_read_b,
            "READ_C": self._handle_read_c,
            "WRITE": self._handle_write,
            "COMMIT_CHECK": self._handle_commit_check,
            "COMMIT_FINALIZE": self._handle_commit_finalize,
            "ABORT_FINALIZE": self._handle_abort_finalize,
            "POLL": self._handle_poll,
        }

    # ------------------------------------------------------------------
    # Volatile state (everything a crash destroys)
    # ------------------------------------------------------------------
    def _build_volatile(self) -> None:
        self.store = recover(self.wal)
        self.txns: dict[int, Transaction] = {}
        self._responses: dict[int, dict] = {}
        self.engine: IntraClassEngine = ENGINES[self.engine_name](
            self.store, self.schedule, self.stats
        )
        self.latest_wall: Optional[dict] = None
        if self.index is None:
            return
        self._horizons: dict[SegmentId, int] = {
            c: 0 for c in self.all_classes if c != self.class_id
        }
        assert self._horizon_for is not None
        remote = [c for c in self.all_classes if c != self.class_id]
        self.tracker = DigestTracker(
            self.index,
            self.class_id,
            remote,
            lambda cls: self._horizon_for(self, cls),
        )
        self.activity = self.tracker.logs[self.class_id]
        #: The gossiped journal of this class's own activity: every
        #: begin/end, in order.  Positions are the gossip sequence.
        self.journal: list[dict] = []
        self.began: dict[int, int] = {}
        self.ended: dict[int, int] = {}
        self._sent_through: dict[str, int] = {p: 0 for p in self.peers}
        self._rebuild_activity()
        if self.leader:
            self.walls = TimeWallManager(
                self.tracker,
                RemoteClock(lambda: self.known_now),
                interval=self.wall_interval,
            )
            self._broadcast_through = 0

    def _rebuild_activity(self) -> None:
        """Replay the WAL into the activity log and gossip journal.

        Journal *positions* must match what peers already applied
        pre-crash, which holds because every journal append coincided
        with a WAL append.  Aborted intervals re-close at ``start + 1``
        (abort records carry no timestamp — see the module docstring
        for why that is sound).
        """
        for record in self.wal.records:
            if isinstance(record, BeginRecord):
                if record.txn_id in self.began:
                    continue  # fuzzy-checkpoint re-log
                self.activity.record_begin(
                    record.txn_id, record.initiation_ts
                )
                self.began[record.txn_id] = record.initiation_ts
                self.journal.append(
                    {
                        "kind": "begin",
                        "txn": record.txn_id,
                        "ts": record.initiation_ts,
                    }
                )
            elif isinstance(record, CommitRecord):
                self._close_interval(record.txn_id, record.commit_ts)
            elif isinstance(record, AbortRecord):
                start = self.began.get(record.txn_id)
                if start is not None:
                    self._close_interval(record.txn_id, start + 1)

    def _close_interval(self, txn_id: int, end_ts: int) -> None:
        if txn_id not in self.began or txn_id in self.ended:
            return
        self.activity.record_end(txn_id, end_ts)
        self.ended[txn_id] = end_ts
        self.journal.append({"kind": "end", "txn": txn_id, "ts": end_ts})

    def on_recover(self) -> None:
        """Network recovery hook: restart from durable state only."""
        self.incarnation += 1
        self.known_now = 0
        self._build_volatile()

    def wal_record_count(self) -> int:
        """Durable record count (shared surface with the proc proxy)."""
        return len(self.wal.records)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        kind = message.kind
        payload = message.payload
        if kind == "GOSSIP":
            self._ingest_gossip(message)
            return
        if kind == "NACK":
            self._resend_gossip(message)
            return
        if kind == "WALL":
            self.latest_wall = dict(payload["wall"])
            return
        req = payload["req"]
        self.known_now = max(self.known_now, int(payload.get("now", 0)))
        cached = self._responses.get(req)
        if cached is not None:
            # Retransmitted request whose response was lost: replay the
            # recorded answer, re-execute nothing.
            self.network.send(self.name, message.src, "RESP", cached)
            return
        handler = self._handlers.get(kind)
        if handler is None:
            raise ReproError(f"{self.name}: unknown message kind {kind!r}")
        result = handler(payload)
        response = {
            **result,
            "req": req,
            "inc": self.incarnation,
            "node": self.name,
        }
        self._responses[req] = response
        self.network.send(self.name, message.src, "RESP", response)

    def _shadow(self, meta: Mapping) -> Transaction:
        """The node-local shadow of a coordinator transaction.

        Created lazily from the operation payload so baseline modes
        need no BEGIN round-trip, and recreated transparently after a
        crash (any state that mattered is fenced by incarnations).
        """
        txn = self.txns.get(meta["id"])
        if txn is None:
            kind = (
                TransactionKind.READ_ONLY
                if meta.get("ro")
                else TransactionKind.UPDATE
            )
            txn = Transaction(
                meta["id"], meta["I"], kind, class_id=meta.get("class")
            )
            self.txns[meta["id"]] = txn
        return txn

    @staticmethod
    def _outcome_payload(outcome: Outcome) -> dict:
        if outcome.granted:
            return {
                "status": "granted",
                "value": outcome.value,
                "version_ts": outcome.version_ts,
            }
        if outcome.blocked:
            return {"status": "blocked", "waiting_for": outcome.waiting_for}
        return {"status": "aborted", "reason": outcome.reason}

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _handle_begin(self, payload: Mapping) -> dict:
        meta = payload["txn"]
        txn_id = meta["id"]
        if txn_id not in self.began:
            self.activity.record_begin(txn_id, meta["I"])
            self.began[txn_id] = meta["I"]
            self.wal.append(BeginRecord(txn_id, meta["I"]))
            self.journal.append(
                {"kind": "begin", "txn": txn_id, "ts": meta["I"]}
            )
            self._gossip()
        self._shadow(meta)
        return {"ok": True}

    def _handle_read_a(self, payload: Mapping) -> dict:
        wall = payload.get("wall")
        if wall is None:
            bottom = payload.get("bottom")
            if bottom is not None:
                # Fictitious-class reader (Section 5.0).
                wall = self.tracker.a_func_from_below(
                    bottom, self.class_id, payload["I"]
                )
            else:
                wall = self.tracker.a_func(
                    payload["reader_class"], self.class_id, payload["I"]
                )
        version = self._version_below_wall(payload["granule"], wall)
        self.stats.reads += 1
        self.stats.unregistered_reads += 1
        self.schedule.record_read(
            payload["txn_id"], payload["granule"], version.ts
        )
        return {
            "status": "granted",
            "value": version.value,
            "version_ts": version.ts,
            "wall": wall,
        }

    def _handle_read_c(self, payload: Mapping) -> dict:
        version = self._version_below_wall(
            payload["granule"], payload["component"]
        )
        self.stats.reads += 1
        self.stats.unregistered_reads += 1
        self.schedule.record_read(
            payload["txn_id"], payload["granule"], version.ts
        )
        return {
            "status": "granted",
            "value": version.value,
            "version_ts": version.ts,
        }

    def _version_below_wall(self, granule: GranuleId, wall: int) -> Version:
        chain = self.store.chain(granule)
        if self.index is not None and wall > chain.frozen_below:
            # Advance the chain's frozen-prefix mark to ``I_old`` of
            # this node's *own* class (first-hand activity log — exact,
            # not gossip-conservative: every writer of this segment
            # registers here before any install, and updates stay in the
            # writer's root segment), so reads below it take the
            # one-bisection frozen path like the monolith's (DESIGN.md
            # §12).  Only walk the activity log when the current mark
            # cannot serve this wall.  Crash-safe: a restart
            # rebuilds the activity log from the WAL with in-flight
            # intervals still open, so ``I_old`` (hence the mark) never
            # overtakes a pending writer's initiation timestamp.
            mark = self.activity.i_old(self.known_now)
            if mark > chain.frozen_below:
                chain.advance_frozen(mark)
        version = chain.latest_before(wall, committed_only=False)
        if version is None:  # pragma: no cover - bootstrap prevents this
            raise ReproError(f"{granule}: no version below wall {wall}")
        if not version.committed:
            raise ReproError(
                f"unsettled version {granule}^{version.ts} below wall "
                f"{wall} — wall settlement invariant broken"
            )
        return version

    def _handle_read_b(self, payload: Mapping) -> dict:
        shadow = self._shadow(payload["txn"])
        outcome = self.engine.read(shadow, payload["granule"])
        return self._outcome_payload(outcome)

    def _handle_write(self, payload: Mapping) -> dict:
        shadow = self._shadow(payload["txn"])
        outcome = self.engine.write(
            shadow, payload["granule"], payload["value"]
        )
        if outcome.granted:
            self.wal.append(
                WriteRecord(
                    shadow.txn_id,
                    payload["granule"],
                    outcome.version_ts,
                    payload["value"],
                )
            )
        return self._outcome_payload(outcome)

    def _handle_commit_check(self, payload: Mapping) -> dict:
        txn_id = payload["txn_id"]
        known = txn_id in self.txns or txn_id in self.began
        return {"known": known}

    def _handle_commit_finalize(self, payload: Mapping) -> dict:
        txn_id = payload["txn_id"]
        initiation_ts = payload["I"]
        commit_ts = payload["commit_ts"]
        for granule, value in payload["writes"]:
            chain = self.store.chain(granule)
            if chain.has_version(initiation_ts):
                if not chain.version_at(initiation_ts).committed:
                    chain.commit_version(initiation_ts, commit_ts)
            else:
                # A crash between the write and this finalize lost the
                # uncommitted version; the payload re-installs it.
                chain.install(
                    Version(
                        granule,
                        initiation_ts,
                        value,
                        writer_id=txn_id,
                        committed=True,
                        commit_ts=commit_ts,
                    )
                )
        self.wal.append(CommitRecord(txn_id, commit_ts))
        if payload.get("close"):
            before = len(self.journal)
            self._close_interval(txn_id, commit_ts)
            if len(self.journal) != before:
                self._gossip()
        self.engine.forget(txn_id)
        self.txns.pop(txn_id, None)
        return {"ok": True}

    def _handle_abort_finalize(self, payload: Mapping) -> dict:
        txn_id = payload["txn_id"]
        initiation_ts = payload["I"]
        for granule in payload["granules"]:
            chain = self.store.chain(granule)
            if chain.has_version(initiation_ts):
                chain.remove(initiation_ts)
        self.wal.append(AbortRecord(txn_id))
        if payload.get("close"):
            before = len(self.journal)
            self._close_interval(txn_id, payload["abort_ts"])
            if len(self.journal) != before:
                self._gossip()
        self.engine.forget(txn_id)
        self.txns.pop(txn_id, None)
        return {"ok": True}

    def _handle_poll(self, payload: Mapping) -> dict:
        assert self.leader, "POLL reached a non-leader node"
        self.walls.poll()
        released = self.walls.released
        if not self.batch_gossip:
            # Broadcast fresh walls to every other segment controller —
            # the paper's per-segment wall distribution, priced by the
            # message report.  The coalesced wire sends none: no node
            # consumes the broadcast, and the coordinator (the only wall
            # consumer) receives walls in this very response.
            for wall in released[self._broadcast_through :]:
                serialized = self._serialize_wall(wall)
                for peer_class in self.all_classes:
                    peer = node_name(peer_class)
                    if peer != self.name:
                        self.network.send(
                            self.name, peer, "WALL", {"wall": serialized}
                        )
            self._broadcast_through = len(released)
        # ``released`` ascends in ``release_ts`` and is never retired
        # here, so the walls above ``after`` are a suffix: one bisection
        # per POLL, not a scan of every wall the run ever released.
        first_fresh = bisect.bisect_right(
            released,
            payload.get("after", -1),
            key=lambda wall: wall.release_ts,
        )
        fresh = [self._serialize_wall(w) for w in released[first_fresh:]]
        # ``pending``/``blocked_on`` feed the coordinator's poll
        # governor: while the computation at ``pending`` is gated on
        # ``blocked_on`` closing an interval, further polls are provably
        # no-ops and the coordinator may skip them.
        return {
            "walls": fresh,
            "pending": self.walls.pending_base,
            "blocked_on": self.walls.blocking_class,
        }

    @staticmethod
    def _serialize_wall(wall) -> dict:
        return {
            "start_class": wall.start_class,
            "base_time": wall.base_time,
            "release_ts": wall.release_ts,
            "seq": wall.seq,
            "components": dict(wall.components),
        }

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def _gossip(self) -> None:
        """Push journal news (and our clock stamp) to every peer.

        The coalesced wire defers instead: ``_sent_through`` lags the
        journal and the backlog ships coalesced — one message per link —
        at the next :meth:`flush_gossip_to` barrier.
        """
        if self.batch_gossip:
            return
        for peer in self.peers:
            sent = self._sent_through[peer]
            entries = self.journal[sent:]
            self.network.send(
                self.name,
                peer,
                "GOSSIP",
                {
                    "class": self.class_id,
                    "from_seq": sent,
                    "entries": entries,
                    "stamp": self.known_now,
                },
            )
            # Optimistic: a drop is repaired by the receiver's NACK
            # when the gap becomes visible (next gossip or heartbeat).
            self._sent_through[peer] = len(self.journal)

    def flush_gossip_to(self, peer: str) -> None:
        """Ship the deferred journal backlog to one peer, coalesced.

        The coalesced wire's barrier: the coordinator calls this before
        any RPC whose handler consumes this class's digest at ``peer`` (the
        leader's POLL, a wall-computing READ_A), so the digest there is
        exactly as complete as eager gossip would have made it.  A no-op
        when nothing is pending on the link.
        """
        if peer == self.name or peer not in self._sent_through:
            return
        sent = self._sent_through[peer]
        if sent >= len(self.journal):
            return
        self.network.send(
            self.name,
            peer,
            "GOSSIP",
            {
                "class": self.class_id,
                "from_seq": sent,
                "entries": self.journal[sent:],
                "stamp": self.known_now,
            },
        )
        self._sent_through[peer] = len(self.journal)

    def _ingest_gossip(self, message: Message) -> None:
        payload = message.payload
        stamp = int(payload.get("stamp", 0))
        self.known_now = max(self.known_now, stamp)
        if self.index is None:
            return
        source_class = payload["class"]
        digest = self.tracker.digests.get(source_class)
        if digest is None:
            return
        if digest.apply(payload["entries"], payload["from_seq"]):
            horizon = self._horizons.get(source_class, 0)
            if stamp > horizon:
                self._horizons[source_class] = stamp
            if self.sink is not None:
                self.sink.emit(
                    DigestStalenessEvent(
                        ts=self.known_now,
                        tick=self.network.tick_now,
                        node=self.name,
                        source_class=source_class,
                        staleness=max(0, self.known_now - stamp),
                        applied=digest.applied,
                    )
                )
        else:
            # Gap: ask the class owner to resend from what we hold.
            self.network.send(
                self.name,
                message.src,
                "NACK",
                {"class": source_class, "have": digest.applied},
            )

    def _resend_gossip(self, message: Message) -> None:
        have = int(message.payload["have"])
        peer = message.src
        self.network.send(
            self.name,
            peer,
            "GOSSIP",
            {
                "class": self.class_id,
                "from_seq": have,
                "entries": self.journal[have:],
                "stamp": self.known_now,
            },
        )
        if peer in self._sent_through:
            self._sent_through[peer] = len(self.journal)

    def start_heartbeat(self) -> None:
        """Gossip a clock stamp every ``heartbeat`` net ticks.

        Keeps horizons advancing while the class is idle, and doubles
        as the retransmission opportunity that lets NACK repair fire
        after a dropped gossip.  Pointless on an ideal network (the
        runtime only starts it under a faulty plan).
        """
        self.network.at_tick(
            self.network.tick_now + self.heartbeat, self._heartbeat_fire
        )

    def _heartbeat_fire(self) -> None:
        if self.index is not None and not self.network.is_down(self.name):
            # Stamp-only gossip when there is no journal news: peers
            # whose horizons lag will NACK and trigger a resend.
            self._gossip_stamps()
        self.start_heartbeat()

    def _gossip_stamps(self) -> None:
        for peer in self.peers:
            sent = self._sent_through[peer]
            self.network.send(
                self.name,
                peer,
                "GOSSIP",
                {
                    "class": self.class_id,
                    "from_seq": sent,
                    "entries": self.journal[sent:],
                    "stamp": self.known_now,
                },
            )
            self._sent_through[peer] = len(self.journal)
