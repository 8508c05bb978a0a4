"""The coordinator front-end of the distributed segment-controller runtime.

:class:`DistributedRuntime` is a :class:`~repro.scheduling.BaseScheduler`
— the simulator, the server and the explorer drive it through the same
``begin``/``read``/``write``/``commit``/``abort`` funnels as any other
scheduler — that executes every operation as a synchronous RPC over a
:class:`~repro.dist.net.SimNetwork` to the
:class:`~repro.dist.node.SegmentNode` owning the touched segment.  In
the HDD modes the access rule is not restated here: the runtime hosts
the same :class:`~repro.core.protocol.HDDProtocol` core as the
monolithic scheduler and binds the core's host surface to RPCs, flush
barriers and fences (DESIGN.md §17).

Modes
-----
``hdd`` / ``hdd-to``
    Full HDD dispatch (Protocols A/B/C) with one node per DHG class;
    ``hdd-to`` runs basic TO as the intra-class engine.
``to`` / ``mvto``
    The whole-database baselines, sharded one engine per segment.
    Engine state is per-granule, so sharding preserves the monolithic
    outcome per operation exactly.

Byte-identity at zero faults
----------------------------
On an ideal plan every RPC resolves inside one network tick, handlers
gossip before they acknowledge, and digest horizons read the shared
oracle clock — so every wall, outcome, timestamp and schedule step
matches the monolithic scheduler byte for byte (the equivalence test
pins this): both run the one protocol core, and each host call below
does over the wire what its monolithic twin does in process.

The wire is chosen from the plan
--------------------------------
An HDD runtime on an ideal plan speaks the *coalesced* wire
(``batch_gossip``, set here from ``plan.is_ideal`` — never by the
caller); every other run speaks the eager one.  Coalescing changes the
wire without touching the execution.  Nodes stop pushing journal gossip
eagerly from inside handlers; instead the coordinator raises *flush
barriers* exactly where digests are consumed: every node flushes to the
leader before a POLL (``e_func`` and settlement read every class's
digest, and an interval end at any timestamp can flip computability),
and the intermediate classes of the critical path flush to the target
before a wall-computing READ_A (one-hop walls are first-hand at the
target and need no barrier).  BEGIN stays a synchronous RPC — its
gossip may defer, but the class's own activity log is first-hand where
it matters.  A *poll governor* additionally skips POLLs that are
provably no-ops, using the leader's ``pending``/``blocked_on`` response
fields and the retry-gate argument (a blocked wall computation at a
fixed base can only turn around when the blocking class closes an
interval — and every closure goes through this coordinator).  The WALL
broadcast is suppressed entirely: no node reads it, and the
coordinator — the only wall consumer — gets walls from POLL responses.
Committed schedule, stats, walls and values are byte-identical to the
monolith (pinned by ``tests/dist/test_equivalence.py`` and
``test_batching.py``).  A faulty plan keeps the eager wire: the
governor is sound only while the leader's digests are exact after the
flush barrier and no POLL response is ever lost, and the explorer's
``deliver``/``rto`` perturbations reorder exactly the deliveries the
barriers rely on (DESIGN.md §11).

Fault handling
--------------
Reliable RPCs retransmit with doubled timeouts (nodes deduplicate by
request id and replay the recorded response).  A node crash loses its
volatile state; every response carries the node's *incarnation*, and the
coordinator kills any transaction that touched engine state on an older
incarnation — plus a commit-time ``COMMIT_CHECK`` fence when the fault
plan contains crashes, so a crash the coordinator never observed
mid-flight still cannot commit a transaction whose conflict-detection
state evaporated.

``stats`` is a *merged view* over the coordinator's own counters
(``_stats``, which the ``BaseScheduler`` funnels increment: lifecycles)
and every node's (operations) — the split avoids double counting.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Iterator, Optional

from repro.core.partition import HierarchicalPartition
from repro.core.protocol import HDDProtocol
from repro.core.timewall import TimeWall, TimeWallManager
from repro.dist.net import FaultPlan, Message, SimNetwork
from repro.dist.node import SegmentNode, node_name
from repro.errors import ConfigError, ProtocolViolation, ReproError
from repro.obs.events import (
    EventSink,
    MessageDeliveredEvent,
    MessageDroppedEvent,
    MessageSentEvent,
    NodeCrashedEvent,
    NodeRecoveredEvent,
    WorkerProcessEvent,
    OpSpanEvent,
)
from repro.scheduling import (
    BaseScheduler,
    Outcome,
    SchedulerStats,
    aborted,
    blocked,
    granted,
)
from repro.txn.clock import LogicalClock, Timestamp
from repro.txn.transaction import GranuleId, SegmentId, Transaction

#: Modes and the intra-class / shard engine each one runs.
MODES = {
    "hdd": "mvto",
    "hdd-to": "to",
    "to": "to",
    "mvto": "mvto",
}

#: Pump budget (net ticks) for an unreliable POLL before abandoning it.
POLL_BUDGET = 32
#: Pump budget for a reliable RPC; far above any fault window in a plan.
RPC_BUDGET = 200_000


class WallView:
    """The coordinator's replica of the leader's released time walls.

    Append-only (the distributed runtime never retires walls — see
    DESIGN.md §11) and resequenced locally, so a leader crash that
    resets the manager's numbering cannot make the view go backwards:
    only walls with a release timestamp above the newest held one are
    ingested.
    """

    def __init__(self) -> None:
        self.released: list[TimeWall] = []
        self.total_released = 0

    def ingest(self, serialized: list[dict]) -> None:
        for record in sorted(serialized, key=lambda w: w["release_ts"]):
            newest = (
                self.released[-1].release_ts if self.released else -1
            )
            if record["release_ts"] <= newest:
                continue
            self.total_released += 1
            self.released.append(
                TimeWall(
                    record["start_class"],
                    record["base_time"],
                    record["release_ts"],
                    dict(record["components"]),
                    seq=self.total_released,
                )
            )

    #: Newest wall with ``RT < I(t)``: the manager's own bisection,
    #: which reads nothing but the ascending ``released`` list.
    wall_for = TimeWallManager.wall_for


class FederatedStore:
    """The union of every node's store, routed by granule segment.

    Routing goes through the node *objects* (not captured store
    references) because a crash-restart rebuilds ``node.store`` from the
    WAL — the federation must always see the live one.
    """

    def __init__(
        self,
        nodes: dict[SegmentId, SegmentNode],
        segment_of,
    ) -> None:
        self._nodes = nodes
        self._segment_of = segment_of

    def _store_for(self, granule: GranuleId):
        return self._nodes[self._segment_of(granule)].store

    def chain(self, granule: GranuleId):
        return self._store_for(granule).chain(granule)

    def seed(self, granule: GranuleId, value: object = 0):
        return self._store_for(granule).seed(granule, value)

    def committed_value(self, granule: GranuleId) -> object:
        return self._store_for(granule).committed_value(granule)

    def __contains__(self, granule: GranuleId) -> bool:
        return any(granule in node.store for node in self._nodes.values())

    def granules(self) -> list[GranuleId]:
        out: list[GranuleId] = []
        for segment in sorted(self._nodes):
            out.extend(self._nodes[segment].store.granules())
        return out

    def total_versions(self) -> int:
        return sum(
            node.store.total_versions() for node in self._nodes.values()
        )

    def snapshot_cache_stats(self) -> tuple[int, int]:
        """Aggregate frozen-prefix cache ``(hits, misses)`` over nodes."""
        hits = 0
        misses = 0
        for node in self._nodes.values():
            node_hits, node_misses = node.store.snapshot_cache_stats()
            hits += node_hits
            misses += node_misses
        return hits, misses

    def snapshot_cache_report(self) -> dict[str, int]:
        """Admission-policy accounting summed over every node's store."""
        totals: dict[str, int] = {}
        for node in self._nodes.values():
            for key, value in node.store.snapshot_cache_report().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def __iter__(self) -> Iterator:
        for segment in sorted(self._nodes):
            yield from self._nodes[segment].store


class DistributedRuntime(BaseScheduler):
    """Coordinator + per-segment nodes over a deterministic network."""

    COORD = "coord"
    #: Node implementation to instantiate — ``repro explore``'s mutation
    #: corpus swaps in deliberately-broken subclasses here.
    NODE_CLASS = SegmentNode

    def __init__(
        self,
        partition: HierarchicalPartition,
        mode: str = "hdd",
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        wall_interval: int = 25,
        heartbeat: int = 5,
        clock: Optional[LogicalClock] = None,
        snapshot_cache: bool = True,
        transport: str = "sim",
        procs: Optional[int] = None,
        wal_dir: Optional[str] = None,
    ) -> None:
        engine = MODES.get(mode)
        if engine is None:
            raise ConfigError(
                f"unknown dist mode {mode!r}; choose from {sorted(MODES)}"
            )
        if transport not in ("sim", "proc"):
            raise ConfigError(
                f"unknown transport {transport!r}; choose 'sim' or 'proc'"
            )
        super().__init__(clock=clock)
        self.mode = mode
        self.name = f"dist-{mode}"
        self.is_hdd = mode in ("hdd", "hdd-to")
        self.partition = partition
        self.plan = plan if plan is not None else FaultPlan()
        self.wall_interval = wall_interval
        #: The coalesced, governed wire (module docstring) — chosen from
        #: the plan, internal wiring the nodes are told about.
        self.batch_gossip = self.is_hdd and self.plan.is_ideal
        self.snapshot_cache = snapshot_cache
        self.transport = transport
        # -- network and nodes -----------------------------------------
        classes = sorted(partition.segments)
        self.leader_class = None
        if self.is_hdd:
            self.leader_class = sorted(
                map(str, partition.index.lowest_classes())
            )[0]
        if transport == "proc":
            from repro.dist.proc import (
                ProcNetwork,
                ProcNodeProxy,
                build_node_configs,
            )

            configs = build_node_configs(
                partition,
                engine,
                classes,
                self.leader_class,
                self.is_hdd,
                wall_interval,
                heartbeat,
                self.batch_gossip,
                snapshot_cache,
            )
            self.network = ProcNetwork(
                self.plan,
                seed=seed,
                sink_hook=self._net_event,
                node_configs=configs,
                procs=procs,
                wal_dir=wal_dir,
            )
            self.network.proc_hook = self._proc_event
            self.nodes = {
                class_id: ProcNodeProxy(self.network, class_id)
                for class_id in classes
            }
        else:
            self.network = SimNetwork(
                self.plan, seed=seed, sink_hook=self._net_event
            )
            if self.is_hdd:
                leader_class = self.leader_class
                if self.plan.is_ideal:
                    oracle = self.clock

                    def horizon_for(node, cls):
                        return lambda: oracle.now

                else:

                    def horizon_for(node, cls):
                        return lambda: node._horizons.get(cls, 0)

                self.nodes: dict[SegmentId, SegmentNode] = {}
                for class_id in classes:
                    peers = sorted(
                        {
                            node_name(other)
                            for other in classes
                            if other != class_id
                            and partition.index.comparable(class_id, other)
                        }
                        | {node_name(leader_class)}
                    )
                    self.nodes[class_id] = self.NODE_CLASS(
                        class_id,
                        self.network,
                        engine_name=engine,
                        index=partition.index,
                        peers=peers,
                        all_classes=classes,
                        horizon_for=horizon_for,
                        leader=class_id == leader_class,
                        wall_interval=wall_interval,
                        heartbeat=heartbeat,
                        batch_gossip=self.batch_gossip,
                        snapshot_cache=snapshot_cache,
                    )
            else:
                self.nodes = {
                    class_id: self.NODE_CLASS(
                        class_id, self.network, engine_name=engine
                    )
                    for class_id in classes
                }
        self.network.register(self.COORD, self._on_message)
        self.network.lifecycle_hook = self._node_lifecycle
        self._nodes_by_name = {
            node.name: node for node in self.nodes.values()
        }
        if self.is_hdd and not self.plan.is_ideal:
            for node in self.nodes.values():
                node.start_heartbeat()
        self.store = FederatedStore(self.nodes, partition.segment_of)
        if self.is_hdd:
            # Instance attributes on purpose: the simulator probes
            # ``getattr(scheduler, "walls"/"poll_walls", None)`` and the
            # server asks ``scheduler.protocol`` — the baselines must
            # stay invisible to both.
            self.walls = WallView()
            self.poll_walls = self._poll_walls
            self.protocol = HDDProtocol(self)
            self._make_transaction = self.protocol.classify
        # -- RPC machinery ---------------------------------------------
        self._next_req = 1
        self._pending: set[int] = set()
        #: Fire-and-forget reliable requests (abort finalizes to a dead
        #: node): retransmits keep firing until the ack arrives, but no
        #: pump ever waits for it — the ack is swallowed on delivery.
        self._background: set[int] = set()
        self._responses: dict[int, dict] = {}
        #: Depth of nested operation funnels; an :class:`OpSpanEvent`
        #: is emitted only when the *outermost* one returns.
        self._op_depth = 0
        self._inc_seen: list[tuple[str, int]] = []
        self._node_inc: dict[str, int] = {}
        #: ``txn_id -> node name -> incarnation at first *stateful*
        #: touch`` (BEGIN / engine read / write).  Protocol A/C reads
        #: are stateless at the node and need no fencing.
        self._txn_touch: dict[int, dict[str, int]] = {}
        self._rto = max(
            2 * (self.plan.latency + self.plan.jitter + self.plan.spike_ticks)
            + 2,
            4,
        )
        # -- gossip batching: barriers and the poll governor -----------
        #: Classes whose digests a wall-computing READ_A at a target
        #: node consumes, keyed by ``(start, target, from_below)``.
        self._read_a_deps: dict[
            tuple[SegmentId, SegmentId, bool], tuple[SegmentId, ...]
        ] = {}
        #: The governor skips POLLs that are provably no-ops.  Sound
        #: only on an ideal plan, where the leader's digests are exact
        #: after the flush barrier and no response is ever lost — which
        #: is exactly where the wire is coalesced.
        self._gov_active = self.batch_gossip
        #: Last POLL's verdict: ``None`` = must poll, ``("idle",)`` =
        #: poll only when the release cadence comes due, ``("blocked",
        #: class, ends)`` = poll only after that class closes an
        #: interval (the retry-gate argument, relocated to the wire).
        self._gov_state: Optional[tuple] = None
        #: Interval closures this coordinator has finalized, per class.
        self._gov_ends: dict[SegmentId, int] = {}
        #: POLL round-trips the governor avoided (observability only —
        #: never merged into ``stats``, which must match the monolith).
        self.polls_skipped = 0

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------
    def _net_event(self, message: Message, what: str) -> None:
        sink = self._sink
        if sink is None:
            return
        common = dict(
            step=self.current_step,
            ts=self.network.tick_now,
            seq=message.seq,
            src=message.src,
            dst=message.dst,
            msg_kind=message.kind,
            lamport=message.lamport,
            txn_id=message.txn_id,
            parent_span=message.parent_span,
            retransmit_of=message.retransmit_of,
            req=message.payload.get("req"),
        )
        if what == "sent":
            sink.emit(MessageSentEvent(**common))
        elif what == "delivered":
            sink.emit(
                MessageDeliveredEvent(
                    **common,
                    delay=self.network.tick_now - message.send_tick,
                )
            )
        else:
            sink.emit(MessageDroppedEvent(**common, fate=message.fate))

    def _node_lifecycle(self, name: str, what: str) -> None:
        sink = self._sink
        if sink is None:
            return
        if what == "down":
            sink.emit(
                NodeCrashedEvent(
                    step=self.current_step,
                    ts=self.network.tick_now,
                    node=name,
                )
            )
            return
        node = self._nodes_by_name.get(name)
        sink.emit(
            NodeRecoveredEvent(
                step=self.current_step,
                ts=self.network.tick_now,
                node=name,
                incarnation=node.incarnation if node is not None else 0,
                wal_records=(
                    node.wal_record_count() if node is not None else 0
                ),
            )
        )

    def _proc_event(self, name: str, pid: int, what: str) -> None:
        sink = self._sink
        if sink is None:
            return
        sink.emit(
            WorkerProcessEvent(
                step=self.current_step,
                ts=self.network.tick_now,
                node=name,
                pid=pid,
                what=what,
            )
        )

    def _on_message(self, message: Message) -> None:
        if message.kind != "RESP":  # pragma: no cover - nodes only RESP
            return
        payload = message.payload
        node = payload.get("node")
        if node is not None:
            self._inc_seen.append((node, int(payload.get("inc", 0))))
        req = payload.get("req")
        if req in self._background:
            # Fire-and-forget ack: stop the retransmits, keep nothing.
            self._background.discard(req)
            self._pending.discard(req)
        elif req in self._pending:
            # Passive stashing only: never pump or mutate transaction
            # state from inside a delivery (the waiting _rpc does that).
            self._responses[req] = dict(payload)

    def _schedule_retransmit(
        self,
        req_id: int,
        dst: str,
        kind: str,
        wire: dict,
        rto: int,
        txn_id: Optional[int],
        origin_seq: int,
    ) -> None:
        def fire() -> None:
            if req_id not in self._pending:
                return
            self.network.send(
                self.COORD,
                dst,
                kind,
                wire,
                txn_id=txn_id,
                parent=origin_seq,
                retransmit_of=origin_seq,
            )
            self._schedule_retransmit(
                req_id,
                dst,
                kind,
                wire,
                min(rto * 2, 8 * self._rto),
                txn_id,
                origin_seq,
            )

        deadline = self.network.tick_now + rto
        perturb = getattr(self.network, "perturb", None)
        if perturb is not None:
            # Slip 0 is the baseline deadline, so an all-zeros perturber
            # keeps the retransmit timeline byte-identical.
            deadline += (0, 1, 2, 3)[min(perturb.choose("rto", 4), 3)]
        self.network.at_tick(deadline, fire)

    def _rpc(
        self,
        node: SegmentId,
        kind: str,
        payload: dict,
        reliable: bool = True,
        txn_id: Optional[int] = None,
    ) -> Optional[dict]:
        """One synchronous request/response exchange with a node.

        Reliable RPCs retransmit until answered (nodes replay cached
        responses for duplicate request ids); unreliable ones (POLL) get
        a small pump budget and may return ``None``.  Incarnation
        observations picked up by the passive receive handler are acted
        on *after* the pump returns, so fencing aborts never run
        re-entrantly inside a message delivery.
        """
        req_id = self._next_req
        self._next_req += 1
        wire = {**payload, "req": req_id, "now": self.clock.now}
        self._pending.add(req_id)
        dst = node_name(node)
        sent = self.network.send(self.COORD, dst, kind, wire, txn_id=txn_id)
        if reliable and not self.plan.is_ideal:
            self._schedule_retransmit(
                req_id, dst, kind, wire, self._rto, txn_id, sent.seq
            )
        if not reliable and sent.fate not in ("in-flight", "delivered"):
            # The request died on the wire and nothing will retransmit
            # it: abandon now instead of burning the poll budget (the
            # fate is drawn at send time, so this stays deterministic;
            # the proc transport marks enqueued frames "delivered"
            # immediately, which must not look dead).
            self._pending.discard(req_id)
            self._process_incarnations()
            return None
        budget = RPC_BUDGET if reliable else POLL_BUDGET
        self.network.pump(lambda: req_id in self._responses, budget)
        self._pending.discard(req_id)
        response = self._responses.pop(req_id, None)
        self._process_incarnations()
        if response is None and reliable:
            raise ReproError(
                f"RPC {kind} to {dst} starved after {budget} net ticks"
            )
        return response

    def _rpc_background(
        self,
        node: SegmentId,
        kind: str,
        payload: dict,
        txn_id: Optional[int],
    ) -> None:
        """A reliable request nobody waits for (dead-on-wire cleanup).

        Used to finalize an abort at a node that is *down right now*:
        pumping for the ack would stall the whole coordinator until the
        node recovers, for a transaction that is already doomed.  The
        retransmit timers keep firing during every later pump, so the
        finalize lands (and the activity interval closes) shortly after
        recovery; the passive receive handler swallows the ack.
        """
        req_id = self._next_req
        self._next_req += 1
        wire = {**payload, "req": req_id, "now": self.clock.now}
        self._pending.add(req_id)
        self._background.add(req_id)
        dst = node_name(node)
        sent = self.network.send(self.COORD, dst, kind, wire, txn_id=txn_id)
        if not self.plan.is_ideal:
            self._schedule_retransmit(
                req_id, dst, kind, wire, self._rto, txn_id, sent.seq
            )

    def _crash_capable(self) -> bool:
        """Can a node lose volatile state in this run?

        True when the fault plan schedules crashes (the sim transport)
        or the network has already seen a real process die (the proc
        transport, whose kills are imperative, not planned) — the two
        gates that arm the wire fence and the commit-time fence.
        """
        return bool(self.plan.crashes) or bool(
            getattr(self.network, "crashes_seen", 0)
        )

    def _touch(self, txn_id: int, class_id: SegmentId) -> None:
        """Record first *stateful* contact for incarnation fencing."""
        name = node_name(class_id)
        self._txn_touch.setdefault(txn_id, {}).setdefault(
            name, self._node_inc.get(name, 0)
        )

    def _process_incarnations(self) -> None:
        while self._inc_seen:
            node, inc = self._inc_seen.pop(0)
            if inc > self._node_inc.get(node, 0):
                self._node_inc[node] = inc
                self._fence(node, inc)

    def _fence(self, node: str, inc: int) -> None:
        """Kill every live transaction whose engine state died with
        ``node``'s previous incarnation."""
        victims = [
            txn
            for txn in self._active.values()
            if txn.is_active
            and self._txn_touch.get(txn.txn_id, {}).get(node, inc) < inc
        ]
        for txn in sorted(victims, key=lambda t: t.txn_id):
            if txn.is_active:  # a nested fence may have got there first
                self.cleanup_abort(
                    txn, f"node restart: {node} lost in-flight state"
                )

    def _wire_fence(self, txn: Transaction) -> Optional[Outcome]:
        """Fast-abandon a transaction whose stateful node is down *now*.

        The recorded touch incarnation is at most the node's incarnation
        when it went down, and recovery bumps it past that — so the
        incarnation fence is guaranteed to kill this transaction at its
        next observation.  Aborting immediately (with the abort finalize
        running fire-and-forget via :meth:`_rpc_background`) spares the
        client the wait for the node's recovery; the interval closes
        when the retransmitted finalize lands after restart.
        """
        if not self._crash_capable():
            return None
        touched = self._txn_touch.get(txn.txn_id)
        if not touched:
            return None
        for name in sorted(touched):
            if self.network.is_down(name):
                reason = f"dead on wire: {name} is down with in-flight state"
                self.cleanup_abort(txn, reason, background=True)
                return aborted(reason)
        return None

    @staticmethod
    def _outcome(response: dict) -> Outcome:
        status = response["status"]
        if status == "granted":
            return granted(
                value=response.get("value"),
                version_ts=response.get("version_ts"),
            )
        if status == "blocked":
            return blocked(waiting_for=response["waiting_for"])
        return aborted(response.get("reason") or "rejected at node")

    @staticmethod
    def _txn_meta(txn: Transaction) -> dict:
        return {
            "id": txn.txn_id,
            "I": txn.initiation_ts,
            "class": txn.class_id,
            "ro": txn.is_read_only,
        }

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def set_sink(self, sink: Optional[EventSink]) -> None:
        super().set_sink(sink)
        for node in self.nodes.values():
            node.sink = self._sink
        if self.is_hdd:
            leader = self.nodes[self.leader_class]
            if leader.leader:
                leader.walls.set_sink(self._sink, step_source=self)

    def _span_open(self) -> int:
        """Enter an operation funnel; returns its start network tick."""
        self._op_depth += 1
        return self.network.tick_now

    def _span_close(
        self,
        op: str,
        txn_id: Optional[int],
        start_tick: int,
        status: str = "",
    ) -> None:
        """Leave an operation funnel; the outermost one emits its span.

        Nested funnels (the wall poll inside begin/commit, the cleanup
        abort a fence runs inside another transaction's read) stay
        silent: their ticks belong to the enclosing span, and the
        critical-path analyzer re-attributes them RPC by RPC.
        """
        self._op_depth -= 1
        if self._sink is None or self._op_depth:
            return
        self._sink.emit(
            OpSpanEvent(
                step=self.current_step,
                ts=self.network.tick_now,
                txn_id=txn_id,
                op=op,
                start_tick=start_tick,
                end_tick=self.network.tick_now,
                status=status,
            )
        )

    # ------------------------------------------------------------------
    # Operations: the BaseScheduler funnels, each inside an op span
    # ------------------------------------------------------------------
    # Every span closes in a ``finally``: a funnel that raises (a
    # ``ProtocolViolation`` from the core, a starved RPC) must not leave
    # ``_op_depth`` raised, or no later span of the run would be the
    # outermost one.  The raising operation's span reports ``"error"``,
    # the server's word for the same thing.
    def begin(self, profile=None, read_only=False) -> Transaction:
        start_tick = self._span_open()
        txn_id = None
        status = "error"
        try:
            txn = super().begin(profile=profile, read_only=read_only)
            txn_id = txn.txn_id
            if self.is_hdd:
                self.poll_walls(txn_id)
            status = ""
            return txn
        finally:
            self._span_close("begin", txn_id, start_tick, status)

    def _in_span(self, op: str, funnel, txn: Transaction, *args) -> Outcome:
        """Run one base funnel (``super().read`` ...) inside its op span."""
        start_tick = self._span_open()
        status = "error"
        try:
            outcome = funnel(txn, *args)
            status = outcome.kind.value
            return outcome
        finally:
            self._span_close(op, txn.txn_id, start_tick, status)

    def read(self, txn: Transaction, granule: GranuleId) -> Outcome:
        return self._in_span("read", super().read, txn, granule)

    def write(
        self, txn: Transaction, granule: GranuleId, value: object
    ) -> Outcome:
        return self._in_span("write", super().write, txn, granule, value)

    def commit(self, txn: Transaction) -> Outcome:
        return self._in_span("commit", super().commit, txn)

    def _killed(self, txn: Transaction) -> Outcome:
        """A background incarnation fence aborted this transaction; the
        driver's next operation learns it as an aborted outcome instead
        of the exception a monolithic scheduler would raise."""
        return aborted(
            txn.abort_reason or "transaction killed by a node restart"
        )

    # ------------------------------------------------------------------
    # The protocol core's host surface, bound to the wire
    # ------------------------------------------------------------------
    def admit(self, txn: Transaction) -> Optional[Outcome]:
        if not txn.is_active:
            return self._killed(txn)
        return self._wire_fence(txn)

    def open_interval(self, txn: Transaction) -> None:
        # BEGIN is a *reliable awaited* RPC: a lost begin would leave an
        # interval the class activity log never opened, and no later
        # message can repair the walls computed in the gap.
        self._touch(txn.txn_id, txn.class_id)
        self._rpc(
            txn.class_id,
            "BEGIN",
            {"txn": self._txn_meta(txn)},
            txn_id=txn.txn_id,
        )

    def engine_read(self, txn: Transaction, granule: GranuleId) -> Outcome:
        return self._engine_op(
            txn, txn.class_id, "READ_B", {"granule": granule}
        )

    def engine_write(
        self, txn: Transaction, granule: GranuleId, value: object
    ) -> Outcome:
        return self._engine_op(
            txn, txn.class_id, "WRITE", {"granule": granule, "value": value}
        )

    def wall_read(
        self,
        txn: Transaction,
        granule: GranuleId,
        segment: SegmentId,
        start: SegmentId,
        from_below: bool,
        wall: Optional[Timestamp],
    ) -> tuple[Optional[Timestamp], Outcome]:
        if self.batch_gossip and wall is None:
            # The node is about to compute A_start^segment(I) from its
            # digests.
            self._flush_for_wall_read(start, segment, from_below)
        response = self._rpc(
            segment,
            "READ_A",
            {
                "txn_id": txn.txn_id,
                "I": txn.initiation_ts,
                "granule": granule,
                "bottom" if from_below else "reader_class": start,
                "wall": wall,
            },
            txn_id=txn.txn_id,
        )
        if not txn.is_active:
            return None, self._killed(txn)
        return response["wall"], self._mirror_read(txn, granule, response)

    def component_read(
        self,
        txn: Transaction,
        granule: GranuleId,
        component: Timestamp,
        segment: SegmentId,
    ) -> Outcome:
        response = self._rpc(
            segment,
            "READ_C",
            {
                "txn_id": txn.txn_id,
                "granule": granule,
                "component": component,
            },
            txn_id=txn.txn_id,
        )
        if not txn.is_active:
            return self._killed(txn)
        return self._mirror_read(txn, granule, response)

    def pin_wall(self, txn: Transaction, wall: TimeWall) -> TimeWall:
        return wall  # no pin: the distributed runtime never retires walls

    def unpin_wall(self, txn: Transaction, pinned: TimeWall) -> None:
        pass

    def _do_read(self, txn: Transaction, granule: GranuleId) -> Outcome:
        if self.is_hdd:
            return self.protocol.read(txn, granule)
        refused = self.admit(txn)
        if refused is not None:
            return refused
        return self._baseline_op(txn, "READ_B", {"granule": granule})

    def _mirror_read(
        self, txn: Transaction, granule: GranuleId, response: dict
    ) -> Outcome:
        """Mirror a node-granted wall read into the coordinator's
        transaction record and authoritative schedule."""
        txn.record_read(granule)
        self.schedule.record_read(
            txn.txn_id, granule, response["version_ts"]
        )
        return granted(
            value=response.get("value"),
            version_ts=response["version_ts"],
        )

    def _engine_op(
        self,
        txn: Transaction,
        segment: SegmentId,
        kind: str,
        payload: dict,
    ) -> Outcome:
        """A Protocol B (or baseline shard) engine operation at a node."""
        self._touch(txn.txn_id, segment)
        response = self._rpc(
            segment,
            kind,
            {**payload, "txn": self._txn_meta(txn)},
            txn_id=txn.txn_id,
        )
        if not txn.is_active:
            return self._killed(txn)
        outcome = self._outcome(response)
        if outcome.granted:
            granule = payload["granule"]
            if kind == "WRITE":
                txn.record_write(granule, payload["value"])
                self.schedule.record_write(
                    txn.txn_id, granule, outcome.version_ts
                )
            else:
                txn.record_read(granule)
                self.schedule.record_read(
                    txn.txn_id, granule, outcome.version_ts
                )
        return outcome

    def _baseline_op(
        self, txn: Transaction, kind: str, payload: dict
    ) -> Outcome:
        segment = self.partition.segment_of(payload["granule"])
        outcome = self._engine_op(txn, segment, kind, payload)
        if outcome.aborted and txn.is_active:
            self.cleanup_abort(txn, outcome.reason or "TO rejection")
        return outcome

    def _do_write(
        self, txn: Transaction, granule: GranuleId, value: object
    ) -> Outcome:
        if self.is_hdd:
            return self.protocol.write(txn, granule, value)
        refused = self.admit(txn)
        if refused is not None:
            return refused
        if txn.is_read_only:
            raise ProtocolViolation(
                f"read-only txn {txn.txn_id} attempted a write"
            )
        return self._baseline_op(
            txn, "WRITE", {"granule": granule, "value": value}
        )

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------
    def _do_commit(self, txn: Transaction) -> Outcome:
        refused = self.admit(txn)
        if refused is not None:
            return refused
        if self._crash_capable() and not txn.is_read_only:
            veto = self._crash_fence(txn)
            if veto is not None:
                return veto
        commit_ts = self._finish_commit(txn)
        # Deterministic finalize order: first appearance in the private
        # workspace (write_set is a salted-hash set — never iterate it
        # where order can reach the wire or the log).
        by_node: dict[SegmentId, list[list]] = {}
        for granule in txn.workspace:
            segment = self.partition.segment_of(granule)
            by_node.setdefault(segment, []).append(
                [granule, txn.workspace[granule]]
            )
        if self.is_hdd:
            if txn.class_id is not None:
                writes = by_node.get(txn.class_id, [])
                self._rpc(
                    txn.class_id,
                    "COMMIT_FINALIZE",
                    {
                        "txn_id": txn.txn_id,
                        "I": txn.initiation_ts,
                        "commit_ts": commit_ts,
                        "writes": writes,
                        "close": True,
                    },
                    txn_id=txn.txn_id,
                )
                self._note_closure(txn.class_id)
        else:
            # Finalize everywhere the transaction holds engine state,
            # written or not, so per-transaction state is dropped like
            # the monolithic engine.forget would.
            touched = [
                segment
                for segment in sorted(self.nodes)
                if node_name(segment) in self._txn_touch.get(txn.txn_id, {})
            ]
            for segment in touched:
                self._rpc(
                    segment,
                    "COMMIT_FINALIZE",
                    {
                        "txn_id": txn.txn_id,
                        "I": txn.initiation_ts,
                        "commit_ts": commit_ts,
                        "writes": by_node.get(segment, []),
                        "close": False,
                    },
                    txn_id=txn.txn_id,
                )
        self._forget(txn)
        if self.is_hdd:
            self.poll_walls(txn.txn_id)
        return granted(version_ts=commit_ts)

    def _crash_fence(self, txn: Transaction) -> Optional[Outcome]:
        """Commit-time incarnation check against every stateful node."""
        for name, inc in sorted(
            self._txn_touch.get(txn.txn_id, {}).items()
        ):
            segment = name.removeprefix("node:")
            response = self._rpc(
                segment,
                "COMMIT_CHECK",
                {"txn_id": txn.txn_id},
                txn_id=txn.txn_id,
            )
            if not txn.is_active:
                return self._killed(txn)
            if not response["known"] or response["inc"] != inc:
                reason = f"node restart: {name} lost in-flight state"
                self.cleanup_abort(txn, reason)
                return aborted(reason)
        return None

    def abort(self, txn: Transaction, reason: str) -> None:
        if not txn.is_active:
            return  # a background fence already finished the job
        start_tick = self._span_open()
        status = "error"
        try:
            self.cleanup_abort(txn, reason)
            status = "aborted"
        finally:
            self._span_close("abort", txn.txn_id, start_tick, status)

    def cleanup_abort(
        self, txn: Transaction, reason: str, background: bool = False
    ) -> None:
        abort_ts = self._finish_abort(txn, reason)
        by_node: dict[SegmentId, list[GranuleId]] = {}
        for granule in txn.workspace:
            segment = self.partition.segment_of(granule)
            by_node.setdefault(segment, []).append(granule)
        if self.is_hdd:
            targets = [txn.class_id] if txn.class_id is not None else []
        else:
            targets = [
                segment
                for segment in sorted(self.nodes)
                if node_name(segment) in self._txn_touch.get(txn.txn_id, {})
            ]
        for segment in targets:
            wire = {
                "txn_id": txn.txn_id,
                "I": txn.initiation_ts,
                "abort_ts": abort_ts,
                "granules": by_node.get(segment, []),
                "close": self.is_hdd,
            }
            if background:
                # The target is down *right now* (wire fence): a
                # synchronous finalize would stall on the very outage
                # that doomed the transaction.  Fire-and-forget keeps
                # the retransmit timer alive until the node recovers.
                self._rpc_background(
                    segment, "ABORT_FINALIZE", wire, txn.txn_id
                )
            else:
                self._rpc(
                    segment, "ABORT_FINALIZE", wire, txn_id=txn.txn_id
                )
            if self.is_hdd:
                self._note_closure(segment)
        self._forget(txn)
        if self.is_hdd:
            self.poll_walls(txn.txn_id)

    def _forget(self, txn: Transaction) -> None:
        if self.is_hdd:
            self.protocol.forget(txn)
        self._txn_touch.pop(txn.txn_id, None)

    # ------------------------------------------------------------------
    # Walls and gossip batching
    # ------------------------------------------------------------------
    def _note_closure(self, class_id: SegmentId) -> None:
        """An interval of ``class_id`` just closed (commit/abort
        finalize): the poll governor may now have to poll again."""
        self._gov_ends[class_id] = self._gov_ends.get(class_id, 0) + 1

    def _flush_for_wall_read(
        self, start: SegmentId, target: SegmentId, from_below: bool
    ) -> None:
        """Coalesced-wire barrier before a wall-computing READ_A.

        ``a_func(start, target, I)`` at the target node walks
        ``I_old`` hops over ``critical_path[1:]`` — the target's own
        log is first-hand, so only the *intermediate* classes' digests
        matter (a one-hop path needs no flush at all).  The
        fictitious-class variant prepends an ``I_old`` hop at ``start``
        itself, so ``start``'s digest joins the set.
        """
        key = (start, target, from_below)
        deps = self._read_a_deps.get(key)
        if deps is None:
            path = self.partition.index.critical_path(start, target)
            middle = list(path[1:-1]) if path else []
            if from_below and path and start != target:
                middle.insert(0, path[0])
            deps = tuple(middle)
            self._read_a_deps[key] = deps
        dst = node_name(target)
        for class_id in deps:
            self.nodes[class_id].flush_gossip_to(dst)

    def _gov_skip(self) -> bool:
        """Is the next POLL provably a no-op at the leader?

        Mirrors the leader's own logic against coordinator-local state:
        with no pending computation, ``poll()`` only acts when the
        release cadence is due (the coordinator holds every released
        wall, so it evaluates the same ``now - last_base`` test); with a
        pending computation gated on a class, ``poll()`` skips until
        that class closes an interval — and every closure goes through
        this coordinator's finalize RPCs.
        """
        state = self._gov_state
        if state is None:
            return False
        if state[0] == "idle":
            if not self.walls.released:
                return False
            last_base = self.walls.released[-1].base_time
            return self.clock.now - last_base < self.wall_interval
        _, class_id, ends = state
        return self._gov_ends.get(class_id, 0) == ends

    def _poll_walls(self, txn_id: Optional[int] = None) -> None:
        """Ask the leader to drive its wall manager; ingest fresh walls.

        Unreliable on purpose: under faults an abandoned poll just means
        the next one (every begin/commit/abort and every idle simulator
        step) tries again.  On the coalesced wire every node first
        flushes its deferred gossip to the leader — ``e_func`` and
        settlement read every class's digest, and ends at *any*
        timestamp can change computability, so the leader barrier is
        total (unlike READ_A's).
        """
        start_tick = self._span_open()
        status = "error"
        try:
            self._do_poll_walls(txn_id)
            status = ""
        finally:
            self._span_close("poll", txn_id, start_tick, status)

    def _do_poll_walls(self, txn_id: Optional[int]) -> None:
        if self._gov_active and self._gov_skip():
            self.polls_skipped += 1
            return
        if self.batch_gossip:
            leader = node_name(self.leader_class)
            for class_id in sorted(self.nodes):
                self.nodes[class_id].flush_gossip_to(leader)
        after = (
            self.walls.released[-1].release_ts
            if self.walls.released
            else -1
        )
        response = self._rpc(
            self.leader_class,
            "POLL",
            {"after": after},
            reliable=False,
            txn_id=txn_id,
        )
        if response is None:
            self._gov_state = None
            return
        self.walls.ingest(response["walls"])
        if not self._gov_active:
            return
        pending = response.get("pending")
        if pending is None:
            self._gov_state = ("idle",)
        else:
            blocked_on = response.get("blocked_on")
            if blocked_on is None:
                self._gov_state = None
            else:
                self._gov_state = (
                    "blocked",
                    blocked_on,
                    self._gov_ends.get(blocked_on, 0),
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> SchedulerStats:
        """Coordinator lifecycle counters merged with every node's
        operation counters.  A fresh snapshot each call — mutating it
        goes nowhere."""
        merged = SchedulerStats()
        sources = [self._stats] + [
            node.stats for node in self.nodes.values()
        ]
        for spec in dataclass_fields(SchedulerStats):
            if spec.name == "aborts_by_reason":
                continue
            total = sum(getattr(s, spec.name) for s in sources)
            setattr(merged, spec.name, total)
        for source in sources:
            for reason, count in source.aborts_by_reason.items():
                merged.aborts_by_reason[reason] = (
                    merged.aborts_by_reason.get(reason, 0) + count
                )
        return merged

    @stats.setter
    def stats(self, own: SchedulerStats) -> None:
        # ``BaseScheduler.__init__`` assigns the counters its funnels
        # increment; here those are the coordinator's own share.
        self._stats = own

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release transport resources.

        A no-op on the sim transport; on the process transport it reaps
        every worker child (graceful EOF, SIGKILL backstop) so no
        zombie survives the coordinator.  Idempotent; safe from
        ``finally`` blocks and signal handlers.  The event sink is
        detached first: close typically runs after the trace file's
        ``with`` block has already flushed and closed it.
        """
        self._sink = None
        close = getattr(self.network, "close", None)
        if close is not None:
            close()
