"""The asyncio transaction server: a second driver of ``BaseScheduler``.

After the simulator (:mod:`repro.sim.engine`), this module drives any
:class:`~repro.scheduling.BaseScheduler` — a monolithic scheduler or
the distributed runtime — from *real concurrent clients* over a framed
request/response protocol (:mod:`repro.serve.protocol`), with
per-connection pipelining.

Concurrency model — the **single-writer gate**:

Scheduler state (lock tables, timestamp registries, the activity
tracker, version installs) is guarded by one ``asyncio.Lock``.  Every
state-mutating request — begin, write, commit, abort, and any read that
registers itself (2PL read locks, TO read timestamps, HDD Protocol B)
— runs inside the gate, so requests from different connections are
applied one at a time and schedulers stay race-free without knowing
they are being served.

The measurable exception is the paper's whole point: **HDD Protocol A
and Protocol C reads never enter the gate.**  A Protocol C reader pins
a released time wall and reads below its components; a Protocol A
reader reads below its activity-link wall.  Both resolve through
:meth:`VersionChain.latest_before` against versions that are *final* —
released wall components only ever expose settled prefixes (Theorem 1),
so no concurrent writer, even one mid-commit inside the gate, can
change the answer.  The server asks the scheduler's protocol core
(:meth:`repro.core.protocol.HDDProtocol.is_wall_read`) whether the
access rule routes the read below a wall and, if so, calls the
scheduler's read directly, bypassing the gate queue entirely.
``ServeStats.gate_free_reads`` counts them;
``ServeStats.gated_reads`` counts the reads that did pay the gate — the
ratio is the serve-path form of the paper's "no read locks, no read
timestamps" claim, and the tests cross-check the counter against the
per-protocol read counters in :class:`~repro.obs.metrics.MetricsRegistry`.

Blocked outcomes never reach the wire.  The server parks the request,
wakes it when the blocking condition can have changed (a commit, an
abort, a wall release, a disconnect abort) and retries; the client sees
only granted or aborted.  While a request waits on a *time wall* and no
other request is running, an idle driver advances the logical clock and
polls the wall manager — the server-side analogue of the simulator's
idle steps, and what makes the single-connection serial run
byte-identical to the simulator (``tests/serve/test_equivalence.py``).

A connection that drops with transactions still open gets them aborted
with reason ``client gone: ...`` — bucketed distinctly by
:func:`repro.obs.metrics.abort_kind` and surfaced per-reason by the
trace explainer, mirroring the distributed runtime's ``dead on wire``
treatment.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.events import (
    ConnClosedEvent,
    ConnOpenedEvent,
    OpSpanEvent,
    QueueDepthEvent,
    RunEndEvent,
)
from repro.scheduling import (
    WAIT_TIMEWALL,
    BaseScheduler,
    Outcome,
    aborted,
)
from repro.serve.protocol import (
    ProtocolError,
    aborted_response,
    error_response,
    ok_response,
    validate_request,
)
from repro.serve.transport import MemoryChannel, StreamChannel, memory_pair
from repro.txn.depgraph import is_serializable
from repro.txn.transaction import Transaction


@dataclass
class ServeStats:
    """Server-side counters, exposed through the ``stats`` op."""

    connections_opened: int = 0
    connections_closed: int = 0
    requests: int = 0
    protocol_errors: int = 0
    #: Reads served entirely outside the single-writer gate (HDD
    #: Protocol A / fictitious-class / Protocol C dispatches).
    gate_free_reads: int = 0
    #: Reads that entered the gate (Protocol B and every baseline read).
    gated_reads: int = 0
    #: Gate acquisitions, and how many found the gate already held.
    gated_ops: int = 0
    gate_waits: int = 0
    #: Operations that returned blocked at least once before resolving.
    parked_ops: int = 0
    #: Transactions aborted because their connection disappeared.
    client_gone_aborts: int = 0
    #: Largest per-connection in-flight request depth seen.
    max_queue_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "requests": self.requests,
            "protocol_errors": self.protocol_errors,
            "gate_free_reads": self.gate_free_reads,
            "gated_reads": self.gated_reads,
            "gated_ops": self.gated_ops,
            "gate_waits": self.gate_waits,
            "parked_ops": self.parked_ops,
            "client_gone_aborts": self.client_gone_aborts,
            "max_queue_depth": self.max_queue_depth,
        }


class _Connection:
    """Per-connection state: channel, open transactions, depth gauge."""

    def __init__(self, conn_id: int, channel) -> None:
        self.conn_id = conn_id
        self.channel = channel
        #: txn_id -> Transaction for transactions this connection began
        #: and has not yet committed/aborted.
        self.txns: dict[int, Transaction] = {}
        self.requests = 0
        self.inflight = 0
        self.max_depth = 0
        self.tasks: set[asyncio.Task] = set()
        self._write_lock = asyncio.Lock()

    async def respond(self, obj: dict) -> None:
        async with self._write_lock:
            self.channel.write_frame(obj)
            await self.channel.drain()


class TransactionServer:
    """Serve one scheduler to concurrent framed-protocol clients.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.scheduling.BaseScheduler` (HDD, a baseline,
        or the distributed runtime).
    gc_every:
        Run the scheduler's garbage collector (where it has one) every
        this many requests, inside the gate.  ``None`` never collects.
    """

    def __init__(
        self,
        scheduler: BaseScheduler,
        gc_every: Optional[int] = None,
    ) -> None:
        self.scheduler = scheduler
        self.gc_every = gc_every
        self.stats = ServeStats()
        #: The single-writer gate (see module docstring).
        self._gate = asyncio.Lock()
        #: Server step counter: one step per transaction-op attempt,
        #: mirroring the simulator's engine steps.
        self._step = 0
        #: txn_id -> per-transaction FIFO lock: pipelined requests of
        #: one transaction execute in submission order even though each
        #: request is its own task.
        self._txn_locks: dict[int, asyncio.Lock] = {}
        #: txn_id -> owning connection (for disconnect cleanup).
        self._txn_conn: dict[int, _Connection] = {}
        self._txns: dict[int, Transaction] = {}
        #: Progress future: parked requests await it; any commit/abort/
        #: wall release resolves it and installs a fresh one.  Created
        #: lazily so the server can be constructed outside a loop.
        self._progress: Optional[asyncio.Future] = None
        #: Requests currently waiting on a time wall (txn ids).
        self._wall_waiters: set[int] = set()
        self._idle_task: Optional[asyncio.Task] = None
        #: Transaction-op attempts currently executing (not parked);
        #: the idle driver only ticks the clock when this is zero, so
        #: it models the simulator's "no client runnable" idle steps.
        self._executing = 0
        self._wall_seen = self._wall_count()
        #: Open blocked episodes (txn -> first blocked step) and the
        #: accumulated pair-wise blocked steps, kept exactly the way
        #: the trace explainer derives them so a traced server run
        #: cross-checks "exact".
        self._block_start: dict[int, int] = {}
        self._blocked_steps = 0
        self._next_conn_id = 1
        self._connections: dict[int, _Connection] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        server = await asyncio.start_server(self._accept_stream, host, port)
        self._servers.append(server)
        sockname = server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start_unix(self, path: str) -> str:
        server = await asyncio.start_unix_server(self._accept_stream, path)
        self._servers.append(server)
        return path

    def connect_memory(self, label: str = "memory") -> MemoryChannel:
        """Open a deterministic in-process connection; returns the
        client-side channel (benchmarks, tests, examples)."""
        client_channel, server_channel = memory_pair(label)
        task = asyncio.ensure_future(self.handle_channel(server_channel))
        # The handler owns its lifetime; keep a reference so it is not
        # garbage-collected mid-run.
        task.add_done_callback(lambda _t: None)
        return client_channel

    async def _accept_stream(self, reader, writer) -> None:
        try:
            await self.handle_channel(StreamChannel(reader, writer))
        except asyncio.CancelledError:  # pragma: no cover - teardown
            pass

    async def serve_forever(self) -> None:
        """Block until :meth:`close` (CLI entry point)."""
        while not self._closed:
            await asyncio.sleep(0.2)

    async def close(self) -> None:
        """Stop listeners, abort orphaned transactions, emit run end."""
        self._closed = True
        for server in self._servers:
            server.close()
            await server.wait_closed()
        for conn in list(self._connections.values()):
            conn.channel.close()
            for task in list(conn.tasks):
                task.cancel()
        if self._idle_task is not None:
            self._idle_task.cancel()
        # Drain still-open blocked episodes at the final step, the way
        # the explainer closes them at RunEndEvent.step.
        for start in self._block_start.values():
            self._blocked_steps += self._step - start
        self._block_start.clear()
        sink = self.scheduler.sink
        if sink is not None:
            sink.emit(
                RunEndEvent(
                    step=self._step,
                    ts=self.scheduler.clock.now,
                    steps=self._step,
                    commits=self.scheduler.stats.commits,
                    restarts=self.scheduler.stats.aborts,
                    blocked_client_steps=self._blocked_steps,
                )
            )

    def audit(self) -> bool:
        """Serializability oracle over everything served so far."""
        return is_serializable(self.scheduler.schedule, mode="mvsg")

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def handle_channel(self, channel) -> None:
        conn = _Connection(self._next_conn_id, channel)
        self._next_conn_id += 1
        self._connections[conn.conn_id] = conn
        self.stats.connections_opened += 1
        self._emit(
            ConnOpenedEvent(
                step=self._step,
                ts=self.scheduler.clock.now,
                conn_id=conn.conn_id,
                peer=str(getattr(channel, "peer", "")),
            )
        )
        try:
            while True:
                request = await channel.read_frame()
                if request is None:
                    break
                conn.requests += 1
                self.stats.requests += 1
                conn.inflight += 1
                if conn.inflight > conn.max_depth:
                    conn.max_depth = conn.inflight
                    if conn.inflight > self.stats.max_queue_depth:
                        self.stats.max_queue_depth = conn.inflight
                    self._emit(
                        QueueDepthEvent(
                            step=self._step,
                            ts=self.scheduler.clock.now,
                            conn_id=conn.conn_id,
                            depth=conn.inflight,
                        )
                    )
                task = asyncio.ensure_future(self._serve_request(conn, request))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except (ConnectionError, ProtocolError):
            pass
        finally:
            await self._drop_connection(conn)

    async def _drop_connection(self, conn: _Connection) -> None:
        self._connections.pop(conn.conn_id, None)
        for task in list(conn.tasks):
            task.cancel()
        open_txns = [txn for txn in conn.txns.values() if txn.is_active]
        for txn in open_txns:
            await self._abort_client_gone(conn, txn)
        self._txn_gc(conn)
        self.stats.connections_closed += 1
        self._emit(
            ConnClosedEvent(
                step=self._step,
                ts=self.scheduler.clock.now,
                conn_id=conn.conn_id,
                open_txns=len(open_txns),
                requests=conn.requests,
            )
        )
        conn.channel.close()
        await conn.channel.wait_closed()

    async def _abort_client_gone(self, conn: _Connection, txn) -> None:
        reason = (
            f"client gone: connection {conn.conn_id} closed with "
            f"txn {txn.txn_id} open"
        )
        async with self._gate:
            if not txn.is_active:
                return
            self._tick()
            # A cancelled parked request leaves its blocked episode
            # open; the abort event is the transaction's next (and
            # last) event, so close the episode at this step.
            start = self._block_start.pop(txn.txn_id, None)
            if start is not None:
                self._blocked_steps += self._step - start
            self.scheduler.abort(txn, reason)
            self.stats.client_gone_aborts += 1
        self._after_state_change()

    def _txn_gc(self, conn: _Connection) -> None:
        for txn_id in conn.txns:
            self._txn_locks.pop(txn_id, None)
            self._txn_conn.pop(txn_id, None)
            self._txns.pop(txn_id, None)
        conn.txns.clear()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _serve_request(self, conn: _Connection, request: dict) -> None:
        try:
            try:
                op = validate_request(request)
            except ProtocolError as exc:
                self.stats.protocol_errors += 1
                await conn.respond(
                    error_response(request.get("id", -1), str(exc))
                )
                return
            request_id = request["id"]
            start_tick = self.scheduler.clock.now
            try:
                if op == "stats":
                    response = ok_response(request_id, stats=self.stats_view())
                elif op == "begin":
                    response = await self._op_begin(conn, request)
                else:
                    response = await self._op_txn(conn, op, request)
            except ProtocolError as exc:
                self.stats.protocol_errors += 1
                response = error_response(request_id, str(exc))
            except Exception as exc:  # scheduler-raised violations
                self.stats.protocol_errors += 1
                response = error_response(
                    request_id, f"{type(exc).__name__}: {exc}"
                )
            if op != "stats":
                self._emit(
                    OpSpanEvent(
                        step=self._step,
                        ts=self.scheduler.clock.now,
                        txn_id=response.get("txn") or request.get("txn"),
                        op=op,
                        start_tick=start_tick,
                        end_tick=self.scheduler.clock.now,
                        status=str(response.get("status", "")),
                    )
                )
            await conn.respond(response)
        except asyncio.CancelledError:  # connection torn down mid-request
            raise
        finally:
            conn.inflight -= 1

    async def _op_begin(self, conn: _Connection, request: dict) -> dict:
        profile = request.get("profile")
        read_only = bool(request.get("read_only", False))
        async with self._gate:
            self.stats.gated_ops += 1
            self._tick()
            txn = self.scheduler.begin(profile=profile, read_only=read_only)
        conn.txns[txn.txn_id] = txn
        self._txns[txn.txn_id] = txn
        self._txn_locks[txn.txn_id] = asyncio.Lock()
        self._txn_conn[txn.txn_id] = conn
        self._note_wall_change()
        return ok_response(
            request["id"], txn=txn.txn_id, initiation_ts=txn.initiation_ts
        )

    async def _op_txn(self, conn: _Connection, op: str, request: dict) -> dict:
        txn_id = request["txn"]
        txn = self._txns.get(txn_id)
        if txn is None or self._txn_conn.get(txn_id) is not conn:
            raise ProtocolError(
                f"unknown txn {txn_id} on connection {conn.conn_id}"
            )
        lock = self._txn_locks.get(txn_id)
        if lock is None:
            raise ProtocolError(f"txn {txn_id} already finished")
        async with lock:
            if op == "read":
                outcome = await self._op_read(txn, request["granule"])
            elif op == "write":
                outcome = await self._run_gated(
                    lambda: self.scheduler.write(
                        txn, request["granule"], request["value"]
                    ),
                    txn,
                )
            elif op == "commit":
                outcome = await self._run_gated(
                    lambda: self.scheduler.commit(txn), txn
                )
            else:  # abort
                outcome = await self._op_abort(txn, request)
        if op in ("commit", "abort") or outcome.aborted:
            self._finish_txn(conn, txn_id)
            self._after_state_change()
        else:
            self._note_wall_change()
        self._maybe_gc()
        if outcome.aborted:
            return aborted_response(
                request["id"], outcome.reason or "aborted"
            )
        fields: dict[str, object] = {}
        if op == "read":
            fields["value"] = outcome.value
            fields["version_ts"] = outcome.version_ts
        if op == "commit" and outcome.version_ts is not None:
            fields["commit_ts"] = outcome.version_ts
        return ok_response(request["id"], txn=txn_id, **fields)

    async def _op_read(self, txn, granule: str) -> Outcome:
        if self._gate_free_read(txn, granule):
            # The Protocol A/C fast path: never touches the gate.  The
            # wall below which this read resolves exposes only settled
            # versions, so nothing a gated writer is doing concurrently
            # can change the answer (module docstring).
            self.stats.gate_free_reads += 1
            return await self._run_op(
                lambda: self.scheduler.read(txn, granule), txn, gated=False
            )
        self.stats.gated_reads += 1
        return await self._run_gated(
            lambda: self.scheduler.read(txn, granule), txn
        )

    async def _op_abort(self, txn, request: dict) -> Outcome:
        reason = str(request.get("reason") or "client abort")

        def do_abort() -> Outcome:
            self.scheduler.abort(txn, reason)
            return aborted(reason)

        return await self._run_gated(do_abort, txn)

    def _finish_txn(self, conn: _Connection, txn_id: int) -> None:
        conn.txns.pop(txn_id, None)
        self._txn_locks.pop(txn_id, None)
        self._txn_conn.pop(txn_id, None)
        self._txns.pop(txn_id, None)

    # ------------------------------------------------------------------
    # The gate, the fast path, and blocked-outcome parking
    # ------------------------------------------------------------------
    def _gate_free_read(self, txn, granule: str) -> bool:
        """Is this read an HDD Protocol A / fictitious-A / C dispatch?

        Asked of the scheduler's protocol core, so a read the access
        rule rejects (or a granule it cannot place) is gated like any
        other failing request.  Protocol B reads register timestamps
        and must gate, as must every read of a baseline (no core).
        """
        protocol = self.scheduler.protocol
        return protocol is not None and protocol.is_wall_read(txn, granule)

    async def _run_gated(self, fn: Callable[[], Outcome], txn) -> Outcome:
        return await self._run_op(fn, txn, gated=True)

    async def _run_op(
        self, fn: Callable[[], Outcome], txn, gated: bool
    ) -> Outcome:
        """Execute one scheduler call; park and retry while blocked.

        Each attempt advances the server step and the logical clock
        first (the simulator ticks before every engine step the same
        way), and gated attempts hold the gate only for the synchronous
        scheduler call — never across a park, so a blocked request
        cannot deadlock the server.
        """
        parked = False
        while True:
            if not txn.is_active and txn.txn_id not in self._txn_locks:
                # Finished underneath us (client-gone abort racing a
                # parked retry).
                reason = getattr(txn, "abort_reason", None)
                return aborted(reason or "transaction already finished")
            if not txn.is_active:
                reason = getattr(txn, "abort_reason", None)
                self._resolve_block(txn)
                return aborted(reason or "killed externally")
            self._executing += 1
            try:
                if gated:
                    self.stats.gated_ops += 1
                    if self._gate.locked():
                        self.stats.gate_waits += 1
                    async with self._gate:
                        self._tick()
                        outcome = fn()
                else:
                    self._tick()
                    outcome = fn()
            finally:
                self._executing -= 1
            if not outcome.blocked:
                self._resolve_block(txn)
                return outcome
            if not parked:
                parked = True
                self.stats.parked_ops += 1
                self._block_start.setdefault(txn.txn_id, self._step)
            await self._park(txn, outcome.waiting_for)

    def _resolve_block(self, txn) -> None:
        start = self._block_start.pop(txn.txn_id, None)
        if start is not None:
            self._blocked_steps += self._step - start

    async def _park(self, txn, waiting_for) -> None:
        """Wait until the blocking condition can have changed."""
        if self._progress is None:
            self._progress = asyncio.get_running_loop().create_future()
        future = self._progress
        if waiting_for == WAIT_TIMEWALL:
            self._wall_waiters.add(txn.txn_id)
            self._ensure_idle_driver()
            try:
                await asyncio.shield(future)
            finally:
                self._wall_waiters.discard(txn.txn_id)
        else:
            await asyncio.shield(future)

    def _ensure_idle_driver(self) -> None:
        if self._idle_task is None or self._idle_task.done():
            self._idle_task = asyncio.ensure_future(self._idle_drive())

    async def _idle_drive(self) -> None:
        """Advance logical time while wall waiters are the only work.

        The simulator's idle steps tick the clock and poll the wall
        manager until a release wakes the blocked client; this task is
        the server-side twin.  It only ticks when no transaction-op
        attempt is executing, and retires as soon as a wall releases
        (the woken requests re-arm it if they block again).
        """
        poll = getattr(self.scheduler, "poll_walls", None)
        while self._wall_waiters and not self._closed:
            if self._executing:
                await asyncio.sleep(0)
                continue
            self._tick()
            if poll is not None:
                poll()
            if self._note_wall_change():
                return
            await asyncio.sleep(0)

    def _after_state_change(self) -> None:
        """A commit/abort happened: wake every parked request."""
        self._note_wall_change(bump=False)
        self._bump_progress()

    def _note_wall_change(self, bump: bool = True) -> bool:
        count = self._wall_count()
        if count == self._wall_seen:
            return False
        self._wall_seen = count
        if bump:
            self._bump_progress()
        return True

    def _wall_count(self) -> int:
        walls = getattr(self.scheduler, "walls", None)
        return 0 if walls is None else walls.total_released

    def _bump_progress(self) -> None:
        future = self._progress
        if future is None:  # nobody parked yet
            return
        self._progress = None
        if not future.done():
            future.set_result(None)

    def _tick(self) -> None:
        self._step += 1
        self.scheduler.current_step = self._step
        self.scheduler.clock.tick()

    def _maybe_gc(self) -> None:
        if self.gc_every is None or self._step == 0:
            return
        if self._step % self.gc_every:
            return
        collect = getattr(self.scheduler, "collect_garbage", None)
        if collect is not None:
            collect()
            self._note_wall_change()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_view(self) -> dict[str, object]:
        stats = self.scheduler.stats
        view: dict[str, object] = dict(self.stats.as_dict())
        view.update(
            {
                "scheduler": self.scheduler.name,
                "steps": self._step,
                "commits": stats.commits,
                "aborts": stats.aborts,
                "reads": stats.reads,
                "writes": stats.writes,
                "read_registrations": stats.read_registrations,
                "unregistered_reads": stats.unregistered_reads,
                "open_txns": len(self._txns),
                "blocked_client_steps": self._blocked_steps
                + sum(
                    self._step - start
                    for start in self._block_start.values()
                ),
                "walls_released": self._wall_count(),
            }
        )
        return view

    def _emit(self, event) -> None:
        sink = self.scheduler.sink
        if sink is not None:
            sink.emit(event)
