"""Real OS processes for segment controllers: the multicore transport.

:class:`ProcNetwork` implements the same send/delivery surface as
:class:`~repro.dist.net.SimNetwork` but carries the canonical-JSON
message types over real pipes to one worker process per group of
:class:`~repro.dist.node.SegmentNode` instances.  The coordinator keeps
duck-typing ``BaseScheduler`` through :class:`~repro.dist.runtime.
DistributedRuntime`; only the wire underneath changes — which is the
whole point: ``SimNetwork`` stays the deterministic twin, and the
equivalence harness (``tests/dist/test_proc.py``) asserts that the same
seed on an ideal plan produces a byte-identical committed schedule,
stats, and walls whether the nodes are Python objects or processes.

Design notes
------------

**Spawn-safe by construction.**  Workers are ``subprocess.Popen`` of a
fresh interpreter running ``python -m repro.dist.proc``; everything a
worker needs arrives as a pure-data :class:`NodeConfig` in the ``boot``
frame (the DHG travels as sorted node/arc lists and is rebuilt with
``SemiTreeIndex(Digraph(...))``).  Nothing is pickled, no file
descriptors are inherited beyond the stdio pipes.

**Star topology, central sequencing.**  Every frame flows through the
coordinator's router: worker-originated messages carry ``seq 0`` and
the router assigns the global sequence number on arrival, so
``log_lines()`` stays one totally-ordered canonical-JSON stream and
``repro dist-explain`` works on real-process traces (causal stamps —
lamport, parent span, transaction — are preserved end to end).  Pipes
are FIFO and the router forwards in arrival order, so the per-link
ordering guarantee the byte-identity argument needs survives the hop.

**Physical time is not logical time.**  ``tick_now`` only advances when
a ``pump`` select times out with nothing readable — exactly the
"ticks advance only while someone waits on the wire" contract of the
sim.  Process runs are nondeterministic in *timing* only: frame
arrival interleavings across workers vary run to run, but each node's
input order (hence output) is fixed, so the committed schedule is not.

**Faults are the twin's job.**  The process transport accepts only
ideal plans — latency, jitter, drops, and planned crash windows live in
``SimNetwork`` where they are deterministic.  What the transport *does*
support is explicit :meth:`ProcNetwork.kill_node` (SIGKILL the hosting
worker) and :meth:`ProcNetwork.restart_node` (respawn, WAL replay from
the file-backed log, incarnation bump), which exercises the existing
WAL + incarnation fencing over real process death.  Frames addressed to
a dead worker die with fate ``dst-down`` and are retransmitted at
restart — the pipe-level analogue of the sim's retransmit timers.

**Deadlock-free plumbing.**  The coordinator never blocks writing: pipe
writes are non-blocking with a per-worker outbound buffer flushed when
``select`` reports writability.  Workers may block writing to a full
stdout pipe; the coordinator drains every readable pipe on every pump,
so that wait is always bounded.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Mapping, Optional

from repro.core.graph import Digraph, SemiTreeIndex
from repro.dist.net import FaultPlan, Message
from repro.dist.node import SegmentNode, node_name
from repro.dist.wire import (
    FrameDecoder,
    ack_frame,
    ctl_frame,
    encode_frame,
    err_frame,
    message_from_wire,
    message_to_wire,
)
from repro.errors import ConfigError, ReproError
from repro.recovery import WriteAheadLog, record_from_line, record_to_line
from repro.scheduling import SchedulerStats
from repro.txn.transaction import GranuleId, SegmentId

#: Pump budget (in select-timeout ticks) for worker boot and control
#: RPCs.  Ticks only pass while nothing is readable, so this is pure
#: idle time — ~60s at the default select timeout — not a rate limit.
CONTROL_BUDGET = 1200

#: Seconds of select timeout per network tick.  Reliable RPCs inherit
#: the runtime's 200k-tick budget, so a wedged worker still fails the
#: run loudly rather than hanging it forever.
TICK_SECONDS = 0.05

_READ_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# Pure-data node configuration (the spawn-safe factory input)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to build one ``SegmentNode`` in a fresh
    interpreter, as JSON-safe data.

    ``dhg`` is ``(nodes, arcs)`` of the semi-tree graph (sorted for
    determinism) or ``None`` for baseline modes; ``wal_path`` points at
    the node's file-backed write-ahead log so a respawned worker
    recovers exactly the durable state the dead one flushed.
    """

    class_id: SegmentId
    engine_name: str
    peers: tuple[str, ...] = ()
    all_classes: tuple[SegmentId, ...] = ()
    leader: bool = False
    wall_interval: int = 25
    heartbeat: int = 5
    batch_gossip: bool = False
    incarnation: int = 0
    wal_path: Optional[str] = None
    dhg: Optional[tuple[tuple, tuple]] = None

    def to_dict(self) -> dict:
        record = {
            "class_id": self.class_id,
            "engine_name": self.engine_name,
            "peers": list(self.peers),
            "all_classes": list(self.all_classes),
            "leader": self.leader,
            "wall_interval": self.wall_interval,
            "heartbeat": self.heartbeat,
            "batch_gossip": self.batch_gossip,
            "incarnation": self.incarnation,
            "wal_path": self.wal_path,
        }
        if self.dhg is not None:
            nodes, arcs = self.dhg
            record["dhg"] = {
                "nodes": list(nodes),
                "arcs": [list(arc) for arc in arcs],
            }
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "NodeConfig":
        dhg = None
        raw = record.get("dhg")
        if raw is not None:
            dhg = (
                tuple(raw["nodes"]),
                tuple(tuple(arc) for arc in raw["arcs"]),
            )
        return cls(
            class_id=record["class_id"],
            engine_name=record["engine_name"],
            peers=tuple(record.get("peers") or ()),
            all_classes=tuple(record.get("all_classes") or ()),
            leader=bool(record.get("leader")),
            wall_interval=int(record.get("wall_interval", 25)),
            heartbeat=int(record.get("heartbeat", 5)),
            batch_gossip=bool(record.get("batch_gossip")),
            incarnation=int(record.get("incarnation", 0)),
            wal_path=record.get("wal_path"),
            dhg=dhg,
        )


class FileBackedWAL(WriteAheadLog):
    """A write-ahead log that survives the process hosting it.

    Every append is written through to ``path`` and flushed before the
    handler acknowledges — the durability the in-memory sim WAL only
    pretends to have.  A respawned worker loads the file back and
    replays it through the normal recovery path.
    """

    def __init__(self, path: str) -> None:
        records = []
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as stream:
                records = [
                    record_from_line(line)
                    for line in stream
                    if line.strip()
                ]
        super().__init__(records=records)
        self._stream = open(path, "a", encoding="utf-8")

    def append(self, record) -> None:
        super().append(record)
        self._stream.write(record_to_line(record))
        self._stream.write("\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerNet:
    """The ``SimNetwork`` face a ``SegmentNode`` sees inside a worker.

    Sends become ``msg`` frames on stdout (seq 0 — the coordinator's
    router sequences them); deliveries come off stdin.  Per-endpoint
    Lamport clocks and the delivering-message causal context mirror the
    sim exactly, so parent-span/transaction inheritance is identical.
    """

    def __init__(self, out) -> None:
        self._out = out
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._lamport: dict[str, int] = {}
        self._delivering: Optional[Message] = None
        self.tick_now = 0

    def register(self, name: str, handler) -> None:
        if name in self._handlers:
            raise ConfigError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def rebind(self, name: str, handler) -> None:
        self._handlers[name] = handler

    def is_down(self, name: str) -> bool:
        return False

    def at_tick(self, tick: int, callback) -> None:
        raise ReproError(
            "the process transport has no timers — heartbeats and "
            "retransmits belong to faulty plans, which run on the "
            "SimNetwork twin"
        )

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Mapping[str, object],
        txn_id: Optional[int] = None,
        parent: Optional[int] = None,
        retransmit_of: Optional[int] = None,
    ) -> Message:
        cause = self._delivering
        if cause is not None and cause.dst == src:
            if parent is None:
                parent = cause.seq
            if txn_id is None:
                txn_id = cause.txn_id
        lamport = self._lamport.get(src, 0) + 1
        self._lamport[src] = lamport
        message = Message(
            seq=0,
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            send_tick=self.tick_now,
            deliver_tick=self.tick_now,
            lamport=lamport,
            txn_id=txn_id,
            parent_span=parent,
            retransmit_of=retransmit_of,
        )
        self._out.write(encode_frame(message_to_wire(message)))
        self._out.flush()
        return message

    def deliver(self, frame: Mapping) -> str:
        """Deliver one inbound ``msg`` frame; returns the target name."""
        message = message_from_wire(frame)
        if message.send_tick > self.tick_now:
            self.tick_now = message.send_tick
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise ReproError(
                f"worker hosts no endpoint {message.dst!r} "
                f"(have {sorted(self._handlers)})"
            )
        message.fate = "delivered"
        clock = self._lamport.get(message.dst, 0)
        self._lamport[message.dst] = max(clock, message.lamport) + 1
        outer = self._delivering
        self._delivering = message
        try:
            handler(message)
        finally:
            self._delivering = outer
        return message.dst


def _worker_horizon_for(node: SegmentNode, cls: SegmentId):
    """Digest horizon for one remote class, worker edition.

    A never-crashed node mirrors the sim's ideal-plan oracle: every RPC
    carries the coordinator's clock and the coordinator blocks while
    handlers run, so ``known_now`` *is* ``oracle.now`` at every
    consultation point — the byte-identity precondition.  A restarted
    node lost its digests, so claiming completeness through ``now``
    would be unsound; it falls back to the gossip-stamp horizons the
    sim uses under faulty plans (conservative, refilled by NACK
    repair).
    """

    def horizon() -> int:
        if node.incarnation:
            return node._horizons.get(cls, 0)
        return node.known_now

    return horizon


def _build_node(config: NodeConfig, net: WorkerNet) -> SegmentNode:
    index = None
    if config.dhg is not None:
        nodes, arcs = config.dhg
        index = SemiTreeIndex(Digraph(nodes, arcs))
    wal = (
        FileBackedWAL(config.wal_path)
        if config.wal_path is not None
        else None
    )
    return SegmentNode(
        config.class_id,
        net,
        engine_name=config.engine_name,
        index=index,
        peers=config.peers,
        all_classes=config.all_classes,
        horizon_for=_worker_horizon_for if index is not None else None,
        leader=config.leader,
        wall_interval=config.wall_interval,
        heartbeat=config.heartbeat,
        batch_gossip=config.batch_gossip,
        wal=wal,
        incarnation=config.incarnation,
    )


def _stats_to_wire(stats: SchedulerStats) -> dict:
    record = {
        spec.name: getattr(stats, spec.name)
        for spec in dataclass_fields(SchedulerStats)
        if spec.name != "aborts_by_reason"
    }
    record["aborts_by_reason"] = dict(stats.aborts_by_reason)
    return record


def stats_from_wire(record: Mapping) -> SchedulerStats:
    stats = SchedulerStats()
    for spec in dataclass_fields(SchedulerStats):
        if spec.name == "aborts_by_reason":
            continue
        setattr(stats, spec.name, record[spec.name])
    stats.aborts_by_reason.update(record["aborts_by_reason"])
    return stats


def _handle_call(frame: Mapping, nodes: dict[str, SegmentNode]):
    node = nodes.get(frame["node"])
    if node is None:
        raise ReproError(
            f"control call names unknown node {frame['node']!r}"
        )
    method = frame["method"]
    args = frame.get("args") or []
    if method == "stats":
        return _stats_to_wire(node.stats)
    if method == "flush_gossip_to":
        node.flush_gossip_to(args[0])
        return None
    if method == "wal_record_count":
        return len(node.wal.records)
    if method.startswith("store_"):
        store = node.store
        op = method[len("store_"):]
        if op == "contains":
            return args[0] in store
        if op == "seed":
            store.seed(args[0], args[1])
            return None
        if op == "committed_value":
            return store.committed_value(args[0])
        if op == "granules":
            return list(store.granules())
        if op == "total_versions":
            return store.total_versions()
    raise ReproError(f"unknown control method {method!r}")


def worker_main() -> int:
    """Entry point of one worker process (``python -m repro.dist.proc``).

    Reads the ``boot`` frame, builds its nodes, answers ``ready``, then
    loops: deliver ``msg`` frames, answer ``ctl`` frames.  SIGINT and
    SIGTERM finish the frame in hand and exit 0 (the serve stack's
    graceful-shutdown convention); EOF on stdin means the coordinator
    is gone — exit 0, leaving no orphan.  Any unhandled exception is
    reported as an ``err`` frame naming the node being served, then
    exit 1.
    """
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Stray prints must not corrupt the framing.
    sys.stdout = sys.stderr
    stopping = False

    def _graceful(signum, frame) -> None:
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)

    decoder = FrameDecoder()
    net = WorkerNet(stdout)
    nodes: dict[str, SegmentNode] = {}
    current_node = ""
    try:
        frames: list[dict] = []
        while not frames:
            data = stdin.read1(_READ_CHUNK)
            if not data:
                return 0  # coordinator died before booting us
            frames = decoder.feed(data)
        boot, frames = frames[0], frames[1:]
        if boot.get("t") != "boot":
            raise ReproError(f"expected boot frame, got {boot.get('t')!r}")
        for raw in boot["nodes"]:
            node = _build_node(NodeConfig.from_dict(raw), net)
            nodes[node.name] = node
        stdout.write(
            encode_frame(
                {
                    "t": "ready",
                    "pid": os.getpid(),
                    "nodes": sorted(nodes),
                    "wal_records": {
                        name: len(node.wal.records)
                        for name, node in nodes.items()
                    },
                }
            )
        )
        stdout.flush()
        while not stopping:
            if not frames:
                data = stdin.read1(_READ_CHUNK)
                if not data:
                    return 0  # coordinator closed the pipe: done
                frames = decoder.feed(data)
                continue
            frame, frames = frames[0], frames[1:]
            kind = frame.get("t")
            if kind == "msg":
                current_node = frame.get("dst", "")
                net.deliver(frame)
                current_node = ""
            elif kind == "ctl":
                if frame.get("op") == "shutdown":
                    stdout.write(encode_frame(ack_frame(frame["id"])))
                    stdout.flush()
                    return 0
                result = _handle_call(frame, nodes)
                stdout.write(encode_frame(ack_frame(frame["id"], result)))
                stdout.flush()
            else:
                raise ReproError(f"unknown frame type {kind!r}")
        return 0
    except Exception:
        detail = traceback.format_exc()
        try:
            stdout.write(
                encode_frame(
                    err_frame(current_node or ",".join(sorted(nodes)), detail)
                )
            )
            stdout.flush()
        except OSError:
            pass  # coordinator already gone; stderr still has it
        print(detail, file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _Worker:
    """One spawned process and its plumbing state."""

    def __init__(self, index: int, node_names: list[str]) -> None:
        self.index = index
        self.node_names = node_names
        self.proc: Optional[subprocess.Popen] = None
        self.decoder = FrameDecoder()
        self.out_buf = bytearray()
        self.ready = False
        self.down = False
        #: Messages that died with fate ``dst-down`` while the worker
        #: was dead, retransmitted (new seq, ``rtx`` set) at restart.
        self.backlog: list[Message] = []
        self.pid = 0

    def spawn(self, configs: list[NodeConfig]) -> None:
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root
            if not existing
            else package_root + os.pathsep + existing
        )
        self.proc = subprocess.Popen(
            # -c (not -m) so the worker's import graph matches the
            # coordinator's: ``-m repro.dist.proc`` would re-import the
            # module under ``__main__`` on top of the package import.
            [
                sys.executable,
                "-c",
                "import sys; from repro.dist.proc import worker_main; "
                "sys.exit(worker_main())",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # inherit: worker tracebacks stay visible
            env=env,
            close_fds=True,
        )
        os.set_blocking(self.proc.stdin.fileno(), False)
        self.decoder = FrameDecoder()
        self.out_buf = bytearray()
        self.ready = False
        self.down = False
        boot = {
            "t": "boot",
            "nodes": [config.to_dict() for config in configs],
        }
        self.out_buf += encode_frame(boot)

    @property
    def alive(self) -> bool:
        return (
            self.proc is not None
            and not self.down
            and self.proc.poll() is None
        )


class ProcNetwork:
    """Real worker processes behind the ``SimNetwork`` surface.

    Accepts only ideal fault plans — fault *injection* is the sim
    twin's job; what this transport adds is real parallelism plus
    explicit :meth:`kill_node` / :meth:`restart_node` process death.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        sink_hook: Optional[Callable[[Message, str], None]] = None,
        *,
        node_configs: list[NodeConfig],
        procs: Optional[int] = None,
        wal_dir: Optional[str] = None,
    ) -> None:
        if not plan.is_ideal:
            raise ConfigError(
                "the process transport runs ideal plans only; fault "
                "injection (latency/jitter/drops/partitions/crash "
                "windows) lives in the deterministic SimNetwork twin"
            )
        if not node_configs:
            raise ConfigError("node_configs must name at least one node")
        if procs is not None and procs < 1:
            raise ConfigError(f"procs must be >= 1 (got {procs})")
        self.plan = plan
        self.seed = seed
        self.sink_hook = sink_hook
        self.lifecycle_hook: Optional[Callable[[str, str], None]] = None
        #: Worker spawn/exit observability hook: ``(node, pid, what)``.
        self.proc_hook: Optional[Callable[[str, int, str], None]] = None
        self.tick_now = 0
        self.log: list[Message] = []
        self.sent_by_kind: dict[str, int] = {}
        self.dropped_by_kind: dict[str, int] = {}
        self.delivered = 0
        self.crashes_seen = 0
        self._lamport: dict[str, int] = {}
        self._delivering: Optional[Message] = None
        self._next_seq = 1
        self._next_ctl = 1
        self._acks: dict[int, object] = {}
        self._coord_handlers: dict[str, Callable[[Message], None]] = {}
        self._closed = False
        self._owns_wal_dir = wal_dir is None
        self.wal_dir = (
            wal_dir
            if wal_dir is not None
            else tempfile.mkdtemp(prefix="repro-proc-")
        )
        self._configs: dict[str, NodeConfig] = {}
        for config in node_configs:
            name = node_name(config.class_id)
            path = config.wal_path or os.path.join(
                self.wal_dir, f"{config.class_id}.wal"
            )
            self._configs[name] = NodeConfig(
                **{
                    **{
                        spec.name: getattr(config, spec.name)
                        for spec in dataclass_fields(NodeConfig)
                    },
                    "wal_path": path,
                }
            )
        names = [node_name(c.class_id) for c in node_configs]
        self.worker_count = min(
            procs if procs is not None else len(names), len(names)
        )
        self._workers: list[_Worker] = []
        self._worker_of: dict[str, _Worker] = {}
        self._incarnations: dict[str, int] = {n: 0 for n in names}
        self._wal_counts: dict[str, int] = {n: 0 for n in names}
        for index in range(self.worker_count):
            hosted = names[index :: self.worker_count]
            worker = _Worker(index, hosted)
            self._workers.append(worker)
            for name in hosted:
                self._worker_of[name] = worker
        self._start_all()

    # ------------------------------------------------------------------
    # Spawn / boot
    # ------------------------------------------------------------------
    def _start_worker(self, worker: _Worker) -> None:
        worker.spawn(
            [self._configs[name] for name in worker.node_names]
        )
        self._flush(worker)

    def _start_all(self) -> None:
        try:
            for worker in self._workers:
                self._start_worker(worker)
            if not self.pump(
                lambda: all(w.ready for w in self._workers),
                CONTROL_BUDGET,
            ):
                raise ReproError(
                    "worker processes failed to boot within "
                    f"{CONTROL_BUDGET} ticks"
                )
        except BaseException:
            self.close()
            raise
        for worker in self._workers:
            for name in worker.node_names:
                if self.proc_hook is not None:
                    self.proc_hook(name, worker.pid, "spawned")

    # ------------------------------------------------------------------
    # SimNetwork surface: endpoints
    # ------------------------------------------------------------------
    def register(self, name: str, handler) -> None:
        if name in self._worker_of or name in self._coord_handlers:
            raise ConfigError(f"endpoint {name!r} already registered")
        self._coord_handlers[name] = handler

    def rebind(self, name: str, handler) -> None:
        if name not in self._coord_handlers:
            raise ConfigError(
                f"{name!r} is a worker-hosted endpoint; only "
                "coordinator endpoints can rebind"
            )
        self._coord_handlers[name] = handler

    def is_down(self, name: str) -> bool:
        if name in self._coord_handlers:
            return False
        worker = self._worker_of.get(name)
        if worker is None:
            raise ReproError(f"unknown endpoint {name!r}")
        return worker.down

    def at_tick(self, tick: int, callback) -> None:
        raise ReproError(
            "the process transport has no timers; run faulty plans on "
            "the SimNetwork twin"
        )

    # ------------------------------------------------------------------
    # SimNetwork surface: sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Mapping[str, object],
        txn_id: Optional[int] = None,
        parent: Optional[int] = None,
        retransmit_of: Optional[int] = None,
    ) -> Message:
        cause = self._delivering
        if cause is not None and cause.dst == src:
            if parent is None:
                parent = cause.seq
            if txn_id is None:
                txn_id = cause.txn_id
        lamport = self._lamport.get(src, 0) + 1
        self._lamport[src] = lamport
        message = Message(
            seq=self._next_seq,
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            send_tick=self.tick_now,
            deliver_tick=self.tick_now,
            lamport=lamport,
            txn_id=txn_id,
            parent_span=parent,
            retransmit_of=retransmit_of,
        )
        self._next_seq += 1
        self.log.append(message)
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1
        if self.sink_hook is not None:
            self.sink_hook(message, "sent")
        self._dispatch(message)
        return message

    def _dispatch(self, message: Message) -> None:
        """Route a sequenced message to its destination."""
        dst = message.dst
        handler = self._coord_handlers.get(dst)
        if handler is not None:
            self._deliver_local(message, handler)
            return
        worker = self._worker_of.get(dst)
        if worker is None:
            raise ReproError(f"unknown endpoint {dst!r}")
        if worker.down:
            self._drop(message, "dst-down")
            worker.backlog.append(message)
            return
        message.fate = "delivered"
        self.delivered += 1
        if self.sink_hook is not None:
            self.sink_hook(message, "delivered")
        worker.out_buf += encode_frame(message_to_wire(message))
        self._flush(worker)

    def _deliver_local(self, message: Message, handler) -> None:
        message.fate = "delivered"
        self.delivered += 1
        clock = self._lamport.get(message.dst, 0)
        self._lamport[message.dst] = max(clock, message.lamport) + 1
        if self.sink_hook is not None:
            self.sink_hook(message, "delivered")
        outer = self._delivering
        self._delivering = message
        try:
            handler(message)
        finally:
            self._delivering = outer

    def _drop(self, message: Message, fate: str) -> Message:
        message.fate = fate
        kind = message.kind
        self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1
        if self.sink_hook is not None:
            self.sink_hook(message, "dropped")
        return message

    # ------------------------------------------------------------------
    # Pipe plumbing
    # ------------------------------------------------------------------
    def _flush(self, worker: _Worker) -> bool:
        """Write as much buffered output as the pipe accepts now."""
        if not worker.out_buf or worker.proc is None:
            return False
        if worker.proc.stdin.closed:
            return False
        try:
            written = os.write(
                worker.proc.stdin.fileno(), worker.out_buf
            )
        except BlockingIOError:
            return False
        except (BrokenPipeError, OSError):
            # The worker died mid-write; the read side will surface the
            # EOF (expected for a kill, an error otherwise).
            worker.out_buf.clear()
            return False
        if written:
            del worker.out_buf[:written]
        return bool(written)

    def _poll_io(self, timeout: float) -> bool:
        """One select round: flush writable pipes, route readable ones.

        Returns True when any I/O happened (the pump only advances
        ``tick_now`` on fully idle rounds, preserving the "ticks only
        pass while someone waits" contract the critical-path analyzer
        checks).
        """
        readers = {}
        writers = {}
        for worker in self._workers:
            if worker.proc is None or worker.down:
                continue
            if worker.proc.stdout is not None:
                readers[worker.proc.stdout.fileno()] = worker
            if worker.out_buf and not worker.proc.stdin.closed:
                writers[worker.proc.stdin.fileno()] = worker
        if not readers and not writers:
            return False
        readable, writable, _ = select.select(
            list(readers), list(writers), [], timeout
        )
        progress = False
        for fd in writable:
            progress |= self._flush(writers[fd])
        for fd in readable:
            worker = readers[fd]
            data = os.read(fd, _READ_CHUNK)
            if not data:
                self._on_worker_eof(worker)
                progress = True
                continue
            for frame in worker.decoder.feed(data):
                self._route(worker, frame)
            progress = True
        return progress

    def _on_worker_eof(self, worker: _Worker) -> None:
        """The worker's stdout closed without a kill we ordered."""
        returncode = worker.proc.wait()
        worker.down = True
        names = ", ".join(worker.node_names)
        raise ReproError(
            f"worker process for {names} exited unexpectedly "
            f"(exit code {returncode}) — see its stderr above"
        )

    def _route(self, worker: _Worker, frame: Mapping) -> None:
        kind = frame.get("t")
        if kind == "msg":
            message = message_from_wire(frame)
            message.seq = self._next_seq
            self._next_seq += 1
            message.send_tick = self.tick_now
            message.deliver_tick = self.tick_now
            self.log.append(message)
            self.sent_by_kind[message.kind] = (
                self.sent_by_kind.get(message.kind, 0) + 1
            )
            if self.sink_hook is not None:
                self.sink_hook(message, "sent")
            self._dispatch(message)
            return
        if kind == "ack":
            self._acks[frame["id"]] = frame.get("result")
            return
        if kind == "ready":
            worker.ready = True
            worker.pid = int(frame.get("pid", 0))
            for name, count in (frame.get("wal_records") or {}).items():
                self._wal_counts[name] = int(count)
            return
        if kind == "err":
            node = frame.get("node") or ", ".join(worker.node_names)
            raise ReproError(
                f"worker node {node} raised:\n{frame.get('traceback')}"
            )
        raise ReproError(f"unknown frame type {kind!r} from worker")

    # ------------------------------------------------------------------
    # SimNetwork surface: delivery and time
    # ------------------------------------------------------------------
    def pump(
        self, predicate: Callable[[], bool], max_ticks: int = 10_000
    ) -> bool:
        """Route frames / advance time until ``predicate`` holds.

        Wall-clock select timeouts stand in for the sim's ticks:
        ``tick_now`` advances only when a full select interval passes
        with no frame moving in either direction.
        """
        ticks = 0
        while True:
            if predicate():
                return True
            if self._poll_io(TICK_SECONDS):
                continue
            if ticks >= max_ticks:
                return False
            self.tick_now += 1
            ticks += 1

    def deliver_one_due(self) -> bool:
        """Best-effort immediate-delivery probe (sim-surface parity)."""
        return self._poll_io(0.0)

    def drain_due(self) -> int:
        count = 0
        while self._poll_io(0.0):
            count += 1
        return count

    def log_lines(self) -> list[str]:
        import json

        return [
            json.dumps(message.log_record(), sort_keys=True)
            for message in self.log
        ]

    # ------------------------------------------------------------------
    # Control RPCs
    # ------------------------------------------------------------------
    def control(self, node: str, method: str, args: list = ()) -> object:
        """A synchronous out-of-band call to the worker hosting
        ``node`` (stats snapshot, store access, gossip flush barrier).
        Control traffic never enters the message log."""
        worker = self._worker_of.get(node)
        if worker is None:
            raise ReproError(f"unknown node {node!r}")
        if worker.down:
            raise ReproError(
                f"control call {method!r}: worker for {node} is down"
            )
        ctl_id = self._next_ctl
        self._next_ctl += 1
        worker.out_buf += encode_frame(
            ctl_frame(ctl_id, "call", node=node, method=method,
                      args=list(args))
        )
        self._flush(worker)
        if not self.pump(lambda: ctl_id in self._acks, CONTROL_BUDGET):
            raise ReproError(
                f"control call {method!r} to {node} starved after "
                f"{CONTROL_BUDGET} ticks"
            )
        return self._acks.pop(ctl_id)

    # ------------------------------------------------------------------
    # Process death (the real-world fault surface)
    # ------------------------------------------------------------------
    def kill_node(self, class_or_name: str) -> None:
        """SIGKILL the worker hosting a node: volatile state gone.

        Frames the worker flushed before dying are drained and routed
        (the sim's in-flight-messages-still-deliver semantics); the
        child is reaped immediately — no zombie survives the call.
        """
        name = (
            class_or_name
            if class_or_name.startswith("node:")
            else node_name(class_or_name)
        )
        worker = self._worker_of.get(name)
        if worker is None:
            raise ReproError(f"unknown node {name!r}")
        if worker.down:
            return
        pid = worker.proc.pid
        worker.proc.kill()
        worker.proc.wait()
        # Drain the dying breath: frames written before the SIGKILL.
        while True:
            data = worker.proc.stdout.read(_READ_CHUNK)
            if not data:
                break
            for frame in worker.decoder.feed(data):
                self._route(worker, frame)
        worker.proc.stdout.close()
        try:
            worker.proc.stdin.close()
        except OSError:
            pass
        worker.down = True
        worker.ready = False
        self.crashes_seen += 1
        for hosted in worker.node_names:
            if self.proc_hook is not None:
                self.proc_hook(hosted, pid, "killed")
            if self.lifecycle_hook is not None:
                self.lifecycle_hook(hosted, "down")

    def restart_node(self, class_or_name: str) -> None:
        """Respawn a killed worker: WAL replay + incarnation bump.

        The fresh process recovers each hosted node from its file-backed
        WAL (exactly the sim's ``on_recover`` path), then the frames
        that died ``dst-down`` during the outage are retransmitted with
        ``retransmit_of`` stamps — the pipe-level analogue of the sim's
        retransmit timers.
        """
        name = (
            class_or_name
            if class_or_name.startswith("node:")
            else node_name(class_or_name)
        )
        worker = self._worker_of.get(name)
        if worker is None:
            raise ReproError(f"unknown node {name!r}")
        if not worker.down:
            raise ReproError(f"worker for {name} is not down")
        for hosted in worker.node_names:
            self._incarnations[hosted] += 1
            config = self._configs[hosted]
            self._configs[hosted] = NodeConfig(
                **{
                    **{
                        spec.name: getattr(config, spec.name)
                        for spec in dataclass_fields(NodeConfig)
                    },
                    "incarnation": self._incarnations[hosted],
                }
            )
        self._start_worker(worker)
        if not self.pump(lambda: worker.ready, CONTROL_BUDGET):
            raise ReproError(
                f"restarted worker for {name} failed to boot"
            )
        for hosted in worker.node_names:
            if self.proc_hook is not None:
                self.proc_hook(hosted, worker.pid, "restarted")
            if self.lifecycle_hook is not None:
                self.lifecycle_hook(hosted, "up")
        backlog, worker.backlog = worker.backlog, []
        for original in backlog:
            self.send(
                original.src,
                original.dst,
                original.kind,
                original.payload,
                txn_id=original.txn_id,
                parent=original.seq,
                retransmit_of=original.seq,
            )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reap every child: graceful EOF first, SIGKILL as backstop."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            if worker.proc is None:
                continue
            if worker.proc.stdin is not None and not worker.proc.stdin.closed:
                # Flush what we can, then EOF — the worker's main loop
                # treats a closed stdin as a clean shutdown order.
                while worker.out_buf and time.monotonic() < deadline:
                    if not self._flush(worker):
                        time.sleep(0.01)
                try:
                    worker.proc.stdin.close()
                except OSError:
                    pass
        for worker in self._workers:
            proc = worker.proc
            if proc is None:
                continue
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None and not proc.stdout.closed:
                proc.stdout.close()
            if self.proc_hook is not None:
                for hosted in worker.node_names:
                    self.proc_hook(hosted, worker.pid, "exited")
        if self._owns_wal_dir:
            shutil.rmtree(self.wal_dir, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Coordinator-side node proxy (what the runtime holds per class)
# ----------------------------------------------------------------------
class ProcStoreProxy:
    """The slice of the store surface ``FederatedStore`` needs, served
    by control RPCs to the owning worker."""

    def __init__(self, network: ProcNetwork, name: str) -> None:
        self._network = network
        self._name = name

    def _call(self, method: str, *args):
        return self._network.control(self._name, f"store_{method}", args)

    def seed(self, granule: GranuleId, value: object = 0):
        return self._call("seed", granule, value)

    def committed_value(self, granule: GranuleId) -> object:
        return self._call("committed_value", granule)

    def __contains__(self, granule: GranuleId) -> bool:
        return bool(self._call("contains", granule))

    def granules(self) -> list[GranuleId]:
        return list(self._call("granules"))

    def total_versions(self) -> int:
        return int(self._call("total_versions"))

    def chain(self, granule: GranuleId):
        raise ReproError(
            "version chains are not addressable over the process "
            "transport (they live in the worker's memory); use the "
            "SimNetwork twin for chain-level inspection"
        )

    def __iter__(self):
        raise ReproError(
            "version iteration is not available over the process "
            "transport; use the SimNetwork twin"
        )


class ProcNodeProxy:
    """What ``DistributedRuntime`` holds in ``self.nodes`` when the
    node itself lives in another process.

    Mirrors the coordinator-facing slice of ``SegmentNode``: identity,
    incarnation, stats, store, gossip flush.  ``leader`` is ``False``
    on purpose — the wall manager lives worker-side, so the runtime's
    ``set_sink`` wall hookup (a sim-transport feature) short-circuits.
    Node-side events (digest staleness, wall lifecycle) are not traced
    over pipes; coordinator-side events, which the critical-path
    analyzer consumes, are complete.
    """

    leader = False

    def __init__(self, network: ProcNetwork, class_id: SegmentId) -> None:
        self.class_id = class_id
        self.name = node_name(class_id)
        self.network = network
        self.sink = None
        self.store = ProcStoreProxy(network, self.name)

    @property
    def incarnation(self) -> int:
        return self.network._incarnations[self.name]

    @property
    def stats(self) -> SchedulerStats:
        return stats_from_wire(
            self.network.control(self.name, "stats")
        )

    def flush_gossip_to(self, peer: str) -> None:
        self.network.control(self.name, "flush_gossip_to", [peer])

    def wal_record_count(self) -> int:
        worker = self.network._worker_of[self.name]
        if worker.alive:
            count = int(
                self.network.control(self.name, "wal_record_count")
            )
            self.network._wal_counts[self.name] = count
            return count
        return self.network._wal_counts.get(self.name, 0)


def build_node_configs(
    partition,
    mode_engine: str,
    classes: list[SegmentId],
    leader_class: Optional[SegmentId],
    is_hdd: bool,
    wall_interval: int,
    heartbeat: int,
    batch_gossip: bool,
) -> list[NodeConfig]:
    """Pure-data configs for one runtime's node set (spawn-safe)."""
    configs: list[NodeConfig] = []
    dhg = None
    if is_hdd:
        graph = partition.index.graph
        dhg = (
            tuple(sorted(graph.nodes)),
            tuple(sorted(tuple(arc) for arc in graph.arcs)),
        )
    for class_id in classes:
        if is_hdd:
            peers = tuple(
                sorted(
                    {
                        node_name(other)
                        for other in classes
                        if other != class_id
                        and partition.index.comparable(class_id, other)
                    }
                    | {node_name(leader_class)}
                )
            )
            configs.append(
                NodeConfig(
                    class_id=class_id,
                    engine_name=mode_engine,
                    peers=peers,
                    all_classes=tuple(classes),
                    leader=class_id == leader_class,
                    wall_interval=wall_interval,
                    heartbeat=heartbeat,
                    batch_gossip=batch_gossip,
                    dhg=dhg,
                )
            )
        else:
            configs.append(
                NodeConfig(class_id=class_id, engine_name=mode_engine)
            )
    return configs


if __name__ == "__main__":
    sys.exit(worker_main())
