"""Span tracing from outside the program: wrap, measure, unwrap.

The per-layer numbers of the ledger come from a *separate* traced run:
this module replaces the public functions of each layer (``LAYER_PATCHES``)
with timing wrappers, from the benchmark's side, so nothing under
``src/`` knows it is being measured and the untraced run pays nothing.

Arithmetic.  Every wrapper opens a span; a span's *self time* is its
duration minus the durations of the spans opened inside it.  A span with
no parent is a root.  Self times therefore telescope: summed over every
span they equal the summed root durations (``Tracer.root_s``) exactly,
up to float rounding; the runner reports the difference as
``ledger.residual_s`` and the harness test pins it on a synthetic tree.

Memory.  Engine -> scheduler operations (begin/read/write/commit/...)
are kept as individual *op spans* carrying the transaction id and their
parent op; the much more numerous inner-layer calls are folded into
per-function accumulators, globally and per enclosing op span, so a run
costs O(ops), not O(calls).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Iterable, Optional

_MISSING = object()


class Tracer:
    """Accumulates spans; installs and removes the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: key -> [calls, self seconds]; cells are captured by wrappers,
        #: so :meth:`reset` zeroes them in place.
        self.totals: dict[str, list] = {}
        #: ``key.<sub>`` -> [calls, self seconds]: a key's time split by
        #: an argument (message kind).  A breakdown, not more layers, so
        #: it stays out of ``totals``, whose self times are additive.
        self.breakdowns: dict[str, list] = {}
        #: Free-form counters next to the spans (bytes, outcome kinds).
        self.counts: dict[str, float] = {}
        #: One tuple per engine -> scheduler operation:
        #: (op, txn_id, parent_index, start, end, self_s, outcome, inner)
        #: where inner maps function key -> [calls, self_s] under the op.
        self.op_spans: list[Optional[tuple]] = []
        self.root_s = 0.0
        self._stack: list[list] = []
        self._op_stack: list[int] = []
        self._fold: Optional[dict] = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything measured so far (wrappers stay installed)."""
        for cell in self.totals.values():
            cell[0] = 0
            cell[1] = 0.0
        self.breakdowns.clear()
        self.counts.clear()
        self.op_spans.clear()
        self.root_s = 0.0

    def _cell(self, key: str) -> list:
        return self.totals.setdefault(key, [0, 0.0])

    def _close(
        self, key: str, cell: list, frame: list, start: float,
        fold: Optional[dict],
    ) -> float:
        """End a span: account its self time, credit its parent.

        Returns the span's duration; its self time is that minus
        ``frame[0]``, the time its children covered.
        """
        elapsed = self.clock() - start
        stack = self._stack
        stack.pop()
        self_s = elapsed - frame[0]
        cell[0] += 1
        cell[1] += self_s
        if stack:
            stack[-1][0] += elapsed
        else:
            self.root_s += elapsed
        if fold is not None:
            entry = fold.get(key)
            if entry is None:
                fold[key] = [1, self_s]
            else:
                entry[0] += 1
                entry[1] += self_s
        return elapsed

    def wrap(
        self,
        key: str,
        fn: Callable,
        sub: Optional[Callable[[tuple], str]] = None,
        size: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` accumulating under ``key``.

        ``sub(args)`` names the breakdown bucket (``key.<sub>``) that
        also receives the self time; ``size(args, result)`` adds to the
        ``key.bytes`` counter.
        """
        cell = self._cell(key)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(key, cell, frame, start, self._fold)
                raise
            elapsed = self._close(key, cell, frame, start, self._fold)
            if sub is not None:
                sub_cell = self.breakdowns.setdefault(
                    f"{key}.{sub(args)}", [0, 0.0]
                )
                sub_cell[0] += 1
                sub_cell[1] += elapsed - frame[0]
            if size is not None:
                name = f"{key}.bytes"
                self.counts[name] = self.counts.get(name, 0) + size(
                    args, result
                )
            return result

        return traced

    def wrap_op(self, name: str, fn: Callable) -> Callable:
        """Wrapper for one scheduler operation: an individual op span.

        Inner-layer calls made under the op fold into the op's own
        ``inner`` accumulators; a nested op (``begin`` polling the walls)
        is its own span, linked by ``parent``.
        """
        key = f"scheduling.{name}"
        cell = self._cell(key)
        stack = self._stack
        op_stack = self._op_stack
        spans = self.op_spans
        counts = self.counts
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = op_stack[-1] if op_stack else None
            outer_fold = self._fold
            self._fold = fold = {}
            frame = [0.0]
            stack.append(frame)
            op_stack.append(index)
            start = clock()
            result = None
            outcome = "raised"
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome_of(result)
                return result
            finally:
                elapsed = self._close(key, cell, frame, start, None)
                op_stack.pop()
                self._fold = outer_fold
                bucket = f"{key}.{outcome}"
                counts[bucket] = counts.get(bucket, 0) + 1
                txn = args[0] if args else result
                spans[index] = (
                    name,
                    txn if isinstance(txn, int) else getattr(txn, "txn_id", None),
                    parent,
                    start,
                    start + elapsed,
                    elapsed - frame[0],
                    outcome,
                    fold,
                )

        return traced

    @contextlib.contextmanager
    def span(self, key: str):
        """A span the benchmark opens itself (the root of a run that has
        no single program function as its root)."""
        cell = self._cell(key)
        frame = [0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            self._close(key, cell, frame, start, None)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr = wrapper``, remembering what to restore."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def install(self, patches: Iterable[tuple]) -> None:
        """Wrap ``(owner, attr, key[, options])`` entries at class or
        module level.  Must run before the objects under test are built:
        bound methods captured at construction time (network handlers)
        keep whatever the class held at that moment."""
        for owner, attr, key, *rest in patches:
            options = rest[0] if rest else {}
            original = vars(owner)[attr]
            self.patch(owner, attr, self.wrap(key, original, **options))

    def install_ops(self, scheduler: object, names: Iterable[str]) -> None:
        """Wrap the scheduler's op interface on the *instance*.

        ``BaseScheduler`` rebinds ``read``/``write``/``commit`` on the
        instance when tracing is off, so a class-level patch would never
        be reached; an instance attribute also intercepts the
        scheduler's own ``self.poll_walls()`` calls.
        """
        for name in names:
            fn = getattr(scheduler, name, None)
            if fn is not None:
                self.patch(scheduler, name, self.wrap_op(name, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path) -> int:
        """One JSON line per op span, then one per folded function."""
        with open(path, "w") as out:
            for index, span in enumerate(self.op_spans):
                if span is None:
                    continue
                name, txn_id, parent, start, end, self_s, outcome, fold = span
                record = {
                    "span": index,
                    "parent": parent,
                    "layer": "scheduling",
                    "name": name,
                    "txn": txn_id,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                    "outcome": outcome,
                }
                if fold:
                    record["inner"] = fold
                out.write(json.dumps(record) + "\n")
            for key, (calls, self_s) in sorted(self.totals.items()):
                out.write(
                    json.dumps(
                        {"function": key, "calls": calls, "self_s": self_s}
                    )
                    + "\n"
                )
        return len(self.op_spans)


def _outcome_of(result: object) -> str:
    kind = getattr(result, "kind", None)
    return getattr(kind, "value", "done")


# ----------------------------------------------------------------------
# The layer boundaries of this repository
# ----------------------------------------------------------------------
#: The ``BaseScheduler`` op interface (``scheduling.py``), bound to
#: ``HDDScheduler`` in mono_*/serve_* and ``DistributedRuntime`` in
#: dist_mixed — one set of names for both.
SCHEDULER_OPS = (
    "begin",
    "read",
    "write",
    "commit",
    "abort",
    "collect_garbage",
    "poll_walls",
)


def layer_patches() -> list[tuple]:
    """``(owner, attribute, key[, options])`` for every traced function.

    Imported lazily so this module can be used (and tested) on a
    synthetic tree without the program on the path.
    """
    from repro.core import intraclass
    from repro.core.activity import ActivityTracker
    from repro.core.graph import Digraph
    from repro.core.timewall import TimeWallManager
    from repro.dist.net import SimNetwork
    from repro.dist.node import SegmentNode
    from repro.serve import protocol, transport
    from repro.sim.engine import Simulator
    from repro.sim.workload import Workload
    from repro.storage.chain import VersionChain
    from repro.storage.gc import WatermarkGC
    from repro.txn import depgraph
    from repro.txn.schedule import Schedule

    patches: list[tuple] = [
        (Simulator, "run", "sim.engine.run"),
        (Workload, "next_transaction", "sim.workload.next_transaction"),
        (ActivityTracker, "a_func", "core.activity.a_func"),
        (ActivityTracker, "a_func_from_below", "core.activity.a_func"),
        (ActivityTracker, "e_func", "core.activity.e_func"),
        (ActivityTracker, "try_e_func", "core.activity.e_func"),
        (ActivityTracker, "i_old", "core.activity.i_old"),
        (ActivityTracker, "c_late", "core.activity.c_late"),
        (ActivityTracker, "record_begin", "core.activity.record_begin_end"),
        (ActivityTracker, "record_end", "core.activity.record_begin_end"),
        (TimeWallManager, "poll", "core.timewall.poll"),
        (TimeWallManager, "force_release", "core.timewall.poll"),
        (TimeWallManager, "wall_for", "core.timewall.wall_for"),
        (TimeWallManager, "pin", "core.timewall.pin_unpin"),
        (TimeWallManager, "unpin", "core.timewall.pin_unpin"),
        (TimeWallManager, "retire", "core.timewall.retire"),
        (VersionChain, "latest_before", "storage.chain.latest_before"),
        (VersionChain, "install", "storage.chain.install"),
        (VersionChain, "commit_version", "storage.chain.commit_version"),
        (VersionChain, "prune_below", "storage.chain.prune_below"),
        (WatermarkGC, "collect", "storage.gc"),
        (Schedule, "record_read", "txn.schedule.record"),
        (Schedule, "record_write", "txn.schedule.record"),
        (Schedule, "record_commit", "txn.schedule.record"),
        (Schedule, "record_abort", "txn.schedule.record"),
        (depgraph, "is_serializable", "txn.depgraph.is_serializable"),
        (depgraph, "build_dependency_graph", "txn.depgraph.build"),
        (Digraph, "is_acyclic", "txn.depgraph.acyclic"),
        (SimNetwork, "send", "dist.net.send"),
        (SimNetwork, "deliver_one_due", "dist.net.deliver_one_due"),
        (SimNetwork, "pump", "dist.net.pump"),
        (
            SegmentNode,
            "handle",
            "dist.node.handle",
            {"sub": lambda args: args[1].kind},
        ),
        (
            protocol.FrameDecoder,
            "feed",
            "serve.protocol.decoder_feed",
            {"size": lambda args, result: len(args[1])},
        ),
    ]
    # Protocol B engines: wrap each class's own definitions, so the
    # engine actually configured is measured whichever it is.
    for engine in (
        intraclass.IntraClassEngine,
        intraclass.BasicTOEngine,
        intraclass.MVTOEngine,
        intraclass.ReedMVTOEngine,
    ):
        for attr, op in (
            ("read", "read"),
            ("write", "write"),
            ("commit_check", "commit"),
        ):
            if attr in vars(engine):
                patches.append((engine, attr, f"core.intraclass.{op}"))
    # encode_frame is imported by name into the transports, so both
    # bindings are replaced (the wrappers share one accumulator).
    encode = {"size": lambda args, result: len(result)}
    for module in (protocol, transport):
        patches.append(
            (module, "encode_frame", "serve.protocol.encode_frame", encode)
        )
    return patches
