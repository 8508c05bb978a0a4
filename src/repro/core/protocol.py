"""The HDD access rule, stated once (paper Sections 4.2 and 5.0).

:class:`HDDProtocol` owns everything about *which protocol serves an
access* and nothing about storage or the wire.  For a transaction ``t``
touching a granule of segment ``D_j``:

* **update transaction of class** ``T_i``:

  - ``i == j`` -> **Protocol B**: the intra-class timestamp-ordering
    engine;
  - ``j`` higher than ``i`` -> **Protocol A**: serve the newest version
    with write timestamp strictly below the activity-link wall
    ``A_i^j(I(t))``.  No read timestamp, no lock, no blocking — the
    wall guarantees every version below it is final;
  - anything else -> :class:`~repro.errors.ProtocolViolation` (the
    declared profile promised not to do this; see
    :mod:`repro.core.restructure` for the dynamic-restructuring
    extension that admits such transactions anyway).

* **read-only transaction** (Section 5):

  - if its declared read segments lie on one critical path, it behaves
    like an update transaction in a *fictitious class* immediately
    below the lowest class of that path: Protocol A walls
    ``A_fict^j(I(t))``, never blocking;
  - otherwise -> **Protocol C**: read below the components of a
    released time wall (blocking only until the first wall is
    released).

Theorems 1 and 2 are proved about this rule, so every driver runs this
one statement of it.  The core is *sans-IO*: it reaches versions,
activity logs and walls only through its **host** — the monolithic
:class:`~repro.core.scheduler.HDDScheduler` binds the calls below to its
in-process tracker, engine and chains, the distributed runtime to RPCs,
flush barriers and fences (DESIGN.md §17 tabulates both bindings).

Host surface
------------
``partition``, ``walls``, ``clock``, ``_stats``, ``poll_walls(txn_id)``
    read through the host on every use, never captured: dynamic
    restructuring swaps the partition and the wall manager mid-flight;
``admit(txn)``
    liveness (over a wire: fence) pre-check of every operation —
    raises, or returns the refusing :class:`Outcome`, or ``None``;
``open_interval(txn)``
    open ``txn``'s interval in its class's activity log;
``engine_read(txn, granule)``, ``engine_write(txn, granule, value)``
    Protocol B at ``txn.class_id``;
``wall_read(txn, granule, segment, start, from_below, wall)``
    read below ``A_start^segment(I(t))`` (from the fictitious class
    below ``start`` when ``from_below``), computing it when ``wall is
    None``; returns ``(wall, outcome)``, ``wall`` ``None`` if refused;
``component_read(txn, granule, component, segment)``
    read below one component of a released time wall;
``pin_wall(txn, wall)``, ``unpin_wall(txn, pinned)``
    keep a Protocol C reader's wall from retirement; ``pin_wall``
    returns the view (``component(segment)``) the reader holds;
``cleanup_abort(txn, reason)``
    finish a Protocol B rejection: expunge, close the interval, record.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolViolation, ReproError
from repro.scheduling import WAIT_TIMEWALL, Outcome, blocked
from repro.txn.clock import Timestamp
from repro.txn.transaction import (
    GranuleId,
    SegmentId,
    Transaction,
    TransactionKind,
)

#: The four routes of the access rule.
PROTOCOL_B = "B"
PROTOCOL_A = "A"
FICTITIOUS_A = "fictitious-A"
PROTOCOL_C = "C"


class HDDProtocol:
    """The A/B/C access rule and its per-transaction state.

    ``fresh_walls`` attempts a wall release at every read-only begin
    and pins the newest wall outright, trading wall computation for
    snapshot freshness (used by the Database facade; the paper's
    periodic cadence is the default).
    """

    def __init__(self, host, fresh_walls: bool = False) -> None:
        self.host = host
        self.fresh_walls = fresh_walls
        #: Declared read segments of read-only transactions (``None`` =
        #: undeclared, which routes to Protocol C).
        self.ro_segments: dict[int, Optional[frozenset[SegmentId]]] = {}
        #: Read-only transactions whose declared segments lie on one
        #: critical path, mapped to the lowest class of that path (the
        #: fictitious class sits immediately below it).  Decided once at
        #: begin — it depends only on the declared set.
        self.ro_bottom: dict[int, SegmentId] = {}
        #: The wall view pinned by each Protocol C transaction, fixed at
        #: its first read: switching walls mid-transaction would break
        #: the snapshot.
        self.pinned: dict[int, object] = {}
        #: Cached per-transaction walls, ``txn_id -> segment -> wall``
        #: (Protocol A walls for update transactions, fictitious-class
        #: walls for declared-path readers).  The A function is
        #: deterministic for a fixed (class, segment, I), so caching is
        #: purely an optimisation; the nesting makes :meth:`forget` one
        #: dict pop instead of a sweep over every segment.
        self.a_walls: dict[int, dict[SegmentId, Timestamp]] = {}

    # ------------------------------------------------------------------
    # Begin-time classification
    # ------------------------------------------------------------------
    def classify(
        self,
        txn_id: int,
        initiation_ts: Timestamp,
        kind: TransactionKind,
        profile: Optional[str],
    ) -> Transaction:
        """Validate ``profile`` and place the transaction in its class."""
        host = self.host
        if kind is TransactionKind.READ_ONLY:
            if self.fresh_walls:
                try:
                    host.walls.force_release()
                except ReproError:
                    pass  # unsettled right now; the last wall serves
            segments: Optional[frozenset[SegmentId]] = None
            if profile is not None:
                declared = host.partition.profile(profile)
                if not declared.is_read_only:
                    raise ProtocolViolation(
                        f"profile {profile!r} is an update profile but the "
                        "transaction was begun read-only"
                    )
                segments = declared.reads
            self._declare(txn_id, segments)
            return Transaction(txn_id, initiation_ts, kind)
        if profile is None:
            raise ProtocolViolation(
                "HDD update transactions must name a transaction profile"
            )
        declared = host.partition.profile(profile)
        if declared.is_read_only:
            raise ProtocolViolation(
                f"profile {profile!r} is read-only; begin with read_only=True"
            )
        txn = Transaction(
            txn_id, initiation_ts, kind, class_id=declared.root_segment
        )
        host.open_interval(txn)
        return txn

    def _declare(
        self, txn_id: int, segments: Optional[frozenset[SegmentId]]
    ) -> None:
        self.ro_segments[txn_id] = segments
        partition = self.host.partition
        if segments is not None and (
            partition.read_only_on_one_critical_path(segments)
        ):
            self.ro_bottom[txn_id] = partition.index.lowest_of(
                list(segments)
            )
        else:
            self.ro_bottom.pop(txn_id, None)

    def repartitioned(self, merged_into: dict[SegmentId, SegmentId]) -> None:
        """The host swapped in a partition that merges segments.

        Drop Protocol A wall caches: walls recomputed from the merged
        (more populous) logs are <= the cached ones, i.e. conservative
        and still PSR-safe.  Declared read sets are renamed and their
        routes re-decided.  Pinned Protocol C walls are KEPT — an old
        wall remains a consistent cut (post-restructure transactions
        initiate above every old component), and switching a reader's
        wall mid-transaction would break its snapshot.
        """
        self.a_walls.clear()
        for txn_id, segments in list(self.ro_segments.items()):
            if segments is not None:
                self._declare(
                    txn_id, frozenset(merged_into[s] for s in segments)
                )

    # ------------------------------------------------------------------
    # The rule
    # ------------------------------------------------------------------
    def route(
        self, txn: Transaction, segment: SegmentId, writing: bool = False
    ) -> str:
        """Which protocol serves ``txn`` touching ``segment``."""
        root = txn.class_id
        if root is None:  # read-only: :meth:`classify` roots updates only
            declared = self.ro_segments.get(txn.txn_id)
            if declared is None:
                return PROTOCOL_C
            if segment not in declared:
                raise ProtocolViolation(
                    f"read-only txn {txn.txn_id} declared segments "
                    f"{sorted(declared)} but read {segment!r}"
                )
            if txn.txn_id in self.ro_bottom:
                return FICTITIOUS_A  # Section 5.0
            return PROTOCOL_C
        if segment == root:
            return PROTOCOL_B
        if writing:
            raise ProtocolViolation(
                f"txn {txn.txn_id} (class {root!r}) may not write "
                f"segment {segment!r}: updates stay in the root segment"
            )
        if self.host.partition.is_higher(segment, root):
            return PROTOCOL_A
        raise ProtocolViolation(
            f"txn {txn.txn_id} (class {root!r}) may not read "
            f"segment {segment!r}: it is not higher than its root"
        )

    def is_wall_read(self, txn: Transaction, granule: GranuleId) -> bool:
        """Would this read be served below a wall (A, fictitious-A, C)?

        Wall reads resolve against final versions and register nothing,
        so a server may answer them outside its writer gate.  ``False``
        for Protocol B, a read the rule rejects, an unplaceable granule.
        """
        try:
            segment = self.host.partition.segment_of(granule)
            return self.route(txn, segment) != PROTOCOL_B
        except ReproError:
            return False

    def protocol_tag(
        self, txn: Transaction, granule: GranuleId, op: str
    ) -> str:
        """The paper's A/B/C letter of a *granted* access, for tracing."""
        if op == "write":
            return PROTOCOL_B
        route = self.route(txn, self.host.partition.segment_of(granule))
        return PROTOCOL_A if route == FICTITIOUS_A else route

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def read(self, txn: Transaction, granule: GranuleId) -> Outcome:
        host = self.host
        refused = host.admit(txn)
        if refused is not None:
            return refused
        segment = host.partition.segment_of(granule)
        route = self.route(txn, segment)
        if route == PROTOCOL_B:
            outcome = host.engine_read(txn, granule)
            if outcome.aborted and txn.is_active:
                host.cleanup_abort(
                    txn, outcome.reason or "protocol B rejection"
                )
            return outcome
        if route == PROTOCOL_C:
            return self._protocol_c_read(txn, granule, segment)
        # Protocol A: wall A_i^j(I(t)), no registration, no waiting.
        if route == PROTOCOL_A:
            start, from_below = txn.class_id, False
        else:
            start, from_below = self.ro_bottom[txn.txn_id], True
        walls = self.a_walls.setdefault(txn.txn_id, {})
        wall, outcome = host.wall_read(
            txn, granule, segment, start, from_below, walls.get(segment)
        )
        if wall is not None:
            walls[segment] = wall
        return outcome

    def _protocol_c_read(
        self, txn: Transaction, granule: GranuleId, segment: SegmentId
    ) -> Outcome:
        host = self.host
        pinned = self.pinned.get(txn.txn_id)
        if pinned is None:
            walls = host.walls
            if self.fresh_walls and walls.released:
                # Freshness mode: pin the newest wall outright (any
                # released wall is a consistent cut; the RT < I(t)
                # rule only matters for the paper's cadence semantics).
                wall = walls.released[-1]
            else:
                wall = walls.wall_for(txn.initiation_ts)
            if wall is None and walls.released:
                # No wall released strictly before I(t): fall back to
                # the newest released wall.  Theorem 2 holds for *any*
                # released wall; the RT < I(t) rule is a freshness
                # heuristic only (DESIGN.md §7).
                wall = walls.released[-1]
            if wall is None:
                host.poll_walls(txn.txn_id)
                wall = host.walls.wall_for(host.clock.now + 1)
            if wall is None:
                host._stats.wall_blocks += 1
                return blocked(waiting_for=WAIT_TIMEWALL)
            pinned = host.pin_wall(txn, wall)
            self.pinned[txn.txn_id] = pinned
        return host.component_read(
            txn, granule, pinned.component(segment), segment
        )

    def write(
        self, txn: Transaction, granule: GranuleId, value: object
    ) -> Outcome:
        host = self.host
        refused = host.admit(txn)
        if refused is not None:
            return refused
        if txn.class_id is None:
            raise ProtocolViolation(
                f"read-only txn {txn.txn_id} attempted a write"
            )
        self.route(txn, host.partition.segment_of(granule), writing=True)
        outcome = host.engine_write(txn, granule, value)
        if outcome.aborted and txn.is_active:
            host.cleanup_abort(txn, outcome.reason or "protocol B rejection")
        return outcome

    def forget(self, txn: Transaction) -> None:
        """Drop ``txn``'s state once it has committed or aborted."""
        txn_id = txn.txn_id
        self.ro_segments.pop(txn_id, None)
        self.ro_bottom.pop(txn_id, None)
        pinned = self.pinned.pop(txn_id, None)
        if pinned is not None:
            self.host.unpin_wall(txn, pinned)
        self.a_walls.pop(txn_id, None)
