"""The serializability oracle: transaction dependency graphs (Section 2).

Given a recorded multi-version :class:`~repro.txn.schedule.Schedule`,
this module rebuilds the paper's *transaction dependency graph*
``TG(S(T))`` and tests it for acyclicity.  By the theorem the paper
imports from Bernstein 1982, a schedule is serializable iff its
dependency graph is acyclic — so this oracle is what every correctness
test in the repository ultimately appeals to.

The paper's arc rules (``t2 -> t1`` means "t2 depends on t1", i.e. t2
must come *after* t1 in any equivalent serial schedule):

1. *reads-from*: ``t2`` read a version created by ``t1``;
2. *overwrites-read*: ``t2`` created a version whose immediate
   predecessor (in the version order) was read by ``t1``.

We also provide the full Bernstein–Goodman multi-version
serialization graph (``mode="mvsg"``), which generalises rule 2 to
arbitrary version-order positions; on the schedules our schedulers emit
the two tests agree (a property test checks this), but the MVSG variant
is useful when auditing hand-written schedules.

Version order: versions are ordered by write timestamp, which every
scheduler in this library sets to the writer's initiation timestamp
(multi-version engines) or assigns monotonically (single-version
engines).  See DESIGN.md §7 for why this matches the paper's
schedule-position definition on the executions we generate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal, Optional

from repro.core.graph import Digraph
from repro.errors import PartitionError
from repro.txn.clock import BOOTSTRAP_TXN_ID
from repro.txn.schedule import Action, Schedule, ScheduleIndex
from repro.txn.transaction import GranuleId

DependencyMode = Literal["paper", "mvsg"]


@dataclass(frozen=True)
class Dependency:
    """One arc of the dependency graph, with provenance for diagnostics."""

    later: int  # the depending transaction (t2)
    earlier: int  # the depended-upon transaction (t1)
    granule: GranuleId
    kind: str  # "reads-from" | "overwrites-read" | "version-order"

    def __str__(self) -> str:
        return (
            f"t{self.later} -> t{self.earlier} "
            f"({self.kind} on {self.granule})"
        )


def build_dependency_graph(
    schedule: Schedule,
    mode: DependencyMode = "paper",
    include_bootstrap: bool = False,
) -> tuple[Digraph, list[Dependency]]:
    """Build ``TG(S(T))`` over the committed transactions of ``schedule``.

    Returns the digraph plus the annotated dependency list.  The
    bootstrap transaction (initial versions) is excluded by default: it
    precedes everything and only adds noise to diagnostics.

    This is the *definition*: one arc per rule instance, reads x
    versions of them in ``mvsg`` mode.  The verdict functions below
    decide the same acyclicity from :func:`_relay_graph` in O(steps).
    """
    index = ScheduleIndex(schedule.steps)
    writer_of = index.writer_of
    committed = index.committed
    if include_bootstrap:
        committed = committed | {BOOTSTRAP_TXN_ID}

    graph = Digraph(nodes=sorted(committed))
    deps: list[Dependency] = []

    def add(later: int, earlier: int, granule: GranuleId, kind: str) -> None:
        if later != earlier and later in committed and earlier in committed:
            graph.add_arc(later, earlier)
            deps.append(Dependency(later, earlier, granule, kind))

    # Rule 1: reads-from.
    for reader, granule, version_ts in index.reads:
        writer = writer_of.get((granule, version_ts), BOOTSTRAP_TXN_ID)
        add(reader, writer, granule, "reads-from")

    # Rule 2: overwrites-read (paper) or full version-order (mvsg).
    for reader, granule, read_ts in index.reads:
        order = index.versions.get(granule, [])
        if mode == "paper":
            # The version whose *predecessor* is the one read (paper
            # Section 2); a bootstrap or aborted version is not in the
            # order, its successor is the next committed one all the same.
            successor = bisect_right(order, read_ts)
            if successor < len(order):
                overwriter = writer_of[(granule, order[successor])]
                add(overwriter, reader, granule, "overwrites-read")
        else:
            # Bernstein–Goodman: for each read r_k(x_j) and committed
            # write w_i(x_i) of the same granule, if x_i << x_j the
            # writers are ordered (t_i before t_j); otherwise the
            # reader precedes the later writer (t_k before t_i).  The
            # reads-from rule already covers the version actually read.
            read_writer = writer_of.get((granule, read_ts), BOOTSTRAP_TXN_ID)
            for other_ts in order:
                if other_ts == read_ts:
                    continue
                other_writer = writer_of[(granule, other_ts)]
                if other_ts > read_ts:
                    add(other_writer, reader, granule, "version-order")
                else:
                    add(read_writer, other_writer, granule, "version-order")

    return graph, deps


def _relay_graph(
    index: ScheduleIndex,
    mode: DependencyMode,
    why: Optional[dict] = None,
) -> Digraph:
    """A graph of O(steps) arcs that is cyclic iff the definition's is.

    Transactions keep their ids as nodes; *relay* nodes (integers below
    every id) stand for sets of writers.  Per granule with versions
    ``v_0 << ... << v_n`` written by ``w_0 .. w_n``, ``after[i]`` is
    "every writer at a position >= i" (``w_i -> after[i]``,
    ``after[i+1] -> after[i]``, and ``after[i] -> reader`` for a reader
    of the version just below position ``i``) and ``before[i]`` is
    "every writer at a position <= i" (``before[i] -> w_i``,
    ``before[i] -> before[i-1]``, and ``w_i -> before[i-1]`` only if
    ``v_i`` was read).  A run of relays between two transactions is
    exactly one ``version-order`` arc of the MVSG; the self-arcs the
    definition drops are kept out by stepping past a transaction's own
    versions, with direct arcs for the writers in between (DESIGN.md
    §6 has the argument).  ``paper`` mode needs no relays: one bisect
    per read finds the immediate successor.

    With ``why``, direct arcs record their :class:`Dependency` under
    ``(later, earlier)`` and relays their granule under the relay node.
    """
    committed, writer_of = index.committed, index.writer_of
    graph = Digraph(nodes=sorted(committed))
    add_arc = graph.add_arc
    relay = min(committed | {0})  # relay nodes are allocated below this

    def arc(later: int, earlier: int, granule: GranuleId, kind: str) -> None:
        if later != earlier and later in committed and earlier in committed:
            add_arc(later, earlier)
            if why is not None:
                why.setdefault(
                    (later, earlier), Dependency(later, earlier, granule, kind)
                )

    #: granule -> ([(reader, position just above the version read), ...],
    #: {positions of the versions that were read})
    readers: dict[GranuleId, tuple[list, set]] = {}
    for reader, granule, read_ts in index.reads:
        writer = writer_of.get((granule, read_ts), BOOTSTRAP_TXN_ID)
        arc(reader, writer, granule, "reads-from")
        order = index.versions.get(granule)
        if not order:
            continue
        above = bisect_right(order, read_ts)
        if mode == "paper":
            if above < len(order):
                overwriter = writer_of[(granule, order[above])]
                arc(overwriter, reader, granule, "overwrites-read")
            continue
        hung, read_positions = readers.setdefault(granule, ([], set()))
        if reader in committed:
            hung.append((reader, above))
        if above and order[above - 1] == read_ts:
            read_positions.add(above - 1)

    for granule, (hung, read_positions) in readers.items():
        owners = [writer_of[(granule, ts)] for ts in index.versions[granule]]
        first_own: dict[int, int] = {}
        for position, owner in enumerate(owners):
            first_own.setdefault(owner, position)
        last_own = {owner: position for position, owner in enumerate(owners)}
        # after[i] is node `after - i`, before[i] is node `before - i`
        after = relay - 1
        before = after - len(owners)
        relay = before - len(owners) + 1
        if why is not None:
            why.update((node, granule) for node in range(relay, after + 1))
        for position, owner in enumerate(owners):
            if owner in committed:
                add_arc(owner, after - position)
                add_arc(before - position, owner)
            if position:
                add_arc(after - position, after - position + 1)
                add_arc(before - position, before - position + 1)
        for reader, above in hung:
            own = last_own.get(reader, -1)
            if own >= above:
                for position in range(above, own):
                    arc(owners[position], reader, granule, "version-order")
                above = own + 1
            if above < len(owners):
                add_arc(after - above, reader)
        for position in read_positions:
            owner = owners[position]
            own = first_own[owner]
            if own < position:
                for between in range(own + 1, position):
                    arc(owner, owners[between], granule, "version-order")
                position = own
            if position and owner in committed:
                add_arc(owner, before - position + 1)
    return graph


def is_serializable(
    schedule: Schedule, mode: DependencyMode = "paper"
) -> bool:
    """Serializability test: is ``TG(S(T))`` acyclic (paper's criterion)?"""
    return _relay_graph(ScheduleIndex(schedule.steps), mode).is_acyclic()


def find_dependency_cycle(
    schedule: Schedule, mode: DependencyMode = "paper"
) -> Optional[list[Dependency]]:
    """Return the dependencies forming some cycle, or ``None``.

    Useful in anomaly tests: the Figure 3/4 constructions must produce a
    concrete, explainable cycle once read protection is removed.  Every
    entry is in :func:`build_dependency_graph`'s list: a run of relays
    is mapped back to the one ``version-order`` arc it stands for.
    """
    index = ScheduleIndex(schedule.steps)
    why: dict = {}
    cycle = _relay_graph(index, mode, why).find_cycle()
    if cycle is None:
        return None
    committed = index.committed
    start = next(i for i, node in enumerate(cycle) if node in committed)
    cycle = cycle[start:] + cycle[: start + 1]
    deps: list[Dependency] = []
    later, via = cycle[0], None
    for node in cycle[1:]:
        if node not in committed:
            via = node
        elif via is None:
            deps.append(why[(later, node)])
            later = node
        else:
            deps.append(Dependency(later, node, why[via], "version-order"))
            later, via = node, None
    return deps


def closing_step(
    schedule: Schedule, mode: DependencyMode = "paper"
) -> Optional[int]:
    """Index of the commit marker that closed a cycle, or ``None``.

    In ``mvsg`` mode a longer prefix never loses an arc between two
    committed transactions, so cyclicity is monotone in the prefix and
    this is the *first* marker with a cyclic one.  (The paper's TG can
    lose an overwrites-read arc when a version commits in between;
    there the marker has a cyclic prefix and an acyclic one before it.)
    Bisects — log(commits) audits — only once the schedule has failed.
    """
    if is_serializable(schedule, mode):
        return None
    markers = [
        i for i, s in enumerate(schedule.steps) if s.action is Action.COMMIT
    ]
    # A marker's prefix runs up to the next marker, so the last one's is
    # the whole (cyclic) schedule whatever follows its marker.
    ends = markers[1:] + [len(schedule.steps)]
    low, high = 0, len(markers) - 1  # the prefix of `high` is cyclic
    while low < high:
        middle = (low + high) // 2
        prefix = ScheduleIndex(schedule.steps[: ends[middle]])
        if _relay_graph(prefix, mode).is_acyclic():
            low = middle + 1
        else:
            high = middle
    return markers[high]


def serialization_order(schedule: Schedule) -> list[int]:
    """An equivalent serial order of the committed transactions.

    Dependency arcs point later -> earlier, so the serial order is the
    reverse of a topological order.  The order is the MVSG's (the graph
    ``Simulator(audit=True)`` certifies) because the paper's TG leaves
    a never-read version unordered against the one an RMW read; a
    schedule only the TG accepts is ordered by the TG.  Raises
    :class:`~repro.errors.PartitionError` if both are cyclic.
    """
    index = ScheduleIndex(schedule.steps)
    try:
        order = _relay_graph(index, "mvsg").topological_order()
    except PartitionError:
        order = _relay_graph(index, "paper").topological_order()
    return [node for node in reversed(order) if node in index.committed]
