"""Graph theory for hierarchical database decomposition (paper Section 3.1).

The paper's topology requirement is phrased in terms of a *transitive
semi-tree* (TST):

* a **semi-tree** is a digraph with at most one undirected path between
  any pair of nodes — i.e. its underlying undirected (multi)graph is a
  forest;
* a **transitive semi-tree** is a digraph whose transitive reduction is
  a semi-tree (a semi-tree plus arbitrarily many transitively induced
  arcs).

Every arc of a semi-tree is a *critical arc*; a path made of critical
arcs alone is a *critical path*, and between any pair of nodes of a TST
there is at most one critical path (paper, Section 3.1 properties).

This module provides a small self-contained :class:`Digraph` (no
external dependency, so the whole decomposition theory is auditable in
one file) plus the recognition and path machinery the rest of the
library builds on.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.errors import PartitionError

Node = Hashable
Arc = tuple[Node, Node]


class Digraph:
    """A simple directed graph: unique nodes, no parallel arcs, no self-loops.

    Self-loops are rejected because the paper's DHG construction only
    creates arcs between *distinct* segments (``D_i -> D_j, i != j``).
    """

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        arcs: Iterable[Arc] = (),
    ) -> None:
        self._succ: dict[Node, set[Node]] = {}
        #: The reverse adjacency, built on first use and dropped by any
        #: mutation: most graphs are built once and only then queried.
        self._pred_cache: Optional[dict[Node, set[Node]]] = None
        for node in nodes:
            self.add_node(node)
        for u, v in arcs:
            self.add_arc(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred_cache = None

    def add_arc(self, u: Node, v: Node) -> None:
        if u == v:
            raise PartitionError(f"self-loop {u!r} -> {v!r} is not allowed")
        succ = self._succ
        if v not in succ:
            succ[v] = set()
        if u in succ:
            succ[u].add(v)
        else:
            succ[u] = {v}
        self._pred_cache = None

    def remove_arc(self, u: Node, v: Node) -> None:
        self._succ[u].discard(v)
        self._pred_cache = None

    @property
    def _pred(self) -> dict[Node, set[Node]]:
        if self._pred_cache is None:
            pred: dict[Node, set[Node]] = {node: set() for node in self._succ}
            for u, targets in self._succ.items():
                for v in targets:
                    pred[v].add(u)
            self._pred_cache = pred
        return self._pred_cache

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return list(self._succ)

    @property
    def arcs(self) -> list[Arc]:
        return [(u, v) for u, targets in self._succ.items() for v in targets]

    def node_count(self) -> int:
        return len(self._succ)

    def arc_count(self) -> int:
        return sum(len(t) for t in self._succ.values())

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def has_arc(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def successors(self, node: Node) -> set[Node]:
        return set(self._succ[node])

    def predecessors(self, node: Node) -> set[Node]:
        return set(self._pred[node])

    def copy(self) -> "Digraph":
        return Digraph(self.nodes, self.arcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            set(self.nodes) == set(other.nodes)
            and set(self.arcs) == set(other.arcs)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Digraph(nodes={self.nodes!r}, arcs={sorted(map(str, self.arcs))!r})"

    # ------------------------------------------------------------------
    # Acyclicity and ordering
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[list[Node]]:
        """Return the nodes of some directed cycle, or ``None`` if acyclic.

        Iterative three-colour DFS; the returned list is the cycle in
        order, without repeating the first node at the end.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in self._succ}
        parent: dict[Node, Optional[Node]] = {}

        for root in self._succ:
            if colour[root] != WHITE:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [
                (root, iter(self._succ[root]))
            ]
            colour[root] = GREY
            parent[root] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(self._succ[child])))
                        advanced = True
                        break
                    if colour[child] == GREY:
                        # Found a back arc node -> child: walk the cycle.
                        cycle = [node]
                        walk = node
                        while walk != child:
                            walk = parent[walk]
                            cycle.append(walk)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def topological_order(self) -> list[Node]:
        """Kahn's algorithm; raises :class:`PartitionError` on a cycle."""
        indegree = {node: len(self._pred[node]) for node in self._succ}
        queue = deque(sorted(
            (n for n, d in indegree.items() if d == 0), key=repr
        ))
        order: list[Node] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for child in sorted(self._succ[node], key=repr):
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._succ):
            raise PartitionError("graph has a cycle; no topological order")
        return order

    # ------------------------------------------------------------------
    # Reachability, closure, reduction
    # ------------------------------------------------------------------
    def reachable_from(self, source: Node) -> set[Node]:
        """All nodes reachable from ``source`` by directed arcs (excl. source
        unless it lies on a cycle through itself, which cannot happen here)."""
        seen: set[Node] = set()
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for child in self._succ[node]:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def transitive_closure(self) -> "Digraph":
        closure = Digraph(self.nodes)
        for node in self._succ:
            for target in self.reachable_from(node):
                closure.add_arc(node, target)
        return closure

    def transitive_reduction(self) -> "Digraph":
        """The unique transitive reduction (graph must be acyclic).

        An arc ``u -> v`` is redundant iff ``v`` is reachable from some
        successor of ``u`` other than ``v`` itself.
        """
        if not self.is_acyclic():
            raise PartitionError(
                "transitive reduction is only defined for acyclic digraphs"
            )
        reduction = Digraph(self.nodes)
        reach: dict[Node, set[Node]] = {
            node: self.reachable_from(node) for node in self._succ
        }
        for u in self._succ:
            for v in self._succ[u]:
                redundant = any(
                    v in reach[w] for w in self._succ[u] if w != v
                )
                if not redundant:
                    reduction.add_arc(u, v)
        return reduction

    # ------------------------------------------------------------------
    # Undirected view
    # ------------------------------------------------------------------
    def undirected_neighbours(self, node: Node) -> set[Node]:
        return self._succ[node] | self._pred[node]

    def undirected_components(self) -> list[set[Node]]:
        seen: set[Node] = set()
        components = []
        for root in self._succ:
            if root in seen:
                continue
            component = {root}
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for other in self.undirected_neighbours(node):
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
            seen |= component
            components.append(component)
        return components


# ----------------------------------------------------------------------
# Semi-tree and transitive semi-tree recognition
# ----------------------------------------------------------------------
def is_semi_tree(graph: Digraph, require_connected: bool = False) -> bool:
    """Is ``graph`` a semi-tree (paper Section 3.1)?

    A semi-tree has **at most one undirected path between any pair of
    nodes**: treating every arc as an undirected edge (and antiparallel
    arc pairs ``u->v, v->u`` as two parallel edges, hence two paths),
    the graph must be a forest.  The paper's informal reading ("ignoring
    directions it appears to be a spanning tree") suggests connectivity;
    since nothing in the proofs uses it, connectivity is an optional
    extra check.
    """
    # Antiparallel pairs are two undirected paths between the same pair.
    for u, v in graph.arcs:
        if graph.has_arc(v, u):
            return False
    # Union-find forest check: an arc joining two already-connected
    # nodes closes an undirected cycle.
    parent: dict[Node, Node] = {node: node for node in graph.nodes}

    def find(node: Node) -> Node:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    for u, v in graph.arcs:
        root_u, root_v = find(u), find(v)
        if root_u == root_v:
            return False
        parent[root_u] = root_v

    if require_connected and graph.node_count() > 0:
        if len(graph.undirected_components()) != 1:
            return False
    return True


def is_transitive_semi_tree(graph: Digraph) -> bool:
    """Is ``graph`` a TST, i.e. is its transitive reduction a semi-tree?

    TSTs are necessarily acyclic (the paper places them strictly between
    directed trees and acyclic digraphs), so a cyclic graph fails.
    """
    if not graph.is_acyclic():
        return False
    return is_semi_tree(graph.transitive_reduction())


class SemiTreeIndex:
    """Precomputed path queries over a transitive semi-tree.

    The HDD protocols repeatedly ask for critical paths (``CP_i^j``) and
    undirected critical paths (``UCP_i^j``); this index computes the
    transitive reduction once and answers both queries from it.

    Raises :class:`PartitionError` if the input is not a TST.
    """

    def __init__(self, graph: Digraph) -> None:
        if not is_transitive_semi_tree(graph):
            raise PartitionError("graph is not a transitive semi-tree")
        self.graph = graph
        self.reduction = graph.transitive_reduction()
        self._cp_cache: dict[Arc, Optional[tuple[Node, ...]]] = {}
        self._ucp_cache: dict[Arc, Optional[tuple[Node, ...]]] = {}

    # -- critical arcs and paths ---------------------------------------
    def critical_arcs(self) -> list[Arc]:
        """The arcs of the underlying semi-tree."""
        return self.reduction.arcs

    def is_critical_arc(self, u: Node, v: Node) -> bool:
        return self.reduction.has_arc(u, v)

    def critical_path(self, i: Node, j: Node) -> Optional[tuple[Node, ...]]:
        """``CP_i^j``: the unique directed path of critical arcs from
        ``i`` to ``j``, as a node tuple ``(i, ..., j)``; ``None`` if no
        such path exists.  ``critical_path(i, i) == (i,)``.
        """
        key = (i, j)
        if key not in self._cp_cache:
            self._cp_cache[key] = self._find_critical_path(i, j)
        return self._cp_cache[key]

    def _find_critical_path(self, i: Node, j: Node) -> Optional[tuple[Node, ...]]:
        if i == j:
            return (i,)
        # In a semi-tree the undirected path is unique, so a directed
        # critical path exists iff the unique undirected path is
        # consistently directed i -> j.
        walk = self.undirected_critical_path(i, j)
        if walk is None:
            return None
        for u, v in zip(walk, walk[1:]):
            if not self.reduction.has_arc(u, v):
                return None
        return walk

    def is_higher(self, j: Node, i: Node) -> bool:
        """``T_j higher-than T_i`` (paper: ``T_j ^ T_i``): does ``CP_i^j``
        exist with ``i != j``?"""
        return i != j and self.critical_path(i, j) is not None

    def comparable(self, i: Node, j: Node) -> bool:
        """Are ``i`` and ``j`` on one critical path (either direction)?"""
        return (
            self.critical_path(i, j) is not None
            or self.critical_path(j, i) is not None
        )

    # -- undirected critical paths --------------------------------------
    def undirected_critical_path(
        self, i: Node, j: Node
    ) -> Optional[tuple[Node, ...]]:
        """``UCP_i^j``: the unique undirected path through critical arcs,
        as a node tuple ``(i, ..., j)``; ``None`` if ``i`` and ``j`` are
        in different components.  ``undirected_critical_path(i, i) == (i,)``.
        """
        key = (i, j)
        if key not in self._ucp_cache:
            self._ucp_cache[key] = self._find_ucp(i, j)
        return self._ucp_cache[key]

    def _find_ucp(self, i: Node, j: Node) -> Optional[tuple[Node, ...]]:
        if i == j:
            return (i,)
        # BFS over the undirected view of the reduction; the tree
        # property makes the found path the unique one.
        parent: dict[Node, Node] = {i: i}
        queue = deque([i])
        while queue:
            node = queue.popleft()
            if node == j:
                break
            for other in self.reduction.undirected_neighbours(node):
                if other not in parent:
                    parent[other] = node
                    queue.append(other)
        if j not in parent:
            return None
        path = [j]
        while path[-1] != i:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)

    def path_on_one_critical_path(self, classes: Sequence[Node]) -> bool:
        """Do all of ``classes`` lie on one critical path (Section 5.0)?

        True iff there exist bottom and top elements such that the
        critical path from bottom to top passes through every class in
        the set.
        """
        unique = list(dict.fromkeys(classes))
        if len(unique) <= 1:
            return True
        for bottom in unique:
            for top in unique:
                path = self.critical_path(bottom, top)
                if path is not None and set(unique) <= set(path):
                    return True
        return False

    def lowest_of(self, classes: Sequence[Node]) -> Node:
        """The bottom class of a set lying on one critical path."""
        unique = list(dict.fromkeys(classes))
        for bottom in unique:
            if all(
                self.critical_path(bottom, other) is not None
                for other in unique
            ):
                return bottom
        raise PartitionError(
            f"classes {unique!r} do not lie on one critical path"
        )

    def lowest_classes(self) -> list[Node]:
        """Classes with no incoming critical arc (candidates for the
        Protocol C starting class ``T_s``)."""
        return [
            node
            for node in self.reduction.nodes
            if not self.reduction.predecessors(node)
        ]
