"""Maximum matching over the out-role/in-role bipartite view of a graph.

Each node splits into an out-role (tail side) and an in-role (head side);
a directed edge u->v is matched by pairing u's out-role with v's in-role.
A matching never repeats a tail and never repeats a head. A node counts as
matched when its in-role is the head of a matched edge; the unmatched
nodes of any maximum matching form a minimum driver node set.

Augmenting-path search is depth-first and deterministic: free tails are
processed in ascending rank of a caller-supplied node order, and candidate
in-roles are scanned lowest rank first. The deterministic scan is what
lets a degree-sorted order steer which nodes end up unmatched.

Every search runs in one core, ``MatchingState._augment``, which prunes
across the roots of one call (a Hungarian forest): within a call the
active set is fixed, and the in-roles visited by a search that failed stay
marked, while a search that succeeds clears only the marks it made. This
is exact. When a search fails, every out-edge of every tail in its tree
ends at a marked in-role, and every in-role in the tree is matched to a
tail in the tree. So no augmenting path can enter the tree, flipping one
leaves the tree as it was, and its in-roles stay dead ends for the rest
of the call. Skipping them changes no search's result or the order in
which it visits the live in-roles, so the matchings are those of a search
without the pruning. Marks do not outlive a call: admitting a node can
open a path through them.
"""

from __future__ import annotations

import sys
from bisect import insort
from typing import Iterable, Iterator

import numpy as np

from .errors import UsageError, ValidationError
from .graph import DirectedGraph, out_csr, out_ptr_list

__all__ = ["Matching", "MatchingState", "max_matching", "verify_maximum"]

# the mark of a head outside the active set: reads as visited under every stamp
_INACTIVE = sys.maxsize


class Matching:
    """Immutable snapshot of a matching.

    ``head_by_tail[u]`` is the head matched to tail u (-1 if u's out-role
    is free); ``tail_by_head`` is the exact inverse.
    """

    __slots__ = ("_head_by_tail", "_tail_by_head", "_size")

    def __init__(self, head_by_tail: Iterable[int], tail_by_head: Iterable[int] | None = None):
        heads = tuple(int(h) if int(h) >= 0 else -1 for h in head_by_tail)
        n = len(heads)
        tails = [-1] * n
        for u, v in enumerate(heads):
            if v >= 0:
                if v >= n:
                    raise ValidationError(f"head index {v} out of range for {n} nodes")
                if tails[v] >= 0:
                    raise ValidationError(f"two tails matched to head {v}")
                tails[v] = u
        if tail_by_head is not None:
            given = tuple(int(t) if int(t) >= 0 else -1 for t in tail_by_head)
            if given != tuple(tails):
                raise ValidationError("tail_by_head is not the inverse of head_by_tail")
        self._head_by_tail = heads
        self._tail_by_head = tuple(tails)
        self._size = sum(1 for h in heads if h >= 0)

    @classmethod
    def empty(cls, node_count: int) -> Matching:
        return cls([-1] * node_count, [-1] * node_count)

    @classmethod
    def from_pairs(cls, graph: DirectedGraph, pairs: Iterable[tuple[int, int]]) -> Matching:
        """Build and validate a matching from (tail, head) pairs.

        Raises ValidationError when a pair is not a graph edge or when two
        pairs share a tail or share a head.
        """
        n = graph.node_count
        heads = [-1] * n
        tails = [-1] * n
        for tail, head in pairs:
            tail = int(tail)
            head = int(head)
            if not graph.has_edge(tail, head):
                raise ValidationError(f"({tail}, {head}) is not an edge of the graph")
            if heads[tail] >= 0:
                raise ValidationError(f"tail {tail} matched twice")
            if tails[head] >= 0:
                raise ValidationError(f"head {head} matched twice")
            heads[tail] = head
            tails[head] = tail
        return cls(heads, tails)

    @property
    def size(self) -> int:
        return self._size

    @property
    def head_by_tail(self) -> tuple[int, ...]:
        return self._head_by_tail

    @property
    def tail_by_head(self) -> tuple[int, ...]:
        return self._tail_by_head

    def tail_of(self, head: int) -> int:
        return self._tail_by_head[head]

    def pairs(self) -> Iterator[tuple[int, int]]:
        for u, v in enumerate(self._head_by_tail):
            if v >= 0:
                yield (u, v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._head_by_tail == other._head_by_tail

    def __hash__(self):
        return hash(self._head_by_tail)

    def __repr__(self) -> str:
        return f"Matching(size={self._size})"


class MatchingState:
    """Mutable matching over a growing active subgraph.

    The state admits nodes one at a time (``extend_with_node``) or all at
    once (``complete``), keeping the matching maximum on the active set
    after every step. Single-owner: mutate from one thread only; many
    states may share one immutable graph.

    ``order`` is a NodeOrder or any sequence of node indices in rank
    order. ``scan_heads`` overrides the neighbor scan order (used for
    randomized sampling): it holds the heads of the graph's ``out_csr``
    layout, reordered within each tail's segment; the default scans each
    segment in ascending rank.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        order,
        *,
        active: Iterable[int] = (),
        matching=None,
        scan_heads: list[int] | None = None,
    ):
        n = graph.node_count
        perm = np.asarray(getattr(order, "permutation", order), dtype=np.int64)
        if perm.shape != (n,):
            raise UsageError(f"order covers {perm.size} nodes, graph has {n}")
        rank = np.full(n, -1, dtype=np.int64)
        if perm.min() >= 0 and perm.max() < n:
            rank[perm] = np.arange(n)
        if rank.min() < 0:
            raise UsageError("order must contain each node index exactly once")
        self.graph = graph
        if scan_heads is None:
            ptr, heads = out_csr(graph)
            tails = np.repeat(np.arange(n), np.diff(ptr))
            scan_heads = heads[np.argsort(tails * n + rank[heads])].tolist()
        elif len(scan_heads) != graph.edge_count:
            raise UsageError("scan_heads must hold one entry per edge")
        self._order = perm.tolist()
        self._rank = rank  # an array: only the rank property and insort read it
        self._ptr = out_ptr_list(graph)
        self._heads = scan_heads
        self._mh = [-1] * n  # tail -> matched head
        self._mt = [-1] * n  # head -> matched tail
        self._size = 0
        # per head: _INACTIVE until admitted, then the stamp of the search
        # that last marked it, 0 when unmarked (see _augment)
        self._mark = [_INACTIVE] * n
        self._stamp = 0
        mark = self._mark
        admitted = False
        for v in active:
            v = int(v)
            if not 0 <= v < n:
                raise UsageError(f"node {v} out of range")
            if mark[v] != _INACTIVE:
                raise UsageError(f"node {v} is already active")
            mark[v] = 0
            admitted = True
        if matching is not None:
            if not isinstance(matching, Matching):
                matching = Matching.from_pairs(graph, matching)
            elif len(matching.head_by_tail) != n:
                raise ValidationError(
                    f"matching covers {len(matching.head_by_tail)} nodes, graph has {n}"
                )
            for u, v in matching.pairs():
                if mark[u] == _INACTIVE or mark[v] == _INACTIVE:
                    raise ValidationError(f"matched pair ({u}, {v}) outside the active set")
                if not graph.has_edge(u, v):
                    raise ValidationError(f"({u}, {v}) is not an edge of the graph")
                self._mh[u] = v
                self._mt[v] = u
            self._size = matching.size
        # the roots of extend_with_node's rescan: active free tails with
        # out-edges, in ascending rank
        self._free_scan: list[int] = []
        if admitted:
            ptr, mh = self._ptr, self._mh
            self._free_scan = [
                u for u in self._order if mark[u] == 0 and mh[u] < 0 and ptr[u] < ptr[u + 1]
            ]

    # --- queries ------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def matching(self) -> Matching:
        return Matching(self._mh, self._mt)

    def matching_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The matching as ``(head_by_tail, tail_by_head)`` int64 arrays.

        A snapshot without the ``Matching`` object: the arrays are checked
        to be exact inverses of each other, holding ``size`` pairs, and
        ValidationError is raised otherwise.
        """
        mh = np.array(self._mh, dtype=np.int64)
        mt = np.array(self._mt, dtype=np.int64)
        tails = np.flatnonzero(mh >= 0)
        if (
            tails.size != self._size
            or np.count_nonzero(mt >= 0) != tails.size
            or not np.array_equal(mt[mh[tails]], tails)
        ):
            raise ValidationError("tail_by_head is not the inverse of head_by_tail")
        return mh, mt

    @property
    def active_nodes(self) -> frozenset[int]:
        return frozenset(v for v, m in enumerate(self._mark) if m != _INACTIVE)

    def is_active(self, node: int) -> bool:
        return self._mark[node] != _INACTIVE

    @property
    def rank(self) -> tuple[int, ...]:
        return tuple(self._rank.tolist())

    # --- mutation -----------------------------------------------------

    def augment_from(self, free_tail: int) -> bool:
        """Search an alternating path from a free out-role; flip it if found.

        Candidate in-roles are visited in scan order (ascending rank by
        default). Returns True and grows the matching by one when a path
        to a free in-role exists, otherwise leaves the matching unchanged.
        """
        if not (0 <= free_tail < len(self._mh)) or not self.is_active(free_tail):
            raise UsageError(f"node {free_tail} is not active")
        if self._mh[free_tail] >= 0:
            raise UsageError(f"out-role of node {free_tail} is already matched")
        self._stamp += 1
        if self._augment((free_tail,)) < 0:
            return False
        if free_tail in self._free_scan:
            self._free_scan.remove(free_tail)
        return True

    def extend_with_node(self, node: int) -> None:
        """Admit one node plus its induced edges, then restore maximality.

        Augments first from the new node's out-role, then re-scans the
        remaining free out-roles in ascending rank. Previously matched
        roles stay matched; the matching grows by 0, 1, or 2.
        """
        if not (0 <= node < len(self._mh)):
            raise UsageError(f"node {node} out of range")
        mark = self._mark
        if mark[node] != _INACTIVE:
            raise UsageError(f"node {node} is already active")
        mark[node] = 0
        self._stamp += 1
        stays_free = self._augment((node,)) < 0
        # a second augmenting path can only involve the new in-role (it ends
        # there, or routes through it when the first path claimed it), so the
        # rescan is needed exactly when that in-role has an active edge, and
        # it stops at its first success
        if any(mark[t] != _INACTIVE for t in self.graph.in_adjacency[node]):
            root = self._augment(self._free_scan, first_only=True)
            if root >= 0:
                self._free_scan.remove(root)
        # the rescan cannot match the new out-role: it is free, so it lies on
        # no alternating path but its own
        ptr = self._ptr
        if stays_free and ptr[node] < ptr[node + 1]:
            insort(self._free_scan, node, key=self._rank.item)

    def complete(self) -> None:
        """Admit all remaining nodes and finish to a maximum matching.

        One pass over free out-roles in ascending rank; a failed search
        stays failed under later augmentations, so one pass suffices.
        """
        self._mark = [0] * len(self._mh)
        self._stamp += 1
        self._augment(self._order)
        self._free_scan = []  # no node is left to admit

    # --- internals ----------------------------------------------------

    def _augment(self, roots: Iterable[int], first_only: bool = False) -> int:
        """Search an augmenting path from each free root in turn; flip each found.

        The one alternating-DFS core: ``complete`` passes every node in rank
        order, ``augment_from`` and the admission a single root, the
        rescan the free tails with ``first_only``. Returns the last root
        whose search succeeded, or -1. Heads marked with the current stamp
        (or inactive) count as visited. A failed search keeps its marks,
        a successful one clears the marks it made (the module docstring
        says why); callers advance the stamp whenever the active set
        changes.
        """
        heads, ptr = self._heads, self._ptr
        mh, mt = self._mh, self._mt
        mark = self._mark
        stamp = self._stamp
        trail: list[int] = []  # heads marked by the running search
        stack: list[tuple[int, int, int]] = []
        found = 0
        last = -1
        for root in roots:
            if mh[root] >= 0:
                continue
            # The frame being scanned lives in locals (u, i, end); each
            # ancestor is stacked as (tail, slot to resume, head it
            # descended through), so a search that fails at its root
            # allocates nothing.
            u = root
            i = ptr[u]
            end = ptr[u + 1]
            while True:
                if i < end:
                    v = heads[i]
                    i += 1
                    if mark[v] >= stamp:
                        continue
                    mark[v] = stamp
                    trail.append(v)
                    w = mt[v]
                    if w >= 0:
                        stack.append((u, i, v))
                        u = w
                        i = ptr[u]
                        end = ptr[u + 1]
                        continue
                    mh[u] = v
                    mt[v] = u
                    for t, _, h in stack:
                        mh[t] = h
                        mt[h] = t
                    stack.clear()
                    for h in trail:
                        mark[h] = 0
                    found += 1
                    last = root
                elif stack:
                    u, i, _ = stack.pop()
                    end = ptr[u + 1]
                    continue
                if trail:
                    trail.clear()
                break
            if first_only and last >= 0:
                break
        self._size += found
        return last


def max_matching(graph: DirectedGraph, order) -> Matching:
    """Deterministic maximum matching of the whole graph under an order.

    Free tails are processed in ascending rank, neighbor in-roles scanned
    in ascending rank; the size equals the graph's maximum matching number
    for any order, only the composition varies.
    """
    state = MatchingState(graph, order)
    state.complete()
    return state.matching


def verify_maximum(graph: DirectedGraph, matching: Matching, active: Iterable[int] | None = None) -> bool:
    """Berge check: True iff no augmenting path leaves any free out-role.

    Validates the matching first (pairs must be edges of the induced
    subgraph, injective both ways) and raises ValidationError otherwise.
    Never mutates the matching: the search runs on a copy and stops at
    the first augmenting path.
    """
    n = graph.node_count
    nodes = range(n) if active is None else {int(v) for v in active}
    # any scan order will do; the adjacency's own shares its int objects
    scan = [v for adj in graph.out_adjacency for v in adj]
    state = MatchingState(graph, range(n), active=nodes, matching=matching, scan_heads=scan)
    state._stamp += 1
    return state._augment(state._free_scan, first_only=True) < 0
