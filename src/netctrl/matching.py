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
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator

import numpy as np

from .errors import UsageError, ValidationError
from .graph import DirectedGraph, out_csr

__all__ = ["Matching", "MatchingState", "max_matching", "verify_maximum"]


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

    def head_of(self, tail: int) -> int:
        return self._head_by_tail[tail]

    def tail_of(self, head: int) -> int:
        return self._tail_by_head[head]

    @property
    def tail_to_head(self) -> dict[int, int]:
        return {u: v for u, v in enumerate(self._head_by_tail) if v >= 0}

    @property
    def head_to_tail(self) -> dict[int, int]:
        return {v: u for v, u in enumerate(self._tail_by_head) if u >= 0}

    def pairs(self) -> Iterator[tuple[int, int]]:
        for u, v in enumerate(self._head_by_tail):
            if v >= 0:
                yield (u, v)

    def is_perfect(self) -> bool:
        """True when every node's in-role is matched."""
        return self._size == len(self._head_by_tail)

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
        ptr, heads = out_csr(graph)
        if scan_heads is None:
            tails = np.repeat(np.arange(n), np.diff(ptr))
            scan_heads = heads[np.argsort(tails * n + rank[heads])].tolist()
        elif len(scan_heads) != len(heads):
            raise UsageError("scan_heads must hold one entry per edge")
        self._order = perm.tolist()
        self._rank = rank.tolist()
        self._ptr = ptr.tolist()
        self._heads = scan_heads
        self._active = bytearray(n)
        self._mh = [-1] * n  # tail -> matched head
        self._mt = [-1] * n  # head -> matched tail
        self._size = 0
        self._visited = [0] * n  # stamp marks on heads
        self._stamp = 0
        self._free_scan: list[int] = []  # active free tails with out-edges, rank ascending
        for v in active:
            self._admit(int(v))
        if matching is not None:
            if not isinstance(matching, Matching):
                matching = Matching.from_pairs(graph, matching)
            elif len(matching.head_by_tail) != n:
                raise ValidationError(
                    f"matching covers {len(matching.head_by_tail)} nodes, graph has {n}"
                )
            for u, v in matching.pairs():
                if not (self._active[u] and self._active[v]):
                    raise ValidationError(f"matched pair ({u}, {v}) outside the active set")
                if not graph.has_edge(u, v):
                    raise ValidationError(f"({u}, {v}) is not an edge of the graph")
                self._mh[u] = v
                self._mt[v] = u
            self._size = matching.size

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
        return frozenset(v for v in range(len(self._active)) if self._active[v])

    def is_active(self, node: int) -> bool:
        return bool(self._active[node])

    @property
    def rank(self) -> tuple[int, ...]:
        return tuple(self._rank)

    # --- mutation -----------------------------------------------------

    def augment_from(self, free_tail: int) -> bool:
        """Search an alternating path from a free out-role; flip it if found.

        Candidate in-roles are visited in scan order (ascending rank by
        default). Returns True and grows the matching by one when a path
        to a free in-role exists, otherwise leaves the matching unchanged.
        """
        n = len(self._mh)
        if not (0 <= free_tail < n) or not self._active[free_tail]:
            raise UsageError(f"node {free_tail} is not active")
        if self._mh[free_tail] >= 0:
            raise UsageError(f"out-role of node {free_tail} is already matched")
        self._stamp += 1
        return self._try_augment(free_tail)

    def extend_with_node(self, node: int) -> None:
        """Admit one node plus its induced edges, then restore maximality.

        Augments first from the new node's out-role, then re-scans the
        remaining free out-roles in ascending rank. Previously matched
        roles stay matched; the matching grows by 0, 1, or 2.
        """
        n = len(self._mh)
        if not (0 <= node < n):
            raise UsageError(f"node {node} out of range")
        if self._active[node]:
            raise UsageError(f"node {node} is already active")
        self._admit(node)
        self._stamp += 1
        if self._ptr[node] < self._ptr[node + 1] and self._try_augment(node):
            self._stamp += 1
        # a second augmenting path can only involve the new in-role (it ends
        # there, or routes through it when the first path claimed it), so the
        # rescan is needed exactly when that in-role has an active edge
        active = self._active
        if any(active[t] for t in self.graph.in_adjacency[node]):
            self._rescan_free_tails(skip=node)

    def complete(self) -> None:
        """Admit all remaining nodes and finish to a maximum matching.

        One pass over free out-roles in ascending rank; a failed search
        stays failed under later augmentations, so one pass suffices.
        """
        active = self._active
        for v in range(len(active)):
            active[v] = 1
        self._stamp += 1
        mh = self._mh
        ptr = self._ptr
        for u in self._order:
            if mh[u] < 0 and ptr[u] < ptr[u + 1] and self._try_augment(u):
                self._stamp += 1
        self._free_scan = [u for u in self._order if mh[u] < 0 and ptr[u] < ptr[u + 1]]

    # --- internals ----------------------------------------------------

    def _admit(self, node: int) -> None:
        if self._active[node]:
            raise UsageError(f"node {node} is already active")
        self._active[node] = 1
        if self._ptr[node] < self._ptr[node + 1]:
            insort(self._free_scan, node, key=self._rank.__getitem__)

    def _rescan_free_tails(self, skip: int) -> None:
        # Only a path ending at the newly exposed in-role can exist, so at
        # most one scan succeeds; failures share the stamp (dead heads stay
        # dead while the matching is unchanged) and are dropped lazily.
        mh = self._mh
        kept = []
        augmented = False
        for u in self._free_scan:
            if mh[u] >= 0:
                continue
            if not augmented and u != skip and self._try_augment(u):
                self._stamp += 1
                augmented = True
                continue
            kept.append(u)
        self._free_scan = kept

    def _try_augment(self, root: int) -> bool:
        # Iterative alternating DFS. The frame being scanned lives in locals
        # (u, i, end); each ancestor is stacked as (tail, slot to resume,
        # head it descended through), so a search that fails at the root,
        # the common case while rescanning, allocates nothing. Heads marked
        # with the current stamp are dead ends for as long as the matching
        # and active set are unchanged; callers advance the stamp after any
        # change.
        heads, ptr = self._heads, self._ptr
        active = self._active
        mh, mt = self._mh, self._mt
        visited = self._visited
        stamp = self._stamp
        stack: list[tuple[int, int, int]] = []
        u = root
        i = ptr[u]
        end = ptr[u + 1]
        while True:
            while i < end:
                v = heads[i]
                i += 1
                if visited[v] == stamp or not active[v]:
                    continue
                visited[v] = stamp
                w = mt[v]
                if w < 0:
                    mh[u] = v
                    mt[v] = u
                    for t, _, h in stack:
                        mh[t] = h
                        mt[h] = t
                    self._size += 1
                    return True
                stack.append((u, i, v))
                u = w
                i = ptr[u]
                end = ptr[u + 1]
            if not stack:
                return False
            u, i, _ = stack.pop()
            end = ptr[u + 1]


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
    Never mutates the matching.
    """
    n = graph.node_count
    if len(matching.head_by_tail) != n:
        raise ValidationError(
            f"matching covers {len(matching.head_by_tail)} nodes, graph has {n}"
        )
    if active is None:
        act = bytearray(b"\x01") * n
    else:
        act = bytearray(n)
        for v in active:
            act[int(v)] = 1
    mt = [-1] * n
    for u, v in matching.pairs():
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"matched pair ({u}, {v}) out of range")
        if not (act[u] and act[v]):
            raise ValidationError(f"matched pair ({u}, {v}) outside the active set")
        if not graph.has_edge(u, v):
            raise ValidationError(f"({u}, {v}) is not an edge of the graph")
        if mt[v] >= 0:
            raise ValidationError(f"head {v} matched twice")
        mt[v] = u
    mh = list(matching.head_by_tail)

    # Failure marks are shared across all start tails: nothing mutates, so a
    # head seen to be a dead end stays one.
    adj = graph.out_adjacency
    visited = bytearray(n)
    for root in range(n):
        if not act[root] or mh[root] >= 0 or not adj[root]:
            continue
        stack = [(root, 0)]
        while stack:
            u, i = stack[-1]
            lst = adj[u]
            pushed = False
            while i < len(lst):
                v = lst[i]
                i += 1
                if visited[v] or not act[v]:
                    continue
                visited[v] = 1
                w = mt[v]
                if w < 0:
                    return False
                stack[-1] = (u, i)
                stack.append((w, 0))
                pushed = True
                break
            if not pushed:
                stack.pop()
    return True
