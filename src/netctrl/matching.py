"""Maximum matching over the out-role/in-role bipartite view of a graph.

Each node splits into an out-role (tail side) and an in-role (head side);
a directed edge u->v is matched by pairing u's out-role with v's in-role.
A matching never repeats a tail and never repeats a head. A node counts as
matched when its in-role is the head of a matched edge; the unmatched
nodes of any maximum matching form a minimum driver node set.

Augmenting-path search is depth-first and deterministic: free tails are
processed in ascending rank of a caller-supplied node order, and candidate
in-roles are scanned lowest rank first. The deterministic scan is what
lets a degree-sorted order steer which nodes end up unmatched. The order
also fixes the admission sequence: each ``extend_with_node()`` admits its
next node.

Every search runs in one core, ``MatchingState._augment``; the pass that
completes a matching, which is also the maximality check of
``verify_maximum``, runs the same search compiled (``_core.c``) when a C
compiler is at hand, in one call with the scan order, the inverse check
and the free in-roles. The core prunes across the roots of one call (a
Hungarian forest): within a call the active set is fixed, and the
in-roles visited by a search that failed stay marked, while a search
that succeeds clears only the marks it made. This
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
from typing import Iterable, Iterator

import numpy as np

from . import _kernel
from .errors import UsageError, ValidationError
from .graph import DirectedGraph, _int64_array

__all__ = ["Matching", "MatchingState", "max_matching", "verify_maximum"]

# the mark of a head outside the active set: reads as visited under every stamp
_INACTIVE = sys.maxsize


class Matching:
    """Immutable snapshot of a matching.

    ``head_by_tail[u]`` is the head matched to tail u (-1 if u's out-role
    is free), and each entry must lie in -1..N-1; ``tail_by_head`` is its
    exact inverse, derived here. Both are read-only int64 arrays. A
    matching knows no graph: ``verify_maximum`` checks its pairs are edges.
    """

    __slots__ = ("_head_by_tail", "_tail_by_head", "_size")

    def __init__(self, head_by_tail: Iterable[int]):
        heads = _int64_array(head_by_tail, ValidationError, "head indices")
        n = heads.size
        bad = heads[(heads < -1) | (heads >= n)]
        if bad.size:
            raise ValidationError(f"head index {bad[0]} out of range for {n} nodes")
        tails = np.flatnonzero(heads >= 0)
        matched = heads[tails]
        inverse = np.full(n, -1, dtype=np.int64)
        inverse[matched] = tails
        # of two tails on one head the inverse keeps only the later one
        clash = inverse[matched] != tails
        if clash.any():
            raise ValidationError(f"two tails matched to head {matched[clash][0]}")
        heads.flags.writeable = False
        inverse.flags.writeable = False
        self._head_by_tail = heads
        self._tail_by_head = inverse
        self._size = tails.size

    @property
    def size(self) -> int:
        return self._size

    @property
    def head_by_tail(self) -> np.ndarray:
        return self._head_by_tail

    @property
    def tail_by_head(self) -> np.ndarray:
        return self._tail_by_head

    def pairs(self) -> Iterator[tuple[int, int]]:
        tails = np.flatnonzero(self._head_by_tail >= 0)
        return zip(tails.tolist(), self._head_by_tail[tails].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self._head_by_tail, other._head_by_tail)

    def __hash__(self):
        return hash(self._head_by_tail.tobytes())

    def __repr__(self) -> str:
        return f"Matching(size={self._size})"


class MatchingState:
    """Mutable matching over a growing active subgraph.

    The state admits the nodes of its order one at a time, in rank order
    (``extend_with_node()`` admits the next one), or all that remain at
    once (``complete``), keeping the matching maximum on the active set
    after every step. Single-owner: mutate from one thread only; many
    states may share one immutable graph.

    ``order`` is a NodeOrder; each tail's neighbors are scanned in
    ascending rank.
    """

    def __init__(self, graph: DirectedGraph, order):
        n = graph.node_count
        perm = np.array(order.permutation, dtype=np.int64)
        if perm.size != n:
            raise UsageError(f"order covers {perm.size} nodes, graph has {n}")
        rank = np.argsort(perm)  # the inverse permutation
        self._start(graph, perm, rank[graph.out_heads], _unmatched(n))

    @classmethod
    def _sampling(
        cls, graph: DirectedGraph, perm: np.ndarray, keys: np.ndarray, start: Matching | None = None
    ) -> MatchingState:
        """A state with no node active that starts from ``start``, the
        empty matching when None, for a permutation and scan keys that the
        library made itself (the stream's draws of a sample, or the Berge
        pass's node indices and zero keys), as int64 arrays; none is
        checked, and ``start``'s pairs must be edges.
        """
        state = cls.__new__(cls)
        if start is None:
            matched = _unmatched(graph.node_count)
        else:
            matched = start.head_by_tail, start.tail_by_head, start.size
        state._start(graph, perm, keys, matched)
        return state

    @classmethod
    def _drawn(cls, graph: DirectedGraph, work) -> MatchingState:
        """A sampling state for a whole stream on the workspace ``work``.

        Before each ``complete()``, ``_restart(index)`` makes it sample
        ``index`` of the seed ``work`` was made with: the compiled pass
        draws that sample's permutation and scan keys into ``work.order``
        and ``work.keys``, which are the state's, starts from the empty
        matching and completes it in ``work.mh`` and ``work.mt``, which are
        its matching. Only with the compiled core, and for indices below
        2**64.
        """
        state = cls.__new__(cls)
        state._start(graph, work.order, work.keys, (work.mh, work.mt, 0))
        state._work = work  # no other state holds a workspace
        return state

    def _restart(self, index: int) -> None:
        """Make a drawn state sample ``index`` at its next ``complete()``.

        Its size reads 0 until then, the empty matching's, as a new
        state's does, since the call starts from the empty matching.
        """
        self._index = index
        self._size = 0

    def _start(self, graph: DirectedGraph, perm, keys, matched: tuple) -> None:
        """Set up a state with no node active that starts from ``matched``,
        ``(head_by_tail, tail_by_head, size)`` of a matching."""
        self.graph = graph
        # the sample index whose draws the compiled pass writes into a
        # drawn state's _perm and _keys, or None when they were given
        self._index = None
        # tail -> matched head, head -> matched tail. Only a drawn state's
        # call writes the arrays given here, which are its workspace's;
        # every other state's compiled pass replaces them with the arrays
        # of the workspace it completes in, and _augment with lists, which
        # it indexes faster
        self._mh, self._mt, self._size = matched
        self._perm = perm
        self._admitted = 0  # the nodes of _perm active so far, a prefix
        # one key per out-CSR slot, each in 0..2**32-1: a tail's heads are
        # scanned in ascending key order
        self._keys = keys
        # the heads in scan order and the out-CSR's row pointers as lists,
        # made by _augment
        self._heads: list[int] | None = None
        self._ptr: list[int] | None = None
        # per head: _INACTIVE until admitted, then the stamp of the search
        # that last marked it, 0 when unmarked (see _augment); held as the
        # one value every head has until _marks() makes the list
        self._mark: list[int] | int = _INACTIVE
        self._stamp = 0
        # the roots of extend_with_node's rescan: active free tails with
        # out-edges, in ascending rank, which is the order of admission
        self._free_scan: list[int] = []

    # --- queries ------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def matching(self) -> Matching:
        """A snapshot of the matching, checked against the inverse and the pair count kept here."""
        snapshot = Matching(self._mh)
        if not np.array_equal(snapshot.tail_by_head, self._mt):
            raise ValidationError("the state's tail_by_head is not the inverse of its head_by_tail")
        if snapshot.size != self._size:
            raise ValidationError(f"matching holds {snapshot.size} pairs, the state counted {self._size}")
        return snapshot

    # --- mutation -----------------------------------------------------

    def extend_with_node(self) -> None:
        """Admit the order's next node plus its induced edges, then restore maximality.

        The k-th call admits ``order.permutation[k]``. Augments first from
        the new node's out-role, then re-scans the remaining free out-roles
        in ascending rank. Previously matched roles stay matched; the
        matching grows by 0, 1, or 2. Raises UsageError once every node is
        active, as after ``complete``.
        """
        if self._admitted == self._perm.size:
            raise UsageError(f"all {self._perm.size} nodes are already active")
        node = self._perm.item(self._admitted)
        self._admitted += 1
        mark = self._marks()
        mark[node] = 0
        self._stamp += 1
        stays_free = self._augment((node,)) < 0  # makes self._ptr
        # with no active edge into the new in-role the matching grows by one
        # at most, and the first augment tried that; otherwise the rescan
        # runs, and it stops at its first success
        g = self.graph
        if any(mark[t] != _INACTIVE for t in g.in_tails[g.in_ptr[node]:g.in_ptr[node + 1]].tolist()):
            root = self._augment(self._free_scan, first_only=True)
            if root >= 0:
                self._free_scan.remove(root)
        # the rescan cannot match the new out-role: it is free, so it lies on
        # no alternating path but its own
        ptr = self._ptr
        if stays_free and ptr[node] < ptr[node + 1]:
            self._free_scan.append(node)

    def complete(self) -> tuple[np.ndarray, int]:
        """Admit all remaining nodes, finish to a maximum matching and
        return ``(free, degree_sum)``: the in-roles it leaves free, in
        ascending order, and the exact sum of their total degrees.

        One pass over free out-roles in ascending rank; a failed search
        stays failed under later augmentations, so one pass suffices. It
        runs compiled when the kernel of ``_core.c`` can be built, in one
        call that also makes a drawn state's draws, sorts the scans
        (``_scan_order``'s order), checks the matching against its inverse
        and lists the free in-roles, and in ``_augment`` otherwise, which
        reads them off its checked snapshot.

        The compiled pass copies nothing out: the state's matching is then
        the workspace's ``mh`` and ``mt``, and ``free`` a view of its
        ``free_heads``. A drawn state (``_drawn``) keeps its workspace for
        the whole stream, so they hold until its next call. Every other
        state copies its matching into a workspace of its own for the one
        call, which no later call writes, and keeps those three arrays,
        views that keep the workspace's one buffer alive with them.
        """
        self._admitted = self.graph.node_count  # no node is left to admit
        compiled = _kernel.core()
        if compiled is None:
            self._mark = 0  # every head admitted and unmarked
            self._stamp += 1
            self._augment(self._perm.tolist())
            free = np.flatnonzero(self.matching.tail_by_head < 0)
            out_ptr, in_ptr = self.graph.out_ptr, self.graph.in_ptr
            return free, int((out_ptr[free + 1] - out_ptr[free] + in_ptr[free + 1] - in_ptr[free]).sum())
        if self._index is None:
            work = _kernel.Workspace(self.graph)
            work.order[:] = self._perm
            work.keys[:] = self._keys
            work.mh[:] = self._mh  # arrays, or _augment's lists
            work.mt[:] = self._mt
        else:
            work = self._work
        size = compiled.sample(work, self._index)
        if size < 0:
            raise ValidationError(
                "the completing pass left tail_by_head not the inverse of head_by_tail, or a wrong pair count"
            )
        self._mh, self._mt, self._size = work.mh, work.mt, size
        return work.free_heads[:work.n - size], work.degree_sum

    # --- internals ----------------------------------------------------

    def _marks(self) -> list[int]:
        """The per-head marks as a list, made from their one common value on first use."""
        if not isinstance(self._mark, list):
            self._mark = [self._mark] * len(self._mh)
        return self._mark

    def _augment(self, roots: Iterable[int], first_only: bool = False) -> int:
        """Search an augmenting path from each free root in turn; flip each found.

        The one alternating-DFS core: ``complete`` passes every node in rank
        order, the admission a single root, the rescan the free tails with
        ``first_only``. Returns the last root whose search succeeded, or -1.
        Heads marked with the current stamp (or inactive) count as visited.
        A failed search keeps its marks, a successful one clears the marks
        it made (the module docstring says why); callers advance the stamp
        whenever the active set changes.
        """
        if self._heads is None:
            self._heads = self.graph.out_heads[_scan_order(self.graph, self._keys)].tolist()
            self._ptr = self.graph.out_ptr.tolist()
        if not isinstance(self._mh, list):
            self._mh, self._mt = self._mh.tolist(), self._mt.tolist()
        heads, ptr = self._heads, self._ptr
        mh, mt = self._mh, self._mt
        mark = self._marks()
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


def _unmatched(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(head_by_tail, tail_by_head, size)`` of the empty matching on n
    nodes: one read-only array of -1s serves both sides."""
    empty = np.full(n, -1, dtype=np.int64)
    empty.flags.writeable = False
    return empty, empty, 0


def _scan_order(graph: DirectedGraph, keys: np.ndarray) -> np.ndarray:
    """The out-CSR slots sorted by tail, then key, then slot: the scan
    order, a total order, which the compiled core writes too."""
    tails = np.repeat(np.arange(graph.node_count, dtype=np.int64), np.diff(graph.out_ptr))
    # tail in the high 32 bits, the key in the low 32: sorting the sum
    # keeps each tail's segment in place and sorts within it; the stable
    # sort keeps equal keys in slot order on every CPU, where the default
    # sort's order of them follows the SIMD path numpy picks at run time
    return np.argsort(tails << 32 | keys, kind="stable")


def max_matching(graph: DirectedGraph, order) -> Matching:
    """Deterministic maximum matching of the whole graph under an order.

    Free tails are processed in ascending rank, neighbor in-roles scanned
    in ascending rank; the size equals the graph's maximum matching number
    for any order, only the composition varies.
    """
    state = MatchingState(graph, order)
    state.complete()
    return state.matching


def verify_maximum(graph: DirectedGraph, matching: Matching) -> bool:
    """Berge check: True iff no augmenting path leaves any free out-role.

    Raises ValidationError when the matching does not cover the graph's
    nodes or holds a pair that is not an edge. Never mutates the matching:
    a completing pass runs on a copy. It augments along a path exactly
    when one exists (the module docstring says why one pass is exact), so
    the matching is maximum when the pass adds no pair.
    """
    return _completing_pass(graph, matching)[0] == 0


def _completing_pass(graph: DirectedGraph, matching: Matching) -> tuple[int, tuple[np.ndarray, int]]:
    """``(pairs added, complete()'s result)`` of a completing pass that
    starts from ``matching``.

    A pass that adds no pair flips none, so its free in-roles are the
    ones ``matching`` leaves free."""
    n = graph.node_count
    if matching.head_by_tail.size != n:
        raise ValidationError(f"matching covers {matching.head_by_tail.size} nodes, graph has {n}")
    tails = np.flatnonzero(matching.head_by_tail >= 0)
    heads = matching.head_by_tail[tails]
    bad = np.flatnonzero(~graph.has_edge(tails, heads))
    if bad.size:
        raise ValidationError(f"({tails[bad[0]]}, {heads[bad[0]]}) is not an edge of the graph")
    # any order and scan will do: the node indices, and zero keys (slot order)
    state = MatchingState._sampling(
        graph, np.arange(n, dtype=np.int64), np.zeros(graph.edge_count, dtype=np.int64), matching
    )
    free = state.complete()
    return state.size - matching.size, free
