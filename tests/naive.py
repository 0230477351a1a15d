"""Naive reference implementations of the matcher, the matching check,
the edge reversal, the adjacency arrays and the sampler's seeding.

The matcher is a recursive alternating search with per-search visited
marks and none of the shared-failure or rescan-pruning shortcuts used by
the production code; tests compare final matchings pair for pair. The
matching check walks the tails one at a time, as the tuple-based
``Matching`` did; tests compare what it accepts and rejects with the array
check. The reversal flips one edge at a time against a live edge set;
tests compare its edges and tallies with the vectorized transform. The
adjacency arrays come from stable argsorts and binary searches, as
``DirectedGraph`` once built them; tests compare them with its CSR. The
seeding draws each sample with the methods of a Generator that numpy
seeds itself; tests compare it with the stream's definition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from netctrl import DirectedGraph, ReversalParams, ValidationError
from netctrl.seeding import spawn_seed

from oracles import out_lists


class NaiveState:
    """``order`` is a NodeOrder or a permutation; ``scan[u]`` lists tail u's
    heads in the order its search tries them (default: ascending rank)."""

    def __init__(self, graph: DirectedGraph, order, scan: Sequence[Sequence[int]] | None = None):
        n = graph.node_count
        self.graph = graph
        self.order = tuple(int(v) for v in getattr(order, "permutation", order))
        self.rank = [0] * n
        for pos, v in enumerate(self.order):
            self.rank[v] = pos
        if scan is None:
            key = self.rank.__getitem__
            scan = [sorted(adj, key=key) for adj in out_lists(graph)]
        self.scan = [[int(v) for v in heads] for heads in scan]
        self.active = [False] * n
        self.mh = [-1] * n
        self.mt = [-1] * n

    def _search(self, u: int, seen: set[int]) -> bool:
        for v in self.scan[u]:
            if not self.active[v] or v in seen:
                continue
            seen.add(v)
            w = self.mt[v]
            if w < 0 or self._search(w, seen):
                self.mh[u] = v
                self.mt[v] = u
                return True
        return False

    def augment(self, u: int) -> bool:
        return self._search(u, set())

    def rescan_free_tails(self, skip: int = -1) -> None:
        for u in self.order:
            if self.active[u] and u != skip and self.mh[u] < 0:
                self.augment(u)

    def extend_with_node(self, node: int) -> None:
        self.active[node] = True
        if self.mh[node] < 0:
            self.augment(node)
        self.rescan_free_tails(skip=node)

    def complete(self) -> None:
        for v in range(len(self.active)):
            self.active[v] = True
        for u in self.order:
            if self.mh[u] < 0:
                self.augment(u)

    def pairs(self) -> set[tuple[int, int]]:
        return {(u, v) for u, v in enumerate(self.mh) if v >= 0}


def naive_max_matching_pairs(graph: DirectedGraph, order, scan=None) -> set[tuple[int, int]]:
    state = NaiveState(graph, order, scan)
    state.complete()
    return state.pairs()


def naive_preferential_pairs(graph: DirectedGraph, order, m: int) -> set[tuple[int, int]]:
    state = NaiveState(graph, order)
    for node in order.permutation[:m]:
        state.extend_with_node(node)
    if m < graph.node_count:
        state.complete()
    return state.pairs()


def naive_matching(head_by_tail) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(head_by_tail, tail_by_head)`` checked one tail at a time.

    Raises ValidationError for a head outside -1..n-1 or a head with two
    tails.
    """
    heads = tuple(int(h) for h in head_by_tail)
    n = len(heads)
    tails = [-1] * n
    for u, v in enumerate(heads):
        if not -1 <= v < n:
            raise ValidationError(f"head index {v} out of range for {n} nodes")
        if v >= 0:
            if tails[v] >= 0:
                raise ValidationError(f"two tails matched to head {v}")
            tails[v] = u
    return heads, tuple(tails)


def naive_reverse_edges(
    graph: DirectedGraph, params: ReversalParams
) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """``(edges, reversed_count, skipped_count)`` of one edge-by-edge reversal pass."""
    rng = np.random.default_rng(params.seed)
    edges = list(graph.edges)
    tot = [0] * graph.node_count  # total degrees of the input graph
    for u, v in edges:
        tot[u] += 1
        tot[v] += 1
    edge_set = set(edges)
    reversed_count = 0
    skipped = 0
    for idx, (u, v) in enumerate(edges):
        if tot[u] < tot[v] and rng.random() < params.r:
            if (v, u) in edge_set:
                skipped += 1
                continue
            edge_set.discard((u, v))
            edge_set.add((v, u))
            edges[idx] = (v, u)
            reversed_count += 1
    return tuple(edges), reversed_count, skipped


def naive_csr(graph: DirectedGraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """``(out_ptr, out_heads, in_ptr, in_tails)`` from stable argsorts of the edge arrays."""
    tails, heads = graph.tails, graph.heads
    rows = np.arange(graph.node_count + 1)
    out_rows = np.argsort(tails, kind="stable")
    in_rows = np.argsort(heads, kind="stable")
    return (
        np.searchsorted(tails[out_rows], rows).tolist(),
        heads[out_rows].tolist(),
        np.searchsorted(heads[in_rows], rows).tolist(),
        tails[in_rows].tolist(),
    )


def naive_draw(seed: int, index: int, n: int, edges: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``index``'s node order and scan keys as numpy 2.x's Generator
    methods draw them: ``permutation(n)`` and then ``integers(0, 2**32,
    size=edges, dtype=np.int64)`` of ``default_rng(spawn_seed(seed, index))``."""
    rng = np.random.default_rng(spawn_seed(seed, index))
    return rng.permutation(n), rng.integers(0, 1 << 32, size=edges, dtype=np.int64)
