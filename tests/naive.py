"""Naive reference implementation of the deterministic matching discipline.

Recursive alternating search with per-search visited marks and none of the
shared-failure or rescan-pruning shortcuts used by the production code.
Tests compare final matchings pair for pair.
"""

from __future__ import annotations

from typing import Sequence

from netctrl import DirectedGraph


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
            scan = [sorted(adj, key=key) for adj in graph.out_adjacency]
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
