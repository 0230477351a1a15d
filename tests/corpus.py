"""Deterministic fixture corpus of small directed graphs (N <= 8), and
matchings of them given as (tail, head) pairs."""

from __future__ import annotations

import random

from netctrl import DirectedGraph, Matching, gen_directed_er


def _labels(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def matching_of(graph: DirectedGraph, pairs) -> Matching:
    """The matching of (tail, head) pairs on ``graph``'s nodes. Only
    ``Matching`` checks it; ``verify_maximum`` checks its pairs are edges."""
    head_by_tail = [-1] * graph.node_count
    for tail, head in pairs:
        head_by_tail[tail] = head
    return Matching(head_by_tail)


def out_star(leaves: int) -> DirectedGraph:
    return DirectedGraph(_labels(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def in_star(leaves: int) -> DirectedGraph:
    return DirectedGraph(_labels(leaves + 1), [(i, 0) for i in range(1, leaves + 1)])


def path(n: int) -> DirectedGraph:
    return DirectedGraph(_labels(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> DirectedGraph:
    return DirectedGraph(_labels(n), [(i, (i + 1) % n) for i in range(n)])


def random_digraph(n: int, l: int, seed: int, self_loops: bool = False) -> DirectedGraph:
    """Uniform simple digraph, optionally allowing self-loops."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if self_loops or u != v]
    l = min(l, len(pairs))
    return DirectedGraph(_labels(n), rng.sample(pairs, l))


def build_fixture_corpus() -> list[DirectedGraph]:
    graphs: list[DirectedGraph] = []
    for leaves in range(1, 8):
        graphs.append(out_star(leaves))
        graphs.append(in_star(leaves))
    for n in range(2, 9):
        graphs.append(path(n))
    for n in range(1, 9):
        graphs.append(cycle(n))
    # the two-matching example: 1->2, 2->1, 1->3
    graphs.append(DirectedGraph(["1", "2", "3"], [(0, 1), (1, 0), (0, 2)]))
    # single node with a self-loop
    graphs.append(DirectedGraph(["v"], [(0, 0)]))
    # ER draws without self-loops; edge counts stay small enough for the
    # exhaustive oracle
    for n in range(2, 9):
        cap = n * (n - 1)
        sizes = sorted({min(l, 16) for l in (0, 1, cap // 4, cap // 3, cap // 2, cap)})
        for seed in range(6):
            for l in sizes:
                graphs.append(gen_directed_er(n, l, seed=seed * 1000 + n * 10 + l))
    # random draws with self-loops permitted
    for n in range(2, 9):
        for seed in range(2):
            graphs.append(random_digraph(n, n + seed, seed=seed * 77 + n, self_loops=True))
    assert len(graphs) >= 200, len(graphs)
    return graphs
