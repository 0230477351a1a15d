"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same command takes up to twice as long
when other tenants load the host, and that slowdown comes and goes over
seconds to minutes. The benchmark therefore times this kernel right
before and right after every command, in the same process, and reports
the command's time as a multiple of the kernel's. Both slow down alike,
so the ratio keeps what the program does and drops what the host does.

The kernel is the benchmark's own code and never changes with netctrl:
a seeded shuffle of the tails, then Kuhn's augmenting-path search for a
maximum matching of a fixed random digraph, in plain Python. That is the
same kind of work as netctrl's sampler (list and index lookups, a depth-
first search, the ``random`` module), so a host slowdown touches both in
the same way.

``REF_S`` is the median of 449 kernel timings taken while the benchmark
was tuned on the 2-core virtual machine recorded in ``baseline.json``
(quartiles 10.9 and 17.0 ms). A normalized time ``t / kernel * REF_S`` is
the command's time on that machine at that median speed.
"""

from __future__ import annotations

import random
import time

REF_S = 0.0147
SETUP_KERNELS = 10   # kernel runs on each side of a set-up
KERNEL_SHARE = 0.5   # kernel time on each side of a command, as a share of the command
NODES = 5000
EDGES = 10000
GRAPH_SEED = 20110512
ORDER_SEED = 7


def reference_graph(nodes: int = NODES, edges: int = EDGES, seed: int = GRAPH_SEED) -> list[list[int]]:
    """Out-adjacency lists of a fixed random digraph (duplicates kept)."""
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for _ in range(edges):
        adj[rng.randrange(nodes)].append(rng.randrange(nodes))
    return adj


def matching_size(adj: list[list[int]], order: list[int]) -> int:
    """Maximum matching size of the bipartite tails/heads graph of ``adj``.

    Kuhn's algorithm: one iterative depth-first search for an augmenting
    path from each tail in ``order``.
    """
    n = len(adj)
    tail_of = [-1] * n
    seen = [0] * n
    size = 0
    for stamp, root in enumerate(order, start=1):
        stack = [(root, iter(adj[root]))]
        heads: list[int] = []  # heads[i] is the head tried from stack[i]
        while stack:
            for head in stack[-1][1]:
                if seen[head] == stamp:
                    continue
                seen[head] = stamp
                heads.append(head)
                owner = tail_of[head]
                if owner < 0:
                    for (tail, _), h in zip(stack, heads):
                        tail_of[h] = tail
                    size += 1
                    stack = []
                else:
                    stack.append((owner, iter(adj[owner])))
                break
            else:
                stack.pop()
                if heads:
                    heads.pop()
    return size


class Reference:
    """The kernel on its fixed graph; ``time(k)`` runs it ``k`` times."""

    def __init__(self):
        self.adj = reference_graph()
        self.expected = self._run()

    def _run(self) -> int:
        order = list(range(len(self.adj)))
        random.Random(ORDER_SEED).shuffle(order)
        return matching_size(self.adj, order)

    def time(self, k: int) -> float:
        """Mean seconds per kernel run over ``k`` runs."""
        start = time.perf_counter()
        for _ in range(k):
            if self._run() != self.expected:
                raise RuntimeError("reference kernel gave a different matching size")
        return (time.perf_counter() - start) / k
