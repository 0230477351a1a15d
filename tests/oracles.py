"""Independent test oracles: exhaustive matching search, no augmenting paths.

The brute force explores every assignment of tails to heads (equivalently
every edge subset satisfying the matching invariants), so its answers do
not depend on any augmenting-path theory used by the code under test.
"""

from __future__ import annotations

from netctrl import DirectedGraph


def out_lists(graph: DirectedGraph) -> list[list[int]]:
    """Each tail's heads in edge order, read from ``graph.edges`` alone."""
    adj: list[list[int]] = [[] for _ in range(graph.node_count)]
    for u, v in graph.edges:
        adj[u].append(v)
    return adj


def brute_force_max_matching_size(graph: DirectedGraph, active=None) -> int:
    """Maximum matching size by exhaustive search over tail assignments."""
    act = set(range(graph.node_count)) if active is None else {int(v) for v in active}
    adj = out_lists(graph)
    tails = [u for u in sorted(act) if any(v in act for v in adj[u])]
    best = 0

    def rec(i: int, used: set[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == len(tails) or size + (len(tails) - i) <= best:
            return
        u = tails[i]
        for v in adj[u]:
            if v in act and v not in used:
                used.add(v)
                rec(i + 1, used, size + 1)
                used.discard(v)
        rec(i + 1, used, size)

    rec(0, set(), 0)
    return best


def enumerate_maximum_matchings(graph: DirectedGraph) -> list[frozenset[tuple[int, int]]]:
    """All maximum matchings of a small graph, as frozensets of pairs."""
    best = brute_force_max_matching_size(graph)
    adj = out_lists(graph)
    tails = [u for u in range(graph.node_count) if adj[u]]
    found: set[frozenset[tuple[int, int]]] = set()

    def rec(i: int, used: set[int], chosen: list[tuple[int, int]]) -> None:
        if len(chosen) + (len(tails) - i) < best:
            return
        if i == len(tails):
            if len(chosen) == best:
                found.add(frozenset(chosen))
            return
        u = tails[i]
        for v in adj[u]:
            if v not in used:
                used.add(v)
                chosen.append((u, v))
                rec(i + 1, used, chosen)
                chosen.pop()
                used.discard(v)
        rec(i + 1, used, chosen)

    rec(0, set(), [])
    return sorted(found, key=sorted)


def enumerate_driver_sets(graph: DirectedGraph) -> set[tuple[int, ...]]:
    """Driver sets of every maximum matching (ignoring the perfect case)."""
    n = graph.node_count
    sets = set()
    for matching in enumerate_maximum_matchings(graph):
        heads = {v for _, v in matching}
        sets.add(tuple(sorted(set(range(n)) - heads)))
    return sets
