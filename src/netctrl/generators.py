"""Synthetic directed networks and the degree-aware edge-reversal transform.

The growth model is classical preferential attachment with one twist: each
new edge is oriented from the existing node to the newcomer with
probability p, and the other way with probability 1 - p. High p therefore
makes edges point from high-degree nodes toward low-degree nodes, which is
the knob the direction experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, shown
from .graph import DirectedGraph, _edge_buffer, _Labels, degrees
from .seeding import check_int, check_real, check_seed

__all__ = [
    "BaParams",
    "ReversalParams",
    "ReversalResult",
    "gen_directed_ba",
    "gen_directed_er",
    "reverse_edges",
]


@dataclass(frozen=True)
class BaParams:
    """Parameters of the directed preferential-attachment model.

    n: target node count; m_attach: edges per new node; m0: seed cycle
    size (defaults to m_attach); p: probability that a new edge points
    old -> new.
    """

    n: int
    m_attach: int = 2
    m0: int | None = None
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        m_attach = check_int(self.m_attach, "m_attach", low=1)
        m0 = check_int(m_attach if self.m0 is None else self.m0, "m0", low=m_attach)
        object.__setattr__(self, "n", check_int(self.n, "n", low=m0 + 1))
        _pair_space(self.n)
        object.__setattr__(self, "m_attach", m_attach)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "p", check_real(self.p, "p", low=0, high=1))


@dataclass(frozen=True)
class ReversalParams:
    """Edge-reversal knob: each low-to-high-degree edge flips with probability r."""

    r: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "r", check_real(self.r, "r", low=0, high=1))


@dataclass(frozen=True)
class ReversalResult:
    """Transformed graph plus tallies of applied and collision-skipped flips."""

    graph: DirectedGraph
    reversed_count: int
    skipped_count: int


def _pair_space(n: int) -> int:
    """The n * (n - 1) ordered pairs of n nodes; UsageError when int64
    cannot index them, since pair and node indices are int64."""
    capacity = n * (n - 1)
    if capacity >= 2**63:
        raise UsageError(f"n={shown(n)} gives more node pairs than int64 indexes")
    return capacity


def gen_directed_ba(params: BaParams) -> DirectedGraph:
    """Grow a directed preferential-attachment network.

    The seed is a directed cycle over m0 nodes (so every node starts with
    degree 2 and attachment weights are well defined); each new node then
    attaches m_attach edges to distinct existing nodes drawn proportionally
    to total degree, resampling on collision. Edge orientation is old->new
    with probability p. L = m0 + (n - m0) * m_attach, deterministic given
    the seed.
    """
    n, m, m0, p = params.n, params.m_attach, params.m0, params.p
    rng = np.random.default_rng(params.seed)
    edges = [(i, (i + 1) % m0) for i in range(m0)]
    # each node appears once per unit of total degree
    repeated = []
    for u, v in edges:
        repeated.append(u)
        repeated.append(v)
    for new in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(0, len(repeated)))])
        for old in sorted(targets):
            if rng.random() < p:
                edges.append((old, new))
            else:
                edges.append((new, old))
            repeated.append(old)
            repeated.append(new)
    provenance = (f"ba n={n} m={m} m0={m0} p={p} seed={params.seed}",)
    return DirectedGraph(_Labels(n), edges, provenance=provenance)


def gen_directed_er(n: int, l: int, seed: int = 0) -> DirectedGraph:
    """Uniform directed random graph: l distinct edges, no self-loops."""
    n = check_int(n, "n", low=1)
    capacity = _pair_space(n)
    l = check_int(l, "l", low=0, high=capacity)
    seed = check_seed(seed)
    rng = np.random.default_rng(seed)
    if l > capacity // 2:
        chosen = rng.permutation(capacity)[:l]
    else:
        picked: set[int] = set()
        chosen = []
        while len(chosen) < l:
            k = int(rng.integers(0, capacity))
            if k not in picked:
                picked.add(k)
                chosen.append(k)
    # pair k is (u, v) for u, r = divmod(k, n - 1), skipping v = u
    u, r = np.divmod(np.asarray(chosen, dtype=np.int64), max(n - 1, 1))
    edges = np.column_stack((u, r + (r >= u)))
    provenance = (f"er n={n} l={l} seed={seed}",)
    return DirectedGraph(_Labels(n), edges, provenance=provenance)


def reverse_edges(graph: DirectedGraph, params: ReversalParams) -> ReversalResult:
    """Flip low-to-high-degree edges with probability r.

    Degrees are snapshotted from the input graph before any flip, so the
    eligibility test k_tail < k_head never sees its own effects. A flip
    whose reversed edge already exists is skipped and tallied, preserving
    the edge count. Deterministic given the seed; r=0 returns an identical
    edge sequence.
    """
    rng = np.random.default_rng(params.seed)
    r = params.r
    n, tails, heads, keys = graph.node_count, graph.tails, graph.heads, graph._keys
    tot = degrees(graph).total_degree
    eligible = np.flatnonzero(tot[tails] < tot[heads])
    # one draw per eligible edge, in edge order: the same stream as one
    # scalar draw per edge. Flipping in one step is exact, because a flip
    # of (u, v) can only meet the input edge (v, u): two distinct edges
    # never flip to the same pair, and (v, u) runs from higher to lower
    # degree, so it is never flipped away itself.
    flips = eligible[rng.random(eligible.size) < r]
    flipped_tails, flipped_heads = heads[flips], tails[flips]
    # a flip collides when its reversed key is one of the input's sorted keys
    flipped = flipped_tails * n + flipped_heads
    collides = keys.take(np.searchsorted(keys, flipped), mode="clip") == flipped
    skipped = int(np.count_nonzero(collides))
    if skipped:
        kept = ~collides
        flips, flipped_tails, flipped_heads = flips[kept], flipped_tails[kept], flipped_heads[kept]
    count = tails.size
    buffer = _edge_buffer(n, count)
    buffer[:count] = tails
    buffer[count:2 * count] = heads
    buffer[flips] = flipped_tails
    buffer[count:2 * count][flips] = flipped_heads
    reversed_count = int(flips.size)
    provenance = graph.provenance + (
        f"reverse r={r} seed={params.seed} reversed={reversed_count} skipped={skipped}",
    )
    # the input's own label store and node indices: neither is checked again
    out = DirectedGraph._built(graph._labels, buffer, count, provenance)
    return ReversalResult(graph=out, reversed_count=reversed_count, skipped_count=skipped)
