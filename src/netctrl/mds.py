"""Driver-node extraction, degree-steered preferential matching, and MDS sampling.

A node is a driver when its in-role is unmatched by a maximum matching;
the minimum number of drivers is max(N - |M*|, 1). Because the matching
number is fixed, every maximum matching certifies a driver set of the same
size, but the composition varies: admitting nodes in a chosen rank order
while keeping the matching maximum on the growing subgraph biases which
nodes stay unmatched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernel
from .errors import UsageError, ValidationError
from .graph import DirectedGraph, _int64_array, degrees
from .matching import Matching, MatchingState, _completing_pass
from .seeding import check_int, check_seed, compiled_draws, numpy_draws

__all__ = [
    "NodeOrder",
    "MdsResult",
    "MdsSample",
    "SampleSummary",
    "drivers",
    "preferential_mds",
    "iter_samples",
    "sample_mds",
]


@dataclass(frozen=True)
class NodeOrder:
    """A permutation of all node indices; position = rank.

    Degree-keyed orders sort by total degree with ties broken by node
    index ascending.
    """

    permutation: tuple[int, ...]
    key_spec: str = "explicit"

    def __post_init__(self):
        perm = tuple(_int64_array(self.permutation, UsageError, "node indices").tolist())
        object.__setattr__(self, "permutation", perm)
        n = len(perm)
        if n and (len(set(perm)) != n or min(perm) != 0 or max(perm) != n - 1):
            raise UsageError("permutation must contain each node index exactly once")

    @classmethod
    def degree_ascending(cls, graph: DirectedGraph) -> NodeOrder:
        perm = np.argsort(degrees(graph).total_degree, kind="stable")
        return cls(perm, "degree-ascending")

    @classmethod
    def degree_descending(cls, graph: DirectedGraph) -> NodeOrder:
        perm = np.argsort(-degrees(graph).total_degree, kind="stable")
        return cls(perm, "degree-descending")

    @classmethod
    def random(cls, graph: DirectedGraph, seed: int) -> NodeOrder:
        seed = check_seed(seed)
        return cls(np.random.default_rng(seed).permutation(graph.node_count), f"random(seed={seed})")


@dataclass(frozen=True)
class MdsResult:
    """One driver node set with the matching that certifies it.

    When the matching is perfect the driver count is still 1; the first
    node of the supplied order is designated and ``perfect_matching`` is
    set so consumers know any node would do.
    """

    drivers: tuple[int, ...]
    n_d: int
    lambda_d: float
    avg_degree_d: float
    perfect_matching: bool
    witness: Matching


@dataclass(frozen=True)
class MdsSample:
    """One sampled driver node set, without the matching that certifies it.

    As in MdsResult, a perfect matching designates one driver, the first
    node of the sample's random order.
    """

    drivers: tuple[int, ...]
    n_d: int
    perfect_matching: bool
    avg_degree_d: float


@dataclass(frozen=True)
class SampleSummary:
    """Ensemble statistics over sampled driver node sets."""

    sample_count: int
    n_d: int
    mean_kd: float
    min_kd: float
    max_kd: float
    distinct_driver_sets: int | None = None


def drivers(graph: DirectedGraph, matching: Matching, order: NodeOrder) -> MdsResult:
    """Driver node set certified by a maximum matching.

    The drivers are exactly the nodes whose in-role the matching leaves
    unmatched (nodes with zero in-degree are always among them unless the
    matching is perfect). Raises UsageError when the order does not cover
    the graph's nodes, and ValidationError when the matching is invalid or
    not maximum.
    """
    if len(order.permutation) != graph.node_count:
        raise UsageError(f"order covers {len(order.permutation)} nodes, graph has {graph.node_count}")
    added, free = _completing_pass(graph, matching)
    if added:
        raise ValidationError("matching is not maximum; driver extraction needs a maximum matching")
    tot = degrees(graph).total_degree
    driver_set, n_d, perfect, avg_kd = _driver_set(*free, order.permutation[0], tot)
    return MdsResult(
        drivers=tuple(driver_set.tolist()),
        n_d=n_d,
        lambda_d=n_d / graph.node_count,
        avg_degree_d=avg_kd,
        perfect_matching=perfect,
        witness=matching,
    )


def _driver_set(
    free: np.ndarray, degree_sum: int, first: int, tot: np.ndarray
) -> tuple[np.ndarray, int, bool, float]:
    """``(drivers, n_d, perfect_matching, avg_degree_d)`` of a maximum matching.

    ``free`` holds the in-roles the matching leaves free, in ascending
    order, and ``degree_sum`` the sum of their total degrees. They are the
    drivers; when the matching is perfect, ``first`` (the order's first
    node) is the one driver. ``tot`` holds the total degrees. They are
    integers, so the mean is numpy's ``tot[drivers].mean()`` bit for bit.
    """
    if free.size:
        return free, free.size, False, degree_sum / free.size
    return np.array([first], dtype=np.int64), 1, True, float(tot[first])


def preferential_mds(graph: DirectedGraph, order: NodeOrder, m: int) -> MdsResult:
    """Find a driver set by admitting the first m nodes of an order one at a time.

    Starts from the subgraph holding only the first node and extends it
    node by node, restoring maximality after each admission, so a node
    matched early stays matched in the final matching. After m admissions
    the remaining nodes (if any) are admitted at once and the matching is
    completed with the same rank discipline. With a degree-ascending order
    and m = N the drivers skew toward high degree; degree-descending skews
    low.
    """
    n = graph.node_count
    m = check_int(m, "m", low=0, high=n)
    state = MatchingState(graph, order)
    for _ in range(m):
        state.extend_with_node()
    if m < n:
        state.complete()
    return drivers(graph, state.matching, order)


def _sample_stream(graph: DirectedGraph, count: int, seed: int, start: int = 0):
    """Yield ``(drivers, n_d, perfect_matching, avg_degree_d)`` per sample.

    ``drivers`` is an int64 array. Sample i draws from
    ``default_rng(spawn_seed(seed, i))`` (``seeding.numpy_draws``): one
    permutation for the node order, then one random key per out-CSR slot
    that shuffles every tail's neighbor scan: each tail's heads in
    ascending key order, and equal keys in slot order, which is the order
    of the tail's edges in the input. That tie rule is part of the
    stream's definition, so a sample is the same on every CPU. The
    compiled pass makes those draws itself for every index below 2**64
    when its draws are numpy's (``seeding.compiled_draws``); numpy makes
    the rest. Nothing of a sample outlives its iteration but the compiled
    pass's workspace.
    """
    seed = check_seed(seed)
    count = check_int(count, "sample count", low=1)
    start = check_int(start, "first sample index", low=0)
    n, edges = graph.node_count, graph.edge_count
    tot = degrees(graph).total_degree

    def draw():
        n_d = None
        work = _kernel.Workspace(graph, seed)
        empty = Matching(np.full(n, -1))

        def finished(state, order):
            # the completing pass ends with every free tail failing its
            # search, which is the Berge certificate of maximality
            nonlocal n_d
            free = state.complete()  # a drawn state's order is written here
            sample = _driver_set(*free, order.item(0), tot)
            if n_d not in (None, sample[1]):
                raise ValidationError("sampled driver-set sizes disagree; matching engine is broken")
            n_d = sample[1]
            return sample

        # the core draws indices start .. stop - 1, numpy the rest
        stop = max(start, min(start + count, 1 << 64)) if compiled_draws() else start
        for i in range(start, stop):
            yield finished(MatchingState._drawn(graph, i, empty, work), work.order)
        for i in range(stop, start + count):
            perm, keys = numpy_draws(seed, i, n, edges)
            yield finished(MatchingState._sampling(graph, perm, keys, empty, work), perm)

    return draw()


def iter_samples(
    graph: DirectedGraph, count: int, seed: int, *, start: int = 0
) -> Iterator[MdsSample]:
    """Stream samples ``start .. start + count - 1`` of ``sample_mds``'s ensemble.

    Sample i depends only on (seed, i), so ``start=i, count=1`` replays
    one sample in isolation. Raises UsageError on a bad seed, count or
    start and ValidationError when two samples disagree on n_d.
    """
    return (
        MdsSample(tuple(drivers_.tolist()), n_d, perfect, kd)
        for drivers_, n_d, perfect, kd in _sample_stream(graph, count, seed, start)
    )


def sample_mds(graph: DirectedGraph, count: int, seed: int, dedupe: bool = False) -> SampleSummary:
    """Sample driver node sets from independent randomized maximum matchings.

    Each sample runs a full maximum matching under a uniformly random node
    order with independently shuffled neighbor scans; sample i's random
    stream is derived from ``spawn_seed(seed, i)``, so any sample is
    reproducible in isolation (see ``iter_samples``). Samples are folded
    into running statistics as they are drawn, so memory does not grow
    with ``count``. Samples are not forced to be distinct; with ``dedupe``
    the summary reports how many distinct driver sets occurred (duplicates
    stay in the aggregate), counted by a 16-byte digest per distinct set.
    """
    count = check_int(count, "sample count")
    if dedupe:
        # imported here: loading hashlib adds about 4 ms to every start of
        # the command line tool, and only --dedupe needs it
        from hashlib import blake2b
    kd_sum = 0.0
    kd_min = math.inf
    kd_max = -math.inf
    digests: set[bytes] | None = set() if dedupe else None
    n_d = 0
    for drivers_, n_d, _, kd in _sample_stream(graph, count, seed):
        kd_sum += kd
        kd_min = min(kd_min, kd)
        kd_max = max(kd_max, kd)
        if digests is not None:
            digests.add(blake2b(drivers_.tobytes(), digest_size=16).digest())
    return SampleSummary(
        sample_count=count,
        n_d=n_d,
        mean_kd=kd_sum / count,
        min_kd=kd_min,
        max_kd=kd_max,
        distinct_driver_sets=None if digests is None else len(digests),
    )
