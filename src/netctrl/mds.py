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
import os
import threading
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


class _Sampler:
    """Samples of one graph and seed in one workspace, one ``complete()``
    call each: a call returns sample i's ``(drivers, n_d,
    perfect_matching, avg_degree_d)``, and raises ValidationError when
    its n_d is not that of the sampler's samples before it. ``tot`` holds
    the graph's total degrees; it is only read, so samplers on other
    threads may share it.

    A sample whose draws the compiled pass makes costs that one call and
    no copy: the sampler keeps one drawn state on its workspace for every
    such sample, and ``drivers`` is then a view of the workspace's free
    in-roles, which the sampler's next sample overwrites. A sample drawn
    by numpy takes a state of its own, which copies.
    """

    __slots__ = ("graph", "seed", "tot", "work", "state", "n_d")

    def __init__(self, graph: DirectedGraph, seed: int, tot: np.ndarray):
        self.graph, self.seed, self.tot = graph, seed, tot
        self.work = _kernel.Workspace(graph, seed)
        self.state = MatchingState._drawn(graph, self.work)
        self.n_d = None

    def drawn(self, i: int):
        """Sample i, whose draws the compiled pass makes (``seeding.compiled_draws``):
        an index below 2**64."""
        state = self.state
        state._restart(i)
        # the pass writes the sample's order to work.order
        return self._finished(state, self.work.order)

    def numpy_drawn(self, i: int):
        """Sample i, drawn by numpy (``seeding.numpy_draws``)."""
        graph = self.graph
        perm, keys = numpy_draws(self.seed, i, graph.node_count, graph.edge_count)
        return self._finished(MatchingState._sampling(graph, perm, keys, work=self.work), perm)

    def _finished(self, state: MatchingState, order: np.ndarray):
        # the completing pass ends with every free tail failing its search,
        # which is the Berge certificate of maximality
        free = state.complete()
        sample = _driver_set(*free, order.item(0), self.tot)
        self.n_d = _agreed(self.n_d, sample[1])
        return sample


def _agreed(before: int | None, n_d: int) -> int:
    """``n_d``, a sample's driver count, when it is ``before``, the count
    of the samples before it (None before the first); ValidationError
    otherwise: the matching number is one, so every sample has one n_d."""
    if before not in (None, n_d):
        raise ValidationError("sampled driver-set sizes disagree; matching engine is broken")
    return n_d


def _check_stream(count, seed, start=0) -> tuple[int, int, int]:
    """``(count, seed, start)`` of a sample stream, the seed checked first."""
    seed = check_seed(seed)
    return check_int(count, "sample count", low=1), seed, check_int(start, "first sample index", low=0)


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
    the rest. ``drivers`` may be a view of the compiled pass's workspace,
    valid until the next sample is drawn; nothing else of a sample
    outlives its iteration.
    """
    count, seed, start = _check_stream(count, seed, start)
    tot = degrees(graph).total_degree

    def draw():
        sampler = _Sampler(graph, seed, tot)
        # the core draws indices start .. stop - 1, numpy the rest
        stop = max(start, min(start + count, 1 << 64)) if compiled_draws() else start
        for i in range(start, stop):
            yield sampler.drawn(i)
        for i in range(stop, start + count):
            yield sampler.numpy_drawn(i)

    return draw()


def iter_samples(
    graph: DirectedGraph, count: int, seed: int, *, start: int = 0
) -> Iterator[MdsSample]:
    """Stream samples ``start .. start + count - 1`` of ``sample_mds``'s ensemble.

    Sample i depends only on (seed, i), so ``start=i, count=1`` replays
    one sample in isolation. Raises UsageError on a bad seed, count or
    start and ValidationError when two samples disagree on n_d. The
    stream runs on the calling thread.
    """
    return (
        MdsSample(tuple(drivers_.tolist()), n_d, perfect, kd)
        for drivers_, n_d, perfect, kd in _sample_stream(graph, count, seed, start)
    )


# The work of a sample stream, in samples x out-CSR slots, from which
# sample_mds draws it on threads: where two threads first beat one on a
# 2-core machine (BA N=10^3 at 50 samples, about 10^5, ran even; ER
# N=10^4 at 5 samples, 10^5, gained; CHANGES.md has the figures). Below
# it, starting the workers and handing their results back costs more
# than they save.
_THREADS_BREAK_EVEN_SAMPLED_SLOTS = 100_000

# the most samples in a worker's block: blocks of a few samples' work let
# the workers share the range evenly, and keep the results held small
_MAX_BLOCK = 64


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream_workers(graph: DirectedGraph, count: int) -> int:
    """How many threads ``sample_mds`` runs samples 0 .. count - 1 on; 1 is
    the calling thread alone.

    Threads run a stream whose work reaches the break-even, one per usable
    CPU and no more than the count, when the compiled pass draws every
    sample (each call then releases the GIL for the whole sample).
    """
    if count * graph.edge_count < _THREADS_BREAK_EVEN_SAMPLED_SLOTS or count > 1 << 64:
        return 1
    workers = min(_usable_cpus(), count)
    return workers if workers > 1 and compiled_draws() is not None else 1


def _threaded_samples(graph: DirectedGraph, count: int, seed: int, workers: int, digest):
    """Yield ``(n_d, avg_degree_d, digest(drivers) or None)`` of samples
    0 .. count - 1 in index order, drawn by the compiled pass on
    ``workers`` threads.

    Each worker has a workspace of its own and takes the next block of
    consecutive indices; the calling thread only waits for the finished
    blocks and yields them in index order. A worker takes a block only
    while fewer than ``2 * workers`` blocks are taken and not yet yielded,
    so the results held are bounded by that many blocks, not by the count;
    the slack lets a worker run ahead of a slow one. The first exception
    of a worker, or of the caller (an interrupt, or the generator closed),
    sets a stop that each worker reads before its next sample; a worker's
    exception is raised here, and every worker is joined before this
    returns or raises.
    """
    tot = degrees(graph).total_degree
    block = max(1, min(_MAX_BLOCK, count // (4 * workers)))
    blocks = -(-count // block)
    ready = threading.Condition()
    done: dict[int, list] = {}  # finished blocks not yet yielded
    taken = 0  # blocks handed to workers
    yielded = 0  # blocks yielded
    failure: BaseException | None = None
    stop = False

    def work(sampler: _Sampler) -> None:
        nonlocal taken, failure, stop
        try:
            while True:
                with ready:
                    while not stop and taken < blocks and taken >= yielded + 2 * workers:
                        ready.wait()
                    if stop or taken == blocks:
                        return
                    b = taken
                    taken += 1
                results = []
                for i in range(b * block, min(b * block + block, count)):
                    if stop:
                        return
                    drivers_, n_d, _, kd = sampler.drawn(i)
                    results.append((n_d, kd, digest(drivers_) if digest else None))
                with ready:
                    done[b] = results
                    ready.notify_all()
        except BaseException as exc:  # raised again in the calling thread
            with ready:
                if failure is None:
                    failure = exc
                stop = True
                ready.notify_all()

    threads = []
    try:
        for sampler in [_Sampler(graph, seed, tot) for _ in range(workers)]:
            threads.append(threading.Thread(target=work, args=(sampler,), name="netctrl-sampler", daemon=True))
            threads[-1].start()
        for b in range(blocks):
            with ready:
                yielded = b
                ready.notify_all()
                while b not in done and failure is None:
                    ready.wait()
                if failure is not None:
                    raise failure
                results = done.pop(b)
            yield from results
    finally:
        with ready:
            stop = True
            ready.notify_all()
        for thread in threads:
            thread.join()


def sample_mds(graph: DirectedGraph, count: int, seed: int, dedupe: bool = False) -> SampleSummary:
    """Sample driver node sets from independent randomized maximum matchings.

    Each sample runs a full maximum matching under a uniformly random node
    order with independently shuffled neighbor scans; sample i's random
    stream is derived from ``spawn_seed(seed, i)``, so any sample is
    reproducible in isolation (see ``iter_samples``). Samples are folded
    into running statistics in index order as they are drawn, so memory
    does not grow with ``count``. Samples are not forced to be distinct;
    with ``dedupe`` the summary reports how many distinct driver sets
    occurred (duplicates stay in the aggregate), counted by a 16-byte
    digest per distinct set.

    A long enough stream on a graph with the compiled core is drawn on one
    thread per usable CPU (``_stream_workers``); the summary is the same
    as on one.
    """
    count = check_int(count, "sample count")
    count, seed, _ = _check_stream(count, seed)
    digest = None
    if dedupe:
        # imported here: loading hashlib adds about 4 ms to every start of
        # the command line tool, and only --dedupe needs it
        from hashlib import blake2b

        def digest(drivers_: np.ndarray) -> bytes:
            return blake2b(drivers_.tobytes(), digest_size=16).digest()

    workers = _stream_workers(graph, count)
    if workers > 1:
        samples = _threaded_samples(graph, count, seed, workers, digest)
    else:
        samples = (
            (n_d, kd, digest(drivers_) if digest else None)
            for drivers_, n_d, _, kd in _sample_stream(graph, count, seed)
        )
    kd_sum = 0.0
    kd_min = math.inf
    kd_max = -math.inf
    digests: set[bytes] = set()
    n_d = None
    try:
        for sample_n_d, kd, key in samples:
            n_d = _agreed(n_d, sample_n_d)  # across workers too
            kd_sum += kd
            kd_min = min(kd_min, kd)
            kd_max = max(kd_max, kd)
            if key is not None:
                digests.add(key)
    finally:
        samples.close()
    return SampleSummary(
        sample_count=count,
        n_d=n_d,
        mean_kd=kd_sum / count,
        min_kd=kd_min,
        max_kd=kd_max,
        distinct_driver_sets=len(digests) if dedupe else None,
    )
