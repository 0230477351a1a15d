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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernel
from .errors import UsageError, ValidationError, shown
from .graph import DirectedGraph, _int64_array, degrees
from .matching import Matching, MatchingState, _completing_pass
from .seeding import check_int, check_seed, sample_draws

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
    driver_set, n_d, perfect, avg_kd = _driver_set(*free, order.permutation[0], graph)
    return MdsResult(
        drivers=tuple(driver_set.tolist()),
        n_d=n_d,
        lambda_d=n_d / graph.node_count,
        avg_degree_d=avg_kd,
        perfect_matching=perfect,
        witness=matching,
    )


def _driver_set(
    free: np.ndarray, degree_sum: int, first: int, graph: DirectedGraph
) -> tuple[np.ndarray, int, bool, float]:
    """``(drivers, n_d, perfect_matching, avg_degree_d)`` of a maximum matching.

    ``free`` holds the in-roles the matching leaves free, in ascending
    order, and ``degree_sum`` the sum of their total degrees. They are the
    drivers; when the matching is perfect, ``first`` (the order's first
    node) is the one driver, its degree read off the graph's CSR row
    pointers. Degrees are integers, so the mean is numpy's mean of the
    drivers' total degrees bit for bit.
    """
    if free.size:
        return free, free.size, False, degree_sum / free.size
    kd = graph.out_ptr[first + 1] - graph.out_ptr[first] + graph.in_ptr[first + 1] - graph.in_ptr[first]
    return np.array([first], dtype=np.int64), 1, True, float(kd)


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
    call each: ``sample(i)`` returns sample i's ``(drivers, n_d,
    perfect_matching, avg_degree_d)``, and raises ValidationError when
    its n_d is not that of the sampler's samples before it. Samplers on
    other threads share only the graph, which they only read, and the seed.

    With the compiled core, its pass makes the draws of every index below
    2**64. Such a sample costs that one call and no copy: the sampler
    keeps one drawn state on a workspace of its own, and ``drivers`` is
    then a view of the workspace's free in-roles, which the sampler's
    next sample overwrites. ``seeding.sample_draws`` draws the rest, and
    each such sample takes a state of its own, which completes in a
    workspace of its own; without the compiled core the sampler makes no
    workspace, which the Python search never reads.
    """

    __slots__ = ("graph", "seed", "state", "n_d")

    def __init__(self, graph: DirectedGraph, seed: int):
        self.graph, self.seed = graph, seed
        self.state = None  # the drawn state, on the compiled pass's workspace
        if _kernel.core() is not None:
            self.state = MatchingState._drawn(graph, _kernel.Workspace(graph, seed))
        self.n_d = None

    def sample(self, i: int):
        if self.state is not None and i < 1 << 64:
            state = self.state
            state._restart(i)
        else:
            graph = self.graph
            state = MatchingState._sampling(graph, *sample_draws(self.seed, i, graph.node_count, graph.edge_count))
        # the completing pass ends with every free tail failing its search,
        # which is the Berge certificate of maximality
        free = state.complete()
        sample = _driver_set(*free, state._perm.item(0), self.graph)
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


# The work of a sample stream, in samples x out-CSR slots, from which
# sample_mds draws it with a sampler per CPU, and of a sweep, from which
# its grid points run at once. Set where two threads first beat one on a
# 2-core machine while the calling thread only waited for them. With each
# sampler pinned to a CPU of its own, two samplers take (medians of 40-60
# alternating rounds on a 2-vCPU VM whose cpusets balance no load) 0.70x
# the time of one on BA N=10^3 at 50 samples (about 10^5), 0.77x at 20
# samples (4 x 10^4) and 0.86x at 10 (2 x 10^4, upper quartile 1.06x); on
# ER N=10^4, 0.68x at 5 samples (10^5), 0.81x at 3 and 0.73x at 2
# (4 x 10^4). Unpinned, the same streams took 1.02-1.23x. So the bound is
# conservative for one stream; a sweep whose points each fall below it
# (20 samples x 1,997 slots, about 4 x 10^4, on BA N=10^3) runs its points
# at once instead, one sampler each, once they reach it together.
_THREADS_BREAK_EVEN_SAMPLED_SLOTS = 100_000

# the most samples in a block of a stream on threads: blocks of a few
# samples' work let the samplers share the range evenly, and keep the
# results held small
_MAX_BLOCK = 64


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the system
    has one. Samplers on threads are each pinned to one CPU of the calling
    thread's mask, and the caller's mask is restored when they end
    (``_samplers``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin(cpus) -> None:
    """Run the calling thread on ``cpus`` only; where the system refuses,
    it runs where it did."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _pool_workers(work: int, tasks: int) -> int:
    """How many samplers share ``tasks`` tasks of ``work`` samples x
    out-CSR slots in all: one per usable CPU and no more than the tasks
    when the work reaches the break-even and the compiled pass draws every
    sample (each call then releases the GIL for the whole sample); one,
    the calling thread, otherwise."""
    if work < _THREADS_BREAK_EVEN_SAMPLED_SLOTS:
        return 1
    workers = min(_usable_cpus(), tasks)
    return workers if workers > 1 and _kernel.core() is not None else 1


def _stream_workers(graph: DirectedGraph, count: int) -> int:
    """How many samplers ``sample_mds`` draws samples 0 .. count - 1 with
    (``_pool_workers``): a sample is a task."""
    return _pool_workers(count * graph.edge_count, count)


def _sweep_workers(points: int, point_work: int) -> int:
    """How many samplers a sweep runs its ``points`` grid points on, one
    point at a time each, when each point's stream is ``point_work``
    samples x out-CSR slots (``_pool_workers``): a point is a task.

    A point whose work reaches the break-even draws its own stream on
    threads, so the points of such a sweep run one after another on the
    calling thread. On them, points at once were no faster (medians of
    alternating rounds in one process, 2-vCPU VM, points at once over
    points in sequence): 1.07x on 5 points of 1,000 samples on BA
    N=10^3 (quartiles 1.01-1.11; 5 points split 3 + 2 on two samplers,
    while a stream's blocks split evenly), 1.04x on 5 points of 100
    samples on ER N=10^4 (0.97-1.07), 1.00x on 11 points of 1,000
    samples on BA N=2,000 (0.98-1.08); and they keep a point graph per
    sampler alive instead of one. A point below the break-even starts no
    thread of its own."""
    if point_work >= _THREADS_BREAK_EVEN_SAMPLED_SLOTS:
        return 1
    return _pool_workers(points * point_work, points)


class _Team:
    """What the samplers of one ``_samplers`` run share: a condition to
    wait on, the first failure, and the stop that it or the run's end sets."""

    __slots__ = ("ready", "failure", "stop")

    def __init__(self):
        self.ready = threading.Condition()
        self.failure: BaseException | None = None
        self.stop = False


@contextmanager
def _samplers(workers: int, work):
    """Run ``work(team)`` on ``workers - 1`` started threads while the body
    of the ``with`` runs on the calling thread; yields their ``_Team``.

    With more than one sampler, sampler k (the calling thread is sampler
    0) runs pinned to CPU ``mask[k % len(mask)]`` of the calling thread's
    affinity mask, read once as a sorted list, from before it starts its
    work: where the kernel balances no load across CPUs (a cpuset with
    ``sched_load_balance`` 0), a started thread stays on the CPU of the
    thread that made it, and the samplers would take turns on one CPU.
    Without ``os.sched_setaffinity``, or where a pin raises OSError, the
    samplers run unpinned. One sampler starts no thread and pins nothing.

    The first exception of a thread is kept as ``team.failure`` and sets
    ``team.stop``, which the work reads between its steps; leaving the
    body, on any way out, sets the stop too. Every thread is joined and
    the calling thread gets its mask back before the ``with`` ends, and
    a thread's failure is raised then if the body raised nothing.
    """
    team = _Team()
    mask = sorted(os.sched_getaffinity(0)) if workers > 1 and hasattr(os, "sched_setaffinity") else None

    def run(k: int) -> None:
        try:
            if mask:
                _pin({mask[k % len(mask)]})
            work(team)
        except BaseException as exc:  # raised again in the calling thread
            with team.ready:
                if team.failure is None:
                    team.failure = exc
                team.stop = True
                team.ready.notify_all()

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run, args=(k,), name="netctrl-sampler", daemon=True)
            thread.start()
            threads.append(thread)  # once started, so that only started threads are joined
        if mask:
            _pin({mask[0]})
        yield team
    finally:
        with team.ready:
            team.stop = True
            team.ready.notify_all()
        for thread in threads:
            thread.join()
        if mask:
            _pin(mask)
    if team.failure is not None:
        raise team.failure


def _samples(graph: DirectedGraph, count: int, seed: int, start: int, workers: int, keep):
    """Yield ``keep(drivers, n_d, perfect_matching, avg_degree_d)`` of
    samples ``start .. start + count - 1`` in index order, drawn by
    ``workers`` samplers (``_samplers``): the calling thread and
    ``workers - 1`` threads.

    Sample i draws from ``PCG64(spawn_seed(seed, i))``
    (``seeding.sample_draws``): one permutation for the node order, then
    one random key per out-CSR slot that shuffles every tail's neighbor
    scan: each tail's heads in ascending key order, and equal keys in slot
    order, which is the order of the tail's edges in the input. That tie
    rule is part of the stream's definition, so a sample is the same on
    every CPU. ``drivers`` is an int64 array that may be a view of a
    sampler's workspace, valid only inside ``keep``; nothing else of a
    sample outlives that call.

    Each sampler has a workspace of its own and takes the next free block
    of consecutive indices, but only while fewer than ``2 * workers``
    blocks are taken and not yet yielded: the results held are bounded by
    that many blocks, not by the count, and the slack lets a sampler run
    ahead of a slow one. The calling thread takes a block whenever the
    block it must yield next is not finished. When it took that block, it
    yields each sample as it is drawn; otherwise it holds the block's
    results, as a thread does. One sampler takes the whole range as one
    block and starts no thread.

    The first exception of a thread, or of the caller (an interrupt, or
    the generator closed), stops each sampler before its next sample; a
    thread's exception is raised here, and every thread is joined, and
    the caller's mask restored, before this returns or raises.
    """
    block = max(1, min(_MAX_BLOCK, count // (4 * workers))) if workers > 1 else count
    blocks = -(-count // block)
    done: dict[int, list] = {}  # finished blocks not yet yielded
    taken = 0  # blocks taken by a sampler
    yielded = 0  # blocks yielded

    def draw(team: _Team, sampler: _Sampler, b: int):
        """Block b's kept samples, up to a stop."""
        for i in range(start + b * block, start + min(b * block + block, count)):
            if team.stop:
                return
            yield keep(*sampler.sample(i))

    # the started threads' samplers are made here: a workspace made on a
    # started thread came from that thread's malloc arena, and each
    # stream faulted its pages in again (a median of 600 minor faults per
    # `sample` command on ER N=10^4 at 10 samples, against 260-280 here)
    spare = [_Sampler(graph, seed) for _ in range(workers - 1)]

    def work(team: _Team) -> None:
        nonlocal taken
        sampler = spare.pop()
        ready = team.ready
        while True:
            with ready:
                while not team.stop and taken < blocks and taken >= yielded + 2 * workers:
                    ready.wait()
                if team.stop or taken == blocks:
                    return
                b = taken
                taken += 1
            results = list(draw(team, sampler, b))
            with ready:
                done[b] = results
                ready.notify_all()

    with _samplers(workers, work) as team:
        sampler = _Sampler(graph, seed)
        ready = team.ready
        for b in range(blocks):
            while True:
                with ready:
                    yielded = b
                    ready.notify_all()
                    while team.failure is None and b not in done and taken >= min(blocks, b + 2 * workers):
                        ready.wait()
                    if team.failure is not None:
                        raise team.failure
                    if b in done:
                        results = done.pop(b)
                        break
                    mine = taken
                    taken += 1
                if mine == b:
                    results = draw(team, sampler, b)  # drawn as it is yielded
                    break
                drawn = list(draw(team, sampler, mine))
                with ready:
                    done[mine] = drawn
            yield from results
            if team.failure is not None:  # a thread failed: the caller's block may have stopped short
                raise team.failure


def iter_samples(
    graph: DirectedGraph, count: int, seed: int, *, start: int = 0
) -> Iterator[MdsSample]:
    """Stream samples ``start .. start + count - 1`` of ``sample_mds``'s ensemble.

    Sample i depends only on (seed, i), so ``start=i, count=1`` replays
    one sample in isolation. Raises UsageError on a bad seed, count or
    start and ValidationError when two samples disagree on n_d. The
    stream runs on the calling thread, one sample per ``next()``.
    """
    count, seed, start = _check_stream(count, seed, start)

    def keep(drivers_: np.ndarray, n_d: int, perfect: bool, kd: float) -> MdsSample:
        return MdsSample(tuple(drivers_.tolist()), n_d, perfect, kd)

    return _samples(graph, count, seed, start, 1, keep)


def sample_mds(graph: DirectedGraph, count: int, seed: int, dedupe: bool = False) -> SampleSummary:
    """Sample driver node sets from independent randomized maximum matchings.

    Each sample runs a full maximum matching under a uniformly random node
    order with independently shuffled neighbor scans; sample i's random
    stream is derived from ``spawn_seed(seed, i)``, so any sample is
    reproducible in isolation (see ``iter_samples``). Samples are folded
    into running statistics in index order as they are drawn, so memory
    does not grow with ``count``. Samples are not forced to be distinct;
    with ``dedupe``, a bool, the summary reports how many distinct
    driver sets occurred (duplicates stay in the aggregate), counted by a
    16-byte digest per distinct set.

    The mean ⟨k_D⟩ is over this sampler's ensemble, which is not uniform
    over all minimum driver sets: on ER N=16, L=32 (generator seed 1), 20,000
    samples of seed 1 average 2.313, where the mean over its 33 MDSs is
    2.720.

    A long enough stream on a graph with the compiled core is drawn by the
    calling thread and one more thread per usable CPU past the first
    (``_stream_workers``), each sampler pinned to one CPU of the calling
    thread's affinity mask, which is restored when the stream ends; the
    summary is the same as on one.
    """
    count, seed, _ = _check_stream(count, seed)
    if not isinstance(dedupe, (bool, np.bool_)):  # a string or a list would read as true
        raise UsageError(f"dedupe must be a bool, got {shown(dedupe)}")
    if dedupe:
        # imported here: loading hashlib adds about 4 ms to every start of
        # the command line tool, and only --dedupe needs it
        from hashlib import blake2b

    def keep(drivers_: np.ndarray, n_d: int, perfect: bool, kd: float):
        return n_d, kd, blake2b(drivers_.tobytes(), digest_size=16).digest() if dedupe else None

    samples = _samples(graph, count, seed, 0, _stream_workers(graph, count), keep)
    kd_sum = 0.0
    kd_min = math.inf
    kd_max = -math.inf
    digests: set[bytes] = set()
    n_d = None
    try:
        for sample_n_d, kd, key in samples:
            n_d = _agreed(n_d, sample_n_d)  # across samplers too
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
