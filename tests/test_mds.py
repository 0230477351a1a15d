from __future__ import annotations

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    BaParams,
    DirectedGraph,
    NodeOrder,
    UsageError,
    ValidationError,
    degrees,
    drivers,
    gen_directed_ba,
    gen_directed_er,
    iter_samples,
    max_matching,
    preferential_mds,
    sample_mds,
)
from netctrl import _kernel, mds
from netctrl.cli import main
from netctrl.matching import MatchingState

from corpus import matching_of
from failing_cores import BreachingCore, NoMemory
from oracles import brute_force_max_matching_size, enumerate_driver_sets
from test_golden import CASES, GOLDEN_DIR

# the directory holding the netctrl package
SRC = Path(mds.__file__).parent.parent


def intern_order(graph):
    return NodeOrder(range(graph.node_count))


@st.composite
def digraphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 16)))
    return DirectedGraph([str(i) for i in range(n)], edges)


class TestNodeOrder:
    def test_degree_ascending_breaks_ties_by_index(self, star):
        # degrees: hub 3, leaves 1 each
        assert NodeOrder.degree_ascending(star).permutation == (1, 2, 3, 0)

    def test_degree_descending_breaks_ties_by_index_ascending(self, star):
        assert NodeOrder.degree_descending(star).permutation == (0, 1, 2, 3)

    def test_random_is_seed_deterministic(self, star):
        assert NodeOrder.random(star, 5) == NodeOrder.random(star, 5)

    def test_rejects_non_permutation(self):
        with pytest.raises(UsageError):
            NodeOrder([0, 0, 1])
        with pytest.raises(UsageError):
            NodeOrder([1, 2, 3])


class TestDrivers:
    def test_perfect_matching_designates_first_of_order(self, cycle3):
        order = NodeOrder([2, 0, 1])
        result = drivers(cycle3, max_matching(cycle3, order), order)
        assert result.perfect_matching is True
        assert result.n_d == 1
        assert result.drivers == (2,)
        assert result.lambda_d == pytest.approx(1 / 3)

    def test_star_drivers(self, star):
        order = intern_order(star)
        result = drivers(star, max_matching(star, order), order)
        assert result.n_d == 3
        assert set(result.drivers) == {0, 2, 3}  # hub plus two unmatched leaves
        assert result.avg_degree_d == pytest.approx((3 + 1 + 1) / 3)
        assert result.perfect_matching is False

    def test_path_driver_is_the_source(self, path3):
        order = intern_order(path3)
        result = drivers(path3, max_matching(path3, order), order)
        assert result.drivers == (0,)
        assert result.n_d == 1
        assert result.avg_degree_d == pytest.approx(1.0)

    def test_non_maximum_matching_rejected(self, path3):
        with pytest.raises(ValidationError):
            drivers(path3, matching_of(path3, [(0, 1)]), intern_order(path3))

    @pytest.mark.parametrize("perm", [(), (0,), range(5)], ids=["empty", "short", "long"])
    def test_order_must_cover_the_graph(self, cycle3, perm):
        # the perfect-matching rule designates the order's first node, so an
        # order of another graph would name a wrong or missing driver
        matching = matching_of(cycle3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(UsageError, match=f"order covers {len(perm)} nodes, graph has 3"):
            drivers(cycle3, matching, NodeOrder(perm))


class TestPreferential:
    def test_ascending_leaves_high_degree_unmatched(self, two_matchings):
        order = NodeOrder.degree_ascending(two_matchings)
        assert order.permutation == (2, 1, 0)  # degrees 1, 2, 3
        result = preferential_mds(two_matchings, order, 3)
        assert set(result.witness.pairs()) == {(1, 0), (0, 2)}
        assert result.drivers == (1,)
        assert result.avg_degree_d == pytest.approx(2.0)

    def test_descending_leaves_low_degree_unmatched(self, two_matchings):
        order = NodeOrder.degree_descending(two_matchings)
        assert order.permutation == (0, 1, 2)
        result = preferential_mds(two_matchings, order, 3)
        assert set(result.witness.pairs()) == {(0, 1), (1, 0)}
        assert result.drivers == (2,)
        assert result.avg_degree_d == pytest.approx(1.0)

    def test_m_zero_equals_plain_maximum_matching(self, two_matchings):
        order = NodeOrder.degree_ascending(two_matchings)
        direct = drivers(two_matchings, max_matching(two_matchings, order), order)
        assert preferential_mds(two_matchings, order, 0) == direct

    def test_m_out_of_range(self, path3):
        order = intern_order(path3)
        with pytest.raises(UsageError):
            preferential_mds(path3, order, 4)
        with pytest.raises(UsageError):
            preferential_mds(path3, order, -1)


class TestSampling:
    def test_perfect_matching_always_one_driver(self, cycle3):
        summary = sample_mds(cycle3, 50, seed=3)
        samples = list(iter_samples(cycle3, 50, seed=3))
        assert summary.n_d == 1
        assert len(samples) == 50
        assert all(s.n_d == 1 and s.perfect_matching and len(s.drivers) == 1 for s in samples)

    def test_two_matchings_hit_only_legal_driver_sets(self, two_matchings):
        summary = sample_mds(two_matchings, 1000, seed=1, dedupe=True)
        legal = enumerate_driver_sets(two_matchings)
        assert legal == {(1,), (2,)}
        seen = {s.drivers for s in iter_samples(two_matchings, 1000, seed=1)}
        assert seen <= legal
        assert summary.n_d == 1
        assert 1.0 <= summary.mean_kd <= 2.0
        assert summary.distinct_driver_sets == len(seen)

    def test_star_sampling_is_degenerate_in_kd(self, star):
        summary = sample_mds(star, 100, seed=7)
        assert summary.n_d == 3
        assert summary.min_kd == summary.max_kd == pytest.approx((3 + 1 + 1) / 3)
        for s in iter_samples(star, 100, seed=7):
            assert 0 in s.drivers  # the hub's in-role is never matched
            assert len(s.drivers) == 3

    def test_same_seed_reproduces(self, two_matchings):
        assert sample_mds(two_matchings, 40, seed=11) == sample_mds(two_matchings, 40, seed=11)
        assert list(iter_samples(two_matchings, 40, seed=11)) == list(
            iter_samples(two_matchings, 40, seed=11)
        )

    def test_count_must_be_positive(self, star):
        with pytest.raises(UsageError):
            sample_mds(star, 0, seed=1)
        with pytest.raises(UsageError):
            iter_samples(star, 0, seed=1)
        with pytest.raises(UsageError):
            iter_samples(star, 1, seed=1, start=-1)

    def test_dedupe_off_reports_none(self, star):
        summary = sample_mds(star, 5, seed=1)
        assert summary.distinct_driver_sets is None

    def test_a_bool_count_reads_as_an_int(self, star):
        summary = sample_mds(star, True, seed=1)
        assert type(summary.sample_count) is int and summary.sample_count == 1

    def test_summary_folds_the_stream(self):
        g = gen_directed_ba(BaParams(n=120, m_attach=2, m0=3, p=0.5, seed=4))
        samples = list(iter_samples(g, 60, seed=5))
        summary = sample_mds(g, 60, seed=5, dedupe=True)
        kds = [s.avg_degree_d for s in samples]
        assert summary.sample_count == 60
        assert summary.n_d == samples[0].n_d
        assert summary.mean_kd == pytest.approx(sum(kds) / len(kds), rel=1e-12)
        assert (summary.min_kd, summary.max_kd) == (min(kds), max(kds))
        assert summary.distinct_driver_sets == len({s.drivers for s in samples})

    def test_sample_i_alone_equals_sample_i_of_a_longer_run(self):
        g = gen_directed_ba(BaParams(n=150, m_attach=2, m0=3, p=0.5, seed=6))
        run = list(iter_samples(g, 25, seed=8))
        for i in (0, 1, 7, 24):
            (alone,) = iter_samples(g, 1, seed=8, start=i)
            assert alone == run[i]
        assert list(iter_samples(g, 5, seed=8, start=20)) == run[20:]
        assert len({s.drivers for s in run}) > 1  # the samples do differ

    def test_memory_does_not_grow_with_the_sample_count(self, monkeypatch):
        # a kept witness would cost about 7 kB per sample here, so 200
        # samples would peak near ten times higher than 10. On one thread:
        # test_memory_on_threads_does_not_grow_with_the_sample_count
        # takes the threaded path, which holds a workspace per thread
        monkeypatch.setattr(mds, "_usable_cpus", lambda: 1)
        g = gen_directed_ba(BaParams(n=300, m_attach=2, m0=3, p=0.5, seed=1))

        def peak(count: int) -> int:
            sample_mds(g, 2, seed=0)  # warm the graph's cached arrays
            tracemalloc.start()
            try:
                sample_mds(g, count, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(10), peak(200)
        assert many <= 1.5 * few, f"peak {many} B at 200 samples vs {few} B at 10"


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=10**6))
def test_sampled_sets_are_legal_driver_sets(g, seed):
    zero_in = set(np.flatnonzero(degrees(g).in_degree == 0).tolist())
    legal = enumerate_driver_sets(g)
    n_d = max(g.node_count - brute_force_max_matching_size(g), 1)
    for s in iter_samples(g, 8, seed):
        assert s.n_d == n_d
        assert len(s.drivers) == n_d
        if s.perfect_matching:
            assert not zero_in
        else:
            assert zero_in <= set(s.drivers)
            assert s.drivers in legal


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=10**6))
def test_n_d_matches_the_matching_number(g, seed):
    order = NodeOrder.random(g, seed)
    result = drivers(g, max_matching(g, order), order)
    n = g.node_count
    assert result.n_d == max(n - result.witness.size, 1)
    if not result.perfect_matching:
        assert len(result.drivers) == result.n_d
        heads_matched = {v for _, v in result.witness.pairs()}
        assert set(result.drivers) == set(range(n)) - heads_matched


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=10**6))
def test_zero_in_degree_nodes_are_drivers(g, seed):
    order = NodeOrder.random(g, seed)
    result = drivers(g, max_matching(g, order), order)
    zero_in = set(np.flatnonzero(degrees(g).in_degree == 0).tolist())
    if not result.perfect_matching:
        assert zero_in <= set(result.drivers)
    else:
        assert not zero_in


@settings(max_examples=40, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=1000))
def test_driver_legality_no_driver_in_role_matched(g, seed):
    order = NodeOrder.random(g, seed)
    result = drivers(g, max_matching(g, order), order)
    if not result.perfect_matching:
        for v in result.drivers:
            assert result.witness.tail_by_head[v] < 0


def test_order_steering_on_a_model_network():
    g = gen_directed_ba(BaParams(n=500, m_attach=2, m0=3, p=0.5, seed=21))
    summary = sample_mds(g, 200, seed=22)
    asc = preferential_mds(g, NodeOrder.degree_ascending(g), g.node_count)
    desc = preferential_mds(g, NodeOrder.degree_descending(g), g.node_count)
    assert asc.avg_degree_d > summary.mean_kd > desc.avg_degree_d
    assert asc.n_d == desc.n_d == summary.n_d


def test_m_monotone_at_endpoints_for_ascending_order():
    from netctrl import gen_directed_er

    fixtures = [
        gen_directed_ba(BaParams(n=300, m_attach=2, m0=3, p=0.5, seed=s)) for s in (1, 2, 3)
    ] + [gen_directed_er(300, 900, seed=s) for s in (4, 5)]
    for g in fixtures:
        order = NodeOrder.degree_ascending(g)
        at_zero = preferential_mds(g, order, 0)
        at_n = preferential_mds(g, order, g.node_count)
        assert at_n.avg_degree_d >= at_zero.avg_degree_d


def test_avg_degree_d_uses_total_degree():
    g = DirectedGraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 0)])
    order = NodeOrder.degree_ascending(g)
    result = drivers(g, max_matching(g, order), order)
    tot = degrees(g).total_degree
    expected = sum(int(tot[v]) for v in result.drivers) / len(result.drivers)
    assert result.avg_degree_d == pytest.approx(expected)


def samples_both_ways(kernel, g, count, seed):
    """``iter_samples`` as tuples, under the compiled core and under the Python one."""
    results = []
    for core in (kernel, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "_kernel", core)
            results.append(
                [(s.drivers, s.n_d, s.perfect_matching, s.avg_degree_d) for s in iter_samples(g, count, seed)]
            )
    return results


@st.composite
def sampled_graphs(draw, corpus):
    kind = draw(st.sampled_from(["ba", "er", "corpus", "cycle"]))
    if kind == "corpus":
        return draw(st.sampled_from(corpus))
    n = draw(st.integers(min_value=2, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if kind == "ba":
        m = draw(st.sampled_from([1, 2, 3]))
        return gen_directed_ba(BaParams(n=max(n, 4), m_attach=m, p=draw(st.floats(0.0, 1.0)), seed=seed))
    if kind == "er":
        edges = draw(st.integers(min_value=n // 2, max_value=min(4 * n, n * (n - 1))))
        return gen_directed_er(n, edges, seed=seed)
    # a directed cycle with chords: perfectly matchable
    cycle = {(i, (i + 1) % n) for i in range(n)}
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    return DirectedGraph([str(i) for i in range(n)], sorted(cycle | chords))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_and_python_samplers_agree(compiled_kernel, fixture_corpus, data, seed):
    # driver tuples, n_d, the perfect-matching flag and <k_D>, the last
    # compared with ==: the compiled pass sums the degrees exactly. On both
    # cores <k_D> is numpy's mean of the drivers' total degrees, bit for
    # bit, also for the one driver of a perfect matching (the cycles)
    g = data.draw(sampled_graphs(fixture_corpus))
    compiled, python = samples_both_ways(compiled_kernel, g, 4, seed)
    assert compiled == python
    tot = degrees(g).total_degree
    assert all(kd == tot[list(drivers_)].mean() for drivers_, _, _, kd in compiled + python)


def test_samplers_agree_on_a_hub(compiled_kernel):
    # an out-star of 2000 leaves: the hub's slice is heapsorted
    g = DirectedGraph([str(i) for i in range(2001)], [(0, v) for v in range(1, 2001)])
    compiled, python = samples_both_ways(compiled_kernel, g, 20, seed=3)
    assert compiled == python
    assert len({drivers_ for drivers_, *_ in compiled}) > 1  # the hub's scan is shuffled


def test_samplers_agree_on_a_cycle(compiled_kernel):
    g = DirectedGraph([str(i) for i in range(7)], [(i, (i + 1) % 7) for i in range(7)])
    compiled, python = samples_both_ways(compiled_kernel, g, 10, seed=4)
    assert compiled == python
    assert all(perfect and n_d == 1 for _, n_d, perfect, _ in compiled)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_drivers_are_the_in_roles_the_matching_leaves_free(compiled, request, fixture_corpus):
    # drivers() reads its set off the Berge pass that certifies the
    # matching; it must be the set read off the matching itself, and
    # <k_D> numpy's mean of the drivers' total degrees, bit for bit
    core = request.getfixturevalue("compiled_kernel") if compiled else None

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=2**32 - 1))
    def agrees(data, seed):
        g = data.draw(sampled_graphs(fixture_corpus))
        order = NodeOrder.random(g, seed)
        m = data.draw(st.integers(min_value=0, max_value=g.node_count))
        tot = degrees(g).total_degree
        for matching in (max_matching(g, order), preferential_mds(g, order, m).witness):
            result = drivers(g, matching, order)
            free = np.flatnonzero(matching.tail_by_head < 0)
            expected = free if free.size else np.array([order.permutation[0]])
            assert result.drivers == tuple(expected.tolist())
            assert result.avg_degree_d == tot[expected].mean()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", core)
        agrees()


# --- samples on threads --------------------------------------------------


def affinity():
    """The calling thread's CPUs, or None on a system without affinity masks."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this system")


@pytest.fixture
def on_threads(monkeypatch):
    """``on_threads(w)``: sample_mds draws every stream of two or more
    samples with ``w`` samplers (``w`` usable CPUs and no break-even), and
    ``started`` holds the sampler count of each stream that starts
    threads."""
    started = []
    stream = mds._samples

    def counted(graph, count, seed, start, workers, keep):
        if workers > 1:
            started.append(workers)
        return stream(graph, count, seed, start, workers, keep)

    def set_workers(workers: int) -> list:
        monkeypatch.setattr(mds, "_THREADS_BREAK_EVEN_SAMPLED_SLOTS", 0)
        monkeypatch.setattr(mds, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(mds, "_samples", counted)
        return started

    return set_workers


SAMPLING_GOLDENS = sorted(name for name in CASES if name.startswith(("sample", "sweep")))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_goldens_on_threads(compiled_kernel, on_threads, monkeypatch, tmp_path, name, workers):
    # with no break-even, each sweep point's work reaches it alone, so the
    # sweeps run their points one at a time, each on a stream on threads
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    started = on_threads(workers)
    before = threading.active_count()
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
    assert threading.active_count() == before
    assert bool(started) == (workers > 1 and name in SAMPLING_GOLDENS)
    assert all(w == workers for w in started)


@st.composite
def ba_or_er(draw):
    n = draw(st.integers(min_value=4, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if draw(st.booleans()):
        m = draw(st.sampled_from([1, 2, 3]))
        return gen_directed_ba(BaParams(n=n, m_attach=m, p=draw(st.floats(0.0, 1.0)), seed=seed))
    return gen_directed_er(n, draw(st.integers(min_value=n // 2, max_value=3 * n)), seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    ba_or_er(),
    st.integers(min_value=2, max_value=150),
    st.integers(min_value=0, max_value=2**64),
    st.sampled_from([2, 3]),
    st.booleans(),
)
def test_threaded_and_serial_summaries_are_equal(compiled_kernel, g, count, seed, workers, dedupe):
    # counts of every residue: blocks are count // (4 * workers) samples,
    # so 2..150 samples give blocks of 1 to 18 and a last block cut short
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", compiled_kernel)
        patch.setattr(mds, "_usable_cpus", lambda: 1)
        serial = sample_mds(g, count, seed, dedupe)
        patch.setattr(mds, "_THREADS_BREAK_EVEN_SAMPLED_SLOTS", 0)
        patch.setattr(mds, "_usable_cpus", lambda: workers)
        assert mds._stream_workers(g, count) == min(workers, count)
        assert sample_mds(g, count, seed, dedupe) == serial


def test_the_rest_stays_on_the_calling_thread(compiled_kernel, on_threads, monkeypatch):
    g = gen_directed_er(200, 400, seed=2)
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    started = on_threads(2)
    assert mds._stream_workers(g, 2) == 2
    list(iter_samples(g, 50, seed=1))  # the lazy public stream
    assert mds._stream_workers(g, 1) == 1  # one sample
    monkeypatch.setattr(mds, "_THREADS_BREAK_EVEN_SAMPLED_SLOTS", 801)
    assert mds._stream_workers(g, 2) == 1  # 2 samples x 400 slots, below the break-even
    monkeypatch.setattr(mds, "_THREADS_BREAK_EVEN_SAMPLED_SLOTS", 800)
    assert mds._stream_workers(g, 2) == 2
    monkeypatch.setattr(mds, "_usable_cpus", lambda: 1)
    assert mds._stream_workers(g, 50) == 1
    monkeypatch.setattr(mds, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_kernel, "_kernel", None)  # the Python core
    assert mds._stream_workers(g, 50) == 1
    sampler = mds._Sampler(g, 1)
    assert sampler.state is None  # the Python search reads no workspace
    sample_mds(g, 50, seed=1)
    assert not started


def test_the_first_sample_of_a_long_stream_is_one_complete_call(monkeypatch):
    # the stream on the calling thread is one block of all its samples,
    # yielded one by one as they are drawn, not drawn ahead
    g = gen_directed_er(200, 400, seed=2)
    complete = MatchingState.complete
    calls = []

    def counted(state):
        calls.append(state)
        return complete(state)

    monkeypatch.setattr(MatchingState, "complete", counted)
    first = next(iter_samples(g, 10**6, seed=1))
    assert len(calls) == 1
    assert first == next(iter_samples(g, 1, seed=1))


def test_the_calling_thread_draws_while_the_thread_waits_on_it(compiled_kernel, on_threads, monkeypatch):
    # every sample of the started thread waits until the calling thread has
    # drawn one: a caller that only waited for the thread's blocks would
    # leave the thread to time out
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    g = gen_directed_ba(BaParams(n=80, m_attach=2, m0=3, p=0.5, seed=5))
    on_threads(1)
    serial = sample_mds(g, 200, seed=4, dedupe=True)
    started = on_threads(2)
    caller = threading.current_thread()
    drawn_here = threading.Event()
    sample = mds._Sampler.sample

    def waiting(sampler, i):
        if threading.current_thread() is not caller:
            assert drawn_here.wait(timeout=60), "the calling thread drew no sample"
        drawn = sample(sampler, i)
        if threading.current_thread() is caller:
            drawn_here.set()
        return drawn

    monkeypatch.setattr(mds._Sampler, "sample", waiting)
    threads = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: threads.append(thread) or start(thread))
    before = threading.active_count()
    assert sample_mds(g, 200, seed=4, dedupe=True) == serial
    assert started == [2]
    assert [thread.name for thread in threads] == ["netctrl-sampler"]
    assert threading.active_count() == before


def test_affinity_of_one_cpu_starts_no_thread(tmp_path):
    # a child interpreter samples with all its CPUs, then with one
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this system")
    script = tmp_path / "one_cpu.py"
    script.write_text(
        "import os, threading\n"
        "import netctrl\n"
        "from netctrl import mds\n"
        "from netctrl import _kernel\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda thread: started.append(thread) or start(thread)\n"
        "mds._THREADS_BREAK_EVEN_SAMPLED_SLOTS = 0\n"
        "g = netctrl.gen_directed_er(200, 400, seed=1)\n"
        "all_cpus = netctrl.sample_mds(g, 20, 1)\n"
        "with_all = len(started)\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "assert netctrl.sample_mds(g, 20, 1) == all_cpus\n"
        "print(with_all, len(started), _kernel.core() is not None, len(os.sched_getaffinity(0)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    with_all, with_one, compiled, cpus_left = done.stdout.split()
    assert cpus_left == "1"
    assert with_one == with_all  # no thread started on one CPU
    if compiled == "True":  # and one thread per CPU past the caller's with all of them
        assert int(with_all) == min(len(os.sched_getaffinity(0)), 20) - 1


@needs_affinity
@pytest.mark.parametrize("workers", [2, 3, 5])
def test_each_sampler_runs_on_one_cpu_of_the_mask(compiled_kernel, on_threads, monkeypatch, workers):
    # every sampler records its CPUs at its first sample and waits there
    # until all have; past the mask's CPU count, samplers share its CPUs
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    g = gen_directed_ba(BaParams(n=80, m_attach=2, m0=3, p=0.5, seed=5))
    on_threads(1)
    serial = sample_mds(g, 200, seed=4, dedupe=True)
    started = on_threads(workers)
    sample = mds._Sampler.sample
    all_sampling = threading.Barrier(workers, timeout=60)
    masks = {}

    def recorded(sampler, i):
        if sampler not in masks:
            masks[sampler] = os.sched_getaffinity(0)
            all_sampling.wait()
        assert os.sched_getaffinity(0) == masks[sampler]  # and stays there
        return sample(sampler, i)

    monkeypatch.setattr(mds._Sampler, "sample", recorded)
    mask = os.sched_getaffinity(0)
    assert sample_mds(g, 200, seed=4, dedupe=True) == serial
    assert started == [workers]
    assert os.sched_getaffinity(0) == mask  # the caller's CPUs back
    assert len(masks) == workers
    assert all(len(cpus) == 1 and cpus <= mask for cpus in masks.values())
    assert len(set().union(*masks.values())) == min(workers, len(mask))


def test_every_sampler_of_a_stream_is_made_on_the_calling_thread(compiled_kernel, on_threads, monkeypatch):
    # made on a started thread, a workspace came from that thread's malloc
    # arena, and each stream faulted its pages in again
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    g = gen_directed_er(200, 400, seed=2)
    started = on_threads(3)
    made = []
    init = mds._Sampler.__init__

    def recorded(sampler, graph, seed):
        made.append(threading.get_ident())
        init(sampler, graph, seed)

    monkeypatch.setattr(mds._Sampler, "__init__", recorded)
    sample_mds(g, 50, seed=1)
    assert started == [3]
    assert made == [threading.get_ident()] * 3


@needs_affinity
def test_closing_a_threaded_stream_early_gives_the_caller_its_cpus_back(compiled_kernel, monkeypatch):
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    g = gen_directed_er(200, 400, seed=2)
    mask = os.sched_getaffinity(0)
    before = threading.active_count()
    samples = mds._samples(g, 1000, 1, 0, 2, lambda drivers_, n_d, perfect, kd: n_d)
    next(samples)
    assert os.sched_getaffinity(0) == {min(mask)}  # the calling thread is sampler 0
    samples.close()
    assert os.sched_getaffinity(0) == mask
    assert threading.active_count() == before


@needs_affinity
@pytest.mark.parametrize("refusal", ["raising", "missing"])
def test_samplers_the_system_will_not_pin_run_unpinned(compiled_kernel, on_threads, monkeypatch, refusal):
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    g = gen_directed_er(200, 400, seed=2)
    on_threads(1)
    serial = sample_mds(g, 100, seed=3, dedupe=True)
    started = on_threads(2)
    mask = os.sched_getaffinity(0)
    refused = []

    def refuse(pid, cpus):
        refused.append(cpus)
        raise OSError(22, "Invalid argument")

    if refusal == "raising":
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    sample = mds._Sampler.sample
    masks = set()

    def recorded(sampler, i):
        masks.add(frozenset(os.sched_getaffinity(0)))
        return sample(sampler, i)

    monkeypatch.setattr(mds._Sampler, "sample", recorded)
    assert sample_mds(g, 100, seed=3, dedupe=True) == serial
    assert started == [2]
    assert masks == {frozenset(mask)}
    assert os.sched_getaffinity(0) == mask
    assert len(refused) == (3 if refusal == "raising" else 0)  # two pins and the restore


def test_memory_on_threads_does_not_grow_with_the_sample_count(compiled_kernel, on_threads, monkeypatch):
    # the results the workers hand back are held a few blocks at a time
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    started = on_threads(2)
    g = gen_directed_ba(BaParams(n=300, m_attach=2, m0=3, p=0.5, seed=1))

    def peak(count: int) -> int:
        sample_mds(g, 2, seed=0)  # warm the graph's cached arrays
        tracemalloc.start()
        try:
            sample_mds(g, count, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(10), peak(2000)
    assert len(started) == 4
    assert many <= 1.5 * few, f"peak {many} B at 2000 samples vs {few} B at 10"


class CountingCore:
    """The compiled core, counting its sampling calls, that fails in the
    call of sample ``index`` with ``fail(work, pairs)``'s result or
    exception, once another sample has started."""

    def __init__(self, core, index: int | None, fail):
        self.core, self.index, self.fail = core, index, fail
        self.calls = 0
        self.other_started = threading.Event()

    def build(self, n, count, buffer):
        return self.core.build(n, count, buffer)

    def sample(self, work, index=None):
        self.calls += 1
        if index != self.index:
            self.other_started.set()
            return self.core.sample(work, index)
        assert self.other_started.wait(timeout=60)
        return self.fail(work, self.core.sample(work, index))


def no_memory(work, size):
    raise MemoryError("no memory for the completing pass")


def one_pair_short(work, size):
    return size - 1  # n_d one higher than every other sample's


@pytest.mark.parametrize(
    "fail, error",
    [
        (lambda work, size: _kernel.BREACH, ValidationError),
        (no_memory, MemoryError),
        (one_pair_short, ValidationError),
        (lambda work, size: [][0], IndexError),
    ],
    ids=["breach", "no-memory", "n_d-within", "other"],
)
def test_a_failing_worker_stops_the_others_and_raises_here(compiled_kernel, on_threads, monkeypatch, fail, error):
    # the first sample fails once the other worker has started its block
    # of 64 samples
    core = CountingCore(compiled_kernel, 0, fail)
    monkeypatch.setattr(_kernel, "_kernel", core)
    started = on_threads(2)
    before = threading.active_count()
    mask = affinity()
    g = gen_directed_er(1000, 2000, seed=3)
    with pytest.raises(error):
        sample_mds(g, 5000, seed=1, dedupe=True)
    assert started and threading.active_count() == before
    assert affinity() == mask
    # the other worker read the stop before its next sample, not at the
    # end of its block
    assert core.calls < 64


@needs_affinity
def test_a_thread_failing_while_the_caller_draws_the_last_block_raises_here(
    compiled_kernel, on_threads, monkeypatch
):
    # 16 samples on two samplers are 8 blocks of 2. The started thread
    # fails in its pin, once the calling thread draws index 14, and that
    # sample waits until the thread has exited: the calling thread has
    # taken every block itself, so it learns of the failure only after its
    # last block stops short, and must not fold 15 samples as 16
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    on_threads(2)
    caller = threading.current_thread()
    drawing_14 = threading.Event()
    threads = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: threads.append(thread) or start(thread))
    pin = mds._pin

    def failing(cpus):
        if threading.current_thread() is caller:
            return pin(cpus)
        assert drawing_14.wait(timeout=60), "the calling thread never drew index 14"
        raise RuntimeError("the started sampler failed")

    sample = mds._Sampler.sample
    indices = []

    def waiting(sampler, i):
        indices.append(i)
        if i == 14:
            drawing_14.set()
            threads[0].join(timeout=60)
        return sample(sampler, i)

    monkeypatch.setattr(mds, "_pin", failing)
    monkeypatch.setattr(mds._Sampler, "sample", waiting)
    before = threading.active_count()
    mask = affinity()
    with pytest.raises(RuntimeError, match="the started sampler failed"):
        sample_mds(gen_directed_er(60, 120, seed=3), 16, seed=1)
    assert indices == list(range(15))  # all drawn by the calling thread, index 15 not
    assert threading.active_count() == before
    assert affinity() == mask


def test_n_d_disagreeing_across_workers_raises(compiled_kernel, on_threads, monkeypatch):
    # each worker agrees with itself, and the second one to sample reads
    # every n_d one higher: the calling thread's fold sees it
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    on_threads(2)
    sample = mds._Sampler.sample
    both_sampling = threading.Barrier(2, timeout=60)
    first: dict = {}
    seen: set = set()

    def drifting(sampler, i):
        drivers_, n_d, perfect, kd = sample(sampler, i)
        if sampler not in seen:
            seen.add(sampler)
            first.setdefault("sampler", sampler)
            both_sampling.wait()
        return drivers_, n_d + (sampler is not first["sampler"]), perfect, kd

    monkeypatch.setattr(mds._Sampler, "sample", drifting)
    before = threading.active_count()
    mask = affinity()
    with pytest.raises(ValidationError, match="sampled driver-set sizes disagree"):
        sample_mds(gen_directed_er(60, 120, seed=3), 200, seed=1)
    assert threading.active_count() == before
    assert affinity() == mask


def test_an_interrupt_while_folding_stops_every_worker(compiled_kernel, on_threads, monkeypatch):
    class Interrupting(float):
        """A <k_D> whose fold in the calling thread is interrupted."""

        def __radd__(self, other):
            raise KeyboardInterrupt

    core = CountingCore(compiled_kernel, None, None)
    monkeypatch.setattr(_kernel, "_kernel", core)
    on_threads(2)
    sample = mds._Sampler.sample

    def interrupting(sampler, i):
        drivers_, n_d, perfect, kd = sample(sampler, i)
        return drivers_, n_d, perfect, Interrupting(kd) if i == 5 else kd

    monkeypatch.setattr(mds._Sampler, "sample", interrupting)
    before = threading.active_count()
    mask = affinity()
    with pytest.raises(KeyboardInterrupt):
        sample_mds(gen_directed_er(1000, 2000, seed=3), 5000, seed=1)
    assert threading.active_count() == before
    assert core.calls < 5000
    assert affinity() == mask


@pytest.mark.parametrize(
    "core, code, line",
    [(BreachingCore, 4, "netctrl: validation error:"), (NoMemory, 1, "netctrl: error: out of memory: ")],
    ids=["breach", "no-memory"],
)
def test_a_failing_sample_on_threads_is_one_line(on_threads, monkeypatch, capsys, core, code, line):
    monkeypatch.setattr(_kernel, "_kernel", core())
    started = on_threads(2)
    before = threading.active_count()
    assert main(["sample", "--gen", "er:n=20,l=30", "--samples", "2"]) == code
    captured = capsys.readouterr()
    assert started == [2]
    assert threading.active_count() == before
    assert captured.out == ""
    assert captured.err.startswith(line)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_many_workers_with_rapid_switching_draw_each_index_once(compiled_kernel, on_threads, monkeypatch):
    # more workers than CPUs, the interpreter switching threads every
    # microsecond: a block taken twice or lost would repeat or skip an
    # index, change the summary, or leave the calling thread waiting
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    g = gen_directed_ba(BaParams(n=80, m_attach=2, m0=3, p=0.5, seed=5))
    on_threads(1)
    serial = sample_mds(g, 3001, seed=9, dedupe=True)
    on_threads(6)
    sample = mds._Sampler.sample
    indices = []

    def recorded(sampler, i):
        indices.append(i)
        return sample(sampler, i)

    monkeypatch.setattr(mds._Sampler, "sample", recorded)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: result.append(sample_mds(g, 3001, seed=9, dedupe=True)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert result == [serial]
    assert sorted(indices) == list(range(3001))
