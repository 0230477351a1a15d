from __future__ import annotations

import tracemalloc

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
from netctrl import _kernel

from corpus import matching_of
from oracles import brute_force_max_matching_size, enumerate_driver_sets


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

    def test_memory_does_not_grow_with_the_sample_count(self):
        # a kept witness would cost about 7 kB per sample here, so 200
        # samples would peak near ten times higher than 10
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
    # compared with ==: the compiled pass sums the degrees exactly
    g = data.draw(sampled_graphs(fixture_corpus))
    compiled, python = samples_both_ways(compiled_kernel, g, 4, seed)
    assert compiled == python


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
