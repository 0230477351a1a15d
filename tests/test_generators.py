from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    BaParams,
    NodeOrder,
    ReversalParams,
    UsageError,
    average_degree,
    degrees,
    drivers,
    f_hi_lo,
    gen_directed_ba,
    gen_directed_er,
    max_matching,
    _kernel,
    reverse_edges,
)

from naive import naive_reverse_edges


class TestDirectedBa:
    def test_edge_count_formula(self):
        g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=0.3, seed=5))
        assert g.node_count == 100
        assert g.edge_count == 3 + 97 * 2
        assert g.duplicate_count == 0

    def test_p_one_orients_every_growth_edge_old_to_new(self):
        g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=1.0, seed=8))
        for tail, head in g.edges[3:]:  # skip the seed cycle
            assert tail < head

    def test_p_zero_orients_every_growth_edge_new_to_old(self):
        g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=0.0, seed=8))
        for tail, head in g.edges[3:]:
            assert tail > head

    def test_p_one_points_high_degree_to_low_degree(self):
        values = [
            f_hi_lo(gen_directed_ba(BaParams(n=2000, m_attach=2, m0=3, p=1.0, seed=s)))
            for s in range(20)
        ]
        assert float(np.mean(values)) > 0.9

    def test_deterministic_given_seed(self):
        a = gen_directed_ba(BaParams(n=50, m_attach=2, m0=3, p=0.5, seed=4))
        b = gen_directed_ba(BaParams(n=50, m_attach=2, m0=3, p=0.5, seed=4))
        assert a.edges == b.edges

    def test_heavy_tail_hub_degree_grows_with_n(self):
        small = [
            int(degrees(gen_directed_ba(BaParams(n=200, m_attach=2, m0=3, p=0.5, seed=s))).total_degree.max())
            for s in range(3)
        ]
        large = [
            int(degrees(gen_directed_ba(BaParams(n=3200, m_attach=2, m0=3, p=0.5, seed=s))).total_degree.max())
            for s in range(3)
        ]
        assert float(np.mean(large)) > float(np.mean(small))

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            BaParams(n=10, m_attach=0)
        with pytest.raises(UsageError):
            BaParams(n=3, m_attach=2, m0=4)
        with pytest.raises(UsageError):
            BaParams(n=10, m_attach=2, m0=1)
        with pytest.raises(UsageError):
            BaParams(n=10, p=1.5)

    # the ER generator's bound: growing this many nodes would never end
    @pytest.mark.parametrize("n", [10**20, 3037000501])
    def test_pair_space_beyond_int64_rejected(self, n):
        with pytest.raises(UsageError, match="int64"):
            BaParams(n=n)

    def test_provenance_header(self):
        g = gen_directed_ba(BaParams(n=10, m_attach=2, m0=3, p=0.5, seed=1))
        assert g.provenance == ("ba n=10 m=2 m0=3 p=0.5 seed=1",)

    def test_f_hi_lo_increases_with_p(self):
        means = []
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = [
                f_hi_lo(gen_directed_ba(BaParams(n=1000, m_attach=2, m0=3, p=p, seed=s)))
                for s in range(20)
            ]
            means.append(float(np.mean(vals)))
        assert all(a < b for a, b in zip(means, means[1:]))


class TestDirectedEr:
    def test_edgeless_graph_every_node_drives(self):
        g = gen_directed_er(10, 0, seed=1)
        assert g.edge_count == 0
        order = NodeOrder(range(10))
        assert drivers(g, max_matching(g, order), order).n_d == 10

    def test_complete_graph_has_perfect_matching(self):
        g = gen_directed_er(10, 90, seed=1)
        assert g.edge_count == 90
        order = NodeOrder(range(10))
        result = drivers(g, max_matching(g, order), order)
        assert result.perfect_matching and result.n_d == 1

    def test_average_degree_exact(self):
        g = gen_directed_er(1000, 4000, seed=3)
        assert average_degree(g) == pytest.approx(8.0)

    def test_capacity_overflow_rejected(self):
        with pytest.raises(UsageError):
            gen_directed_er(3, 7, seed=0)

    # 3037000501 is the least n with n * (n - 1) >= 2**63; a small l keeps
    # the rejected call from allocating anything even if the check failed
    @pytest.mark.parametrize("n", [3037000501, 99999999999])
    def test_pair_space_beyond_int64_rejected(self, n):
        with pytest.raises(UsageError, match="int64"):
            gen_directed_er(n, 1, seed=0)

    def test_no_self_loops_or_duplicates(self):
        g = gen_directed_er(12, 60, seed=9)
        assert len(set(g.edges)) == 60
        assert all(u != v for u, v in g.edges)

    def test_deterministic_given_seed(self):
        assert gen_directed_er(20, 40, seed=2).edges == gen_directed_er(20, 40, seed=2).edges


class TestReverseEdges:
    def test_r_zero_is_identity(self):
        g = gen_directed_ba(BaParams(n=60, m_attach=2, m0=3, p=0.5, seed=6))
        result = reverse_edges(g, ReversalParams(r=0.0, seed=1))
        assert result.graph.edges == g.edges
        assert result.reversed_count == 0
        assert result.skipped_count == 0

    def test_r_one_leaves_no_eligible_edge_except_skips(self):
        g = gen_directed_er(40, 200, seed=12)
        tot = degrees(g).total_degree.tolist()  # snapshot of the input degrees
        result = reverse_edges(g, ReversalParams(r=1.0, seed=2))
        eligible_left = sum(1 for u, v in result.graph.edges if tot[u] < tot[v])
        assert eligible_left == result.skipped_count

    def test_total_degree_preserved(self):
        g = gen_directed_ba(BaParams(n=120, m_attach=2, m0=3, p=0.5, seed=3))
        before = degrees(g).total_degree
        after = degrees(reverse_edges(g, ReversalParams(r=0.7, seed=5)).graph).total_degree
        assert np.array_equal(before, after)

    def test_edge_count_preserved(self):
        g = gen_directed_er(30, 120, seed=7)
        result = reverse_edges(g, ReversalParams(r=1.0, seed=7))
        assert result.graph.edge_count == g.edge_count

    def test_second_pass_at_r_one_reverses_nothing_new(self):
        # totals are preserved, so re-snapshotting exposes no newly eligible edge
        g = gen_directed_er(40, 220, seed=4)
        first = reverse_edges(g, ReversalParams(r=1.0, seed=1))
        second = reverse_edges(first.graph, ReversalParams(r=1.0, seed=2))
        assert second.reversed_count == 0
        assert second.skipped_count == first.skipped_count

    def test_deterministic_given_seed(self):
        g = gen_directed_er(25, 100, seed=8)
        a = reverse_edges(g, ReversalParams(r=0.5, seed=3))
        b = reverse_edges(g, ReversalParams(r=0.5, seed=3))
        assert a.graph.edges == b.graph.edges
        assert (a.reversed_count, a.skipped_count) == (b.reversed_count, b.skipped_count)

    def test_r_validation(self):
        with pytest.raises(UsageError):
            ReversalParams(r=1.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_er_graph_shape(n, seed):
    capacity = n * (n - 1)
    l = seed % (capacity + 1)
    g = gen_directed_er(n, l, seed=seed)
    assert g.node_count == n
    assert g.edge_count == l and g.duplicate_count == 0
    assert all(u != v for u, v in g.edges)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ba_graph_shape(m, extra, p, seed):
    m0 = m + extra
    n = m0 + 1 + seed % 40
    g = gen_directed_ba(BaParams(n=n, m_attach=m, m0=m0, p=p, seed=seed))
    assert g.node_count == n
    assert g.edge_count == m0 + (n - m0) * m and g.duplicate_count == 0


@st.composite
def dense_er_graphs(draw):
    # more than half of all ordered pairs: reciprocal edges are certain, so
    # flips can collide and be skipped
    n = draw(st.integers(min_value=3, max_value=40))
    capacity = n * (n - 1)
    l = draw(st.integers(min_value=capacity // 2 + 1, max_value=capacity))
    return gen_directed_er(n, l, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(dense_er_graphs(), st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**32 - 1))
def test_reverse_edges_equals_the_edge_by_edge_reference(g, r, seed):
    params = ReversalParams(r=r, seed=seed)
    result = reverse_edges(g, params)
    edges, reversed_count, skipped = naive_reverse_edges(g, params)
    # the constructor would collapse a repeat a flip made, not refuse it
    assert result.graph.duplicate_count == 0 and result.graph.edge_count == g.edge_count
    assert result.graph.edges == edges
    assert (result.reversed_count, result.skipped_count) == (reversed_count, skipped)


@st.composite
def reversal_inputs(draw):
    """A dense ER graph, whose flips collide, or a BA graph, whose flips
    mostly do not."""
    if draw(st.booleans()):
        return draw(dense_er_graphs())
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=m + 1, max_value=60))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return gen_directed_ba(BaParams(n=n, m_attach=m, m0=m, p=p, seed=draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=60, deadline=None)
@given(reversal_inputs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_reverse_edges_gives_the_same_graph_and_tallies_on_both_cores(compiled_kernel, g, seed):
    # the compiled build and the numpy build of the flipped pairs, and the
    # collisions read off the input's sorted keys, agree with the reference
    for r in (0.0, 0.5, 1.0):
        params = ReversalParams(r=r, seed=seed)
        results = []
        for core in (compiled_kernel, None):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_kernel, "_kernel", core)
                results.append(reverse_edges(g, params))
        compiled, numpy_built = results
        edges, reversed_count, skipped = naive_reverse_edges(g, params)
        for result in results:
            assert result.graph.edges == edges and result.graph.duplicate_count == 0
            assert (result.reversed_count, result.skipped_count) == (reversed_count, skipped)
        assert compiled.graph == numpy_built.graph and hash(compiled.graph) == hash(numpy_built.graph)
        assert compiled.graph.provenance == numpy_built.graph.provenance
        for name in ("tails", "heads", "out_ptr", "out_heads", "in_ptr", "in_tails", "_keys"):
            assert getattr(compiled.graph, name).tolist() == getattr(numpy_built.graph, name).tolist(), name
