from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    DirectedGraph,
    Matching,
    MatchingState,
    UsageError,
    ValidationError,
    max_matching,
    verify_maximum,
)
from netctrl.generators import BaParams, gen_directed_ba, gen_directed_er
from netctrl.graph import out_csr
from netctrl.mds import NodeOrder

from oracles import brute_force_max_matching_size, enumerate_maximum_matchings
from naive import naive_max_matching_pairs, naive_preferential_pairs


def intern_order(graph):
    return NodeOrder.explicit(range(graph.node_count))


@st.composite
def digraphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 16)))
    return DirectedGraph([str(i) for i in range(n)], edges)


@st.composite
def digraph_and_order(draw, max_n: int = 8):
    g = draw(digraphs(max_n=max_n))
    perm = list(range(g.node_count))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    rng.shuffle(perm)
    return g, NodeOrder.explicit(perm)


class TestAugmentFrom:
    def test_single_edge(self):
        g = DirectedGraph(["a", "b"], [(0, 1)])
        state = MatchingState(g, intern_order(g), active=(0, 1))
        assert state.augment_from(0) is True
        assert dict(state.matching.pairs()) == {0: 1}

    def test_leaf_with_no_out_edges(self, star):
        state = MatchingState(star, intern_order(star), active=(0, 1, 2, 3), matching=[(0, 1)])
        for leaf in (1, 2, 3):
            assert state.augment_from(leaf) is False
        assert state.matching.size == 1

    def test_alternating_flip_on_path(self, path3):
        state = MatchingState(path3, intern_order(path3), active=(0, 1, 2), matching=[(1, 2)])
        assert state.augment_from(0) is True
        assert set(state.matching.pairs()) == {(0, 1), (1, 2)}
        assert state.matching.size == brute_force_max_matching_size(path3)

    def test_matched_tail_rejected(self):
        g = DirectedGraph(["a", "b"], [(0, 1)])
        state = MatchingState(g, intern_order(g), active=(0, 1), matching=[(0, 1)])
        with pytest.raises(UsageError):
            state.augment_from(0)

    def test_inactive_tail_rejected(self):
        g = DirectedGraph(["a", "b"], [(0, 1)])
        state = MatchingState(g, intern_order(g), active=(0,))
        with pytest.raises(UsageError):
            state.augment_from(1)


class TestMaxMatching:
    def test_cycle_has_perfect_matching(self, cycle3):
        assert max_matching(cycle3, intern_order(cycle3)).size == 3

    def test_star_matches_once(self, star):
        m = max_matching(star, intern_order(star))
        assert m.size == 1
        assert m.size == brute_force_max_matching_size(star)

    def test_path_matches_twice(self, path3):
        m = max_matching(path3, intern_order(path3))
        assert m.size == 2
        assert m.size == brute_force_max_matching_size(path3)

    def test_deterministic_given_order(self, two_matchings):
        order = NodeOrder.explicit([2, 1, 0])
        assert max_matching(two_matchings, order) == max_matching(two_matchings, order)


class TestVerifyMaximum:
    def test_perfect_is_maximum(self, cycle3):
        m = Matching.from_pairs(cycle3, [(0, 1), (1, 2), (2, 0)])
        assert verify_maximum(cycle3, m) is True

    def test_path_with_one_pair_is_not_maximum(self, path3):
        m = Matching.from_pairs(path3, [(0, 1)])
        assert verify_maximum(path3, m) is False

    def test_edgeless_empty_is_maximum(self):
        g = DirectedGraph(["a", "b"], [])
        assert verify_maximum(g, Matching.empty(2)) is True

    def test_non_edge_pair_rejected(self, path3):
        with pytest.raises(ValidationError):
            Matching.from_pairs(path3, [(2, 1)])
        bogus = Matching([-1, -1, 1])  # pair (2, 1) is not an edge
        with pytest.raises(ValidationError):
            verify_maximum(path3, bogus)

    def test_injectivity_breach_rejected(self):
        with pytest.raises(ValidationError):
            Matching([1, 1, -1, -1])  # two tails on head 1

    def test_inconsistent_inverse_rejected(self):
        with pytest.raises(ValidationError):
            Matching([1, -1], [-1, -1])  # claims head 1 is free

    def test_out_of_range_head_rejected(self):
        with pytest.raises(ValidationError):
            Matching([5, -1])

    def test_size_mismatch_rejected(self, star):
        with pytest.raises(ValidationError):
            verify_maximum(star, Matching([-1, -1]))

    def test_respects_active_subset(self, path3):
        # on the subgraph {v1, v2} the single pair (v1, v2) is maximum
        m = Matching.from_pairs(path3, [(0, 1)])
        assert verify_maximum(path3, m, active=(0, 1)) is True
        assert verify_maximum(path3, m) is False

    def test_matched_node_outside_active_rejected(self, path3):
        m = Matching.from_pairs(path3, [(1, 2)])
        with pytest.raises(ValidationError):
            verify_maximum(path3, m, active=(0, 1))


class TestExtendWithNode:
    def test_isolated_node_changes_nothing(self):
        g = DirectedGraph(["a", "b", "c"], [(0, 1)])
        state = MatchingState(g, intern_order(g), active=(0, 1), matching=[(0, 1)])
        state.extend_with_node(2)
        assert state.matching.size == 1

    def test_saturated_pair_resists_new_leaf(self):
        # active {1, 2} fully matched on 1<->2; node 3 only receives 1->3
        g = DirectedGraph(["1", "2", "3"], [(0, 1), (1, 0), (0, 2)])
        order = NodeOrder.explicit([0, 1, 2])
        state = MatchingState(g, order, active=(0, 1), matching=[(0, 1), (1, 0)])
        state.extend_with_node(2)
        assert state.matching.size == 2 == brute_force_max_matching_size(g)
        assert set(state.matching.pairs()) == {(0, 1), (1, 0)}

    def test_rank_preferring_scan_picks_low_rank_head(self):
        # active {3, 2} edgeless; adding 1 under order 3 < 2 < 1 must pick
        # the maximum matching that leaves node 2 unmatched
        g = DirectedGraph(["1", "2", "3"], [(0, 1), (1, 0), (0, 2)])
        order = NodeOrder.explicit([2, 1, 0])
        state = MatchingState(g, order, active=(2, 1))
        state.extend_with_node(0)
        assert set(state.matching.pairs()) == {(1, 0), (0, 2)}
        assert state.matching.size == 2
        expected = {frozenset({(0, 1), (1, 0)}), frozenset({(1, 0), (0, 2)})}
        assert set(enumerate_maximum_matchings(g)) == expected

    def test_already_active_rejected(self, path3):
        state = MatchingState(path3, intern_order(path3), active=(0,))
        with pytest.raises(UsageError):
            state.extend_with_node(0)

    def test_dead_head_revives_after_a_later_admission(self):
        # s->h, t->h, s->x admitted as s, h, t, x: admitting t searches
        # t -> h -> s and fails, so h is a dead end then; admitting x gives
        # s a free head, and the rescan from t must pass through h again
        g = DirectedGraph(["s", "h", "t", "x"], [(0, 1), (2, 1), (0, 3)])
        state = MatchingState(g, intern_order(g))
        for node in range(3):
            state.extend_with_node(node)
        assert set(state.matching.pairs()) == {(0, 1)}
        state.extend_with_node(3)
        assert set(state.matching.pairs()) == {(0, 3), (2, 1)}

    def test_self_loop_matched_on_admission(self):
        g = DirectedGraph(["v"], [(0, 0)])
        state = MatchingState(g, intern_order(g))
        state.extend_with_node(0)
        assert set(state.matching.pairs()) == {(0, 0)}


@settings(max_examples=80, deadline=None)
@given(digraph_and_order())
def test_size_is_order_independent_and_brute_force_exact(pair):
    g, order = pair
    size = max_matching(g, order).size
    assert size == max_matching(g, intern_order(g)).size
    assert size == brute_force_max_matching_size(g)


@settings(max_examples=60, deadline=None)
@given(digraph_and_order())
def test_matching_is_valid_after_full_run(pair):
    g, order = pair
    m = max_matching(g, order)
    Matching.from_pairs(g, m.pairs())  # validates edges and both injectivities
    assert verify_maximum(g, m) is True


@settings(max_examples=60, deadline=None)
@given(digraph_and_order())
def test_extend_keeps_matching_maximum_and_matched_heads_monotone(pair):
    g, order = pair
    state = MatchingState(g, order)
    active: list[int] = []
    matched_heads: set[int] = set()
    for node in order.permutation:
        state.extend_with_node(node)
        active.append(node)
        now = {v for _, v in state.matching.pairs()}
        assert matched_heads <= now
        matched_heads = now
        assert verify_maximum(g, state.matching, active=active) is True
        assert state.size == brute_force_max_matching_size(g, active=active)


def test_brute_force_and_scipy_agree_on_the_corpus(fixture_corpus):
    # three independent routes to the matching number: exhaustive search,
    # scipy's Hopcroft-Karp, and the deterministic engine under test
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    for g in fixture_corpus:
        expected = brute_force_max_matching_size(g)
        if g.edge_count == 0:
            scipy_size = 0
        else:
            rows = [u for u, _ in g.edges]
            cols = [v for _, v in g.edges]
            m = csr_matrix(
                (np.ones(len(rows)), (rows, cols)), shape=(g.node_count, g.node_count)
            )
            scipy_size = int((maximum_bipartite_matching(m, perm_type="column") >= 0).sum())
        assert scipy_size == expected
        assert max_matching(g, intern_order(g)).size == expected


@settings(max_examples=60, deadline=None)
@given(digraph_and_order())
def test_full_run_agrees_with_naive_reference(pair):
    g, order = pair
    assert set(max_matching(g, order).pairs()) == naive_max_matching_pairs(g, order)


@settings(max_examples=60, deadline=None)
@given(digraph_and_order(), st.integers(min_value=0, max_value=8))
def test_incremental_agrees_with_naive_reference(pair, m_raw):
    g, order = pair
    m = min(m_raw, g.node_count)
    state = MatchingState(g, order)
    for node in order.permutation[:m]:
        state.extend_with_node(node)
    if m < g.node_count:
        state.complete()
    assert set(state.matching.pairs()) == naive_preferential_pairs(g, order, m)


@st.composite
def sparse_graph_and_seed(draw):
    # sparse ER/BA graphs leave many tails free, so many searches fail and
    # the completing pass prunes heads behind them; from an average degree
    # of about 4 the searches also grow deep enough to pass through the
    # failed subtrees of successful searches
    n = draw(st.integers(min_value=4, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if draw(st.booleans()):
        edges = draw(st.integers(min_value=n // 2, max_value=min(4 * n, n * (n - 1))))
        g = gen_directed_er(n, edges, seed=seed)
    else:
        m = draw(st.sampled_from([1, 2, 3]))
        g = gen_directed_ba(BaParams(n=n, m_attach=m, p=draw(st.floats(0.0, 1.0)), seed=seed))
    return g, draw(st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(sparse_graph_and_seed())
def test_randomized_complete_agrees_with_naive_reference(case):
    # the sampler's randomization: one permutation, then one key per edge
    # that shuffles each tail's scan segment
    g, seed = case
    n = g.node_count
    ptr, heads = out_csr(g)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    keys = rng.integers(0, 1 << 32, size=heads.size, dtype=np.int64)
    segment_key = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr)) << 32
    scan = heads[np.argsort(segment_key | keys)]
    state = MatchingState(g, perm, scan_heads=scan.tolist())
    state.complete()
    per_tail = [scan[ptr[u]:ptr[u + 1]] for u in range(n)]
    assert set(state.matching.pairs()) == naive_max_matching_pairs(g, perm, per_tail)
