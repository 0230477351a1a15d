from __future__ import annotations

import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

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
from netctrl import _kernel
from netctrl.cli import main
from netctrl.generators import BaParams, gen_directed_ba, gen_directed_er
from netctrl.graph import degrees
from netctrl.matching import _completing_pass, _scan_order
from netctrl.mds import NodeOrder, drivers, iter_samples

from corpus import matching_of
from oracles import brute_force_max_matching_size, enumerate_maximum_matchings
from naive import (
    NaiveState,
    naive_matching,
    naive_max_matching_pairs,
    naive_preferential_pairs,
    naive_seed_states,
)


def intern_order(graph):
    return NodeOrder(range(graph.node_count))


def empty_matching(n):
    """The matching of ``n`` nodes with no pair, a sampling state's start."""
    return Matching(np.full(n, -1))


def admit_prefix(graph, order, m):
    """A state with the first ``m`` nodes of ``order`` admitted one at a
    time, checked pair for pair against the naive reference."""
    state = MatchingState(graph, order)
    naive = NaiveState(graph, order)
    for node in order.permutation[:m]:
        state.extend_with_node()
        naive.extend_with_node(node)
    assert set(state.matching.pairs()) == naive.pairs()
    return state


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
    return g, NodeOrder(perm)


class TestAugmentFrom:
    """The search from one root: the out-role of a node being admitted."""

    def test_single_edge(self):
        g = DirectedGraph(["a", "b"], [(0, 1)])
        order = NodeOrder([1, 0])
        state = admit_prefix(g, order, 1)
        assert state.size == 0
        state.extend_with_node()
        assert dict(state.matching.pairs()) == {0: 1}

    def test_leaf_with_no_out_edges(self, star):
        state = admit_prefix(star, intern_order(star), 2)
        assert set(state.matching.pairs()) == {(0, 1)}
        for _ in range(2):
            state.extend_with_node()
        assert set(state.matching.pairs()) == {(0, 1)}
        assert set(state.matching.pairs()) == naive_preferential_pairs(star, intern_order(star), 4)

    def test_alternating_flip_on_path(self, path3):
        order = NodeOrder([1, 2, 0])
        state = admit_prefix(path3, order, 2)
        assert set(state.matching.pairs()) == {(1, 2)}
        state.extend_with_node()
        assert set(state.matching.pairs()) == {(0, 1), (1, 2)}
        assert set(state.matching.pairs()) == naive_preferential_pairs(path3, order, 3)
        assert state.matching.size == brute_force_max_matching_size(path3)


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
        order = NodeOrder([2, 1, 0])
        assert max_matching(two_matchings, order) == max_matching(two_matchings, order)


class TestVerifyMaximum:
    def test_perfect_is_maximum(self, cycle3):
        m = matching_of(cycle3, [(0, 1), (1, 2), (2, 0)])
        assert verify_maximum(cycle3, m) is True

    def test_path_with_one_pair_is_not_maximum(self, path3):
        m = matching_of(path3, [(0, 1)])
        assert verify_maximum(path3, m) is False

    def test_edgeless_empty_is_maximum(self):
        g = DirectedGraph(["a", "b"], [])
        assert verify_maximum(g, Matching([-1, -1])) is True

    def test_non_edge_pair_rejected(self, path3):
        bogus = Matching([-1, -1, 1])  # pair (2, 1) is not an edge
        with pytest.raises(ValidationError, match=r"\(2, 1\) is not an edge"):
            verify_maximum(path3, bogus)
        # a library caller's matching meets its graph in drivers()
        with pytest.raises(ValidationError, match=r"\(2, 1\) is not an edge"):
            drivers(path3, bogus, intern_order(path3))

    def test_injectivity_breach_rejected(self):
        with pytest.raises(ValidationError):
            Matching([1, 1, -1, -1])  # two tails on head 1

    def test_inconsistent_inverse_rejected(self, path3, monkeypatch):
        # a completing pass that leaves head 0 reading matched while no
        # tail holds it, and says nothing: the state's snapshot compares
        # its inverse with the one derived from head_by_tail
        class StrayCore:
            def sample(self, work):
                work.mt[0] = 0
                return 0

        monkeypatch.setattr(_kernel, "_kernel", StrayCore())
        with pytest.raises(ValidationError, match="not the inverse"):
            max_matching(path3, intern_order(path3))
        assert main(["analyze", "--gen", "er:n=5,l=4"]) == 4

    def test_inverse_breach_in_a_python_pass_rejected(self, path3, monkeypatch):
        # a Python search that leaves head 0 reading matched while no tail
        # holds it: the pass reads its free in-roles off the checked
        # snapshot, so complete() itself raises
        def stray_augment(state, roots, first_only=False):
            state._mh, state._mt = state._mh.tolist(), state._mt.tolist()
            state._mt[0] = 0
            return -1

        monkeypatch.setattr(_kernel, "_kernel", None)
        monkeypatch.setattr(MatchingState, "_augment", stray_augment)
        state = MatchingState(path3, intern_order(path3))
        with pytest.raises(ValidationError, match="not the inverse"):
            state.complete()

    def test_inverse_breach_in_a_sample_rejected(self, path3, monkeypatch, capsys):
        # the sampler takes no snapshot: the pass's own check reports the
        # breach, and the state raises
        class BreachingCore:
            seed_states = staticmethod(naive_seed_states)

            def sample(self, work):
                return _kernel.BREACH

        monkeypatch.setattr(_kernel, "_kernel", BreachingCore())
        with pytest.raises(ValidationError, match="not the inverse"):
            list(iter_samples(path3, 1, seed=0))
        assert main(["sample", "--gen", "er:n=20,l=30", "--samples", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("netctrl: validation error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_compiled_check_catches_a_breach(self, compiled_kernel, path3):
        # head 1 reads free while tail 0 holds it: the pass runs, then its
        # check refuses the matching
        work = workspace(path3, np.arange(path3.edge_count), np.arange(3))
        work.mh[:] = [1, -1, -1]
        assert compiled_kernel.sample(work) == _kernel.BREACH

    def test_out_of_range_head_rejected(self):
        for heads in ([5, -1], [2, -1], [-2, -1]):
            with pytest.raises(ValidationError, match="out of range"):
                Matching(heads)

    def test_size_mismatch_rejected(self, star):
        with pytest.raises(ValidationError, match="covers 2 nodes, graph has 4"):
            verify_maximum(star, Matching([-1, -1]))

    def test_leaves_the_matching_as_it_was(self, path3):
        # the compiled pass writes through raw pointers, which a read-only
        # flag does not stop: the check must complete a copy
        m = matching_of(path3, [(0, 1)])
        assert verify_maximum(path3, m) is False
        assert list(m.pairs()) == [(0, 1)]
        assert m.tail_by_head.tolist() == [-1, 0, -1]


class TestMatchingSnapshot:
    def test_arrays_are_read_only_int64(self, path3):
        m = max_matching(path3, intern_order(path3))
        for array in (m.head_by_tail, m.tail_by_head):
            assert array.dtype == np.int64
            with pytest.raises(ValueError):
                array[0] = 2
        assert m.head_by_tail.tolist() == [1, 2, -1]
        assert m.tail_by_head.tolist() == [-1, 0, 1]

    def test_snapshot_does_not_follow_its_source(self):
        heads = np.array([1, -1])
        m = Matching(heads)
        heads[1] = 0
        assert m.head_by_tail.tolist() == [1, -1]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s._mt.__setitem__(1, -1),  # a matched head reads free
            lambda s: s._mt.__setitem__(0, 2),  # a free head reads matched
            lambda s: s._mt.__setitem__(slice(1, 3), [1, 0]),  # heads point at each other's tails
            lambda s: setattr(s, "_size", s._size + 1),
            lambda s: setattr(s, "_size", s._size - 1),
        ],
        ids=["head-freed", "head-claimed", "heads-swapped", "size-high", "size-low"],
    )
    def test_state_snapshot_rejects_a_corrupted_state(self, path3, corrupt):
        state = MatchingState(path3, intern_order(path3))
        state.complete()
        assert set(state.matching.pairs()) == {(0, 1), (1, 2)}
        corrupt(state)
        with pytest.raises(ValidationError):
            state.matching


@pytest.mark.parametrize(
    "build, error, message",
    [
        # a short order passes NodeOrder's check and fails the state's; a
        # repeat or an index out of range fails NodeOrder's, the only
        # permutation check
        (lambda g: MatchingState(g, NodeOrder([0, 1])), UsageError, "covers 2 nodes, graph has 3"),
        (lambda g: MatchingState(g, NodeOrder([0, 0, 1])), UsageError, "exactly once"),
        (lambda g: MatchingState(g, NodeOrder([0, 1, 3])), UsageError, "exactly once"),
        # the check seeds a state with the matching's arrays; built from
        # arrays, so nothing checked (2, 1) against the graph before
        (lambda g: verify_maximum(g, Matching([-1, -1, 1])), ValidationError, "not an edge"),
    ],
    ids=["order-short", "order-repeat", "order-out-of-range", "non-edge-pair"],
)
def test_state_checks_its_own_inputs(path3, build, error, message):
    with pytest.raises(error, match=message):
        build(path3)


def test_constructor_takes_the_graph_and_the_order_only():
    assert list(inspect.signature(MatchingState).parameters) == ["graph", "order"]
    assert list(inspect.signature(MatchingState.extend_with_node).parameters) == ["self"]
    assert list(inspect.signature(Matching).parameters) == ["head_by_tail"]
    assert list(inspect.signature(verify_maximum).parameters) == ["graph", "matching"]
    assert not hasattr(NodeOrder, "explicit")


@st.composite
def matching_inputs(draw):
    # head_by_tail as a partial injection, free tails mostly -1 and at times
    # below it, or as arbitrary entries (repeats, heads out of range,
    # negatives other than -1); every entry outside -1..n-1 must raise
    n = draw(st.integers(min_value=0, max_value=6))
    entries = st.integers(min_value=-3, max_value=n + 1)
    free = st.sampled_from([-1, -1, -1, -2, -3])
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        return [v if draw(st.booleans()) else draw(free) for v in perm]
    return draw(st.lists(entries, min_size=n, max_size=n))


def assert_same_matching(m: Matching, expected) -> None:
    heads, tails = expected
    assert m.head_by_tail.tolist() == list(heads)
    assert m.tail_by_head.tolist() == list(tails)
    assert list(m.pairs()) == [(u, v) for u, v in enumerate(heads) if v >= 0]
    assert m.size == sum(1 for v in heads if v >= 0)


@settings(max_examples=300, deadline=None)
@given(matching_inputs())
def test_matching_check_agrees_with_the_loop_reference(heads):
    try:
        expected = naive_matching(heads)
    except ValidationError:
        with pytest.raises(ValidationError):
            Matching(heads)
        return
    assert_same_matching(Matching(heads), expected)


class TestExtendWithNode:
    def test_isolated_node_changes_nothing(self):
        g = DirectedGraph(["a", "b", "c"], [(0, 1)])
        state = admit_prefix(g, intern_order(g), 2)
        assert set(state.matching.pairs()) == {(0, 1)}
        state.extend_with_node()
        assert set(state.matching.pairs()) == {(0, 1)}
        assert set(state.matching.pairs()) == naive_preferential_pairs(g, intern_order(g), 3)

    def test_saturated_pair_resists_new_leaf(self):
        # active {1, 2} fully matched on 1<->2; node 3 only receives 1->3
        g = DirectedGraph(["1", "2", "3"], [(0, 1), (1, 0), (0, 2)])
        order = NodeOrder([0, 1, 2])
        state = admit_prefix(g, order, 2)
        assert set(state.matching.pairs()) == {(0, 1), (1, 0)}
        state.extend_with_node()
        assert state.matching.size == 2 == brute_force_max_matching_size(g)
        assert set(state.matching.pairs()) == {(0, 1), (1, 0)}
        assert set(state.matching.pairs()) == naive_preferential_pairs(g, order, 3)

    def test_rank_preferring_scan_picks_low_rank_head(self):
        # active {3, 2} edgeless; adding 1 under order 3 < 2 < 1 must pick
        # the maximum matching that leaves node 2 unmatched
        g = DirectedGraph(["1", "2", "3"], [(0, 1), (1, 0), (0, 2)])
        order = NodeOrder([2, 1, 0])
        state = admit_prefix(g, order, 2)
        assert state.size == 0
        state.extend_with_node()
        assert set(state.matching.pairs()) == {(1, 0), (0, 2)}
        assert set(state.matching.pairs()) == naive_preferential_pairs(g, order, 3)
        assert state.matching.size == 2
        expected = {frozenset({(0, 1), (1, 0)}), frozenset({(1, 0), (0, 2)})}
        assert set(enumerate_maximum_matchings(g)) == expected

    def test_already_active_rejected(self, path3):
        # a call past the order's last node is refused and changes nothing
        state = admit_prefix(path3, NodeOrder([2, 0, 1]), 3)
        for _ in range(2):
            with pytest.raises(UsageError, match="all 3 nodes are already active"):
                state.extend_with_node()
        assert set(state.matching.pairs()) == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    def test_every_node_is_active_after_complete(self, path3, compiled, request, monkeypatch):
        core = request.getfixturevalue("compiled_kernel") if compiled else None
        monkeypatch.setattr(_kernel, "_kernel", core)
        state = MatchingState(path3, intern_order(path3))
        state.complete()
        with pytest.raises(UsageError, match="already active"):
            state.extend_with_node()
        assert state.size == 2
        # the same after admitting every node one at a time
        state = MatchingState(path3, intern_order(path3))
        for _ in range(path3.node_count):
            state.extend_with_node()
        with pytest.raises(UsageError, match="already active"):
            state.extend_with_node()
        assert state.size == 2

    def test_dead_head_revives_after_a_later_admission(self):
        # s->h, t->h, s->x admitted as s, h, t, x: admitting t searches
        # t -> h -> s and fails, so h is a dead end then; admitting x gives
        # s a free head, and the rescan from t must pass through h again
        g = DirectedGraph(["s", "h", "t", "x"], [(0, 1), (2, 1), (0, 3)])
        state = MatchingState(g, intern_order(g))
        for _ in range(3):
            state.extend_with_node()
        assert set(state.matching.pairs()) == {(0, 1)}
        state.extend_with_node()
        assert set(state.matching.pairs()) == {(0, 3), (2, 1)}

    def test_self_loop_matched_on_admission(self):
        g = DirectedGraph(["v"], [(0, 0)])
        state = MatchingState(g, intern_order(g))
        state.extend_with_node()
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
    # Matching's constructor checked that no tail or head repeats
    tails = np.flatnonzero(m.head_by_tail >= 0)
    assert g.has_edge(tails, m.head_by_tail[tails]).all()
    assert verify_maximum(g, m) is True


@settings(max_examples=60, deadline=None)
@given(digraph_and_order())
def test_extend_keeps_matching_maximum_and_matched_heads_monotone(pair):
    g, order = pair
    state = MatchingState(g, order)
    active: set[int] = set()
    matched_heads: set[int] = set()
    for node in order.permutation:
        state.extend_with_node()
        active.add(node)
        now = {v for _, v in state.matching.pairs()}
        assert matched_heads <= now
        matched_heads = now
        # maximum on the active set: on the subgraph the active nodes induce
        induced = DirectedGraph(g.labels, [(u, v) for u, v in g.edges if u in active and v in active])
        assert verify_maximum(induced, state.matching) is True
        assert state.size == brute_force_max_matching_size(g, active=active)


@st.composite
def partial_matchings(draw, max_n: int = 7):
    # a small digraph and a matching of it: edges taken in a random order,
    # each kept or not while its tail and its head are free
    g = draw(digraphs(max_n=max_n))
    pairs, tails, heads = [], set(), set()
    for u, v in draw(st.permutations(list(g.edges))):
        if u not in tails and v not in heads and draw(st.booleans()):
            pairs.append((u, v))
            tails.add(u)
            heads.add(v)
    return g, matching_of(g, pairs)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_verify_maximum_agrees_with_brute_force(compiled, request):
    core = request.getfixturevalue("compiled_kernel") if compiled else None

    @settings(max_examples=300, deadline=None)
    @given(partial_matchings())
    def agrees(case):
        g, m = case
        assert verify_maximum(g, m) == (m.size == brute_force_max_matching_size(g))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", core)
        agrees()


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
    for _ in range(m):
        state.extend_with_node()
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


def stable_scan(g, keys) -> np.ndarray:
    """Each tail's heads in ascending key order, equal keys in slot order:
    the scan order's definition, by numpy's stable sort."""
    tails = np.repeat(np.arange(g.node_count, dtype=np.int64), np.diff(g.out_ptr))
    return g.out_heads[np.argsort(tails << 32 | keys, kind="stable")]


@settings(max_examples=100, deadline=None)
@given(sparse_graph_and_seed())
def test_randomized_complete_agrees_with_naive_reference(case):
    # the sampler's randomization: one permutation, then one key per edge
    # that shuffles each tail's scan segment
    g, seed = case
    n = g.node_count
    ptr, heads = g.out_ptr, g.out_heads
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    keys = rng.integers(0, 1 << 32, size=heads.size, dtype=np.int64)
    scan = stable_scan(g, keys)
    state = MatchingState._sampling(g, perm, keys, empty_matching(n))
    state.complete()
    per_tail = [scan[ptr[u]:ptr[u + 1]] for u in range(n)]
    assert set(state.matching.pairs()) == naive_max_matching_pairs(g, perm, per_tail)


def completed_both_ways(kernel, g, perm, keys, admitted=0):
    """``(head_by_tail, tail_by_head, size)`` after ``complete()``, from the
    compiled kernel and from the Python core, after admitting the first
    ``admitted`` nodes of ``perm`` one at a time."""
    results = []
    for core in (kernel, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "_kernel", core)
            state = MatchingState._sampling(g, perm, keys, empty_matching(g.node_count))
            for _ in range(admitted):
                state.extend_with_node()
            state.complete()
            m = state.matching
            results.append((m.head_by_tail.tolist(), m.tail_by_head.tolist(), state.size))
    return results


def shuffled_keys(g, rng) -> np.ndarray:
    """Scan keys that order every tail's heads at random, with no ties."""
    return rng.permutation(g.edge_count).astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=10), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_compiled_completion_agrees_with_the_python_core(compiled_kernel, g, seed, data):
    # small digraphs, self-loops included, under a random order and random
    # within-segment scans, some with nodes admitted one at a time first
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.node_count)
    m = data.draw(st.integers(min_value=0, max_value=g.node_count))
    compiled, python = completed_both_ways(
        compiled_kernel, g, perm, shuffled_keys(g, rng), m
    )
    assert compiled == python


@settings(max_examples=40, deadline=None)
@given(sparse_graph_and_seed(), st.integers(min_value=0, max_value=2))
def test_compiled_completion_agrees_on_deep_alternating_paths(compiled_kernel, case, admitted):
    # ER and BA graphs with up to 300 nodes, where searches run deep
    g, seed = case
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.node_count)
    compiled, python = completed_both_ways(
        compiled_kernel, g, perm, shuffled_keys(g, rng), admitted
    )
    assert compiled == python


def workspace(g, keys, order):
    """A workspace holding ``keys``, ``order`` and an empty matching."""
    work = _kernel.Workspace(g)
    work.keys[:] = keys
    work.order[:] = order
    work.mh[:] = work.mt[:] = -1
    return work


def test_compiled_scan_order_is_numpys_at_every_slice_length(compiled_kernel):
    # one tail per slice length around the tiers of the sort of
    # key << 32 | offset words: insertion up to 64 slots, heapsort from
    # 65 (hubs of 2000 and 70,000, whose offsets need more than 16 bits)
    lengths = [0, 1, 2, 3, 8, 9, 63, 64, 65, 2000, 70_000]
    n = max(lengths) + 1
    g = DirectedGraph([str(i) for i in range(n)], [(t, v) for t, d in enumerate(lengths) for v in range(d)])
    keys = np.random.default_rng(5).integers(0, 1 << 32, size=g.edge_count, dtype=np.int64)
    work = workspace(g, keys, np.arange(n))
    size = compiled_kernel.sample(work)
    assert size == len(lengths) - 1  # every tail with an edge is matched
    assert work.scan.tolist() == stable_scan(g, keys).tolist()
    assert work.free_heads[:n - size].tolist() == np.flatnonzero(work.mt < 0).tolist()


def test_states_taking_turns_with_one_workspace_keep_their_own_matchings(compiled_kernel):
    # the sampler completes every sample on one workspace: a finished
    # state's matching and free in-roles must not follow the next sample's
    g = gen_directed_er(60, 120, seed=3)
    work = _kernel.Workspace(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", compiled_kernel)
        states = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            state = MatchingState._sampling(
                g, rng.permutation(g.node_count), shuffled_keys(g, rng), empty_matching(g.node_count), work
            )
            free, _ = state.complete()
            states.append((state, state.matching, free, free.copy()))
    for state, matching, free, copied in states:
        assert state.matching == matching
        assert free.tolist() == copied.tolist()
        assert free.tolist() == np.flatnonzero(matching.tail_by_head < 0).tolist()


def free_in_roles(g, matching):
    """``complete()``'s result read off a matching, as lists: the in-roles
    it leaves free in ascending order, and the sum of their total degrees."""
    free = np.flatnonzero(matching.tail_by_head < 0)
    return free.tolist(), int(degrees(g).total_degree[free].sum())


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_complete_returns_the_free_in_roles_and_their_degree_sum(compiled, request):
    # a sampling state, a public state after some admissions and the Berge
    # pass each return what their own snapshot leaves free
    core = request.getfixturevalue("compiled_kernel") if compiled else None

    @settings(max_examples=100, deadline=None)
    @given(digraphs(max_n=10), st.integers(min_value=0, max_value=2**32 - 1), st.data())
    def agrees(g, seed, data):
        n = g.node_count
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        state = MatchingState._sampling(g, perm, shuffled_keys(g, rng), empty_matching(n))
        free, degree_sum = state.complete()
        assert (free.tolist(), degree_sum) == free_in_roles(g, state.matching)

        state = MatchingState(g, NodeOrder(perm))
        for _ in range(data.draw(st.integers(min_value=0, max_value=n - 1))):
            state.extend_with_node()
        free, degree_sum = state.complete()
        maximum = state.matching
        assert (free.tolist(), degree_sum) == free_in_roles(g, maximum)

        # from a maximum matching the pass adds no pair; from the empty one
        # it adds a maximum matching's worth
        added, (free, degree_sum) = _completing_pass(g, maximum)
        assert added == 0
        assert (free.tolist(), degree_sum) == free_in_roles(g, maximum)
        added, (free, degree_sum) = _completing_pass(g, empty_matching(n))
        assert added == maximum.size
        assert free.size == n - added
        assert np.all(np.diff(free) > 0)
        assert degree_sum == int(degrees(g).total_degree[free].sum())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", core)
        agrees()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_the_berge_pass_leaves_the_callers_matching_as_it_was(compiled, request):
    # the pass starts from the caller's read-only arrays; the compiled pass
    # writes its workspace and the Python pass its own lists, never them
    core = request.getfixturevalue("compiled_kernel") if compiled else None
    g = gen_directed_er(60, 120, seed=3)
    order = NodeOrder.random(g, 1)
    maximum = max_matching(g, order)
    heads = maximum.head_by_tail.copy()
    heads[np.flatnonzero(heads >= 0)[::2]] = -1  # every other pair dropped
    partial = Matching(heads)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", core)
        for m in (maximum, partial):
            before = m.head_by_tail.copy(), m.tail_by_head.copy()
            assert verify_maximum(g, m) is (m is maximum)
            if m is maximum:
                drivers(g, m, order)
            for array, copy in zip((m.head_by_tail, m.tail_by_head), before):
                assert array.tolist() == copy.tolist()
                assert not array.flags.writeable


def test_a_new_state_holds_the_empty_matching(two_matchings):
    state = MatchingState(two_matchings, intern_order(two_matchings))
    assert state.matching == empty_matching(3)
    assert state.size == 0


def tied_hub(leaves):
    """A hub with ``leaves`` out- and in-neighbors, scan keys in 0..2 that
    tie in its slice, and a node order."""
    g = DirectedGraph(
        [str(i) for i in range(leaves + 1)],
        [(0, v) for v in range(1, leaves + 1)] + [(v, 0) for v in range(1, leaves + 1)],
    )
    keys = np.random.default_rng(leaves).integers(0, 3, size=g.edge_count, dtype=np.int64)
    perm = np.random.default_rng(leaves + 1).permutation(g.node_count)
    return g, keys, perm


def tied_outcome(leaves):
    """``_scan_order`` of the tied hub and the Python core's matching, as lists."""
    g, keys, perm = tied_hub(leaves)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", None)
        state = MatchingState._sampling(g, perm, keys, empty_matching(g.node_count))
        state.complete()
    return [_scan_order(g, keys).tolist(), state.matching.head_by_tail.tolist()]


@pytest.mark.parametrize("leaves", [5, 40, 65, 2000])
def test_tied_keys_fall_in_slot_order(compiled_kernel, leaves):
    # keys that tie inside the hub's slice, sorted by each tier of the
    # compiled sort (insertion up to 64 slots, heapsort from 65): the
    # offset in the low word keeps equal keys in slot order, and both
    # cores give the same matching
    g, keys, perm = tied_hub(leaves)
    work = workspace(g, keys, perm)
    assert compiled_kernel.sample(work) >= 0
    assert work.scan.tolist() == stable_scan(g, keys).tolist()
    compiled, python = completed_both_ways(compiled_kernel, g, perm, keys)
    assert compiled == python


def test_tie_order_does_not_follow_numpys_cpu_dispatch():
    # numpy's default sort orders equal keys by the SIMD path it picks at
    # run time. A child interpreter with every dispatched CPU feature
    # disabled sorts on numpy's baseline path, and must find the same scan
    # order and matching as this process. On a CPU where numpy finds no
    # dispatched feature both take the baseline path, and this passes
    # trivially.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__

    tests = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    script = "import json, test_matching; print(json.dumps([test_matching.tied_outcome(n) for n in (5, 40, 2000)]))"
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(child.stdout) == [tied_outcome(n) for n in (5, 40, 2000)]
