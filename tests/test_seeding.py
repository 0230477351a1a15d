"""The samplers' seeding: one seed check, and the compiled core's draws
against the stream's definition, ``seeding.sample_draws``.

Sample i of a seed is defined by the raw outputs of
``PCG64(spawn_seed(seed, i))``; with the compiled core the sampler derives
each sample's PCG64 state and makes its draws in C, so every draw and
every sample must come out the same.
"""

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
    _kernel,
    gen_directed_ba,
    gen_directed_er,
    iter_samples,
    sample_mds,
    sweep_p,
    sweep_r,
)
from netctrl.seeding import check_seed, sample_draws, spawn_seed

from naive import naive_draw

# one to seven uint32 words: 2**128 is the first seed of five words, whose
# fifth is mixed into the pool after the first four
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200 + 3)
# spawn keys of one word and, from 2**32 on, of two
INDICES = (0, 1, 2**32 - 1, 2**32, 2**40)


# graphs of the node and edge counts that a draw is checked at: a
# permutation of 2**k + 1 nodes rejects draws, and an odd one of a power
# of two nodes leaves half a word for the keys, as does an odd key count
GRAPHS = tuple(gen_directed_er(n, edges, seed=0) for n, edges in ((1, 0), (2, 1), (16, 4), (17, 5)))


def compiled_draws_of(kernel, graph, seed: int, index: int) -> list:
    """The order and keys that the compiled sample call draws."""
    work = _kernel.Workspace(graph, seed)
    assert kernel.sample(work, index) >= 0
    return [work.order.tolist(), work.keys.tolist()]


def defined_draws_of(graph, seed: int, index: int) -> list:
    """The stream's order and keys, which are numpy's Generator draws."""
    drawn = [draws.tolist() for draws in sample_draws(seed, index, graph.node_count, graph.edge_count)]
    assert drawn == [draws.tolist() for draws in naive_draw(seed, index, graph.node_count, graph.edge_count)]
    return drawn


@pytest.fixture
def small_graph():
    return gen_directed_ba(BaParams(n=12, m_attach=2, m0=3, p=0.5, seed=2))


class TestCheckSeed:
    @pytest.mark.parametrize("seed", [0, 7, 2**200, True, np.int64(5), np.uint64(2**63), np.int8(3)])
    def test_integers_pass_as_ints(self, seed):
        value = check_seed(seed)
        assert type(value) is int and value == int(seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 2.0, np.float64(1.0), "3", None])
    def test_anything_else_is_a_usage_error(self, seed):
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            check_seed(seed)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("core", ["compiled", "python"])
    def test_samplers_and_sweeps_refuse_a_bad_seed(self, small_graph, seed, core, request, monkeypatch):
        kernel = request.getfixturevalue("compiled_kernel") if core == "compiled" else None
        monkeypatch.setattr(_kernel, "_kernel", kernel)
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            sample_mds(small_graph, 2, seed)
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            iter_samples(small_graph, 2, seed)  # at the call, before any sample is drawn
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            sweep_r(small_graph, [0.5], samples=2, seed=seed)
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            sweep_p([0.5], BaParams(n=12, m_attach=2, m0=3, p=0.5, seed=2), samples=2, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize(
        "make",
        [
            lambda graph, seed: BaParams(n=12, seed=seed),
            lambda graph, seed: ReversalParams(r=0.5, seed=seed),
            lambda graph, seed: gen_directed_er(12, 20, seed=seed),
            lambda graph, seed: NodeOrder.random(graph, seed),
        ],
        ids=["BaParams", "ReversalParams", "gen_directed_er", "NodeOrder.random"],
    )
    def test_generators_and_random_orders_refuse_a_bad_seed(self, small_graph, seed, make):
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            make(small_graph, seed)

    @pytest.mark.parametrize("key", [2.5, "3", -1, None])
    def test_spawn_keys_are_non_negative_integers(self, key):
        # a float would be cut and a string parsed, so that 2.5 and "3"
        # named the children of 2 and 3
        with pytest.raises(UsageError, match="spawn key must be a non-negative integer"):
            spawn_seed(1, key)

    def test_a_numpy_integer_seed_gives_the_ints_stream(self, small_graph):
        assert list(iter_samples(small_graph, 3, np.uint32(9))) == list(iter_samples(small_graph, 3, 9))


class TestCompiledStates:
    """Each sample's PCG64 state, derived in C, read through the draws of its sample call."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_numpys_on_every_seed_and_index(self, compiled_kernel, seed):
        # 2**32 - 1 and 2**32 take one key word and two
        for i in INDICES + (2**64 - 1,):
            for g in GRAPHS:
                assert compiled_draws_of(compiled_kernel, g, seed, i) == defined_draws_of(g, seed, i)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**64 - 1))
    def test_equal_numpys_on_any_seed_and_start(self, compiled_kernel, seed, start):
        g = GRAPHS[-1]
        assert compiled_draws_of(compiled_kernel, g, seed, start) == defined_draws_of(g, seed, start)

    def test_indices_past_uint64_are_refused(self, compiled_kernel, small_graph):
        # ctypes would wrap 2**64 + 3 to sample 3 and -1 to 2**64 - 1
        work = _kernel.Workspace(small_graph, 5)
        assert compiled_kernel.sample(work, 2**64 - 1) >= 0  # the last index
        for index in (2**64 + 3, -1):
            with pytest.raises(ValueError, match="within uint64"):
                compiled_kernel.sample(work, index)


class TestSampleGenerators:
    @pytest.mark.parametrize("start", [0, 2**32 - 7, 2**64 - 3])
    def test_each_generator_draws_as_numpys_own(self, compiled_kernel, small_graph, start):
        # the stream and the compiled sample call draw each index's order
        # and keys as numpy's own generator does; from 2**64 - 3 the run
        # passes uint64, where the compiled core draws no sample
        work = _kernel.Workspace(small_graph, 11)
        n, edges = small_graph.node_count, small_graph.edge_count
        for i in range(start, start + 9):
            order, keys = sample_draws(11, i, n, edges)
            assert [order.tolist(), keys.tolist()] == [draws.tolist() for draws in naive_draw(11, i, n, edges)]
            if i < 2**64:
                work.mh[:] = work.mt[:] = -1
                assert compiled_kernel.sample(work, i) >= 0
                assert [work.order.tolist(), work.keys.tolist()] == [order.tolist(), keys.tolist()]

    def test_both_cores_give_the_same_samples(self, compiled_kernel, monkeypatch, small_graph):
        runs = []
        for kernel in (compiled_kernel, None):
            monkeypatch.setattr(_kernel, "_kernel", kernel)
            runs.append(list(iter_samples(small_graph, 259, seed=5)))
        assert runs[0] == runs[1]
        assert len({s.drivers for s in runs[0]}) > 1  # the samples do differ

    @pytest.mark.parametrize("core", ["compiled", "python"])
    def test_sample_i_alone_equals_sample_i_in_a_run(self, small_graph, core, request, monkeypatch):
        kernel = request.getfixturevalue("compiled_kernel") if core == "compiled" else None
        monkeypatch.setattr(_kernel, "_kernel", kernel)
        run = list(iter_samples(small_graph, 258, seed=5))
        for i in (0, 255, 256, 257):
            (alone,) = iter_samples(small_graph, 1, seed=5, start=i)
            assert alone == run[i]
        assert list(iter_samples(small_graph, 4, seed=5, start=254)) == run[-4:]
        # the last uint64 index alone and as the middle of a run whose last
        # index passes uint64, which sample_draws draws (the core draws the
        # others where there is one)
        (last,) = iter_samples(small_graph, 1, seed=5, start=2**64 - 1)
        assert list(iter_samples(small_graph, 3, seed=5, start=2**64 - 2))[1] == last
        # a run that starts past uint64 draws its own indices
        alone = [next(iter_samples(small_graph, 1, seed=5, start=i)) for i in (2**64 + 3, 2**64 + 4)]
        assert list(iter_samples(small_graph, 2, seed=5, start=2**64 + 3)) == alone
