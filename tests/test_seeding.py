"""The samplers' seeding: one seed check, and the compiled core's PCG64
states against the ones numpy gives ``default_rng(spawn_seed(seed, i))``.

Sample i of a seed is defined by numpy's seeding; with the compiled core
the sampler computes each sample's state in C and sets it on one
generator, so every state and every sample must come out the same.
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
from netctrl.seeding import STATE_CHUNK, check_seed, sample_generators, spawn_seed

from naive import naive_seed_states

# one to seven uint32 words: 2**128 is the first seed of five words, whose
# fifth is mixed into the pool after the first four
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200 + 3)
# spawn keys of one word and, from 2**32 on, of two
INDICES = (0, 1, 2**32 - 1, 2**32, 2**40)


def compiled_states(kernel, seed: int, start: int, count: int, spawn: bool = True) -> list:
    states = np.empty((count, 4), dtype=np.uint64)
    kernel.seed_states(seed, start, states, spawn)
    return states.tolist()


def numpy_states(seed: int, start: int, count: int, spawn: bool = True) -> list:
    states = np.empty((count, 4), dtype=np.uint64)
    naive_seed_states(seed, start, states, spawn)
    return states.tolist()


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
        with pytest.raises(UsageError, match="spawn key must be a non-negative integer"):
            spawn_seed(1, 0, key)

    def test_a_numpy_integer_seed_gives_the_ints_stream(self, small_graph):
        assert list(iter_samples(small_graph, 3, np.uint32(9))) == list(iter_samples(small_graph, 3, 9))


class TestCompiledStates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_numpys_on_every_seed_and_index(self, compiled_kernel, seed):
        for i in INDICES:
            # two samples each: 2**32 - 1 and 2**32 take one key word and two
            assert compiled_states(compiled_kernel, seed, i, 2) == numpy_states(seed, i, 2)

    def test_the_child_step_alone_on_one_and_two_word_children(self, compiled_kernel):
        # a child seed below 2**32 is one entropy word, which no search over
        # (seed, i) reaches; 2**64 - 1 is the last child
        for child in (0, 1, 12345, 2**31, 2**32 - 2, 2**32, 2**63, 2**64 - 2):
            assert compiled_states(compiled_kernel, 0, child, 2, spawn=False) == numpy_states(0, child, 2, spawn=False)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**64 - 3))
    def test_equal_numpys_on_any_seed_and_start(self, compiled_kernel, seed, start):
        assert compiled_states(compiled_kernel, seed, start, 3) == numpy_states(seed, start, 3)

    def test_indices_past_uint64_are_refused(self, compiled_kernel):
        states = np.empty((2, 4), dtype=np.uint64)
        compiled_kernel.seed_states(5, 2**64 - 2, states)  # the last two indices
        with pytest.raises(ValueError, match="within uint64"):
            compiled_kernel.seed_states(5, 2**64 - 1, states)
        with pytest.raises(ValueError, match="non-negative"):
            compiled_kernel.seed_states(-5, 0, states)


class TestSampleGenerators:
    @pytest.mark.parametrize("start", [0, 2**32 - 7, 2**64 - 3])
    def test_each_generator_draws_as_numpys_own(self, compiled_kernel, monkeypatch, start):
        # across a chunk boundary, and from 2**64 - 3 past uint64, where the
        # stream takes numpy's seeding; an odd number of 32-bit draws leaves
        # half a word buffered, which the next sample's state must drop
        monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
        count = STATE_CHUNK + 5 if start < 2**64 - 3 else 4
        for i, rng in enumerate(sample_generators(11, start, count), start):
            expected = np.random.default_rng(spawn_seed(11, i))
            assert rng.bit_generator.state == expected.bit_generator.state
            draws = rng.integers(0, 1 << 32, size=3, dtype=np.int64), rng.permutation(5)
            assert [d.tolist() for d in draws] == [
                expected.integers(0, 1 << 32, size=3, dtype=np.int64).tolist(),
                expected.permutation(5).tolist(),
            ]

    def test_both_cores_give_the_same_samples(self, compiled_kernel, monkeypatch, small_graph):
        runs = []
        for kernel in (compiled_kernel, None):
            monkeypatch.setattr(_kernel, "_kernel", kernel)
            runs.append(list(iter_samples(small_graph, STATE_CHUNK + 3, seed=5)))
        assert runs[0] == runs[1]
        assert len({s.drivers for s in runs[0]}) > 1  # the samples do differ

    @pytest.mark.parametrize("core", ["compiled", "python"])
    def test_sample_i_alone_equals_sample_i_across_a_chunk_boundary(self, small_graph, core, request, monkeypatch):
        kernel = request.getfixturevalue("compiled_kernel") if core == "compiled" else None
        monkeypatch.setattr(_kernel, "_kernel", kernel)
        run = list(iter_samples(small_graph, STATE_CHUNK + 2, seed=5))
        for i in (0, STATE_CHUNK - 1, STATE_CHUNK, STATE_CHUNK + 1):
            (alone,) = iter_samples(small_graph, 1, seed=5, start=i)
            assert alone == run[i]
        assert list(iter_samples(small_graph, 4, seed=5, start=STATE_CHUNK - 2)) == run[-4:]
        # the last uint64 index alone (compiled where there is a core) and as
        # the middle of a run past uint64 (numpy's seeding either way)
        (last,) = iter_samples(small_graph, 1, seed=5, start=2**64 - 1)
        assert list(iter_samples(small_graph, 3, seed=5, start=2**64 - 2))[1] == last
