"""The sample stream's definition, and the compiled core's draws against it.

Sample i of a seed takes the 32-bit halves of the raw outputs of
``PCG64(spawn_seed(seed, i))``, low half first (``seeding.sample_draws``):
a Fisher-Yates pass from the top gives its node order, and the next
halves its scan keys. Those are numpy 2.x's ``permutation(n)`` and
``integers(0, 2**32, size=L, dtype=np.int64)`` of
``default_rng(spawn_seed(seed, i))``, which the committed goldens were
made with. The compiled sample call makes the same draws itself, and the
tests read them off its workspace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import DirectedGraph, _kernel, cli, gen_directed_er, iter_samples, read_edge_list, sample_mds
from netctrl.cli import _build_graph, _build_parser, _config_from_args, main
from netctrl.matching import _scan_order
from netctrl.seeding import sample_draws

from naive import naive_draw
from test_golden import CASES, EDGE_LISTS, GOLDEN_DIR

# indices whose spawn key is one word, two words, the last index the
# compiled core draws and the first one past it
EDGE_INDICES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64)

# node counts 0, 1, 2, and powers of two and one past them: a permutation
# of 2**k + 1 nodes rejects about half the draws of its first step
node_counts = st.one_of(
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=1, max_value=12).map(lambda k: 2**k),
    st.integers(min_value=1, max_value=12).map(lambda k: 2**k + 1),
)
# every index the compiled core draws, and some past them
indices = st.one_of(st.sampled_from(EDGE_INDICES), st.integers(min_value=0, max_value=2**70))


def as_lists(draws) -> list:
    return [array.tolist() for array in draws]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**256),
    indices,
    node_counts,
    st.integers(min_value=0, max_value=41),  # 0, odd and even key counts
)
def test_the_stream_is_numpys_generator_draws(seed, index, n, edges):
    # the definition equals the Generator methods the goldens were made with
    order, keys = sample_draws(seed, index, n, edges)
    assert order.dtype == keys.dtype == np.int64
    assert as_lists((order, keys)) == as_lists(naive_draw(seed, index, n, edges))


# every index the compiled core draws
drawn_indices = st.one_of(st.sampled_from(EDGE_INDICES[:-1]), st.integers(min_value=0, max_value=2**64 - 1))


def drawn_graph(n: int, graph_seed: int, data) -> DirectedGraph:
    """A graph of n nodes and 0 to 41 edges: odd and even key counts."""
    return gen_directed_er(n, data.draw(st.integers(min_value=0, max_value=min(41, n * (n - 1)))), seed=graph_seed)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**256),
    drawn_indices,
    node_counts.filter(lambda n: n >= 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_compiled_draws_are_numpys(compiled_kernel, seed, index, n, graph_seed, data):
    # the order and keys that the sample call writes are the stream's
    g = drawn_graph(n, graph_seed, data)
    work = _kernel.Workspace(g, seed)
    assert compiled_kernel.sample(work, index) >= 0
    assert as_lists((work.order, work.keys)) == as_lists(sample_draws(seed, index, n, g.edge_count))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**256),
    drawn_indices,
    node_counts.filter(lambda n: 2 <= n <= 1025),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_the_sample_call_draws_as_numpy_and_completes_on_its_draws(compiled_kernel, seed, index, n, graph_seed, data):
    # the call that draws gives the scan and the matching of a call handed
    # the stream's draws
    g = drawn_graph(n, graph_seed, data)
    drawn = _kernel.Workspace(g, seed)
    size = compiled_kernel.sample(drawn, index)
    order, keys = sample_draws(seed, index, n, g.edge_count)
    assert as_lists((drawn.order, drawn.keys)) == as_lists((order, keys))
    given_ = _kernel.Workspace(g)
    given_.order[:], given_.keys[:] = order, keys
    given_.mh[:] = given_.mt[:] = -1
    assert compiled_kernel.sample(given_) == size
    assert drawn.scan.tolist() == given_.scan.tolist() == g.out_heads[_scan_order(g, keys)].tolist()
    assert drawn.mh.tolist() == given_.mh.tolist()


def golden_inputs():
    """The graph of every golden report, and the two committed edge lists read back."""
    graphs = {name: _build_graph(_config_from_args(_build_parser(0).parse_args(argv))) for name, argv in CASES.items()}
    graphs.update({f"{name} (read)": read_edge_list(GOLDEN_DIR / name) for name in EDGE_LISTS})
    return graphs


@pytest.mark.parametrize("name", sorted(golden_inputs()))
def test_both_cores_give_the_same_samples_on_every_golden_input(compiled_kernel, monkeypatch, name):
    g = golden_inputs()[name]
    runs = []
    for kernel in (compiled_kernel, None):
        monkeypatch.setattr(_kernel, "_kernel", kernel)
        # a run from 0, and one across the last index the core draws
        runs.append((list(iter_samples(g, 60, seed=3)), list(iter_samples(g, 4, seed=3, start=2**64 - 2))))
    assert runs[0] == runs[1]


class NoDraws:
    """A numpy Generator whose ``permutation`` and ``integers`` raise.
    numpy's Generator is an immutable type, so ``np.random.default_rng``
    hands these out in its place."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def __getattr__(self, name: str):
        if name in ("permutation", "integers"):
            raise AssertionError(f"a sample called Generator.{name}")
        return getattr(self._rng, name)


@pytest.mark.parametrize("core", ["compiled", "python"])
def test_no_sample_calls_a_generator_method(core, request, monkeypatch, tmp_path):
    kernel = request.getfixturevalue("compiled_kernel") if core == "compiled" else None
    monkeypatch.setattr(_kernel, "_kernel", kernel)
    # the graphs first: the generators draw with Generator methods
    graphs = golden_inputs()

    def samples():
        return {
            name: (
                list(iter_samples(g, 20, seed=3)),
                list(iter_samples(g, 4, seed=3, start=2**64 - 2)),
                sample_mds(g, 30, seed=3, dedupe=True),
            )
            for name, g in graphs.items()
        }

    expected = samples()
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws(default_rng(*args, **kwargs)))
    monkeypatch.setattr(np.random, "Generator", NoDraws)
    assert samples() == expected
    # the reports too; reverse_edges, which sweep-r runs, draws with Generator.random
    for name in ("sample-ba60-dedupe.json", "sweep-r-ba60.csv"):
        monkeypatch.setattr(cli, "_build_graph", lambda config, g=graphs[name]: g)
        out = tmp_path / name
        assert main(CASES[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
