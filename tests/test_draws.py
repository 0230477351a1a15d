"""The compiled core's draws against numpy's, and the samplers' fallback.

Sample i of a seed draws ``permutation(n)`` and then
``integers(0, 2**32, size=L, dtype=np.int64)`` from
``default_rng(spawn_seed(seed, i))``. The compiled sample call makes the
same draws itself, and a core whose draws differ from numpy's leaves the
samplers on numpy's draws.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import _kernel, gen_directed_er, iter_samples, read_edge_list, sample_mds
from netctrl.cli import _build_graph, _build_parser, _config_from_args, main
from netctrl.matching import _scan_order
from netctrl.seeding import compiled_draws, numpy_draws

from naive import naive_draw
from test_golden import CASES, EDGE_LISTS, GOLDEN_DIR

# indices whose spawn key is one word, two words, and the last index the
# compiled core draws
EDGE_INDICES = (0, 2**32 - 1, 2**32, 2**64 - 1)

# node counts 0, 1, 2, and powers of two and one past them: a permutation
# of 2**k + 1 nodes rejects about half the draws of its first step
node_counts = st.one_of(
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=1, max_value=12).map(lambda k: 2**k),
    st.integers(min_value=1, max_value=12).map(lambda k: 2**k + 1),
)
indices = st.one_of(st.sampled_from(EDGE_INDICES), st.integers(min_value=0, max_value=2**64 - 1))


def numpy_lists(seed: int, index: int, n: int, edges: int) -> list:
    return [draws.tolist() for draws in numpy_draws(seed, index, n, edges)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**256),
    indices,
    node_counts,
    st.integers(min_value=0, max_value=41),  # 0, odd and even key counts
)
def test_compiled_draws_are_numpys(compiled_kernel, seed, index, n, edges):
    order, keys = np.empty(n, dtype=np.int64), np.empty(edges, dtype=np.int64)
    compiled_kernel.draw(seed, index, order, keys)
    assert [order.tolist(), keys.tolist()] == numpy_lists(seed, index, n, edges)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**256),
    indices,
    node_counts.filter(lambda n: 2 <= n <= 1025),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_the_sample_call_draws_as_numpy_and_completes_on_its_draws(compiled_kernel, seed, index, n, graph_seed, data):
    # the call's own draws are numpy's, and the call that draws gives the
    # scan and the matching of a call handed numpy's draws
    edges = data.draw(st.integers(min_value=0, max_value=min(3 * n, n * (n - 1))))
    g = gen_directed_er(n, edges, seed=graph_seed)
    drawn = _kernel.Workspace(g, seed)
    drawn.mh[:] = drawn.mt[:] = -1
    size = compiled_kernel.sample(drawn, index)
    order, keys = numpy_lists(seed, index, n, edges)
    assert [drawn.order.tolist(), drawn.keys.tolist()] == [order, keys]
    given_ = _kernel.Workspace(g)
    given_.order[:], given_.keys[:] = order, keys
    given_.mh[:] = given_.mt[:] = -1
    assert compiled_kernel.sample(given_) == size
    assert drawn.scan.tolist() == given_.scan.tolist() == g.out_heads[_scan_order(g, np.array(keys, dtype=np.int64))].tolist()
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


class CountingCore:
    """The compiled core, counting its draws and its sample calls; with
    ``skew``, its draws swap the first two nodes of every order, and a
    sample call that would draw for itself fails."""

    def __init__(self, kernel, skew: bool = False):
        self.kernel = kernel
        self.skew = skew
        self.calls = Counter()

    def draw(self, seed, index, order, keys, spawn=True):
        self.calls["draw"] += 1
        self.kernel.draw(seed, index, order, keys, spawn)
        if self.skew:
            order[:2] = order[1::-1].copy()

    def sample(self, work, index=None):
        self.calls["sample" if index is None else "drawn sample"] += 1
        assert not (self.skew and index is not None), "a core whose draws disagree drew a sample"
        return self.kernel.sample(work, index)

    def tokenize(self, data):
        return self.kernel.tokenize(data)


@pytest.mark.parametrize("name", ["sample-ba60-dedupe.json", "sweep-r-ba60.csv"])
def test_draws_that_disagree_leave_the_samplers_on_numpys(compiled_kernel, monkeypatch, tmp_path, name):
    # the one check finds the skewed draws, every sample then takes numpy's
    # draws into the compiled pass, and the report is the Python core's
    skewed = CountingCore(compiled_kernel, skew=True)
    reports = []
    for kernel in (skewed, None):
        monkeypatch.setattr(_kernel, "_kernel", kernel)
        out = tmp_path / f"{len(reports)}-{name}"
        assert main(CASES[name] + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == (GOLDEN_DIR / name).read_bytes()
    samples = 40 if name.startswith("sample") else 30
    assert skewed.calls == {"draw": 1, "sample": samples}


def test_draws_are_checked_once_per_core_and_not_to_read_a_graph(compiled_kernel, monkeypatch):
    core = CountingCore(compiled_kernel)
    monkeypatch.setattr(_kernel, "_kernel", core)
    g = read_edge_list(GOLDEN_DIR / "generate-er30.txt")
    assert core.calls == {}
    assert compiled_draws() is core
    sample_mds(g, 5, seed=1)
    sample_mds(g, 5, seed=2)
    assert core.calls == {"draw": 1, "drawn sample": 10}


def test_a_core_that_draws_as_numpy_passes_the_check(monkeypatch):
    # as the stub cores of the other tests do; without a core, none draws
    class NumpyDraws:
        draw = staticmethod(naive_draw)

    stub = NumpyDraws()
    monkeypatch.setattr(_kernel, "_kernel", stub)
    assert compiled_draws() is stub
    monkeypatch.setattr(_kernel, "_kernel", None)
    assert compiled_draws() is None
