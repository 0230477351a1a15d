"""The reference kernel and the kernel-normalized timings built on it."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import run
from reference import Reference, matching_size, reference_graph


def _oracle(adj):
    tails = [u for u, heads in enumerate(adj) for _ in heads]
    heads = [v for out in adj for v in out]
    n = len(adj)
    matrix = csr_matrix((np.ones(len(tails), dtype=np.int8), (tails, heads)), shape=(n, n))
    matrix.sum_duplicates()
    return int(np.count_nonzero(maximum_bipartite_matching(matrix, perm_type="column") >= 0))


def test_kernel_finds_a_maximum_matching():
    # 0 and 1 both want head 0; the search must move 0 to head 1
    assert matching_size([[0, 1], [0], []], [1, 0, 2]) == 2
    for seed in range(5):
        adj = reference_graph(nodes=300, edges=600, seed=seed)
        assert matching_size(adj, list(range(300))) == _oracle(adj)


def test_reference_kernel_is_fixed_and_maximum():
    ref = Reference()
    assert ref.expected == _oracle(ref.adj)
    assert Reference().expected == ref.expected
    assert ref.time(2) > 0


def test_batch_divides_each_command_by_the_kernels_around_it(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)

    def fake_child(args):
        result = args[2]
        with open(result, "w", encoding="utf-8") as fh:
            json.dump({"rc": [0, 0, 0], "warm_wall_s": 9.0, "wall_s": [1.0, 2.0], "kernel_s": [0.1, 0.3, 0.1],
                       "peak_rss_mb": 50.0}, fh)
        for i in range(3):
            (tmp_path / f"report-0-{i}.txt").write_text("report")
        return 0.0, True, ""

    monkeypatch.setattr(run, "run_child", fake_child)
    workload = SimpleNamespace(argv=lambda inp_path, seed, out, inp: ["cmd", "--out", out],
                               check=lambda checker, text, inp: [])
    commands = []
    batch = run.run_batch(0, 1.0, tmp_path, workload, [(None, "in.txt")], 0, 1, None, commands)
    assert batch.peak_rss_mb == 50.0
    assert [c.errors for c in commands] == [[], [], []]
    assert "ratio" not in commands[0].measured  # the warm-up is checked, not timed
    assert [c.measured["ratio"] for c in commands[1:]] == pytest.approx([1.0 / 0.2, 2.0 / 0.2])


def test_mean_over_inputs_weighs_each_input_once():
    values = [(0, 1.0), (0, 3.0), (0, 100.0), (1, 10.0)]
    assert run.mean_over_inputs(values) == pytest.approx((3.0 + 10.0) / 2)
