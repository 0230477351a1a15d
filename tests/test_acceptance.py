"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Criterion 8 needs real edge-list files (not bundled) and
is skipped unless NETCTRL_DATA points at a directory holding them.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from netctrl import (
    BaParams,
    Matching,
    MatchingState,
    NodeOrder,
    ReversalParams,
    average_degree,
    degrees,
    driver_degree_histogram,
    drivers,
    f_hi_lo,
    gen_directed_ba,
    iter_samples,
    max_matching,
    preferential_mds,
    read_edge_list,
    reverse_edges,
    sample_mds,
    sweep_r,
)
from netctrl.cli import main

from corpus import build_fixture_corpus, random_digraph
from oracles import brute_force_max_matching_size


class _Criterion:
    """Prints one pass/fail line per criterion, with elapsed time."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {verdict} ({self.elapsed:.1f}s) {self.description}")
        return False


@pytest.fixture(scope="module")
def corpus():
    return build_fixture_corpus()


def intern_order(graph):
    return NodeOrder(range(graph.node_count))


def test_criterion_1_oracle_equivalence(corpus):
    with _Criterion(1, "brute-force oracle equivalence on the small-graph corpus") as crit:
        assert len(corpus) >= 200
        for g in corpus:
            expected = brute_force_max_matching_size(g)
            size = max_matching(g, intern_order(g)).size
            assert size == expected, f"{g}: size {size} != brute force {expected}"
            result = drivers(g, max_matching(g, intern_order(g)), intern_order(g))
            assert result.n_d == max(g.node_count - expected, 1)
        assert crit.elapsed < 60.0, f"corpus oracle run took {crit.elapsed:.1f}s"


def test_criterion_2_n_d_invariance(corpus):
    with _Criterion(2, "n_d identical across 100 random samples plus asc/desc preferential"):
        for idx, g in enumerate(corpus):
            summary = sample_mds(g, 100, seed=idx)
            samples = list(iter_samples(g, 100, seed=idx))
            asc = preferential_mds(g, NodeOrder.degree_ascending(g), g.node_count)
            desc = preferential_mds(g, NodeOrder.degree_descending(g), g.node_count)
            values = {summary.n_d, asc.n_d, desc.n_d} | {s.n_d for s in samples}
            assert len(samples) == 100
            assert values == {summary.n_d}, f"graph {idx}: n_d varied: {values}"


def test_criterion_3_preferential_steering():
    with _Criterion(3, "ascending preferential exceeds the random mean, descending falls below"):
        for seed in range(5):
            g = gen_directed_ba(BaParams(n=1000, m_attach=2, m0=3, p=0.5, seed=seed))
            summary = sample_mds(g, 1000, seed=seed + 100)
            asc = preferential_mds(g, NodeOrder.degree_ascending(g), g.node_count)
            desc = preferential_mds(g, NodeOrder.degree_descending(g), g.node_count)
            assert asc.avg_degree_d > summary.mean_kd, f"seed {seed}: ascending did not exceed"
            assert desc.avg_degree_d < summary.mean_kd, f"seed {seed}: descending did not fall below"


def test_criterion_4_f_hi_lo_linear_in_p():
    with _Criterion(4, "f_hi_lo strictly increasing in p with Pearson r >= 0.98"):
        grid = [round(0.1 * i, 1) for i in range(11)]
        means = []
        for p in grid:
            vals = [
                f_hi_lo(gen_directed_ba(BaParams(n=2000, m_attach=2, m0=3, p=p, seed=s)))
                for s in range(10)
            ]
            means.append(float(np.mean(vals)))
        assert all(a < b for a, b in zip(means, means[1:])), f"not strictly increasing: {means}"
        pearson = float(np.corrcoef(grid, means)[0, 1])
        assert pearson >= 0.98, f"Pearson correlation {pearson:.4f} < 0.98"


def test_criterion_5_ratio_below_one_at_half_above_one_at_one():
    with _Criterion(5, "mean driver degree ratio: < 1 at p=0.5, > 1 at p=1 for all sizes") as crit:
        for seed in (0, 1):
            g = gen_directed_ba(BaParams(n=1000, m_attach=2, m0=3, p=0.5, seed=seed))
            summary = sample_mds(g, 1000, seed=seed + 50)
            ratio = summary.mean_kd / average_degree(g)
            assert ratio < 1.0, f"p=0.5 seed {seed}: ratio {ratio:.3f} not < 1"
        for n in (500, 1000, 2000):
            for seed in (0, 1):
                g = gen_directed_ba(BaParams(n=n, m_attach=2, m0=3, p=1.0, seed=seed))
                summary = sample_mds(g, 1000, seed=seed + 60)
                ratio = summary.mean_kd / average_degree(g)
                assert ratio > 1.0, f"p=1 n={n} seed {seed}: ratio {ratio:.3f} not > 1"
        assert crit.elapsed < 300.0, f"criterion 5 took {crit.elapsed:.1f}s, budget 300s"


def test_criterion_6_reversal_sweep_raises_the_ratio():
    with _Criterion(6, "reversal sweep: ratio rises from R=0 to R=1, at most one inversion"):
        g = gen_directed_ba(BaParams(n=1000, m_attach=2, m0=3, p=0.5, seed=8))
        rows = sweep_r(g, [0.0, 0.25, 0.5, 0.75, 1.0], samples=1000, seed=9)
        ratios = [row.ratio for row in rows]
        assert ratios[-1] > ratios[0], f"ratio did not rise: {ratios}"
        inversions = sum(1 for a, b in zip(ratios, ratios[1:]) if b < a)
        assert inversions <= 1, f"{inversions} inversions in {ratios}"


def test_criterion_7_invariant_suite_on_random_graphs():
    with _Criterion(7, "matching/driver/histogram/reversal invariants on 1000 random graphs"):
        import random as _random

        for i in range(1000):
            rng = _random.Random(i)
            n = rng.randint(1, 10)
            l = rng.randint(0, 2 * n)
            g = random_digraph(n, l, seed=i, self_loops=bool(i % 2))
            order = NodeOrder.random(g, seed=i)

            # matching validity after a full run
            m = max_matching(g, order)
            Matching.from_pairs(g, m.pairs())

            # monotone matched in-roles across extensions; same final size
            state = MatchingState(g, order)
            matched_heads: set[int] = set()
            for _ in order.permutation:
                state.extend_with_node()
                now = {v for _, v in state.matching.pairs()}
                assert matched_heads <= now, f"graph {i}: matched head lost"
                matched_heads = now
            assert state.matching.size == m.size

            # zero in-degree nodes drive whenever the matching is imperfect
            result = drivers(g, m, order)
            zero_in = set(np.flatnonzero(degrees(g).in_degree == 0).tolist())
            if not result.perfect_matching:
                assert zero_in <= set(result.drivers), f"graph {i}: zero-in node not driving"

            # histogram partitions the driver set
            hist = driver_degree_histogram(g, result)
            assert sum(d for _, d in hist.counts.values()) == result.n_d

            # reversal preserves every total degree
            reversed_graph = reverse_edges(g, ReversalParams(r=0.7, seed=i)).graph
            assert np.array_equal(
                degrees(g).total_degree, degrees(reversed_graph).total_degree
            ), f"graph {i}: reversal changed a degree"


# Table rows for the real networks: name -> (N, L, <k>, mean kd over samples, n_d)
TABLE_ROWS = {
    "wiki_vote": (7115, 103689, 29.15, 9.66, 4736),
    "grassland": (88, 137, 3.11, 2.67, 46),
    "little_rock": (183, 2494, 27.26, 15.39, 99),
    "seagrass": (49, 226, 9.22, 8.06, 13),
    "ythan": (135, 601, 8.90, 7.43, 69),
    "florida": (128, 2106, 32.91, 24.86, 30),
    "mondego": (46, 400, 17.39, 12.47, 19),
    "uspowergrid": (4941, 13188, 10.68, 2.73, 575),
    "c_elegans": (306, 2345, 15.33, 5.6, 58),
    "hep_th": (27770, 352807, 25.41, 9.45, 5994),
    "zewail": (6752, 54233, 16.064, 17.55, 2427),
    "kohonen": (4470, 12731, 5.696, 5.73, 2812),
    "polblogs": (1224, 16718, 27.32, 12.41, 418),
    "p2p_1": (10876, 39994, 7.36, 6.92, 6004),
    "ucionline": (1899, 20296, 21.38, 6.75, 614),
    "trn_yeast_1": (4441, 12873, 5.80, 5.85, 4284),
    "eva": (8497, 6726, 1.584, 1.59, 7194),
    "literature": (35, 81, 4.628, 4.72, 13),
    "world_trade": (80, 998, 24.95, 26.93, 24),
}

_DATA_DIR = os.environ.get("NETCTRL_DATA")


@pytest.mark.skipif(not _DATA_DIR, reason="NETCTRL_DATA not set; real-network files not bundled")
def test_criterion_8_real_network_rows():
    with _Criterion(8, "supplied real networks match the reference table"):
        data = Path(_DATA_DIR)
        found = [name for name in TABLE_ROWS if (data / f"{name}.txt").exists()]
        if not found:
            pytest.skip(f"no known edge lists under {data}")
        for name in found:
            n_ref, l_ref, k_ref, kd_ref, nd_ref = TABLE_ROWS[name]
            g = read_edge_list(data / f"{name}.txt")
            assert g.node_count == n_ref, f"{name}: N {g.node_count} != {n_ref}"
            assert g.edge_count == l_ref, f"{name}: L {g.edge_count} != {l_ref}"
            assert average_degree(g) == pytest.approx(k_ref, abs=0.01), name
            order = NodeOrder.degree_ascending(g)
            result = drivers(g, max_matching(g, order), order)
            assert result.n_d == nd_ref, f"{name}: n_d {result.n_d} != {nd_ref}"
            summary = sample_mds(g, 10_000, seed=1)
            assert summary.mean_kd == pytest.approx(kd_ref, rel=0.10), (
                f"{name}: sampled mean kd {summary.mean_kd:.3f} vs table {kd_ref} (+-10%)"
            )


@pytest.mark.skipif(not _DATA_DIR, reason="NETCTRL_DATA not set; real-network files not bundled")
def test_world_trade_high_degree_driver_set():
    # reproduction target: the steered driver set of the trade network is
    # made of high-degree nodes only
    path = Path(_DATA_DIR) / "world_trade.txt"
    if not path.exists():
        pytest.skip("world_trade.txt not supplied")
    g = read_edge_list(path)
    order = NodeOrder.degree_ascending(g)
    result = preferential_mds(g, order, g.node_count)
    assert result.avg_degree_d > average_degree(g), (
        f"steered driver degree {result.avg_degree_d:.2f} should exceed <k>"
    )
    hist = driver_degree_histogram(g, result)
    low_drivers = sum(d for k, (_, d) in hist.counts.items() if k <= 20)
    assert low_drivers == 0, f"{low_drivers} drivers with degree <= 20"
    high_pop = sum(p for k, (p, _) in hist.counts.items() if k > 20)
    high_drv = sum(d for k, (_, d) in hist.counts.items() if k > 20)
    assert high_drv >= 0.8 * high_pop, (
        f"only {high_drv}/{high_pop} of the high-degree nodes drive"
    )


@pytest.mark.skipif(not _DATA_DIR, reason="NETCTRL_DATA not set; real-network files not bundled")
def test_trn_yeast_reversal_lowers_the_ratio():
    # counterexample reproduction: on this network the mean driver degree
    # falls as low-to-high edges are flipped
    path = Path(_DATA_DIR) / "trn_yeast_1.txt"
    if not path.exists():
        pytest.skip("trn_yeast_1.txt not supplied")
    g = read_edge_list(path)
    rows = sweep_r(g, [0.0, 1.0], samples=500, seed=2)
    assert rows[1].ratio < rows[0].ratio


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    with _Criterion(9, "identical configs with identical seeds give byte-identical reports"):
        star = tmp_path / "star.txt"
        star.write_text("hub a\nhub b\nhub c\n")
        runs = [
            ["analyze", "--input", str(star), "--seed", "3"],
            ["sample", "--input", str(star), "--samples", "25", "--seed", "3", "--dedupe"],
            ["preferential", "--gen", "ba:n=80,m=2,m0=3,p=0.7", "--order", "desc", "--seed", "5"],
            ["sweep-r", "--gen", "ba:n=60,m=2,m0=3,p=0.5", "--grid", "0,0.5,1",
             "--samples", "10", "--seed", "4"],
            ["generate", "--gen", "er:n=15,l=40", "--seed", "11"],
        ]
        for argv in runs:
            first = tmp_path / "first.out"
            second = tmp_path / "second.out"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), f"run not reproducible: {argv}"
        capsys.readouterr()
