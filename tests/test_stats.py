from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctrl import (
    BaParams,
    DirectedGraph,
    NodeOrder,
    UndefinedStatisticError,
    UsageError,
    average_degree,
    degrees,
    driver_degree_histogram,
    drivers,
    f_hi_lo,
    gen_directed_ba,
    gen_directed_er,
    max_matching,
    reverse_edges,
    sample_mds,
    sweep_p,
    sweep_r,
    sweep_rows_to_csv,
)
from netctrl.generators import ReversalParams
from netctrl.stats import SWEEP_CSV_HEADER


@st.composite
def digraphs_with_edges(draw, max_n: int = 8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=min(len(pairs), 16))
    )
    return DirectedGraph([str(i) for i in range(n)], edges)


class TestFHiLo:
    def test_out_star_all_edges_point_down(self, star):
        assert f_hi_lo(star) == 1.0

    def test_in_star_all_edges_point_up(self):
        g = DirectedGraph(["a", "b", "c", "hub"], [(0, 3), (1, 3), (2, 3)])
        assert f_hi_lo(g) == 0.0

    def test_two_cycle_ties_do_not_count(self):
        g = DirectedGraph(["a", "b"], [(0, 1), (1, 0)])
        assert f_hi_lo(g) == 0.0

    def test_edgeless_graph_is_undefined(self):
        g = DirectedGraph(["a", "b"], [])
        with pytest.raises(UndefinedStatisticError):
            f_hi_lo(g)


class TestHistogram:
    def test_star_histogram(self, star):
        order = NodeOrder(range(4))
        mds = drivers(star, max_matching(star, order), order)
        hist = driver_degree_histogram(star, mds)
        assert hist.counts == {3: (1, 1), 1: (3, 2)}

    def test_json_serialization_keyed_by_degree(self, star):
        order = NodeOrder(range(4))
        mds = drivers(star, max_matching(star, order), order)
        mapping = driver_degree_histogram(star, mds).as_mapping()
        # string keys, in ascending degree, as the JSON report carries them
        assert list(mapping.items()) == [
            ("1", {"population": 3, "drivers": 2}),
            ("3", {"population": 1, "drivers": 1}),
        ]


@settings(max_examples=60, deadline=None)
@given(digraphs_with_edges(), st.integers(min_value=0, max_value=10**6))
def test_histogram_driver_counts_sum_to_n_d(g, seed):
    order = NodeOrder.random(g, seed)
    mds = drivers(g, max_matching(g, order), order)
    hist = driver_degree_histogram(g, mds)
    assert sum(d for _, d in hist.counts.values()) == mds.n_d
    assert all(d <= p for p, d in hist.counts.values())
    assert sum(p for p, _ in hist.counts.values()) == g.node_count


@settings(max_examples=60, deadline=None)
@given(digraphs_with_edges())
def test_f_hi_lo_plus_reversed_twin_plus_ties_is_one(g):
    tot = degrees(g).total_degree
    twin = DirectedGraph(g.labels, [(v, u) for u, v in g.edges])
    ties = sum(1 for u, v in g.edges if tot[u] == tot[v]) / g.edge_count
    assert f_hi_lo(g) + f_hi_lo(twin) + ties == pytest.approx(1.0)


@pytest.fixture(scope="module")
def p_rows():
    base = BaParams(n=150, m_attach=2, m0=3, p=0.5, seed=0)
    return sweep_p([0.0, 0.5, 1.0], base, samples=60, seed=13)


class TestSweeps:
    def test_sweep_p_rows_are_consistent(self, p_rows):
        assert [row.knob for row in p_rows] == [0.0, 0.5, 1.0]
        for row in p_rows:
            assert 0.0 <= row.f_hi_lo <= 1.0
            assert row.ratio * row.avg_degree == pytest.approx(row.mean_kd)
            assert row.sample_count == 60

    def test_sweep_p_is_deterministic(self, p_rows):
        base = BaParams(n=150, m_attach=2, m0=3, p=0.5, seed=0)
        again = sweep_p([0.0, 0.5, 1.0], base, samples=60, seed=13)
        assert again == p_rows

    def test_sweep_p_rejects_bad_grid(self):
        base = BaParams(n=150, m_attach=2, m0=3)
        with pytest.raises(UsageError):
            sweep_p([0.0, 1.5], base, samples=10, seed=1)
        with pytest.raises(UsageError):
            sweep_p([], base, samples=10, seed=1)

    def test_sweep_r_r_zero_row_matches_direct_sampling(self):
        g = gen_directed_ba(BaParams(n=200, m_attach=2, m0=3, p=0.5, seed=2))
        rows = sweep_r(g, [0.0, 0.5], samples=50, seed=17)
        row0 = rows[0]
        summary = sample_mds(g, 50, row0.seed)
        assert row0.mean_kd == summary.mean_kd
        assert row0.f_hi_lo == f_hi_lo(g)
        assert row0.avg_degree == average_degree(g)

    def test_sweep_r_row_reproducible_from_its_seed(self):
        g = gen_directed_ba(BaParams(n=200, m_attach=2, m0=3, p=0.5, seed=2))
        row = sweep_r(g, [0.5], samples=50, seed=17)[0]
        transformed = reverse_edges(g, ReversalParams(r=0.5, seed=row.seed)).graph
        summary = sample_mds(transformed, 50, row.seed)
        assert row.mean_kd == summary.mean_kd

    def test_csv_serialization_round_trips(self, p_rows):
        text = sweep_rows_to_csv(p_rows)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(p_rows)
        first = lines[1].split(",")
        assert float(first[0]) == p_rows[0].knob
        assert float(first[2]) == p_rows[0].mean_kd
        assert int(first[5]) == p_rows[0].sample_count

    def test_row_columns_name_every_field(self, p_rows):
        row = p_rows[0]
        assert row.columns() == {
            "knob": row.knob,
            "f_hi_lo": row.f_hi_lo,
            "mean_kd": row.mean_kd,
            "avg_degree": row.avg_degree,
            "ratio": row.ratio,
            "samples": row.sample_count,
            "seed": row.seed,
        }

    def test_sweep_r_degree_column_is_invariant(self):
        g = gen_directed_er(80, 320, seed=5)
        rows = sweep_r(g, [0.0, 1.0], samples=20, seed=3)
        assert rows[0].avg_degree == rows[1].avg_degree == average_degree(g)

    def test_sweep_p_f_hi_lo_is_linear_in_p(self):
        import numpy as np

        grid = [round(0.1 * i, 1) for i in range(11)]
        base = BaParams(n=800, m_attach=2, m0=3, p=0.5, seed=0)
        rows = sweep_p(grid, base, samples=1, seed=29)
        pearson = float(np.corrcoef(grid, [row.f_hi_lo for row in rows])[0, 1])
        assert pearson >= 0.98
