from __future__ import annotations

import os
import threading
import time

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
from netctrl import _kernel, mds, stats
from netctrl.cli import main
from netctrl.generators import ReversalParams
from netctrl.seeding import spawn_seed
from netctrl.stats import SWEEP_CSV_HEADER

from test_golden import CASES, GOLDEN_DIR


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


# --- grid points at once ------------------------------------------------

SWEEP_GOLDENS = sorted(name for name in CASES if name.startswith("sweep"))
# every sweep golden: BA N=60, m=2, m0=3 (L = 117), 3 points of 10 samples
GOLDEN_POINT_WORK = 10 * 117


def affinity():
    """The calling thread's CPUs, or None on a system without affinity masks."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture
def sweep_on(compiled_kernel, monkeypatch):
    """``sweep_on(w, break_even)``: the compiled core with ``w`` usable CPUs
    and the sampler's break-even set; returns ``(threads, streams)``, the
    threads started and the sampler count of each stream that starts
    threads, both recorded from then on."""
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    threads, streams = [], []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: threads.append(thread) or start(thread))
    stream = mds._samples

    def counted(graph, count, seed, first, workers, keep):
        if workers > 1:
            streams.append(workers)
        return stream(graph, count, seed, first, workers, keep)

    monkeypatch.setattr(mds, "_samples", counted)

    def set_workers(workers: int, break_even: int):
        monkeypatch.setattr(mds, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(mds, "_THREADS_BREAK_EVEN_SAMPLED_SLOTS", break_even)
        return threads, streams

    return set_workers


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name", SWEEP_GOLDENS)
def test_sweep_goldens_with_points_at_once(sweep_on, tmp_path, name, workers):
    # the break-even above one point's work and below the three points'
    threads, streams = sweep_on(workers, 2 * GOLDEN_POINT_WORK)
    before = threading.active_count()
    mask = affinity()
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
    assert [thread.name for thread in threads] == ["netctrl-sampler"] * (workers - 1)
    assert not streams  # no point's stream starts a thread
    assert threading.active_count() == before
    assert affinity() == mask


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=150),
    st.sampled_from([1, 2, 3]),
    st.floats(0.0, 1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**64),
    st.sampled_from([2, 3]),
    st.booleans(),
)
def test_points_at_once_give_the_serial_rows(compiled_kernel, n, m, p, graph_seed, grid, samples, seed, workers, vary_p):
    base = BaParams(n=n, m_attach=m, p=p, seed=graph_seed)
    g = gen_directed_ba(base)
    assert g.edge_count == base.edge_count  # the edge count sweep_p takes

    def sweep():
        return sweep_p(grid, base, samples, seed) if vary_p else sweep_r(g, grid, samples, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", compiled_kernel)
        patch.setattr(mds, "_usable_cpus", lambda: 1)
        serial = sweep()
        # one point's work is below the break-even, and two points' reach it
        patch.setattr(mds, "_THREADS_BREAK_EVEN_SAMPLED_SLOTS", samples * g.edge_count + 1)
        patch.setattr(mds, "_usable_cpus", lambda: workers)
        assert mds._sweep_workers(len(grid), samples * g.edge_count) == min(workers, len(grid))
        assert sweep() == serial


@pytest.mark.parametrize("failing", ["caller", "thread"])
def test_a_failing_point_stops_the_sweep(sweep_on, monkeypatch, failing):
    # the first two points meet, then the one on the failing sampler
    # raises while the other is still measuring: the other ends its point
    # after the stop and starts no third
    g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=0.5, seed=1))
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    threads, _ = sweep_on(2, 2 * 5 * g.edge_count)
    index_of = {spawn_seed(7, i): i for i in range(len(grid))}
    caller = threading.current_thread()
    both_measuring = threading.Barrier(2, timeout=60)
    started = []
    sample = stats.sample_mds

    def failing_point(graph, count, point_seed):
        started.append(index_of[point_seed])
        both_measuring.wait()
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise RuntimeError("a point failed")
        time.sleep(0.2)
        return sample(graph, count, point_seed)

    monkeypatch.setattr(stats, "sample_mds", failing_point)
    before = threading.active_count()
    mask = affinity()
    with pytest.raises(RuntimeError, match="a point failed"):
        sweep_r(g, grid, samples=5, seed=7)
    assert sorted(started) == [0, 1]
    assert len(threads) == 1
    assert threading.active_count() == before
    assert affinity() == mask


def test_points_that_reach_the_break_even_each_run_on_threads(sweep_on):
    g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=0.5, seed=1))
    threads, streams = sweep_on(3, 10 * g.edge_count)
    rows = sweep_r(g, [0.0, 0.5, 1.0], samples=10, seed=2)
    assert streams == [3, 3, 3]  # one stream of three samplers per point, in turn
    assert len(threads) == 3 * 2
    sweep_on(1, 10 * g.edge_count)
    assert sweep_r(g, [0.0, 0.5, 1.0], samples=10, seed=2) == rows


def test_small_sweeps_and_the_python_core_start_no_thread(sweep_on, monkeypatch):
    g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=0.5, seed=1))
    base = BaParams(n=100, m_attach=2, m0=3, p=0.5, seed=1)
    point_work = 10 * g.edge_count
    threads, streams = sweep_on(2, 3 * point_work + 1)  # the three points' work is below it
    sweep_r(g, [0.0, 0.5, 1.0], samples=10, seed=2)
    sweep_p([0.0, 0.5, 1.0], base, samples=10, seed=2)
    sweep_on(2, 2 * point_work)
    assert mds._sweep_workers(3, point_work) == 2
    monkeypatch.setattr(_kernel, "_kernel", None)  # the Python core
    assert mds._sweep_workers(3, point_work) == 1
    sweep_r(g, [0.0, 0.5, 1.0], samples=10, seed=2)
    sweep_p([0.0, 0.5, 1.0], base, samples=10, seed=2)
    assert not threads
    assert not streams


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this system")
@pytest.mark.parametrize("workers", [2, 3])
def test_each_point_sampler_runs_on_one_cpu_of_the_mask(sweep_on, monkeypatch, workers):
    # the first point of every sampler records its CPUs and waits there
    # until all have; past the mask's CPU count, samplers share its CPUs
    g = gen_directed_ba(BaParams(n=100, m_attach=2, m0=3, p=0.5, seed=1))
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    sweep_on(1, 1)
    serial = sweep_r(g, grid, samples=5, seed=3)
    threads, _ = sweep_on(workers, 2 * 5 * g.edge_count)
    all_measuring = threading.Barrier(workers, timeout=60)
    cpus = {}
    sample = stats.sample_mds

    def recorded(graph, count, point_seed):
        sampler = threading.current_thread()
        if sampler not in cpus:
            cpus[sampler] = os.sched_getaffinity(0)
            all_measuring.wait()
        assert os.sched_getaffinity(0) == cpus[sampler]  # and stays there
        return sample(graph, count, point_seed)

    monkeypatch.setattr(stats, "sample_mds", recorded)
    mask = os.sched_getaffinity(0)
    assert sweep_r(g, grid, samples=5, seed=3) == serial
    assert len(threads) == workers - 1
    assert os.sched_getaffinity(0) == mask  # the caller's CPUs back
    assert len(cpus) == workers
    assert all(len(pinned) == 1 and pinned <= mask for pinned in cpus.values())
    assert len(set().union(*cpus.values())) == min(workers, len(mask))
