"""Degree statistics, driver-degree histograms, and experiment sweeps.

Sweeps emit one row per knob value (attachment direction p or reversal
probability R) with the edge-direction fraction f_hi_lo and the sampled
mean driver degree, ready for CSV plotting. All randomness is derived from
the sweep seed, one child seed per grid point, so a row does not depend on
when or on which thread its point runs: with the compiled core, a sweep
of small points runs several at once, one per usable CPU, and a sweep of
large points runs them one at a time, each on a stream of samples that
runs on every usable CPU.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import UndefinedStatisticError, UsageError
from .generators import BaParams, ReversalParams, gen_directed_ba, reverse_edges
from .graph import DirectedGraph, average_degree, degrees
from .mds import MdsResult, _samplers, _sweep_workers, sample_mds
from .seeding import check_int, check_real, spawn_seed

__all__ = [
    "DegreeHistogram",
    "SweepRow",
    "f_hi_lo",
    "driver_degree_histogram",
    "sweep_p",
    "sweep_r",
    "sweep_rows_to_csv",
]

# the CSV columns and JSON keys of a sweep row: one per SweepRow field, in field order
SWEEP_COLUMNS = ("knob", "f_hi_lo", "mean_kd", "avg_degree", "ratio", "samples", "seed")
SWEEP_CSV_HEADER = ",".join(SWEEP_COLUMNS)


def f_hi_lo(graph: DirectedGraph) -> float:
    """Fraction of edges whose tail has strictly higher total degree than its head.

    Ties count in the denominator only. Undefined on edgeless graphs.
    """
    if graph.edge_count == 0:
        raise UndefinedStatisticError("f_hi_lo is undefined on an edgeless graph")
    tot = degrees(graph).total_degree
    return float(np.count_nonzero(tot[graph.tails] > tot[graph.heads]) / graph.edge_count)


@dataclass(frozen=True)
class DegreeHistogram:
    """Per-degree node counts: (population, drivers) keyed by total degree."""

    counts: dict[int, tuple[int, int]]

    def as_mapping(self) -> dict[str, dict[str, int]]:
        """``{degree: {"population": p, "drivers": d}}`` in ascending degree."""
        return {
            str(k): {"population": p, "drivers": d}
            for k, (p, d) in sorted(self.counts.items())
        }


def driver_degree_histogram(graph: DirectedGraph, mds: MdsResult) -> DegreeHistogram:
    """Count, for each observed total degree, all nodes and driver nodes."""
    tot = degrees(graph).total_degree
    pop = np.bincount(tot)
    drv = np.bincount(tot[list(mds.drivers)], minlength=len(pop))
    counts = {int(k): (int(pop[k]), int(drv[k])) for k in range(len(pop)) if pop[k] > 0}
    return DegreeHistogram(counts=counts)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: knob value plus the sampled statistics."""

    knob: float
    f_hi_lo: float
    mean_kd: float
    avg_degree: float
    ratio: float
    sample_count: int
    seed: int

    def columns(self) -> dict[str, float | int]:
        """The row keyed by ``SWEEP_COLUMNS`` names, in that order."""
        return dict(zip(SWEEP_COLUMNS, astuple(self)))


def _check_grid(grid, samples: int) -> list[float]:
    try:
        values = [check_real(x, "grid value", low=0, high=1) for x in grid]
    except TypeError:
        raise UsageError(f"grid must be a sequence of real numbers, got {grid!r}") from None
    if not values:
        raise UsageError("grid must hold at least one value")
    check_int(samples, "samples", low=1)
    return values


def _measure_point(knob: float, graph: DirectedGraph, samples: int, point_seed: int) -> SweepRow:
    """One sweep row: f_hi_lo and the sampled mean driver degree of ``graph``."""
    f = f_hi_lo(graph)
    summary = sample_mds(graph, samples, point_seed)
    k = average_degree(graph)
    return SweepRow(
        knob=knob,
        f_hi_lo=f,
        mean_kd=summary.mean_kd,
        avg_degree=k,
        ratio=summary.mean_kd / k,
        sample_count=summary.sample_count,
        seed=point_seed,
    )


def _sweep(grid, samples: int, seed: int, point_edges: int, graph_at) -> list[SweepRow]:
    """One row per grid value, measured on ``graph_at(value, point_seed)``:
    a closure that finds its generator in this module when a point runs,
    so a rebound binding (``bench/tracer.py`` wraps them) sees each call.

    Every point's graph has ``point_edges`` edges, so each point's stream
    is ``samples * point_edges`` samples x out-CSR slots, and the points
    run on ``mds._sweep_workers`` samplers (``mds._samplers``): each
    sampler takes the next grid index, builds and measures that point and
    stores its row at the index, so the rows are the same on any number
    of samplers, and no more points are alive than there are samplers.
    The first failure stops every sampler before its next point.
    """
    values = _check_grid(grid, samples)
    rows: list[SweepRow | None] = [None] * len(values)
    taken = 0  # grid indices taken by a sampler

    def measure(team) -> None:
        nonlocal taken
        while True:
            with team.ready:
                if team.stop or taken == len(values):
                    return
                i = taken
                taken += 1
            point_seed = spawn_seed(seed, i)
            rows[i] = _measure_point(values[i], graph_at(values[i], point_seed), samples, point_seed)

    with _samplers(_sweep_workers(len(values), samples * point_edges), measure) as team:
        measure(team)
    return rows


def sweep_p(grid, ba_base: BaParams, samples: int = 1000, seed: int = 0) -> list[SweepRow]:
    """For each attachment-direction p: generate, measure f_hi_lo, sample MDSs.

    Every point's graph has ``ba_base.edge_count`` edges. With the
    compiled core, a sweep whose points together reach the sampler's
    break-even while each alone falls below it runs its points at once,
    one per usable CPU (``_sweep``); the rows are the same as on one.
    """
    return _sweep(grid, samples, seed, ba_base.edge_count, lambda p, s: gen_directed_ba(replace(ba_base, p=p, seed=s)))


def sweep_r(graph: DirectedGraph, grid, samples: int = 1000, seed: int = 0) -> list[SweepRow]:
    """For each reversal probability R: transform the graph and sample MDSs.

    A reversal keeps the edge count, so every point's graph has the
    input's. The points run at once on the terms of ``sweep_p``.
    """
    return _sweep(
        grid, samples, seed, graph.edge_count, lambda r, s: reverse_edges(graph, ReversalParams(r=r, seed=s)).graph
    )


def sweep_rows_to_csv(rows) -> str:
    """Fixed-header CSV, floats in shortest round-trip form."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(",".join(repr(value) for value in row.columns().values()))
    return "\n".join(lines) + "\n"
