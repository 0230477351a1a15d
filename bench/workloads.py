"""The benchmark's workloads, their inputs and the checks on their reports.

Each workload is one ``netctrl`` CLI command on edge-list files that
netctrl's own ``generate`` command writes from the benchmark seed. Writing
the files, parsing them here and computing the oracle matching number with
scipy's Hopcroft-Karp are input preparation and stay out of every metric.

No check depends on the random stream of the sampler or of the reversal
transform, so a change to either does not count as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

SWEEP_CSV_HEADER = ["knob", "f_hi_lo", "mean_kd", "avg_degree", "ratio", "samples", "seed"]
SAMPLE_COUNT = 10
SWEEP_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_SAMPLES = 20
REL_TOL = 1e-12


@dataclass(frozen=True)
class EdgeList:
    """An input file parsed independently of netctrl, with its oracle."""

    labels: tuple[str, ...]
    tails: np.ndarray
    heads: np.ndarray
    matching_number: int

    @classmethod
    def load(cls, path) -> EdgeList:
        index: dict[str, int] = {}
        pairs: dict[tuple[int, int], None] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                if not tokens or tokens[0].startswith(("#", "%")):
                    continue
                tail, head = (index.setdefault(t, len(index)) for t in tokens)
                pairs[(tail, head)] = None
        edges = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        n = len(index)
        adjacency = csr_matrix(
            (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n)
        )
        matched = maximum_bipartite_matching(adjacency, perm_type="column")
        return cls(
            labels=tuple(index),
            tails=edges[:, 0],
            heads=edges[:, 1],
            matching_number=int(np.count_nonzero(matched >= 0)),
        )

    @property
    def nodes(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> int:
        return len(self.tails)

    @property
    def n_d(self) -> int:
        return max(self.nodes - self.matching_number, 1)

    def f_hi_lo(self) -> float:
        total = np.bincount(self.tails, minlength=self.nodes) + np.bincount(self.heads, minlength=self.nodes)
        return float(np.count_nonzero(total[self.tails] > total[self.heads]) / self.edges)

    def label_edges(self) -> set[tuple[str, str]]:
        labels = self.labels
        return {(labels[u], labels[v]) for u, v in zip(self.tails.tolist(), self.heads.tolist())}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


class ReportChecker:
    """Validates reports against the committed schema and the oracle."""

    def __init__(self, schema_path: Path):
        with open(schema_path, "r", encoding="utf-8") as fh:
            self._validator = jsonschema.Draft7Validator(json.load(fh))

    def json_report(self, text: str, inp: EdgeList) -> tuple[dict | None, list[str]]:
        try:
            report = json.loads(text)
        except ValueError as exc:
            return None, [f"report is not JSON: {exc}"]
        errors = [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        if errors:
            return None, errors
        graph = report["graph"]
        if (graph["nodes"], graph["edges"]) != (inp.nodes, inp.edges):
            errors.append(f"graph is {graph['nodes']}x{graph['edges']}, input is {inp.nodes}x{inp.edges}")
        if report["result"]["n_d"] != inp.n_d:
            errors.append(f"n_d {report['result']['n_d']} != N - oracle matching number = {inp.n_d}")
        return report, errors

    def sample(self, text: str, inp: EdgeList) -> list[str]:
        report, errors = self.json_report(text, inp)
        if report is None:
            return errors
        res = report["result"]
        if res["sample_count"] != SAMPLE_COUNT:
            errors.append(f"sample_count {res['sample_count']} != {SAMPLE_COUNT}")
        slack = REL_TOL * max(1.0, abs(res["mean_kd"]))
        if not res["min_kd"] - slack <= res["mean_kd"] <= res["max_kd"] + slack:
            errors.append(f"mean_kd {res['mean_kd']} outside [{res['min_kd']}, {res['max_kd']}]")
        distinct = res["distinct_driver_sets"]
        if distinct is None or not 1 <= distinct <= res["sample_count"]:
            errors.append(f"distinct_driver_sets {distinct} not within [1, {res['sample_count']}]")
        return errors

    def preferential(self, text: str, inp: EdgeList) -> list[str]:
        report, errors = self.json_report(text, inp)
        if report is None:
            return errors
        res = report["result"]
        witness = [tuple(pair) for pair in res["witness"]]
        if len(witness) != inp.matching_number or res["matching_size"] != inp.matching_number:
            errors.append(
                f"witness holds {len(witness)} pairs, matching_size {res['matching_size']}, "
                f"oracle matching number {inp.matching_number}"
            )
        if len({t for t, _ in witness}) != len(witness) or len({h for _, h in witness}) != len(witness):
            errors.append("witness repeats a tail or a head")
        stray = set(witness) - inp.label_edges()
        if stray:
            errors.append(f"{len(stray)} witness pairs are not input edges, e.g. {sorted(stray)[0]}")
        if res.get("m") != inp.nodes:
            errors.append(f"m {res.get('m')} != N = {inp.nodes}")
        return errors

    def sweep_r(self, text: str, inp: EdgeList) -> list[str]:
        rows = list(csv.reader(io.StringIO("".join(
            line for line in text.splitlines(keepends=True) if not line.startswith("#")
        ))))
        if not rows or rows[0] != SWEEP_CSV_HEADER:
            return [f"CSV header is {rows[0] if rows else None}, expected {SWEEP_CSV_HEADER}"]
        body = rows[1:]
        if len(body) != len(SWEEP_GRID):
            return [f"CSV has {len(body)} rows for a grid of {len(SWEEP_GRID)}"]
        errors = []
        avg_degree = 2.0 * inp.edges / inp.nodes
        for knob, row in zip(SWEEP_GRID, body):
            try:
                r, f, mean_kd, k, ratio = (float(x) for x in row[:5])
                samples = int(row[5])
            except (ValueError, IndexError):
                errors.append(f"malformed CSV row {row}")
                continue
            if r != knob:
                errors.append(f"row knob {r} != grid value {knob}")
            if not _close(k, avg_degree):
                errors.append(f"R={r}: avg_degree {k} != 2L/N = {avg_degree}")
            if not _close(ratio, mean_kd / k):
                errors.append(f"R={r}: ratio {ratio} != mean_kd/avg_degree = {mean_kd / k}")
            if samples != SWEEP_SAMPLES:
                errors.append(f"R={r}: samples {samples} != {SWEEP_SAMPLES}")
            if r == 0.0 and not _close(f, inp.f_hi_lo()):
                errors.append(f"R=0: f_hi_lo {f} != recomputed {inp.f_hi_lo()}")
        return errors


@dataclass(frozen=True)
class Workload:
    """One CLI command on one generated input.

    ``matchings`` is the number of maximum matchings one invocation computes
    (the denominator of ``samples_per_s``); ``options`` builds the command's
    options after ``--input``, ``--seed`` and ``--out``.
    """

    name: str
    gen: str
    command: str
    matchings: int
    options: Callable[[EdgeList], list[str]]
    check: Callable[[ReportChecker, str, EdgeList], list[str]]

    def argv(self, input_path: str, seed: int, out_path: str, inp: EdgeList) -> list[str]:
        return [self.command, "--input", input_path, "--seed", str(seed), "--out", out_path] + self.options(inp)


WORKLOADS = {
    w.name: w
    for w in (
        # Search-heavy: MatchingState.complete takes the largest share of
        # every sample, and ingest is a small part of the command.
        Workload(
            name="sample-er10k",
            gen="er:n=10000,l=20000",
            command="sample",
            matchings=SAMPLE_COUNT,
            options=lambda inp: ["--samples", str(SAMPLE_COUNT), "--dedupe"],
            check=ReportChecker.sample,
        ),
        # Small and cache-resident: the sampler's fixed per-sample costs
        # (shuffles, scan lists, snapshot) dominate; one graph rebuild,
        # reversal and f_hi_lo per grid point.
        Workload(
            name="sweep-r-ba1k",
            gen="ba:n=1000,m=2,m0=3,p=0.5",
            command="sweep-r",
            matchings=len(SWEEP_GRID) * SWEEP_SAMPLES,
            options=lambda inp: [
                "--grid", ",".join(f"{r:g}" for r in SWEEP_GRID), "--samples", str(SWEEP_SAMPLES),
            ],
            check=ReportChecker.sweep_r,
        ),
        # Incremental admission (extend_with_node) with no randomization and
        # a large JSON report; a sampler change should leave it flat.
        Workload(
            name="preferential-ba3k",
            gen="ba:n=3000,m=2,m0=3,p=0.5",
            command="preferential",
            matchings=1,
            options=lambda inp: ["--order", "asc", "--m", str(inp.nodes)],
            check=ReportChecker.preferential,
        ),
    )
}
