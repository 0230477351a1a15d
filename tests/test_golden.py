"""Committed reports for pinned seeds, compared byte for byte.

The analyze and preferential goldens pin the deterministic matching path;
the sample, sweep-r and sweep-p goldens pin the sampler's random stream;
the generate and reverse goldens pin the generators' edge lists, which
are also read back and written again. Each report is checked once with
the compiled core (when a C compiler can build it) and once with the
Python search and line loop. A change
that alters a stream on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from netctrl import _kernel, read_edge_list, to_edge_list
from netctrl.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "analyze-ba60-asc.json": ["analyze", "--gen", "ba:n=60,m=2,m0=3,p=0.5", "--seed", "3"],
    "analyze-er40-random.json": [
        "analyze", "--gen", "er:n=40,l=90", "--order", "random", "--seed", "5",
    ],
    "generate-er30.txt": ["generate", "--gen", "er:n=30,l=60", "--seed", "7"],
    "preferential-ba80-desc.json": [
        "preferential", "--gen", "ba:n=80,m=2,m0=3,p=0.7", "--order", "desc", "--seed", "5",
    ],
    "preferential-er50-asc-m20.json": [
        "preferential", "--gen", "er:n=50,l=120", "--order", "asc", "--m", "20", "--seed", "2",
    ],
    "reverse-ba40-r0.5.txt": [
        "reverse", "--gen", "ba:n=40,m=2,m0=3,p=0.5", "--R", "0.5", "--seed", "2",
    ],
    "sample-ba60-dedupe.json": [
        "sample", "--gen", "ba:n=60,m=2,m0=3,p=0.5", "--samples", "40", "--seed", "3", "--dedupe",
    ],
    "sweep-r-ba60.csv": [
        "sweep-r", "--gen", "ba:n=60,m=2,m0=3,p=0.5", "--grid", "0,0.5,1",
        "--samples", "10", "--seed", "4",
    ],
    "sweep-p-ba60.csv": [
        "sweep-p", "--gen", "ba:n=60,m=2,m0=3,p=0.5", "--grid", "0,0.5,1",
        "--samples", "10", "--seed", "4",
    ],
}


@pytest.fixture
def python_core(monkeypatch):
    """Run MatchingState.complete() on the Python search and parse_edge_list
    on its line loop, as without a compiler."""
    monkeypatch.setattr(_kernel, "_kernel", None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_on_the_python_core(name, tmp_path, python_core):
    test_report_matches_golden(name, tmp_path)


EDGE_LISTS = sorted(name for name in CASES if name.endswith(".txt"))


@pytest.mark.parametrize("name", EDGE_LISTS)
def test_edge_list_golden_reads_back(name):
    # the serializer writes no comments for a parsed graph
    lines = (GOLDEN_DIR / name).read_text().splitlines(keepends=True)
    edges = "".join(line for line in lines if not line.startswith("#"))
    assert to_edge_list(read_edge_list(GOLDEN_DIR / name)) == edges


@pytest.mark.parametrize("name", EDGE_LISTS)
def test_edge_list_golden_reads_back_on_the_python_core(name, python_core):
    test_edge_list_golden_reads_back(name)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if main(argv + ["--out", str(GOLDEN_DIR / name)]) != 0:
            sys.exit(f"{name}: command failed")
