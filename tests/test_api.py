"""The package's export lists, its version string, its package data and
the integer checks at its entry points."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import netctrl
from netctrl import errors, generators, graph, matching, mds, stats
from netctrl import (
    DirectedGraph,
    Matching,
    NodeOrder,
    UsageError,
    ValidationError,
    iter_samples,
    preferential_mds,
    sample_mds,
    sweep_r,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_exports_and_version_agree():
    exported = netctrl.__all__
    assert len(exported) == len(set(exported))
    error_classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    modules = (graph, generators, matching, mds, stats)
    expected = {"__version__"} | error_classes | {n for m in modules for n in m.__all__}
    assert set(exported) == expected

    for module in (netctrl, *modules):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"

    version = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert version is not None and version.group(1) == netctrl.__version__


def test_package_data_ships_the_files_read_at_run_time():
    # an installed netctrl reads its report schema and builds its kernel from _core.c
    section = PYPROJECT.read_text().split("[tool.setuptools.package-data]", 1)[1]
    listed = re.search(r"^netctrl = \[(.*)\]$", section, re.MULTILINE)
    assert listed is not None
    data = re.findall(r'"([^"]+)"', listed.group(1))
    package = Path(netctrl.__file__).parent
    assert set(data) == {"report_schema.json", "_core.c"}
    for name in data:
        assert (package / name).is_file()


PATH3 = DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: NodeOrder([0.0, 1.5, 2.9]), UsageError),
        (lambda: NodeOrder(["0", "1", "2"]), UsageError),
        (lambda: NodeOrder(np.array([True, False])), UsageError),
        (lambda: DirectedGraph(["a", "b", "c"], [(0.5, 1.9), (1, 2)]), ValueError),
        (lambda: DirectedGraph(["a", "b", "c"], [("0", "1")]), ValueError),
        (lambda: Matching([1.7, -1]), ValidationError),
        (lambda: Matching(["1", "-1"]), ValidationError),
        (lambda: Matching.from_pairs(PATH3, [(0.5, 1)]), ValidationError),
        (lambda: sample_mds(PATH3, 2.5, 1), UsageError),
        (lambda: iter_samples(PATH3, 1.5, 1), UsageError),
        (lambda: iter_samples(PATH3, 1, 1, start=1.5), UsageError),
        (lambda: sweep_r(PATH3, [0.0], samples=2.5), UsageError),
        (lambda: preferential_mds(PATH3, NodeOrder(range(3)), 1.5), UsageError),
        (lambda: preferential_mds(PATH3, NodeOrder(range(3)), "1"), UsageError),
        # ragged or nested input: numpy's own ValueError would carry no such message
        (lambda: Matching.from_pairs(PATH3, [(0, 1), (1,)]), ValidationError),
        (lambda: NodeOrder([[0], [1, 2]]), UsageError),
        (lambda: NodeOrder([[0], [1]]), UsageError),
        (lambda: Matching([[0], [1, 2]]), ValidationError),
        (lambda: DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2, 0)]), ValueError),
    ],
    ids=[
        "NodeOrder-floats", "NodeOrder-strings", "NodeOrder-bools", "DirectedGraph-floats",
        "DirectedGraph-strings", "Matching-floats", "Matching-strings", "Matching.from_pairs-floats",
        "sample_mds-count", "iter_samples-count", "iter_samples-start", "sweep_r-samples",
        "preferential_mds-float-m", "preferential_mds-string-m", "Matching.from_pairs-ragged",
        "NodeOrder-ragged", "NodeOrder-nested", "Matching-ragged", "DirectedGraph-ragged",
    ],
)
def test_entry_points_refuse_non_integers(call, error):
    # a float would be cut to an int and a string parsed as one; a call
    # that draws samples refuses at the call, before the first is drawn
    with pytest.raises(error, match="must be (an integer|integers)"):
        call()
