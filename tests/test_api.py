"""The package's export lists, its version string, its package data, its
pytest settings and the input checks at its entry points."""

from __future__ import annotations

import inspect
import json
import os
import re
import subprocess
import sys
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
    BaParams,
    ReversalParams,
    gen_directed_er,
    iter_samples,
    preferential_mds,
    sample_mds,
    sweep_p,
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
        (lambda: sample_mds(PATH3, 2.5, 1), UsageError),
        (lambda: iter_samples(PATH3, 1.5, 1), UsageError),
        (lambda: iter_samples(PATH3, 1, 1, start=1.5), UsageError),
        (lambda: sweep_r(PATH3, [0.0], samples=2.5), UsageError),
        (lambda: preferential_mds(PATH3, NodeOrder(range(3)), 1.5), UsageError),
        (lambda: preferential_mds(PATH3, NodeOrder(range(3)), "1"), UsageError),
        # ragged or nested input: numpy's own ValueError would carry no such message
        (lambda: NodeOrder([[0], [1, 2]]), UsageError),
        (lambda: NodeOrder([[0], [1]]), UsageError),
        (lambda: Matching([[0], [1, 2]]), ValidationError),
        (lambda: DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2, 0)]), ValueError),
        (lambda: gen_directed_er(5.5, 3), UsageError),
        (lambda: gen_directed_er("5", 3), UsageError),
        (lambda: gen_directed_er(5, 3.0), UsageError),
        (lambda: BaParams(n=10.5), UsageError),
        (lambda: BaParams(n="10"), UsageError),
        (lambda: BaParams(n=10, m_attach=2.5), UsageError),
        (lambda: BaParams(n=10, m0=3.5), UsageError),
    ],
    ids=[
        "NodeOrder-floats", "NodeOrder-strings", "NodeOrder-bools", "DirectedGraph-floats",
        "DirectedGraph-strings", "Matching-floats", "Matching-strings",
        "sample_mds-count", "iter_samples-count", "iter_samples-start", "sweep_r-samples",
        "preferential_mds-float-m", "preferential_mds-string-m", "NodeOrder-ragged", "NodeOrder-nested", "Matching-ragged", "DirectedGraph-ragged",
        "gen_directed_er-float-n", "gen_directed_er-string-n", "gen_directed_er-float-l",
        "BaParams-float-n", "BaParams-string-n", "BaParams-float-m_attach", "BaParams-float-m0",
    ],
)
def test_entry_points_refuse_non_integers(call, error):
    # a float would be cut to an int and a string parsed as one; a call
    # that draws samples refuses at the call, before the first is drawn
    with pytest.raises(error, match="must be (an integer|integers|a non-negative integer)"):
        call()


BA_BASE = BaParams(n=12, m_attach=2, m0=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: BaParams(n=10, p="0.5"),
        lambda: BaParams(n=10, p=None),
        lambda: ReversalParams(r="0.5"),
        lambda: ReversalParams(r=None),
        lambda: ReversalParams(r=0.5j),
        lambda: sweep_r(PATH3, ["abc"], samples=2),
        lambda: sweep_r(PATH3, [None], samples=2),
        lambda: sweep_p(["x"], BA_BASE, samples=2),
        lambda: sweep_p([None], BA_BASE, samples=2),
    ],
    ids=[
        "BaParams-string-p", "BaParams-None-p", "ReversalParams-string-r", "ReversalParams-None-r",
        "ReversalParams-complex-r", "sweep_r-string-grid", "sweep_r-None-grid",
        "sweep_p-string-grid", "sweep_p-None-grid",
    ],
)
def test_entry_points_refuse_non_reals(call):
    # a string would be parsed as a float; None and complex numbers are no reals
    with pytest.raises(UsageError, match="must be a real number"):
        call()


NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: iter_samples(PATH3, 0, 1), "sample count must be an integer >= 1, got 0"),
        (lambda: sample_mds(PATH3, -2, 1), "sample count must be an integer >= 1, got -2"),
        (lambda: iter_samples(PATH3, 1, 1, start=-1), "first sample index must be a non-negative integer, got -1"),
        (lambda: preferential_mds(PATH3, NodeOrder(range(3)), -1), "m must be an integer in [0, 3], got -1"),
        (lambda: preferential_mds(PATH3, NodeOrder(range(3)), 4), "m must be an integer in [0, 3], got 4"),
        (lambda: sweep_r(PATH3, [0.5, 1.5], samples=2), "grid value must be a real number in [0, 1], got 1.5"),
        (lambda: sweep_r(PATH3, [-0.25], samples=2), "grid value must be a real number in [0, 1], got -0.25"),
        (lambda: sweep_p([NAN], BA_BASE, samples=2), "grid value must be a real number in [0, 1], got nan"),
        (lambda: sweep_r(PATH3, [0.5], samples=0), "samples must be an integer >= 1, got 0"),
        (lambda: BaParams(n=10, m_attach=0), "m_attach must be an integer >= 1, got 0"),
        (lambda: BaParams(n=10, m_attach=3, m0=2), "m0 must be an integer >= 3, got 2"),
        (lambda: BaParams(n=3, m0=3), "n must be an integer >= 4, got 3"),
        (lambda: BaParams(n=10, p=1.5), "p must be a real number in [0, 1], got 1.5"),
        (lambda: BaParams(n=10, p=-1), "p must be a real number in [0, 1], got -1.0"),
        (lambda: BaParams(n=10, p=NAN), "p must be a real number in [0, 1], got nan"),
        (lambda: ReversalParams(r=1.01), "r must be a real number in [0, 1], got 1.01"),
        (lambda: ReversalParams(r=NAN), "r must be a real number in [0, 1], got nan"),
        (lambda: ReversalParams(r=float("inf")), "r must be a real number in [0, 1], got inf"),
        (lambda: gen_directed_er(0, 0), "n must be an integer >= 1, got 0"),
        (lambda: gen_directed_er(5, -1), "l must be an integer in [0, 20], got -1"),
        (lambda: gen_directed_er(5, 21), "l must be an integer in [0, 20], got 21"),
        # a real past the float range reads as inf or -inf
        (lambda: BaParams(n=10, p=10**400), "p must be a real number in [0, 1], got inf"),
        (lambda: BaParams(n=10, p=-10**400), "p must be a real number in [0, 1], got -inf"),
        (lambda: ReversalParams(r=10**400), "r must be a real number in [0, 1], got inf"),
        (lambda: sweep_r(PATH3, [10**400], samples=1), "grid value must be a real number in [0, 1], got inf"),
        # an integer past Python's limit on the digits of a string is shown
        # by its sign and bit length
        (
            lambda: preferential_mds(PATH3, NodeOrder(range(3)), 10**5000),
            "m must be an integer in [0, 3], got an integer of 16610 bits",
        ),
        (lambda: BaParams(n=-10**5000), "n must be an integer >= 3, got a negative integer of 16610 bits"),
        (
            lambda: sample_mds(PATH3, 1, -10**5000),
            "seed must be a non-negative integer, got a negative integer of 16610 bits",
        ),
        (lambda: gen_directed_er(10, 10**5000), "l must be an integer in [0, 90], got an integer of 16610 bits"),
        (lambda: sample_mds(PATH3, [10**5000], 1), "sample count must be an integer >= 1, got a list too long to print"),
        (lambda: BaParams(n=10**5000), "n=an integer of 16610 bits gives more node pairs than int64 indexes"),
        (lambda: gen_directed_er(10**5000, 1), "n=an integer of 16610 bits gives more node pairs than int64 indexes"),
        # any truthy value would turn deduplication on
        (lambda: sample_mds(PATH3, 1, 1, dedupe="no"), "dedupe must be a bool, got no"),
        (lambda: sample_mds(PATH3, 1, 1, dedupe=[1]), "dedupe must be a bool, got [1]"),
        # both streams check the seed before the count
        (lambda: sample_mds(PATH3, "x", -1), "seed must be a non-negative integer, got -1"),
        (lambda: iter_samples(PATH3, "x", -1), "seed must be a non-negative integer, got -1"),
    ],
    ids=[
        "iter_samples-count", "sample_mds-count", "iter_samples-start", "preferential_mds-negative-m",
        "preferential_mds-m-past-N", "sweep_r-grid-high", "sweep_r-grid-low", "sweep_p-grid-nan",
        "sweep_r-samples", "BaParams-m_attach", "BaParams-m0", "BaParams-n", "BaParams-p-high",
        "BaParams-p-low", "BaParams-p-nan", "ReversalParams-r-high", "ReversalParams-r-nan",
        "ReversalParams-r-inf", "gen_directed_er-n", "gen_directed_er-l-low", "gen_directed_er-l-high",
        "BaParams-p-past-float", "BaParams-p-past-negative-float", "ReversalParams-r-past-float",
        "sweep_r-grid-past-float", "preferential_mds-m-past-str", "BaParams-n-past-str",
        "sample_mds-seed-past-str", "gen_directed_er-l-past-str", "sample_mds-count-list-past-str",
        "BaParams-pair-space-past-str", "gen_directed_er-pair-space-past-str",
        "sample_mds-dedupe-str", "sample_mds-dedupe-list", "sample_mds-seed-before-count",
        "iter_samples-seed-before-count",
    ],
)
def test_entry_points_refuse_values_outside_their_domain(call, message):
    # each numeric input's bounds are checked with its type, and the message
    # names the input and its domain
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(iter_samples(PATH3, 1, 1, start=0)),
        lambda: preferential_mds(PATH3, NodeOrder(range(3)), 0),
        lambda: preferential_mds(PATH3, NodeOrder(range(3)), 3),
        lambda: sweep_r(PATH3, [0, 1], samples=1),
        lambda: sweep_p([0.0, 1.0], BA_BASE, samples=1),
        lambda: BaParams(n=2, m_attach=1),
        lambda: BaParams(n=4, m_attach=3, m0=3, p=0),
        lambda: BaParams(n=4, p=1),
        lambda: ReversalParams(r=0),
        lambda: ReversalParams(r=1.0),
        lambda: gen_directed_er(1, 0),
        lambda: gen_directed_er(5, 0),
        lambda: gen_directed_er(5, 20),
        lambda: sample_mds(PATH3, 1, 1, dedupe=np.True_),
    ],
    ids=[
        "iter_samples-count-1-start-0", "preferential_mds-m-0", "preferential_mds-m-N",
        "sweep_r-grid-ends", "sweep_p-grid-ends", "BaParams-m_attach-1", "BaParams-m0-m_attach",
        "BaParams-p-1", "ReversalParams-r-0", "ReversalParams-r-1", "gen_directed_er-n-1",
        "gen_directed_er-l-0", "gen_directed_er-l-capacity", "sample_mds-dedupe-numpy-bool",
    ],
)
def test_entry_points_accept_the_ends_of_each_domain(call):
    call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Matching([2**64 - 1, 2**64 - 1]), ValidationError),
        (lambda: DirectedGraph(["a", "b"], np.array([[0, 2**64 - 1]], dtype=np.uint64)), ValueError),
        (lambda: NodeOrder(np.array([2**64 - 1, 0], dtype=np.uint64)), UsageError),
    ],
    ids=["Matching", "DirectedGraph", "NodeOrder"],
)
def test_unsigned_indices_past_int64_are_refused(call, error):
    # a cast to int64 would wrap them to negatives, such as -1 for a free role
    with pytest.raises(error, match=f"must be integers within int64, got {2**64 - 1}$"):
        call()


@pytest.mark.parametrize(
    "call, error, past",
    [
        (lambda: Matching([2**64]), ValidationError, 2**64),
        (lambda: NodeOrder([0, -2**63 - 1]), UsageError, -2**63 - 1),
        (lambda: DirectedGraph(["a", "b"], [(0, 2**64)]), ValueError, 2**64),
        (lambda: Matching([0, 10**5000]), ValidationError, "an integer of 16610 bits"),
    ],
    ids=["Matching", "NodeOrder", "DirectedGraph", "Matching-past-str"],
)
def test_python_ints_past_int64_are_refused_as_integers(call, error, past):
    # numpy holds ints past both int64 and uint64 as objects: they are
    # still integers, refused for their range and not their type
    with pytest.raises(error, match=f"{re.escape(f'must be integers within int64, got {past}')}$"):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: DirectedGraph(["a"], None), ValueError),
        (lambda: DirectedGraph(["a", "b"], 5), ValueError),
        (lambda: DirectedGraph(None, []), ValueError),
        (lambda: DirectedGraph(5, []), ValueError),
        (lambda: NodeOrder(None), UsageError),
        (lambda: Matching(None), ValidationError),
        (lambda: sweep_r(PATH3, None, samples=2), UsageError),
        (lambda: sweep_r(PATH3, 5, samples=2), UsageError),
        (lambda: sweep_p(None, BA_BASE), UsageError),
    ],
    ids=[
        "DirectedGraph-None-edges", "DirectedGraph-int-edges", "DirectedGraph-None-labels",
        "DirectedGraph-int-labels", "NodeOrder-None", "Matching-None", "sweep_r-None-grid",
        "sweep_r-int-grid", "sweep_p-None-grid",
    ],
)
def test_entry_points_refuse_non_iterables(call, error):
    # iterating None or 5 raises a bare TypeError, which no caller expects
    with pytest.raises(error, match="must be"):
        call()


MODULES_LOADED = """
import json, sys
def netctrl_modules():
    return {name for name in sys.modules if name.partition(".")[0] == "netctrl"}
import netctrl
at_import, numpy_at_import = netctrl_modules(), "numpy" in sys.modules
netctrl.read_edge_list(sys.argv[1])
print(json.dumps([sorted(at_import), numpy_at_import, sorted(netctrl_modules() - at_import)]))
"""


def run_child(*args):
    """A child interpreter run with ``args``, with this checkout's ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PYPROJECT.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_loads_only_what_a_caller_reads(tmp_path):
    # the public names load their modules on first access: `import netctrl`
    # loads no numpy, and reading a graph loads none of matching, mds,
    # stats or generators, which a process's start-up would otherwise pay for
    path = tmp_path / "g.txt"
    path.write_text("a b\nb c\n", encoding="utf-8")
    proc = run_child("-W", "error", "-c", MODULES_LOADED, str(path))
    assert proc.returncode == 0, proc.stderr
    at_import, numpy_at_import, by_read = json.loads(proc.stdout)
    assert at_import == ["netctrl", "netctrl.errors"]
    assert numpy_at_import is False
    assert by_read == ["netctrl._kernel", "netctrl.graph"]


COMMAND_CORE = """
import json, sys
from netctrl import _kernel, cli
status = cli.main(sys.argv[1:])
print(json.dumps([status, _kernel._kernel is _kernel._UNSET]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--gen", "ba:n=30", "--seed", "1"],
        ["reverse", "--gen", "ba:n=30", "--R", "0.5", "--seed", "1"],
    ],
    ids=["generate", "reverse"],
)
def test_commands_that_never_parse_match_or_sample_leave_the_core_unloaded(argv, tmp_path, monkeypatch):
    # only core() builds or loads the library, and these commands never
    # call it: the core stays unset, and a fresh cache stays empty
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    proc = run_child("-c", COMMAND_CORE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, True]
    assert list(cache.iterdir()) == []


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != 0


def test_passes():
    pass
"""


def test_a_failing_property_does_not_stop_the_session(tmp_path):
    # hypothesis's plugin imports libcst to print a failing property's
    # patch; under filterwarnings = ["error"] a deprecation warning of that
    # import would end the session with an INTERNALERROR, reporting no
    # falsifying example and running no later test
    pytest.importorskip("hypothesis")
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", "pyproject.toml", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
