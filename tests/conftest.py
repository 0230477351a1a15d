from __future__ import annotations

import os

import pytest

from netctrl import DirectedGraph, _kernel


@pytest.fixture(autouse=True)
def gives_the_cpus_back():
    """Every test ends on the CPUs it began on: a sample stream on threads
    pins its calling thread to one CPU while it runs, and must restore
    the thread's mask on every way out."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    yield
    assert os.sched_getaffinity(0) == mask, "the test left the calling thread pinned"


@pytest.fixture
def star():
    """hub -> {a, b, c}"""
    return DirectedGraph(["hub", "a", "b", "c"], [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def path3():
    """v1 -> v2 -> v3"""
    return DirectedGraph(["v1", "v2", "v3"], [(0, 1), (1, 2)])


@pytest.fixture
def cycle3():
    """1 -> 2 -> 3 -> 1"""
    return DirectedGraph(["1", "2", "3"], [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def two_matchings():
    """1 -> 2, 2 -> 1, 1 -> 3: exactly two maximum matchings."""
    return DirectedGraph(["1", "2", "3"], [(0, 1), (1, 0), (0, 2)])


@pytest.fixture(scope="session")
def fixture_corpus():
    from corpus import build_fixture_corpus

    return build_fixture_corpus()


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled core: the process's own when it loads (a build made
    with other flags under the loader's file name is tested as it is),
    else one built into a cache of the tests' own."""
    kernel = _kernel.core()
    if kernel is not None:
        return kernel
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        patch.setattr(_kernel, "_kernel", _kernel._UNSET)
        kernel = _kernel.core()
    if kernel is None:
        # tests/test_core_build.py fails when a compiler is found and the
        # kernel still cannot be built
        pytest.skip("the compiled kernel cannot be built here")
    return kernel
