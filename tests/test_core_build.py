"""Building and loading the compiled core (``_core.c``).

Each test builds into a cache of its own under ``tmp_path``. Whatever
goes wrong with the build, the sampler must give the golden report,
``read_edge_list`` the same graph, print nothing and leave no temporary
file behind.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from importlib.util import source_hash
from pathlib import Path

import pytest

from netctrl import DirectedGraph, _kernel, read_edge_list
from netctrl.cli import main

from test_golden import CASES, GOLDEN_DIR

SRC = Path(_kernel.__file__).parent
GOLDEN = "sample-ba60-dedupe.json"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on the PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory, and a kernel not yet loaded in this process."""
    root = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    monkeypatch.setattr(_kernel, "_kernel", _kernel._UNSET)
    return root / "netctrl"


def library_name() -> str:
    digest = source_hash((SRC / "_core.c").read_bytes()).hex()
    return f"_core-{digest}.so"


def assert_golden_sample(tmp_path, capfd) -> None:
    out = tmp_path / GOLDEN
    assert main(CASES[GOLDEN] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / GOLDEN).read_bytes()
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == ""


def assert_reads_edge_list(path: Path) -> None:
    path.write_text("# header\r\nb a\r\n\r\na c\r\nb a\r\n% note\r\nc c\r\n")
    expected = DirectedGraph(["b", "a", "c"], [(0, 1), (1, 2), (0, 1), (2, 2)])
    g = read_edge_list(path)
    assert g == expected and g.edges == expected.edges
    assert g.duplicate_count == expected.duplicate_count == 1
    assert g.out_ptr.tolist() == [0, 1, 2, 3] and g.in_tails.tolist() == [0, 1, 2]


def test_no_compiler_falls_back_to_the_python_core(cache, tmp_path, monkeypatch, capfd):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert_golden_sample(tmp_path, capfd)
    assert_reads_edge_list(tmp_path / "edges.txt")
    assert _kernel.core() is None
    assert not cache.exists()


def test_unwritable_cache_falls_back_to_the_python_core(cache, tmp_path, monkeypatch, capfd):
    # a file where the cache directory should be: no directory can be made
    # under it, even by a user whom permissions do not stop
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert_golden_sample(tmp_path, capfd)
    assert_reads_edge_list(tmp_path / "edges.txt")
    assert _kernel.core() is None
    assert blocker.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["blocker", "edges.txt", GOLDEN])


def test_corrupt_cached_library_is_built_again(cache, tmp_path, capfd):
    cache.mkdir(parents=True)
    (cache / library_name()).write_bytes(b"\x7fELF but truncated")
    assert_reads_edge_list(tmp_path / "edges.txt")
    assert_golden_sample(tmp_path, capfd)
    assert sorted(p.name for p in cache.iterdir()) == [library_name()]
    # without a compiler the corrupt file stays and the Python core runs
    assert (_kernel.core() is None) == (shutil.which("cc") is None)


@needs_cc
def test_kernel_is_active_when_a_compiler_is_found(cache, tmp_path, capfd):
    assert_golden_sample(tmp_path, capfd)
    assert_reads_edge_list(tmp_path / "edges.txt")
    assert _kernel.core() is not None
    assert sorted(p.name for p in cache.iterdir()) == [library_name()]


@needs_cc
def test_two_processes_building_at_once_both_succeed(cache, tmp_path):
    script = (
        "import sys\n"
        "from netctrl import _kernel\n"
        "from netctrl.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "sys.exit(code or (0 if _kernel.core() else 7))\n"
    )
    env = {**os.environ, "XDG_CACHE_HOME": str(cache.parent), "PYTHONPATH": str(SRC.parent)}
    outs = [tmp_path / f"report{i}.json" for i in range(2)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, "-"] + CASES[GOLDEN] + ["--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for out in outs
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        assert err == b""
    for out in outs:
        assert out.read_bytes() == (GOLDEN_DIR / GOLDEN).read_bytes()
    assert sorted(p.name for p in cache.iterdir()) == [library_name()]
