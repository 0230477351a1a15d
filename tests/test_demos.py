"""The narrative scripts under demos/ and the README's library tour run to
completion."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [p.name for p in DEMOS] == [
        "01_driver_nodes.py",
        "02_degree_steered_matching.py",
        "03_edge_direction.py",
    ]


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_tour_runs():
    # the tour names the public API, so it would catch a renamed or deleted name
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert tour is not None
    proc = run_python("-c", tour.group(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
