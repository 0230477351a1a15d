"""The package's export lists and its version string."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import netctrl
from netctrl import errors, generators, graph, matching, mds, stats

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
