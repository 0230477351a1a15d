"""The package's export lists, its version string and its package data."""

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
