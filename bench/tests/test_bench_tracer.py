"""The layer tracer: span arithmetic and wrapping at every binding."""

import importlib
import sys

import pytest

import tracer
from tracer import PROBE, Tracer, layer_self_times, summarize


def test_self_time_subtracts_direct_children_only():
    spans = [
        (2, 1, "matching.MatchingState.complete", 2.0, 3.0),
        (1, 0, "mds.sample_mds", 1.0, 4.0),
        (3, 0, "mds.sample_mds", 5.0, 7.0),
        (4, 0, PROBE, 7.0, 7.5),
        (0, -1, "cli.run", 0.0, 10.0),
    ]
    summary = summarize(spans)
    assert summary["cli.run"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 3.0 - 2.0 - 0.5}
    assert summary["mds.sample_mds"] == {"calls": 2, "busy_s": 5.0, "self_s": 2.0 + 2.0}
    assert summary["matching.MatchingState.complete"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert PROBE not in summary
    layers = layer_self_times(summary)
    assert layers["cli"] == 4.5 and layers["mds"] == 4.0 and layers["matching"] == 1.0
    assert layers["graph"] == 0.0


def test_recursive_spans_count_busy_time_once():
    spans = [(1, 0, "graph.f", 1.0, 2.0), (0, -1, "graph.f", 0.0, 4.0)]
    entry = summarize(spans)["graph.f"]
    assert entry == {"calls": 2, "busy_s": 4.0, "self_s": 3.0 + 1.0}


def test_wrapper_records_parents_and_probe_time():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("mds.inner", lambda: 5, probe=(None, lambda tr, tok, args, res: tr.counters.__setitem__("n", res)))
    outer = t.wrap("cli.outer", lambda: inner() + 1)
    assert outer() == 6
    assert t.counters["n"] == 5
    names = {sid: (parent, name) for sid, parent, name, _, _ in t.spans}
    outer_id = next(sid for sid, (_, name) in names.items() if name == "cli.outer")
    assert names[outer_id][0] == -1
    assert {name for parent, name in names.values() if parent == outer_id} == {"mds.inner", PROBE}
    summary = summarize(t.spans)
    assert summary["cli.outer"]["self_s"] == summary["cli.outer"]["busy_s"] - 2.0


@pytest.fixture
def installed():
    t = Tracer()
    originals = {}
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"netctrl.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if callable(fn) and not isinstance(fn, type) and fn.__module__ == module.__name__:
                originals[tracer.span_name(layer, attr)] = fn
    t.install()
    yield t, originals
    t.uninstall()


def test_every_public_function_wrapped_at_every_binding(installed):
    t, originals = installed
    assert set(originals) <= set(t.wrapped)
    assert t.missing == []
    bound = {id(fn) for fn in originals.values()}
    netctrl_modules = [m for name, m in sys.modules.items() if name == "netctrl" or name.startswith("netctrl.")]
    for module in netctrl_modules:
        for attr, value in vars(module).items():
            assert id(value) not in bound, f"{module.__name__}.{attr} still points to the unwrapped function"
    # the names the CLI and the sweeps import from other modules
    import netctrl
    from netctrl import cli, mds, stats

    assert cli.sample_mds is stats.sample_mds is mds.sample_mds is netctrl.sample_mds
    assert cli.reverse_edges is stats.reverse_edges is netctrl.reverse_edges
    assert cli.read_edge_list is netctrl.read_edge_list
    assert mds.sample_mds.__wrapped__ is originals["mds.sample_mds"]
    for layer, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"netctrl.{layer}"), cls_name)
        assert hasattr(vars(cls)[method], "__wrapped__"), f"{cls_name}.{method} is not wrapped"


def test_uninstall_restores_every_binding(installed):
    t, originals = installed
    t.uninstall()
    from netctrl import cli, matching

    assert cli.sample_mds is originals["mds.sample_mds"]
    assert not hasattr(vars(matching.MatchingState)["complete"], "__wrapped__")


def test_traced_cli_records_calls_made_through_imported_names(installed, tmp_path):
    t, _ = installed
    from netctrl import cli

    path = tmp_path / "g.txt"
    path.write_text("a b\nb c\nc a\nb a\n", encoding="utf-8")
    out = tmp_path / "r.csv"
    argv = ["sweep-r", "--input", str(path), "--grid", "0,1", "--samples", "3", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    summary = summarize(t.spans)
    assert summary["mds.sample_mds"]["calls"] == 2
    assert summary["generators.reverse_edges"]["calls"] == 2
    assert summary["matching.MatchingState.complete"]["calls"] == 6
    assert t.counters["mds.samples"] == 6
    # at R=1 only c -> a runs from lower to higher degree (2 < 3)
    assert (t.counters["generators.reversed_edges"], t.counters["generators.skipped_flips"]) == (1, 0)
    assert t.counters["cli.report_bytes"] == len(out.read_bytes())
