"""Outside-in layer trace: wrap netctrl's public functions and record spans.

The tracer lives in the benchmark, not in the library. It replaces every
module binding of each traced function with a timing wrapper (``cli`` and
``stats`` import ``sample_mds``, ``reverse_edges`` and others by name, so
patching only the defining module would miss their calls) and wraps the
class methods in ``METHODS`` on the class itself. Spans are kept in memory
as ``(id, parent, name, start, end)`` tuples and written once, when the
traced command has returned.

Layer names are the package modules. ``seeding`` and ``errors`` are too
small to time. A span's name is ``<layer>.<function>``, with ``__init__``
written as ``init`` (``matching.Matching.init``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "generators", "matching", "mds", "stats", "cli")

# (layer, class, method) wrapped on the class in addition to every public
# function of each layer module.
METHODS = (
    ("graph", "DirectedGraph", "__init__"),
    ("matching", "Matching", "__init__"),
    ("matching", "MatchingState", "__init__"),
    ("matching", "MatchingState", "complete"),
    ("matching", "MatchingState", "extend_with_node"),
    ("mds", "NodeOrder", "__init__"),
)

PROBE = "trace.probe"


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.replace('__init__', 'init')}"


class Tracer:
    """In-memory span recorder plus named counters for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, probe=None):
        """Return ``fn`` timed as span ``name``.

        ``probe`` is an optional ``(before, after)`` pair of hooks:
        ``before(args)`` (or None) runs ahead of the call and returns a
        token, ``after(tracer, token, args, result)`` runs after it to
        update counters. The ``after`` hook's time is recorded as a
        ``trace.probe`` span beside the wrapped one, so it counts as no
        layer's self time.
        """
        clock = self.clock
        spans = self.spans
        stack = self._stack

        before, after = probe if probe else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after:
                after(self, token, args, result)
                spans.append((self._next_id, parent, PROBE, end, clock()))
                self._next_id += 1
            return result

        return wrapper

    def install(self, package: str = "netctrl") -> None:
        """Wrap every traced function at every binding in the package."""
        layers = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in layers.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == module.__name__:
                    name = span_name(layer, attr)
                    replacements[id(fn)] = self.wrap(name, fn, PROBES.get(name))
                    self.wrapped.append(name)
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            name = span_name(layer, f"{cls_name}.{method}")
            cls = getattr(layers[layer], cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if fn is None:
                self.missing.append(name)
                continue
            self._patch(cls, method, self.wrap(name, fn, PROBES.get(name)))
            self.wrapped.append(name)

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "wrapped": self.wrapped,
                    "missing": self.missing,
                },
                fh,
            )


# --- counters recorded where the work happens ---------------------------

def _size_before(args):
    return args[0].size


def _count_growth(tracer, before, args, result):
    grown = args[0].size - before
    tracer.counters["matching.augmentations"] += grown


def _count_admission(tracer, before, args, result):
    grown = args[0].size - before
    tracer.counters["matching.augmentations"] += grown
    tracer.counters["matching.admissions"] += 1
    tracer.counters["matching.admissions_grown"] += grown > 0


def _count_reversal(tracer, _, args, result):
    tracer.counters["generators.reversed_edges"] += result.reversed_count
    tracer.counters["generators.skipped_flips"] += result.skipped_count


def _count_samples(tracer, _, args, result):
    summary = result[0] if isinstance(result, tuple) else result
    count = summary.sample_count
    distinct = summary.distinct_driver_sets
    if distinct is None and isinstance(result, tuple) and isinstance(result[1], list):
        distinct = len({sample.drivers for sample in result[1]})
    tracer.counters["mds.samples"] += count
    if distinct is not None:
        tracer.counters["mds.distinct_sets"] += distinct
        tracer.counters["mds.deduped_samples"] += count


def _count_report(tracer, _, args, result):
    tracer.counters["cli.report_bytes"] += len(result.encode("utf-8"))


PROBES = {
    "matching.MatchingState.complete": (_size_before, _count_growth),
    "matching.MatchingState.extend_with_node": (_size_before, _count_admission),
    "generators.reverse_edges": (None, _count_reversal),
    "mds.sample_mds": (None, _count_samples),
    "cli.run": (None, _count_report),
}


# --- span arithmetic ------------------------------------------------------

def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` is the time inside the call; a span nested inside another
    span of the same name (recursion) is not counted twice. ``self_s`` is
    each span's duration minus the part of it its direct child spans cover.
    Probe spans count as children but get no entry of their own.
    """
    by_id = {sid: (parent, name, start, end) for sid, parent, name, start, end in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        if parent in by_id:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, parent, name, start, end in spans:
        if name == PROBE:
            continue
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[sid]
        ancestor = parent
        nested = False
        while ancestor in by_id:
            if by_id[ancestor][1] == name:
                nested = True
                break
            ancestor = by_id[ancestor][0]
        if not nested:
            entry["busy_s"] += end - start
    return out


def layer_self_times(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += entry["self_s"]
    return totals
