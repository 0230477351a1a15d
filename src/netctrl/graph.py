"""Directed graph data model, edge-list ingestion, and degree accounting.

Nodes are dense integer indices ``0..N-1``; every node carries an external
string label, interned in first-appearance order. Graphs are simple (a
(tail, head) pair appears at most once), may contain self-loops, and are
immutable after construction: transforms produce new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestionError

__all__ = [
    "DirectedGraph",
    "DegreeView",
    "parse_edge_list",
    "read_edge_list",
    "to_edge_list",
    "write_edge_list",
    "degrees",
    "out_csr",
    "average_degree",
]

_COMMENT_PREFIXES = ("#", "%")


class DirectedGraph:
    """Immutable directed graph with out/in adjacency.

    Construction validates that node indices are dense, labels are unique,
    and no (tail, head) pair repeats. ``duplicate_count`` records how many
    duplicate edge lines were collapsed during ingestion (0 for generated
    graphs); ``provenance`` holds free-form header lines, e.g. generator
    parameters, that serialization emits as comments.
    """

    __slots__ = (
        "_labels",
        "_edges",
        "_out",
        "_in",
        "_label_index",
        "_edge_set",
        "_degree_view",
        "_out_csr",
        "_out_ptr",
        "duplicate_count",
        "provenance",
    )

    def __init__(
        self,
        labels: Sequence[str],
        edges: Iterable[tuple[int, int]],
        *,
        duplicate_count: int = 0,
        provenance: tuple[str, ...] = (),
    ):
        labels = tuple(str(s) for s in labels)
        n = len(labels)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if len(set(labels)) != n:
            raise ValueError("node labels must be unique")
        edge_list = []
        seen: set[tuple[int, int]] = set()
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for tail, head in edges:
            tail = int(tail)
            head = int(head)
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"edge ({tail}, {head}) out of range for {n} nodes")
            pair = (tail, head)
            if pair in seen:
                raise ValueError(f"duplicate edge ({tail}, {head})")
            seen.add(pair)
            edge_list.append(pair)
            out[tail].append(head)
            inc[head].append(tail)
        self._labels = labels
        self._edges = tuple(edge_list)
        self._out = tuple(tuple(a) for a in out)
        self._in = tuple(tuple(a) for a in inc)
        self._label_index = {s: i for i, s in enumerate(labels)}
        self._edge_set = seen
        self._degree_view = None
        self._out_csr = None
        self._out_ptr = None
        self.duplicate_count = int(duplicate_count)
        self.provenance = tuple(provenance)

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def out_adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._out

    @property
    def in_adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._in

    def index_of(self, label: str) -> int:
        return self._label_index[label]

    def label_of(self, node: int) -> str:
        return self._labels[node]

    def has_edge(self, tail: int, head: int) -> bool:
        return (tail, head) in self._edge_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self._labels == other._labels and self._edge_set == other._edge_set

    def __hash__(self):
        return hash((self._labels, frozenset(self._edge_set)))

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class DegreeView:
    """Per-node in/out/total degree vectors (total = in + out)."""

    in_degree: np.ndarray
    out_degree: np.ndarray
    total_degree: np.ndarray


def degrees(graph: DirectedGraph) -> DegreeView:
    """Exact in/out/total degrees for every node (cached on the graph)."""
    view = graph._degree_view
    if view is None:
        out = np.fromiter((len(a) for a in graph.out_adjacency), dtype=np.int64, count=graph.node_count)
        inc = np.fromiter((len(a) for a in graph.in_adjacency), dtype=np.int64, count=graph.node_count)
        view = DegreeView(in_degree=inc, out_degree=out, total_degree=inc + out)
        graph._degree_view = view
    return view


def out_csr(graph: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Out-adjacency as compressed sparse rows (cached on the graph).

    Returns ``(ptr, heads)``: the heads of tail u are
    ``heads[ptr[u]:ptr[u + 1]]``, in ``out_adjacency`` order. Both arrays
    are read-only.
    """
    csr = graph._out_csr
    if csr is None:
        ptr = np.zeros(graph.node_count + 1, dtype=np.int64)
        np.cumsum(degrees(graph).out_degree, out=ptr[1:])
        heads = np.fromiter(
            (v for adj in graph.out_adjacency for v in adj), dtype=np.int64, count=graph.edge_count
        )
        ptr.flags.writeable = False
        heads.flags.writeable = False
        csr = graph._out_csr = (ptr, heads)
    return csr


def out_ptr_list(graph: DirectedGraph) -> list[int]:
    """``out_csr``'s row pointer as a list (cached on the graph).

    For loops that index the pointer one element at a time, which is
    faster on a list than on an array.
    """
    ptr = graph._out_ptr
    if ptr is None:
        ptr = graph._out_ptr = out_csr(graph)[0].tolist()
    return ptr


def average_degree(graph: DirectedGraph) -> float:
    """Network average total degree, 2L/N."""
    return 2.0 * graph.edge_count / graph.node_count


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a graph.

    Format: UTF-8 text (a leading byte-order mark is dropped when reading
    a file), one ``tail<ws>head`` pair of labels per line.
    Lines starting with '#' or '%' are comments; blank lines are ignored.
    Duplicate (tail, head) lines collapse to one edge and are tallied in
    ``duplicate_count``. Self-loops are retained.

    Raises IngestionError on empty input or on a line that does not hold
    exactly two tokens.
    """
    label_index: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0

    def intern(label: str) -> int:
        idx = label_index.get(label)
        if idx is None:
            idx = len(labels)
            label_index[label] = idx
            labels.append(label)
        return idx

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise IngestionError(
                f"line {lineno}: expected 'tail head', got {len(tokens)} token(s): {line!r}"
            )
        pair = (intern(tokens[0]), intern(tokens[1]))
        if pair in seen:
            duplicates += 1
            continue
        seen.add(pair)
        edges.append(pair)
    if not labels:
        raise IngestionError("no edges found in input")
    return DirectedGraph(labels, edges, duplicate_count=duplicates)


def read_text(path) -> str:
    """Read a UTF-8 text file, dropping a leading byte-order mark.

    Unreadable paths and bytes that are not UTF-8 raise IngestionError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def read_edge_list(path) -> DirectedGraph:
    """Parse an edge-list file; unreadable or non-UTF-8 files raise IngestionError."""
    return parse_edge_list(read_text(path))


def to_edge_list(graph: DirectedGraph) -> str:
    """Serialize to edge-list text, emitting provenance lines as comments.

    Isolated nodes are not representable in this format; reparsing the
    output of a graph that has them yields a smaller graph.
    """
    lines = [f"# {note}" for note in graph.provenance]
    labels = graph.labels
    for tail, head in graph.edges:
        lines.append(f"{labels[tail]} {labels[head]}")
    return "\n".join(lines) + "\n"


def write_edge_list(graph: DirectedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_edge_list(graph))
