"""Directed graph data model, edge-list ingestion, and degree accounting.

Nodes are dense integer indices ``0..N-1``; every node carries an external
string label, interned in first-appearance order. Graphs are simple (a
repeated (tail, head) pair collapses to its first occurrence), may contain
self-loops, and are immutable after construction: transforms produce new
graphs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestionError, UsageError

__all__ = [
    "DirectedGraph",
    "DegreeView",
    "parse_edge_list",
    "read_edge_list",
    "to_edge_list",
    "degrees",
    "average_degree",
]

_COMMENT_PREFIXES = ("#", "%")


def _int64_array(values, error: type[Exception], what: str, pairs: bool = False) -> np.ndarray:
    """A new int64 array of ``values``, an array or an iterable: flat, or
    one (tail, head) row per pair when ``pairs`` (an empty input is no pairs).

    Raises ``error`` when a non-empty input holds anything but integers (the
    cast would cut floats and parse strings), unsigned ones past int64 (the
    cast would wrap them negative), or is not iterable, ragged or of another
    shape.
    """
    shape, layout = ((-1, 2), "(tail, head) pairs") if pairs else ((-1,), "one flat sequence")
    try:
        array = values if isinstance(values, np.ndarray) else np.array(list(values))
    except (TypeError, ValueError):  # not iterable, or ragged nesting numpy refuses
        raise error(f"{what} must be integers in {layout}") from None
    if array.size and array.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got {array.dtype} entries")
    if array.dtype.kind == "u":
        past = array[array > np.iinfo(np.int64).max]
        if past.size:
            raise error(f"{what} must be integers within int64, got {past[0]}")
    if pairs and not array.size:
        array = array.reshape(shape)
    if array.ndim != len(shape) or array.shape[1:] != shape[1:]:
        raise error(f"{what} must be integers in {layout}")
    return array.astype(np.int64)


def _node_indices(values, n: int) -> np.ndarray:
    """``values``, a scalar or an array, as int64 node indices; UsageError
    unless it holds integers only (a cast would cut floats and parse strings).
    """
    array = np.asarray(values)
    if array.dtype == object and all(isinstance(v, numbers.Integral) for v in array.flat):
        # integers past int64, clamped to -1 or n: each stays outside 0..n-1
        array = np.asarray(np.clip(array, -1, n), dtype=np.int64)
    if array.size and array.dtype.kind not in "iu":
        raise UsageError(f"node indices must be integers, got {array.dtype} entries")
    return array.astype(np.int64, copy=False)  # a uint64 past int64 wraps negative


class DirectedGraph:
    """Immutable directed graph stored as numpy edge arrays.

    ``tails`` and ``heads`` hold the edges in input order. ``out_ptr`` and
    ``out_heads`` are the out-adjacency as compressed sparse rows (the
    heads of tail u are ``out_heads[out_ptr[u]:out_ptr[u + 1]]``), and
    ``in_ptr`` and ``in_tails`` the in-adjacency; each row keeps input
    order. All arrays are read-only.

    Construction validates that node indices are dense and labels are
    unique. A (tail, head) pair given more than once is kept at its first
    position only, and ``duplicate_count`` tallies the repeats dropped (0
    for generated graphs). ``provenance`` holds free-form header lines,
    e.g. generator parameters, that serialization emits as comments.
    """

    __slots__ = (
        "_labels",
        "_keys",
        "tails",
        "heads",
        "out_ptr",
        "out_heads",
        "in_ptr",
        "in_tails",
        "duplicate_count",
        "provenance",
    )

    def __init__(
        self,
        labels: Sequence[str],
        edges: Iterable[tuple[int, int]],
        *,
        provenance: tuple[str, ...] = (),
    ):
        try:
            labels = tuple(str(s) for s in labels)
        except TypeError:
            raise ValueError(f"node labels must be a sequence, got {labels!r}") from None
        n = len(labels)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if len(set(labels)) != n:
            raise ValueError("node labels must be unique")
        pairs = _int64_array(edges, ValueError, "edge ends", pairs=True)
        outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
        if outside.size:
            tail, head = pairs[outside[0]].tolist()
            raise ValueError(f"edge ({tail}, {head}) out of range for {n} nodes")
        tails, heads = pairs.T.copy()
        # one key per edge, tail * n + head: sorted, it answers has_edge
        # and equality, and equal neighbours are a repeated pair
        given = tails * n + heads
        keys = np.sort(given)
        if (keys[1:] == keys[:-1]).any():
            # keep each pair at its first position, in input order
            keys, first = np.unique(given, return_index=True)
            first.sort()
            tails, heads = tails[first], heads[first]
        # Each row keeps input order: the keys row * width + slot are unique
        # (width is the edge count, at least 1), so sorting them orders the
        # slots by row and, within a row, by slot. The row pointers are
        # prefix sums of the row lengths.
        width = max(tails.size, 1)
        slots = np.arange(tails.size)
        out_rows = np.sort(tails * width + slots) % width
        in_rows = np.sort(heads * width + slots) % width
        out_ptr = np.zeros(n + 1, dtype=np.int64)
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=out_ptr[1:])
        np.cumsum(np.bincount(heads, minlength=n), out=in_ptr[1:])
        self._labels = labels
        self._keys = keys
        self.tails = tails
        self.heads = heads
        self.out_ptr = out_ptr
        self.out_heads = heads[out_rows]
        self.in_ptr = in_ptr
        self.in_tails = tails[in_rows]
        for array in (keys, tails, heads, self.out_ptr, self.out_heads, self.in_ptr, self.in_tails):
            array.flags.writeable = False
        self.duplicate_count = given.size - keys.size
        self.provenance = tuple(provenance)

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self.tails.size

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (tail, head) tuples in input order, built on each call."""
        return tuple(zip(self.tails.tolist(), self.heads.tolist()))

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def label_of(self, node: int) -> str:
        return self._labels[node]

    def has_edge(self, tail, head):
        """Whether tail -> head is an edge; element-wise on arrays.

        Returns a bool for scalar arguments and a bool array otherwise.
        Indices outside ``0..N-1`` are never edges. Raises UsageError on
        anything but integers.
        """
        n = len(self._labels)
        tail = _node_indices(tail, n)
        head = _node_indices(head, n)
        key = tail * n + head
        keys = self._keys
        found = (0 <= tail) & (tail < n) & (0 <= head) & (head < n) & (keys.size > 0)
        if keys.size:
            found &= keys[np.searchsorted(keys, key).clip(max=keys.size - 1)] == key
        return bool(found) if found.ndim == 0 else found

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(self._keys, other._keys)

    def __hash__(self):
        return hash((self._labels, self._keys.tobytes()))

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class DegreeView:
    """Per-node in/out/total degree vectors (total = in + out)."""

    in_degree: np.ndarray
    out_degree: np.ndarray
    total_degree: np.ndarray


def degrees(graph: DirectedGraph) -> DegreeView:
    """Exact in/out/total degrees for every node, from the CSR row pointers."""
    out = np.diff(graph.out_ptr)
    inc = np.diff(graph.in_ptr)
    return DegreeView(in_degree=inc, out_degree=out, total_degree=inc + out)


def average_degree(graph: DirectedGraph) -> float:
    """Network average total degree, 2L/N."""
    return 2.0 * graph.edge_count / graph.node_count


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a graph.

    Format: UTF-8 text (a leading byte-order mark is dropped when reading
    a file), one ``tail<ws>head`` pair of labels per line.
    Lines starting with '#' or '%' are comments; blank lines are ignored.
    Self-loops are retained. Repeated (tail, head) lines collapse to the
    first and are tallied in ``duplicate_count``, as ``DirectedGraph``
    does for any repeated pair.

    Raises IngestionError on empty input or on a line that does not hold
    exactly two tokens.

    ASCII text is tokenized by the compiled core (``_core.c``) when it
    loads; other text, and text with a line the core rejects, goes through
    the line loop, which gives the same graph or reports the line.
    """
    labels, pairs = (_intern_compiled(text) if text.isascii() else None) or _intern_lines(text)
    if not labels:
        raise IngestionError("no edges found in input")
    return DirectedGraph(labels, pairs)


def _intern_compiled(text: str) -> tuple[list[str], np.ndarray] | None:
    """The labels in first-appearance order and the (tail, head) id pairs in
    line order, from the compiled tokenizer; None when it is not at hand or
    rejects a line."""
    # imported on first use: commands that never parse (generate, reverse) skip the loader
    from ._kernel import core

    compiled = core()
    found = None if compiled is None else compiled.tokenize(text.encode("ascii"))
    if found is None:
        return None
    ends, offsets, lengths = found
    # ASCII: byte offsets are character offsets
    labels = [text[a:b] for a, b in zip(offsets.tolist(), (offsets + lengths).tolist())]
    return labels, ends.reshape(-1, 2)


def _intern_lines(text: str) -> tuple[list[str], np.ndarray]:
    """``_intern_compiled``'s result from a loop over the lines, which also
    serves text that is not ASCII; raises IngestionError on a line that
    does not hold two tokens."""
    label_index: dict[str, int] = {}
    ends: list[int] = []  # tail, head, tail, head, ... in line order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith(_COMMENT_PREFIXES):
            continue
        if len(tokens) != 2:
            raise IngestionError(
                f"line {lineno}: expected 'tail head', got {len(tokens)} token(s): {raw.strip()!r}"
            )
        ends.append(label_index.setdefault(tokens[0], len(label_index)))
        ends.append(label_index.setdefault(tokens[1], len(label_index)))
    return list(label_index), np.array(ends, dtype=np.int64).reshape(-1, 2)


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
    output of a graph that has them yields a smaller graph. Raises
    UsageError when a label would not read back as itself (one that is
    empty, holds whitespace, or starts with '#' or '%', a comment line),
    or when a provenance note holds a line break, past which its text
    would read as an edge line.
    """
    labels = graph.labels
    for label in labels:
        if label.startswith(_COMMENT_PREFIXES) or label.split() != [label]:
            raise UsageError(
                f"node label {label!r} cannot be written to an edge list: a label is one "
                "token that does not start with '#' or '%'"
            )
    for note in graph.provenance:
        # str.splitlines drops exactly the line breaks the parser splits at
        if "".join(note.splitlines()) != note:
            raise UsageError(
                f"provenance note {note!r} cannot be written to an edge list: a note is one line"
            )
    lines = [f"# {note}" for note in graph.provenance]
    for tail, head in graph.edges:
        lines.append(f"{labels[tail]} {labels[head]}")
    return "\n".join(lines) + "\n"
