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

from . import _kernel
from .errors import IngestionError, UsageError, shown

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


def _int64_array(values, error: type[Exception], what: str, pairs: bool = False, copy: bool = True) -> np.ndarray:
    """A new int64 array of ``values``, an array or an iterable: flat, or
    one (tail, head) row per pair when ``pairs`` (an empty input is no pairs).
    Without ``copy``, an int64 array comes back as it is.

    Raises ``error`` when a non-empty input holds anything but integers (the
    cast would cut floats and parse strings), integers past int64 (the cast
    would wrap unsigned ones negative, and Python ints past uint64 make an
    object array), or is not iterable, ragged or of another shape.
    """
    shape, layout = ((-1, 2), "(tail, head) pairs") if pairs else ((-1,), "one flat sequence")
    try:
        array = values if isinstance(values, np.ndarray) else np.array(list(values))
    except (TypeError, ValueError):  # not iterable, or ragged nesting numpy refuses
        raise error(f"{what} must be integers in {layout}") from None
    if array.dtype.kind == "u" or array.dtype == object and all(isinstance(v, numbers.Integral) for v in array.flat):
        int64 = np.iinfo(np.int64)
        past = array[(array < int64.min) | (array > int64.max)]
        if past.size:
            raise error(f"{what} must be integers within int64, got {shown(past[0])}")
    if array.size and array.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got {array.dtype} entries")
    if pairs and not array.size:
        array = array.reshape(shape)
    if array.ndim != len(shape) or array.shape[1:] != shape[1:]:
        raise error(f"{what} must be integers in {layout}")
    return array.astype(np.int64, copy=copy)


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


def _cut_labels(packed: bytes | None, count: int) -> tuple[str, ...]:
    """Every label of a store, as strings: split out of its packed bytes, or
    the numbers 0..count-1 when it has none."""
    if packed is None:
        return tuple(map(str, range(count)))
    return tuple(packed.decode("ascii").split("\n")[:-1])


class _Labels:
    """A graph's node labels as the library makes them: unique strings by
    construction, so ``DirectedGraph`` checks none of them, and cut into
    Python strings only when something reads them.

    A store of ``count`` labels holds the tokenizer's ``packed`` bytes,
    where each label is followed by a ``\\n`` and label i starts at
    ``offsets[i]``; or the ``strings`` themselves; or neither, for a
    generator's labels ``str(0)..str(count - 1)``. ``strings()`` cuts them
    all once and keeps them, and a graph derived from another shares its
    store.
    """

    __slots__ = ("count", "_packed", "_offsets", "_strings")

    def __init__(self, count: int, packed: bytes | None = None, offsets=None, strings=None):
        self.count = count
        self._packed = packed
        self._offsets = offsets
        self._strings = strings

    def strings(self) -> tuple[str, ...]:
        if self._strings is None:
            self._strings = _cut_labels(self._packed, self.count)
        return self._strings

    def string(self, node: int) -> str:
        """Label ``node``, an int in 0..count-1, cut alone."""
        if self._strings is not None:
            return self._strings[node]
        if self._packed is None:
            return str(node)
        start, stop = self._offsets[node:node + 2].tolist()
        return self._packed[start:stop - 1].decode("ascii")


# the most nodes whose edge keys, tail * n + head up to n * n - 1, fit int64
# (MAX_NODES in _core.c)
_MAX_NODES = 3037000499


def _edge_buffer(n: int, count: int) -> np.ndarray:
    """The one int64 buffer of a graph of ``n`` nodes built from ``count``
    pairs, as ``_layout`` lays it out: the caller writes the tails to
    ``[:count]`` and the heads to ``[count:2 * count]``, and the build
    writes the rest."""
    return np.empty(5 * count + 2 * n + 2, dtype=np.int64)


def _layout(buffer: np.ndarray, n: int, count: int, kept: int) -> tuple[np.ndarray, ...]:
    """``(tails, heads, out_ptr, out_heads, in_ptr, in_tails, keys)`` of a
    built buffer, as views: regions of ``count``, ``count``, ``n + 1``,
    ``count``, ``n + 1``, ``count`` and ``count`` entries, each edge array
    holding the ``kept`` pairs (``netctrl_build`` in ``_core.c`` writes the
    same regions)."""
    starts = (0, count, 2 * count, 2 * count + n + 1, 3 * count + n + 1, 3 * count + 2 * n + 2, 4 * count + 2 * n + 2)
    sizes = (kept, kept, n + 1, kept, n + 1, kept, kept)
    return tuple(buffer[start:start + size] for start, size in zip(starts, sizes))


def _build_arrays(n: int, count: int, buffer: np.ndarray) -> int:
    """``netctrl_build`` with numpy, the fallback and the reference: the
    number of pairs kept, with the buffer's regions written as it writes
    them, or -1 when a node index lies outside 0..n-1."""
    ends = buffer[:2 * count]
    if count and (ends.min() < 0 or ends.max() >= n):
        return -1
    tails, heads = buffer[:count], buffer[count:2 * count]
    # one key per pair, tail * n + head: sorted, it answers has_edge and
    # equality, and equal neighbours are a repeated pair
    given = tails * n + heads
    keys = np.sort(given)
    if (keys[1:] == keys[:-1]).any():
        # keep each pair at its first position, in input order
        keys, first = np.unique(given, return_index=True)
        first.sort()
        tails[:first.size], heads[:first.size] = tails[first], heads[first]
    kept = keys.size
    tails, heads, out_ptr, out_heads, in_ptr, in_tails, key_region = _layout(buffer, n, count, kept)
    # Each row keeps input order: the keys row * width + slot are unique
    # (width is the edge count, at least 1), so sorting them orders the
    # slots by row and, within a row, by slot. The row pointers are
    # prefix sums of the row lengths.
    width = max(kept, 1)
    slots = np.arange(kept)
    out_heads[:] = heads[np.sort(tails * width + slots) % width]
    in_tails[:] = tails[np.sort(heads * width + slots) % width]
    out_ptr[0] = in_ptr[0] = 0
    np.cumsum(np.bincount(tails, minlength=n), out=out_ptr[1:])
    np.cumsum(np.bincount(heads, minlength=n), out=in_ptr[1:])
    key_region[:] = keys
    return kept


class DirectedGraph:
    """Immutable directed graph stored as numpy edge arrays.

    ``tails`` and ``heads`` hold the edges in input order. ``out_ptr`` and
    ``out_heads`` are the out-adjacency as compressed sparse rows (the
    heads of tail u are ``out_heads[out_ptr[u]:out_ptr[u + 1]]``), and
    ``in_ptr`` and ``in_tails`` the in-adjacency; each row keeps input
    order. All arrays are read-only views of one int64 buffer, which the
    compiled ``netctrl_build`` writes, or the numpy build without it.

    Construction validates that node indices are dense and labels are
    unique. Labels the library made itself (parsed, generated, or shared
    with the graph a transform started from) are unique by construction:
    they are not checked again, nor made strings before ``labels`` or
    ``label_of`` reads them. A (tail, head) pair given more than once is
    kept at its first position only, and ``duplicate_count`` tallies the
    repeats dropped (0 for generated graphs). ``provenance`` holds
    free-form header lines, e.g. generator parameters, that serialization
    emits as comments.
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
        if not isinstance(labels, _Labels):
            try:
                strings = tuple(str(s) for s in labels)
            except TypeError:
                raise ValueError(f"node labels must be a sequence, got {labels!r}") from None
            if len(set(strings)) != len(strings):
                raise ValueError("node labels must be unique")
            labels = _Labels(len(strings), strings=strings)
        n = labels.count
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n > _MAX_NODES:
            raise ValueError(f"{n} nodes have more node pairs than int64 edge keys index")
        pairs = _int64_array(edges, ValueError, "edge ends", pairs=True, copy=False)
        count = pairs.shape[0]
        buffer = _edge_buffer(n, count)
        buffer[:count] = pairs[:, 0]
        buffer[count:2 * count] = pairs[:, 1]
        if not self._build(labels, buffer, count, provenance):
            tail, head = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0].tolist()
            raise ValueError(f"edge ({tail}, {head}) out of range for {n} nodes")

    @classmethod
    def _built(cls, labels: _Labels, buffer: np.ndarray, count: int, provenance: tuple[str, ...]) -> DirectedGraph:
        """A graph of the library's own ``labels`` and of ``count`` pairs
        that ``buffer`` (``_edge_buffer``) holds, all node indices: no
        check is made again."""
        graph = cls.__new__(cls)
        if not graph._build(labels, buffer, count, provenance):
            raise ValueError(f"edge ends out of range for {labels.count} nodes")
        return graph

    def _build(self, labels: _Labels, buffer: np.ndarray, count: int, provenance) -> bool:
        """Take the arrays built in ``buffer``; False, and nothing taken,
        when a node index lies outside 0..N-1."""
        # compiled when the core is loaded, else with numpy: the same arrays
        compiled = _kernel.loaded()
        n = labels.count
        kept = _build_arrays(n, count, buffer) if compiled is None else compiled.build(n, count, buffer)
        if kept < 0:
            return False
        buffer.flags.writeable = False  # and so every view of it
        self.tails, self.heads, self.out_ptr, self.out_heads, self.in_ptr, self.in_tails, self._keys = _layout(
            buffer, n, count, kept
        )
        self._labels = labels
        self.duplicate_count = count - kept
        self.provenance = tuple(provenance)
        return True

    @property
    def node_count(self) -> int:
        return self._labels.count

    @property
    def edge_count(self) -> int:
        return self.tails.size

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (tail, head) tuples in input order, built on each call."""
        return tuple(zip(self.tails.tolist(), self.heads.tolist()))

    @property
    def labels(self) -> tuple[str, ...]:
        """The node labels in index order, cut into strings on first use."""
        return self._labels.strings()

    def label_of(self, node: int) -> str:
        """The label of one node index, cut alone; UsageError unless ``node``
        is an integer in ``0..N-1``."""
        n = self._labels.count
        index = _node_indices(node, n)
        if index.ndim or not 0 <= index < n:
            raise UsageError(f"node index must be an integer in 0..{n - 1}, got {shown(node)}")
        return self._labels.string(int(index))

    def has_edge(self, tail, head):
        """Whether tail -> head is an edge; element-wise on arrays.

        Returns a bool for scalar arguments and a bool array otherwise.
        Indices outside ``0..N-1`` are never edges. Raises UsageError on
        anything but integers.
        """
        n = self._labels.count
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
        return self.labels == other.labels and np.array_equal(self._keys, other._keys)

    def __hash__(self):
        return hash((self.labels, self._keys.tobytes()))

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
    out_ptr, in_ptr = graph.out_ptr, graph.in_ptr
    out = out_ptr[1:] - out_ptr[:-1]
    inc = in_ptr[1:] - in_ptr[:-1]
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
    return _parse(text.encode("ascii") if text.isascii() else text)


def _parse(text: str | bytes) -> DirectedGraph:
    """``parse_edge_list`` of a str, or of ASCII bytes, which the compiled
    tokenizer reads when it loads and does not reject."""
    found = _intern_compiled(text) if isinstance(text, bytes) else None
    if found is None:
        found = _intern_lines(text if isinstance(text, str) else text.decode("ascii"))
    labels, pairs = found
    if not labels.count:
        raise IngestionError("no edges found in input")
    return DirectedGraph(labels, pairs)


def _intern_compiled(data: bytes) -> tuple[_Labels, np.ndarray] | None:
    """The labels in first-appearance order and the (tail, head) id pairs in
    line order, from the compiled tokenizer; None when it is not at hand or
    rejects a line. The labels stay packed bytes until they are read."""
    compiled = _kernel.core()
    found = None if compiled is None else compiled.tokenize(data)
    if found is None:
        return None
    ends, packed, offsets = found
    return _Labels(offsets.size - 1, packed, offsets), ends.reshape(-1, 2)


def _intern_lines(text: str) -> tuple[_Labels, np.ndarray]:
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
    labels = tuple(label_index)
    return _Labels(len(labels), strings=labels), np.array(ends, dtype=np.int64).reshape(-1, 2)


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
    """Parse an edge-list file; unreadable or non-UTF-8 files raise IngestionError.

    An ASCII file goes to the compiled tokenizer as it was read; other
    files are decoded as ``read_text`` decodes them (the line loop splits
    their lines the same with or without universal newlines).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = None if data.isascii() else data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    return _parse(data) if text is None else parse_edge_list(text)


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
