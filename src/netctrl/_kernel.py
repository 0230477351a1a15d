"""The compiled core: ``_core.c``, built on first use and loaded with ctypes.

The library has three entry points (see ``_core.c``): ``netctrl_sample``,
the whole of ``MatchingState.complete()`` (scan order, completing pass,
inverse check and free in-roles) in one call, which for a sampler's
sample first draws its node order and scan keys as
``seeding.sample_draws`` defines them and starts from the empty
matching; ``netctrl_tokenize``, the edge-list tokenizer; and
``netctrl_build``, every array of a ``DirectedGraph`` in one buffer.
Each writes only into arrays the caller owns. ``netctrl_sample`` takes
the address of a ``Workspace``'s C struct, filled once per workspace, a
flag that says whether the call draws, and the sample index: three
arguments for ctypes to convert on each call, where one per array made
seventeen. ``core()`` returns a ``Core`` holding all three, or None when
the library cannot be had: no ``cc`` on the PATH, a cache directory that
cannot be written, a build that fails or a library that will not load.
``MatchingState.complete`` then runs the Python search,
``parse_edge_list`` its line loop, the sampler ``sample_draws`` and
``DirectedGraph`` its numpy build, which give the same results. Setting
``_kernel`` to None forces every Python path.

The library is compiled with ``cc -O2 -shared -fPIC`` into
``${XDG_CACHE_HOME:-~/.cache}/netctrl/_core-<hash of the source>.so``,
so an edited source gets a file of its own. The hash is
``importlib.util.source_hash``, the 64-bit hash CPython keys hash-based
``.pyc`` files with: it needs no import, where hashlib's would cost a
process about 4 ms. A build writes a temporary file in that directory and
renames it into place, so processes building at once each load a whole
library and leave one file. A cached file that will not load is built
again once.

Importing this module builds and loads nothing: ``core()`` is the one
place that decides when the library is built or loaded, on the first
``complete()``, ``parse_edge_list`` or sample stream, so commands that
never parse, match or sample (``generate``, ``reverse``) do neither.
``DirectedGraph`` builds with the core only once it is loaded
(``loaded()``): building one graph is not worth compiling the library.
The modules only a build needs are imported by the build, which saves a
process that finds the library cached about 6 ms.
"""

from __future__ import annotations

import ctypes
import os
from importlib.util import source_hash
from itertools import accumulate
from pathlib import Path

import numpy as np

_UNSET = object()
# the loaded core, None when it cannot be had, _UNSET until the first call
_kernel = _UNSET

# what netctrl_sample returns in place of a pair count when mh and mt are
# not inverses, or hold another number of pairs
BREACH = -2

# every byte but the tokenizer's line breaks, which bytes.translate deletes
# to count the breaks: \n, \v, \f, \r and \x1c-\x1e
_NOT_BREAKS = bytes(b for b in range(256) if b not in b"\n\v\f\r\x1c\x1d\x1e")


def seed_words(seed: int) -> np.ndarray:
    """A non-negative int's uint32 words, least significant first, as numpy splits it."""
    return np.frombuffer(seed.to_bytes(4 * max(-(-seed.bit_length() // 32), 1), "little"), dtype="<u4")


class _Struct(ctypes.Structure):
    """``struct netctrl_workspace`` of ``_core.c``, field for field."""

    _fields_ = (
        [("n", ctypes.c_int64)]
        + [(name, ctypes.c_void_p) for name in (
            "ptr", "heads", "in_ptr", "keys", "order", "mh", "mt", "scan", "mark", "trail", "stack", "free_heads",
        )]
        + [("degree_sum", ctypes.c_int64), ("seed", ctypes.c_void_p), ("words", ctypes.c_int64)]
    )


class Workspace:
    """All the memory of ``Core.sample`` on one graph, owned by the caller.

    The caller fills the inputs of a call that draws nothing: the
    matching ``mh``/``mt`` (-1 where a role is free), which the call
    completes in place, ``order``, the order in which free tails are
    searched, and ``keys``, one scan key per out-CSR slot. A call that
    draws writes ``order`` and ``keys`` itself, from ``seed``, and starts
    from the empty matching whatever ``mh`` and ``mt`` hold. The call
    writes ``scan``, each tail's heads in key order with equal keys in
    slot order, ``free_heads[:n - pairs]``, the free in-roles in ascending
    order, and ``degree_sum``, the sum of their total degrees: every
    reported driver set is read off them, and they hold until the next
    call. ``keys`` and ``scan`` are the only per-slot arrays: the sort
    works in ``scan`` itself. The C struct the call takes holds the
    graph's CSR arrays, these arrays, the call's scratch and ``seed``'s
    words; it is filled once, here, so that a call passes one address.
    Every array but the graph's lies in one int64 buffer, ``mark`` as n
    bytes of it and the seed's words as uint32 ones, so the struct's
    addresses are its one base address plus offsets. One call at a time
    may use a workspace; calls on workspaces of their own may run at once.
    """

    __slots__ = ("n", "seed", "order", "keys", "mh", "mt", "scan", "free_heads", "_arrays", "_struct", "_address")

    def __init__(self, graph, seed: int | None = None):
        n, edges = graph.node_count, graph.out_heads.size
        graph_arrays = (graph.out_ptr, graph.out_heads, graph.in_ptr)
        for array in graph_arrays:
            if array.dtype != np.int64 or not array.flags.c_contiguous:
                raise ValueError("the graph's CSR arrays must be contiguous int64")
        self.n, self.seed = n, seed
        words = seed_words(seed if seed is not None else 0)
        # the int64 words of each array in the struct's order: keys, order,
        # mh, mt, scan, mark (n bytes), trail and stack (the call's
        # scratch), free_heads, and the seed's uint32 words
        sizes = (edges, n, n, n, edges, -(-n // 8), n, 3 * n, n, -(-words.size // 2))
        starts = list(accumulate(sizes, initial=0))
        buffer = np.empty(starts[-1], dtype=np.int64)
        self.keys, self.order, self.mh, self.mt, self.scan = (
            buffer[start:start + size] for start, size in zip(starts, sizes[:5])
        )
        self.free_heads = buffer[starts[8]:starts[9]]
        buffer[starts[9]:].view(np.uint32)[:words.size] = words
        # held here, so that no address outlives its array
        self._arrays = graph_arrays + (buffer,)
        base = buffer.ctypes.data
        self._struct = _Struct(
            n, *(a.ctypes.data for a in graph_arrays), *(base + 8 * start for start in starts[:9]),
            0, base + 8 * starts[9], words.size,
        )
        self._address = ctypes.addressof(self._struct)

    @property
    def degree_sum(self) -> int:
        """The sum of the total degrees of the last call's free in-roles."""
        return self._struct.degree_sum


class Core:
    """The three entry points of a loaded ``_core.c``.

    Raw addresses are passed in place of ``ndarray.ctypes.data_as`` and
    ndpointer argtypes, which leave reference-cycle garbage behind on
    every call.
    """

    __slots__ = ("_sample", "_tokenize", "_build")

    def __init__(self, library: ctypes.CDLL):
        self._sample = library.netctrl_sample
        self._sample.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64)
        self._sample.restype = ctypes.c_int64
        self._tokenize = library.netctrl_tokenize
        self._tokenize.argtypes = (ctypes.c_char_p, ctypes.c_int64) + (ctypes.c_void_p,) * 4
        self._tokenize.restype = ctypes.c_int64
        self._build = library.netctrl_build
        self._build.argtypes = (ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
        self._build.restype = ctypes.c_int64

    def sample(self, work: Workspace, index: int | None = None) -> int:
        """Complete the workspace's matching in place; the number of pairs or ``BREACH``.

        With ``index``, a sample index in 0..2**64-1 of the seed ``work``
        was made with, the call first draws that sample's node order and
        scan keys into ``work.order`` and ``work.keys``, as
        ``seeding.sample_draws`` does, and starts from the empty matching.
        With a pair count, ``work`` holds the scan, the free in-roles and
        their degree sum.
        """
        if index is None:
            return self._sample(work._address, 0, 0)
        if work.seed is None:
            raise ValueError("a workspace made without a seed draws no sample")
        if not 0 <= index < 1 << 64:
            raise ValueError("the sample index must be within uint64")
        return self._sample(work._address, 1, index)

    def tokenize(self, data: bytes):
        """``(ends, packed, offsets)`` of ASCII edge-list bytes, or None.

        ``ends`` holds the (tail, head) label ids of every edge line in
        line order. ``packed`` holds each label's bytes followed by a
        ``\\n``, in order of first appearance, and label i is
        ``packed[offsets[i]:offsets[i + 1] - 1]``; ``offsets`` has one
        entry past the last label. ``ends`` is a prefix of an array sized
        by the text's line count, and the labels are copies of the used
        prefixes of arrays sized by the line count and the text; the text
        is never copied. None when a line that is neither blank nor a
        comment does not hold two tokens.
        """
        # room for two ids per line (no more lines than line breaks + 1,
        # and an edge line takes four bytes or more), for each new label's
        # bytes and \n (no more than its token and the byte after it) and
        # for an offset per id and one past the last
        lines = min(len(data.translate(None, _NOT_BREAKS)) + 1, (len(data) + 1) // 4)
        ends = np.empty(2 * lines, dtype=np.int64)
        packed = np.empty(len(data) + 1, dtype=np.uint8)
        offsets = np.empty(ends.size + 1, dtype=np.int64)
        labels = np.empty(1, dtype=np.int64)
        edges = self._tokenize(data, len(data), *(a.ctypes.data for a in (ends, packed, offsets, labels)))
        if edges == -2:
            raise MemoryError("no memory for the tokenizer's hash table")
        if edges < 0:
            return None
        offsets = offsets[:labels[0] + 1].copy()
        return ends[:2 * edges], packed[:offsets[-1]].tobytes(), offsets

    def build(self, n: int, count: int, buffer: np.ndarray) -> int:
        """Build a graph's arrays in ``buffer``; the number of pairs kept,
        or -1 when a node index lies outside 0..n-1.

        ``buffer`` is a contiguous int64 array laid out as
        ``graph._layout`` reads it, whose first ``2 * count`` entries
        hold the tails and then the heads of ``count`` pairs over ``n``
        nodes, ``n`` at most ``graph._MAX_NODES``: ``netctrl_build``
        writes the rest, and moves the first occurrence of each pair to
        the front, in input order.
        """
        return self._build(n, count, buffer.ctypes.data)


def loaded() -> Core | None:
    """The compiled core if ``core()`` has loaded it, else None: builds and loads nothing."""
    return None if _kernel is _UNSET else _kernel


def core() -> Core | None:
    """The compiled core, or None; built or loaded once per process."""
    global _kernel
    if _kernel is _UNSET:
        _kernel = _load()
    return _kernel


def _load() -> Core | None:
    try:
        source = Path(__file__).with_name("_core.c")
        digest = source_hash(source.read_bytes()).hex()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "netctrl"
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    library = cache / f"_core-{digest}.so"
    loaded = _open(library)
    if loaded is None and _build(source, library):
        loaded = _open(library)
    return loaded


def _open(library: Path) -> Core | None:
    """The core in ``library``, or None when it will not load."""
    try:
        return Core(ctypes.CDLL(str(library)))
    except (OSError, AttributeError):  # missing, truncated or foreign
        return None


def _build(source: Path, library: Path) -> bool:
    """Compile ``source`` into ``library`` by way of a temporary file; True on success."""
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which("cc")
    if compiler is None:
        return False
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=library.parent, prefix=library.stem + "-", suffix=".tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", temp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(temp, library)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(temp):
            os.unlink(temp)
