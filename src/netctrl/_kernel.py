"""The compiled core: ``_core.c``, built on first use and loaded with ctypes.

The library has three entry points (see ``_core.c``): ``netctrl_sample``,
the whole of ``MatchingState.complete()`` (scan order, completing pass,
inverse check and free in-roles) in one call, ``netctrl_tokenize``, the
edge-list tokenizer, and ``netctrl_seed_states``, the PCG64 state of
``default_rng(spawn_seed(seed, i))`` for a run of sample indices.
``core()`` returns a ``Core`` holding all three, or None when the library
cannot be had: no ``cc`` on the PATH, a cache directory that cannot be
written, a build that fails or a library that will not load.
``MatchingState.complete`` then runs the Python search, ``parse_edge_list``
its line loop and the sampler numpy's seeding, which give the same
results. Setting ``_kernel`` to None forces every Python path.

The library is compiled with ``cc -O2 -shared -fPIC`` into
``${XDG_CACHE_HOME:-~/.cache}/netctrl/_core-<hash of the source>.so``,
so an edited source gets a file of its own. The hash is
``importlib.util.source_hash``, the 64-bit hash CPython keys hash-based
``.pyc`` files with: it needs no import, where hashlib's would cost a
process about 4 ms. A build writes a temporary file in that directory and
renames it into place, so processes building at once each load a whole
library and leave one file. A cached file that will not load is built
again once.

No module imports this one at its top: the first ``complete()``,
``parse_edge_list`` or sample stream imports it and loads the library,
so commands that never parse, match or sample (``generate``, ``reverse``)
do not load it. The modules only a build needs are imported by the
build, which saves a process that finds the library cached about 6 ms.
"""

from __future__ import annotations

import ctypes
import os
from importlib.util import source_hash
from pathlib import Path

import numpy as np

_UNSET = object()
# the loaded core, None when it cannot be had, _UNSET until the first call
_kernel = _UNSET

# maps every ASCII line break of str.splitlines to \n, for counting lines
_BREAKS_TO_NEWLINE = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e", b"\n" * 6)

# what netctrl_sample returns in place of a pair count when mh and mt are
# not inverses, or hold another number of pairs
BREACH = -2


class Workspace:
    """All the memory of ``Core.sample`` on one graph, owned by the caller.

    The caller fills the inputs: ``order``, the order in which free tails
    are searched, ``keys``, one scan key per out-CSR slot, and the
    matching ``mh``/``mt`` (-1 where a role is free), which the call
    completes in place. The call writes ``scan``, each tail's heads in
    key order with equal keys in slot order, ``free_heads[:n - pairs]``,
    the free in-roles in ascending order, and ``degree_sum[0]``, the sum
    of their total degrees, which ``complete()`` returns copies of: every
    reported driver set is read off them. ``keys`` and ``scan`` are the
    only per-slot arrays: the sort works in ``scan`` itself. The graph's
    CSR arrays are held here too, and every address is taken once, in the
    constructor. One call at a time may use a workspace; calls on
    workspaces of their own may run at once.
    """

    __slots__ = ("order", "keys", "mh", "mt", "scan", "free_heads", "degree_sum", "_arrays", "_args")

    def __init__(self, graph):
        n, edges = graph.node_count, graph.out_heads.size
        graph_arrays = (graph.out_ptr, graph.out_heads, graph.in_ptr)
        for array in graph_arrays:
            if array.dtype != np.int64 or not array.flags.c_contiguous:
                raise ValueError("the graph's CSR arrays must be contiguous int64")
        self.order = np.empty(n, dtype=np.int64)
        self.keys = np.empty(edges, dtype=np.int64)
        self.mh = np.empty(n, dtype=np.int64)
        self.mt = np.empty(n, dtype=np.int64)
        self.scan = np.empty(edges, dtype=np.int64)
        self.free_heads = np.empty(n, dtype=np.int64)
        self.degree_sum = np.zeros(1, dtype=np.int64)
        # in the order of netctrl_sample's parameters; mark, trail and
        # stack are its scratch
        self._arrays = graph_arrays + (
            self.keys, self.order, self.mh, self.mt, self.scan,
            np.empty(n, dtype=np.uint8),        # mark
            np.empty(n, dtype=np.int64),        # trail
            np.empty(3 * n, dtype=np.int64),    # stack
            self.free_heads, self.degree_sum,
        )
        self._args = (n,) + tuple(a.ctypes.data for a in self._arrays)


class Core:
    """The three entry points of a loaded ``_core.c``.

    Raw addresses are passed in place of ``ndarray.ctypes.data_as`` and
    ndpointer argtypes, which leave reference-cycle garbage behind on
    every call.
    """

    __slots__ = ("_sample", "_tokenize", "_seed_states")

    def __init__(self, library: ctypes.CDLL):
        self._sample = library.netctrl_sample
        self._sample.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 13
        self._sample.restype = ctypes.c_int64
        self._tokenize = library.netctrl_tokenize
        self._tokenize.argtypes = (ctypes.c_char_p,) + (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 4
        self._tokenize.restype = ctypes.c_int64
        self._seed_states = library.netctrl_seed_states
        self._seed_states.argtypes = (
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        )
        self._seed_states.restype = None

    def sample(self, work: Workspace) -> int:
        """Complete the workspace's matching in place; the number of pairs or ``BREACH``.

        With a pair count, ``work`` holds the scan, the free in-roles and
        their degree sum.
        """
        return self._sample(*work._args)

    def tokenize(self, data: bytes):
        """``(ends, offsets, lengths)`` of ASCII edge-list bytes, or None.

        ``ends`` holds the (tail, head) label ids of every edge line in
        line order, and label i is ``data[offsets[i]:offsets[i] + lengths[i]]``,
        in order of first appearance. None when a line that is neither
        blank nor a comment does not hold two tokens.
        """
        # a bound on the line count: \r\n counts twice
        lines = data.translate(_BREAKS_TO_NEWLINE).count(b"\n") + 1
        ends = np.empty(2 * lines, dtype=np.int64)
        offsets = np.empty(2 * lines, dtype=np.int64)
        lengths = np.empty(2 * lines, dtype=np.int64)
        labels = ctypes.c_int64()
        edges = self._tokenize(
            data, len(data), lines, ends.ctypes.data, offsets.ctypes.data,
            lengths.ctypes.data, ctypes.addressof(labels),
        )
        if edges == -2:
            raise MemoryError("no memory for the tokenizer's hash table")
        if edges < 0:
            return None
        return ends[:2 * edges], offsets[:labels.value], lengths[:labels.value]

    def seed_states(self, seed: int, start: int, states: np.ndarray, spawn: bool = True) -> None:
        """Fill ``states`` (count x 4, uint64) with the PCG64 states of samples ``start ..``.

        Row k holds the high and low words of the ``state`` and then of the
        ``inc`` of ``default_rng(spawn_seed(seed, start + k)).bit_generator``.
        With ``spawn`` False it is ``default_rng(start + k)``'s, and ``seed``
        is not read. ``seed`` is a non-negative int, and ``start + count``
        must not exceed 2**64.
        """
        if states.dtype != np.uint64 or states.ndim != 2 or states.shape[1] != 4 or not states.flags.c_contiguous:
            raise ValueError("states must be a contiguous (count, 4) uint64 array")
        if seed < 0 or not 0 <= start <= start + len(states) <= 1 << 64:
            raise ValueError("the seed must be non-negative and the sample indices within uint64")
        # the seed's uint32 words, least significant first, as numpy splits an int
        words = np.array([seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)], dtype=np.uint32)
        self._seed_states(words.ctypes.data, words.size, start, len(states), spawn, states.ctypes.data)


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
