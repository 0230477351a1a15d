"""The compiled completing pass: ``_core.c``, built on first use and loaded with ctypes.

``completion_kernel()`` returns ``run(ptr, heads, order, mh, mt) -> size``,
which completes the matching ``mh``/``mt`` in place (see ``_core.c``), or
None when the kernel cannot be had: no ``cc`` on the PATH, a cache
directory that cannot be written, a build that fails or a library that
will not load. ``MatchingState.complete`` then runs the Python search,
which gives the same matchings.

The library is compiled with ``cc -O2 -shared -fPIC`` into
``${XDG_CACHE_HOME:-~/.cache}/netctrl/_core-<sha256 of the source>.so``,
so an edited source gets a file of its own. A build writes a temporary
file in that directory and renames it into place, so processes building
at once each load a whole library and leave one file. A cached file that
will not load is built again once.

``import netctrl`` does not import this module: the first ``complete()``
call imports it and loads the kernel. The modules only a build needs are
imported by the build, which saves a process that finds the library
cached about 6 ms.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

_UNSET = object()
# the loaded kernel, None when it cannot be had, _UNSET until the first call
_kernel = _UNSET


def completion_kernel():
    """The compiled completing pass, or None; built or loaded once per process."""
    global _kernel
    if _kernel is _UNSET:
        _kernel = _load()
    return _kernel


def _load():
    try:
        source = Path(__file__).with_name("_core.c")
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "netctrl"
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    library = cache / f"_core-{digest}.so"
    complete = _open(library)
    if complete is None and _build(source, library):
        complete = _open(library)
    if complete is None:
        return None
    complete.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 5
    complete.restype = ctypes.c_int64

    def run(ptr, heads, order, mh, mt) -> int:
        # raw addresses: ndarray.ctypes.data_as and ndpointer argtypes leave
        # reference-cycle garbage behind on every call
        return complete(
            mh.size, ptr.ctypes.data, heads.ctypes.data, order.ctypes.data,
            mh.ctypes.data, mt.ctypes.data,
        )

    return run


def _open(library: Path):
    """The kernel's entry point in ``library``, or None when it will not load."""
    try:
        return ctypes.CDLL(str(library)).netctrl_complete
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
