"""Deterministic seed derivation for nested experiments.

Sweeps and samplers derive one child seed per grid point or sample index
so every part of a run is replayable in isolation. Sample i of a seed
draws from ``numpy.random.default_rng(spawn_seed(seed, i))``, first its
node order and then its scan keys (``numpy_draws``); that is the
definition of the stream. The compiled core draws the same numbers
itself, and ``compiled_draws`` says whether it may.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from . import _kernel
from .errors import UsageError, shown

__all__ = ["check_int", "check_real", "check_seed", "spawn_seed", "numpy_draws", "compiled_draws"]

# the compiled core whose draws were last compared with numpy's, and
# whether they agreed
_checked: tuple = (None, False)


def _in_domain(number, value, what: str, noun: str, low, high):
    """``number``, ``value`` converted (None when it would not convert),
    when it lies within ``low``..``high``; a bound of None is no bound,
    and NaN lies in no range. UsageError otherwise, naming ``what`` and
    its domain."""
    if number is not None and (low is None or number >= low) and (high is None or number <= high):
        return number
    if noun == "an integer" and (low, high) == (0, None):
        domain = "a non-negative integer"
    elif high is None:
        domain = noun if low is None else f"{noun} >= {low}"
    else:
        domain = f"{noun} <= {high}" if low is None else f"{noun} in [{low}, {high}]"
    raise UsageError(f"{what} must be {domain}, got {shown(value if number is None else number)}")


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int; UsageError unless it is an integer within
    ``low``..``high`` (a bound of None is no bound).

    Python and numpy integers pass through ``operator.index``, so a float
    such as 1.5 is refused rather than cut to 1, and a string such as
    "1" rather than parsed; True reads as 1.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    return _in_domain(number, value, what, "an integer", low, high)


def check_real(value, what: str, low: float | None = None, high: float | None = None) -> float:
    """``value`` as a float; UsageError unless it is a real number within
    ``low``..``high`` (a bound of None is no bound; NaN lies in no range).

    Python and numpy integers and floats pass, so a string such as "0.5"
    is refused rather than parsed, and None or a complex number refused.
    A real past the float range, such as 10**400, reads as inf or -inf.
    """
    number = None
    if isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an int or a fraction past the float range
            number = math.inf if value > 0 else -math.inf
    return _in_domain(number, value, what, "a real number", low, high)


def check_seed(seed) -> int:
    """``seed`` as an int; UsageError unless it is a non-negative integer,
    the domain of numpy's SeedSequence."""
    return check_int(seed, "seed", low=0)


def spawn_seed(seed: int, index: int) -> int:
    """Derive the child seed of grid point or sample ``index``, a
    non-negative integer, from a root seed."""
    spawn_key = (check_int(index, "spawn key", low=0),)
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=spawn_key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def numpy_draws(seed: int, index: int, n: int, edges: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``index``'s draws from ``default_rng(spawn_seed(seed, index))``:
    a permutation of the ``n`` nodes, its node order, and then one scan
    key in 0..2**32-1 for each of its ``edges`` out-CSR slots, as int64
    arrays. ``seed`` must have passed ``check_seed``."""
    rng = np.random.default_rng(spawn_seed(seed, index))
    return rng.permutation(n), rng.integers(0, 1 << 32, size=edges, dtype=np.int64)


def compiled_draws():
    """The compiled core when it draws samples as numpy does, else None.

    The core reproduces ``numpy_draws`` in C, but numpy does not promise
    a Generator's stream across its releases (NEP 19). So the first call
    with a core compares one small sample's draws both ways, and when
    they differ the samplers keep numpy's draws for the rest of the
    process. The sample's seed has five words and its index two, and its
    permutation of 33 nodes rejects draws and leaves half a word buffered
    for its 7 keys.
    """
    global _checked
    kernel = _kernel.core()
    if kernel is not None and _checked[0] is not kernel:
        seed, index, n, edges = 2**128 + 7, 2**32 + 2, 33, 7
        order, keys = np.empty(n, dtype=np.int64), np.empty(edges, dtype=np.int64)
        kernel.draw(seed, index, order, keys)
        expected = numpy_draws(seed, index, n, edges)
        _checked = (kernel, np.array_equal(order, expected[0]) and np.array_equal(keys, expected[1]))
    return kernel if kernel is not None and _checked[1] else None
