"""Deterministic seed derivation for nested experiments.

Sweeps and samplers derive one child seed per grid point or sample index
so every part of a run is replayable in isolation. Sample i of a seed
draws from the raw outputs of ``PCG64(spawn_seed(seed, i))``, first its
node order and then its scan keys (``sample_draws``); that is the
definition of the stream. The compiled core makes the same draws itself.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import UsageError, shown

__all__ = ["check_int", "check_real", "check_seed", "spawn_seed", "sample_draws"]


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


def sample_draws(seed: int, index: int, n: int, edges: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``index``'s node order, a permutation of the ``n`` nodes,
    and then its ``edges`` scan keys, one per out-CSR slot, each in
    0..2**32-1, as int64 arrays. ``seed`` must have passed ``check_seed``.

    This is the definition of the stream. The draws are the 32-bit halves
    of the raw outputs of ``PCG64(spawn_seed(seed, index))``, low half
    first. The order is a Fisher-Yates pass from the top over 0..n-1: for
    each i from n - 1 down to 1, j is the first unread half that is at
    most i once masked by the smallest 2**k - 1 >= i, and the nodes at i
    and j swap. The keys are the next ``edges`` halves. These are numpy
    2.x's ``permutation(n)`` and ``integers(0, 2**32, size=edges)`` of
    ``default_rng(spawn_seed(seed, index))``, bit for bit, but only the
    bit generator's stream is promised across numpy releases (NEP 19), so
    the halves are read here. ``_core.c`` makes the same draws.
    """
    bits = np.random.PCG64(spawn_seed(seed, index))
    picks = []  # j for i = n - 1, n - 2, ..., 1
    halves = iter(())
    i = n - 1
    while i > 0:
        mask = (1 << i.bit_length()) - 1
        for half in halves:
            j = half & mask
            if j <= i:
                picks.append(j)
                i -= 1
                if i == mask >> 1:  # the next i takes a smaller mask
                    break
        else:  # about 1.4 halves a node: a masked half is past i less than half the time
            halves = iter(_halves(bits, i + i // 2 + 2).tolist())
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), picks):
        order[i], order[j] = order[j], order[i]
    rest = np.array(list(halves), dtype=np.uint32)
    keys = np.concatenate((rest, _halves(bits, edges - rest.size)))[:edges]
    return np.array(order, dtype=np.int64), keys.astype(np.int64)


def _halves(bits: np.random.PCG64, count: int) -> np.ndarray:
    """The 32-bit halves of ``bits``' next ``ceil(count / 2)`` raw
    outputs, none for a count below 1, low half first."""
    return bits.random_raw(max(0, -(-count // 2))).astype("<u8", copy=False).view("<u4")
