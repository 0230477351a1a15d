"""Deterministic seed derivation for nested experiments.

Sweeps and samplers derive one child seed per grid point or sample index
so every part of a run is replayable in isolation. Sample i of a seed
draws from ``numpy.random.default_rng(spawn_seed(seed, i))``; that is the
definition of the stream. ``sample_generators`` yields those generators,
computing their states with the compiled core when it can.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Iterator

import numpy as np

from . import _kernel
from .errors import UsageError, shown

__all__ = ["check_int", "check_real", "check_seed", "spawn_seed", "sample_generators"]

# samples whose PCG64 states one compiled call computes (8 KB of states)
STATE_CHUNK = 256


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


def sample_generators(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """Yield ``default_rng(spawn_seed(seed, i))`` for i in ``start .. start + count - 1``.

    With the compiled core one Generator serves every sample: the core
    computes each sample's PCG64 state bit for bit, ``STATE_CHUNK``
    samples per call, and the generator is set to it, so a yielded
    generator is valid only until the next one is drawn. Without the core,
    or for indices beyond uint64, each sample gets a generator of its own.
    ``seed`` must have passed ``check_seed``.
    """
    kernel = _kernel.core()
    if kernel is None or start + count > 1 << 64:
        for i in range(start, start + count):
            yield np.random.default_rng(spawn_seed(seed, i))
        return
    rng = np.random.Generator(np.random.PCG64())
    bit_generator = rng.bit_generator
    states = np.empty((STATE_CHUNK, 4), dtype=np.uint64)
    for first in range(start, start + count, STATE_CHUNK):
        chunk = states[:min(STATE_CHUNK, start + count - first)]
        kernel.seed_states(seed, first, chunk)
        # row by row: a list of the whole chunk would grow with the count
        for row in chunk:
            state_high, state_low, inc_high, inc_low = row.tolist()
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_high << 64 | state_low, "inc": inc_high << 64 | inc_low},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
