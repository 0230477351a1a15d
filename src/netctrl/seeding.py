"""Deterministic seed derivation for nested experiments.

Sweeps and samplers derive one child seed per grid point or sample index
so every part of a run is replayable in isolation. Sample i of a seed
draws from ``numpy.random.default_rng(spawn_seed(seed, i))``; that is the
definition of the stream. ``sample_generators`` yields those generators,
computing their states with the compiled core when it can.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .errors import UsageError

__all__ = ["check_int", "check_seed", "spawn_seed", "sample_generators"]

# samples whose PCG64 states one compiled call computes (8 KB of states)
STATE_CHUNK = 256


def check_int(value, what: str) -> int:
    """``value`` as an int; UsageError unless it is an integer.

    Python and numpy integers pass through ``operator.index``, so a float
    such as 1.5 is refused rather than cut to 1, and a string such as
    "1" rather than parsed; True reads as 1.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None


def check_seed(seed) -> int:
    """``seed`` as an int; UsageError unless it is a non-negative integer.

    Python and numpy integers pass through ``operator.index``, so a float
    such as 1.5 is refused rather than cut to 1.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}") from None
    if value < 0:
        raise UsageError(f"seed must be a non-negative integer, got {value}")
    return value


def spawn_seed(seed: int, *key: int) -> int:
    """Derive a child seed from a root seed and an index path."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(k) for k in key))
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
    # imported here, so that `import netctrl` leaves the loader out
    from ._kernel import core

    kernel = core()
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
