"""Compiled cores that fail on purpose, for the tests of how a failing
sample is reported: the sampler takes each for the compiled core, and it
fails in ``sample``, the call that completes a matching."""

from __future__ import annotations

from netctrl import _kernel


class BreachingCore:
    """A core whose completing pass reports a breach: a matching that is
    not the inverse of its tail_by_head, or a wrong pair count."""

    def sample(self, work, index=None):
        return _kernel.BREACH


class NoMemory:
    """A core whose sampling pass finds no memory."""

    def sample(self, work, index=None):
        raise MemoryError("no memory for the completing pass")
