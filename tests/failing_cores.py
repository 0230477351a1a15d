"""Compiled cores that fail on purpose, for the tests of how a failing
sample is reported: the sampler takes each for the compiled core, and it
fails in ``sample``, the call that completes a matching. Each builds
graphs as the library does without a compiled core."""

from __future__ import annotations

from netctrl import _kernel
from netctrl.graph import _build_arrays


class NumpyBuild:
    """A stand-in core's ``build``: the numpy build, which gives the
    compiled build's arrays."""

    def build(self, n, count, buffer):
        return _build_arrays(n, count, buffer)


class BreachingCore(NumpyBuild):
    """A core whose completing pass reports a breach: a matching that is
    not the inverse of its tail_by_head, or a wrong pair count."""

    def sample(self, work, index=None):
        return _kernel.BREACH


class NoMemory(NumpyBuild):
    """A core whose sampling pass finds no memory."""

    def sample(self, work, index=None):
        raise MemoryError("no memory for the completing pass")
