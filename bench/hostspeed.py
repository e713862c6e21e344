"""Host-speed reference: a fixed piece of work that touches no macdet code,
timed between measured runs so that their wall times can be scaled to one
nominal host speed.

The shared host this benchmark was built on changes speed by up to a
quarter over minutes, for every process alike (README.md, "Bounds and
steadiness").  A run scaled by NOMINAL_S over the reference timed
around it keeps a change in the program's own work and loses much of the
host's drift.  The work mixes what the three workloads spend their time
on: a pure-Python loop, small and large Hermitian eigendecompositions and
normal draws, about a quarter of the time each.
"""

from __future__ import annotations

import time

import numpy as np

# median seconds of Reference.seconds() on the 2-vCPU build host; scaled
# times are wall seconds on a host where the reference takes this long
NOMINAL_S = 0.2

PY_STEPS = 350_000
SMALL_EIGH = 200
LARGE_EIGH = 4
NORMAL_BLOCKS = 15
NORMAL_BLOCK = 200_000


class Reference:
    """The reference work on fixed inputs, built once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20100317)
        small = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
        self._small = small + small.conj().T
        large = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self._large = large @ large.conj().T
        self.seconds()  # warm-up: LAPACK workspaces, allocator

    def seconds(self) -> float:
        """Wall seconds of one pass over the reference work."""
        start = time.perf_counter()
        total = 0.0
        for step in range(PY_STEPS):
            total += (step * 0.5) % 7.0
        for _ in range(SMALL_EIGH):
            np.linalg.eigh(self._small)
        for _ in range(LARGE_EIGH):
            np.linalg.eigh(self._large)
        draws = np.random.default_rng(1)
        for _ in range(NORMAL_BLOCKS):
            draws.standard_normal(NORMAL_BLOCK)
        return time.perf_counter() - start


def scaled(seconds: list[float], references: list[float]) -> list[float]:
    """Each time scaled by NOMINAL_S over the mean of the two references
    that bracket it: references[i] was timed just before seconds[i] and
    references[i + 1] just after it."""
    if len(references) != len(seconds) + 1:
        raise ValueError("need one reference before each time and one after the last")
    return [
        s * 2.0 * NOMINAL_S / (before + after)
        for s, before, after in zip(seconds, references, references[1:])
    ]
