"""Pins OpenBLAS to one thread before NumPy loads.  The suite's matrices
are small, and with idle threads spin-waiting a busy second CPU slows
BLAS-heavy tests by up to two orders of magnitude; bench/run.py pins
the same.

Loads one Hypothesis profile: every property test draws the same
examples on every run (derandomize), keeps no example database, and has
no per-example deadline, which a busy host would trip at random."""

import os

from hypothesis import settings

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

settings.register_profile("macdet", derandomize=True, database=None, deadline=None)
settings.load_profile("macdet")
