"""Pins OpenBLAS to one thread before NumPy loads.  The suite's matrices
are small, and with idle threads spin-waiting a busy second CPU slows
BLAS-heavy tests by up to two orders of magnitude; bench/run.py pins
the same.

Loads one Hypothesis profile: every property test draws the same
examples on every run (derandomize), keeps no example database, and has
no per-example deadline, which a busy host would trip at random.
Hypothesis still caches the literals it parses from local source under
its home directory whatever the profile says, so its home is a
temporary directory, removed when the run ends: the suite writes
nothing under the checkout's .hypothesis/."""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

settings.register_profile("macdet", derandomize=True, database=None, deadline=None)
settings.load_profile("macdet")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="macdet-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
