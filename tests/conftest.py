"""Pins OpenBLAS to one thread before NumPy loads.  The suite's matrices
are small, and with idle threads spin-waiting a busy second CPU slows
BLAS-heavy tests by up to two orders of magnitude; bench/run.py pins
the same."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
