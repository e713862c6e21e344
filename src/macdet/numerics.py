"""Dense complex Hermitian linear algebra and the special functions used
throughout the package (Gaussian tail Q, exponential integral E1).

All eigen-decompositions share one deterministic convention so downstream
results are reproducible bit-for-bit: eigenvalues ascending, and each
eigenvector rotated so that its largest-magnitude component (lowest index
on ties) is real and positive.  The rotation is applied to all columns in
one vectorized pass (`_canonical_phase_columns`), which `canonical_phase`
and `hermitian_eig` share; it is bit-identical to rotating each column on
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
import scipy.linalg
from scipy.special import erfc, log_ndtr

__all__ = [
    "HermitianEig",
    "hermitian_eig",
    "solve_hermitian_pd",
    "psd_project",
    "canonical_phase",
    "q_function",
    "log_q",
    "exp_e1_scaled",
]

_HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors[:, k] is the unit
    eigenvector for eigenvalues[k], in the canonical phase convention.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_square_hermitian(a: np.ndarray, rtol: float) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.max(np.abs(a)), 1e-300)
    if np.max(np.abs(a - a.conj().T)) > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a.astype(np.complex128, copy=False)


def _canonical_phase_columns(v: np.ndarray) -> np.ndarray:
    """Rotate every column of a 2-D complex array by a unit scalar so its
    largest-magnitude entry (lowest index on ties) becomes real and
    positive; all-zero columns pass through unchanged.  Returns a new
    array with the memory layout of `v`.

    Bit-identical to rotating each column separately with
    `v[:, k] * (conj(p) / abs(p))`.  The pivot magnitude is taken with
    hypot, which rounds like the scalar abs() (array np.abs does not).  The
    product is spelled `(v.T * phase[:, None]).T`: for a single column this
    keeps the phase as the broadcast second operand, as in a column times a
    scalar, whereas `v * phase` can round a length-1 column differently in
    the last bit.
    """
    cols = np.arange(v.shape[1])
    rows = np.abs(v).argmax(axis=0)
    pivot = v[rows, cols]
    mag = np.hypot(pivot.real, pivot.imag)
    zero = mag == 0.0
    has_zero = zero.any()
    if has_zero:
        mag[zero] = 1.0
    out = (v.T * (pivot.conj() / mag)[:, None]).T
    # kill the residual imaginary part of each pivot introduced by rounding
    out.imag[rows, cols] = 0.0
    if has_zero:
        out[:, zero] = v[:, zero]
    return out


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector by a unit scalar so its largest-magnitude
    component (lowest index on ties) becomes real and positive."""
    v = np.asarray(v, dtype=np.complex128)
    return _canonical_phase_columns(v[:, None])[:, 0]


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Full eigendecomposition of a Hermitian matrix.

    Rejects non-square or non-Hermitian (relative tolerance 1e-10) input.
    Identical input yields an identical decomposition.  The phase
    convention is applied to all eigenvectors in one vectorized pass,
    bit-identical to `canonical_phase` on each column.
    """
    a = _check_square_hermitian(a, _HERMITIAN_RTOL)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return HermitianEig(eigenvalues=w, eigenvectors=_canonical_phase_columns(v))


def solve_hermitian_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for Hermitian positive-definite a via Cholesky.

    Raises ValueError if a is not positive definite.
    """
    a = _check_square_hermitian(a, _HERMITIAN_RTOL)
    b = np.asarray(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive-semidefinite matrix: eigenvalues clamped
    at zero, eigenvectors kept."""
    eig = hermitian_eig(a)
    w = np.maximum(eig.eigenvalues, 0.0)
    v = eig.eigenvectors
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x), via erfc.

    Vectorized; Q(-inf) = 1, Q(0) = 1/2, Q(inf) = 0.  Relative error
    within 1e-15 * max(1, x^2) wherever Q is a normal double: the tail's
    own condition number grows like x^2, so rounding x alone costs that.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def log_q(x):
    """Natural log of Q(x), safe for arguments far beyond erfc underflow:
    scipy's log_ndtr(-x), which keeps its relative accuracy on both
    tails (log Q(x) is about -Q(-x) below x = -1).  Vectorized."""
    return log_ndtr(-np.asarray(x, dtype=float))


_EULER_GAMMA = 0.57721566490153286061


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!), x <= 1
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0  # x^k / k!
    for k in range(1, 80):
        term *= x / k
        contrib = term / k if (k % 2 == 1) else -term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def _e1_scaled_cf(x: float) -> float:
    # e^x E1(x) by modified Lentz evaluation of the continued fraction
    # E1(x) = e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))), x > 1
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i) * float(i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ValueError(f"continued fraction for E1 did not converge at x={x}")


def exp_e1_scaled(x: float) -> float:
    """The scaled product e^x * E1(x), E1(x) = int_x^inf e^-t / t dt, for
    x > 0, computable without overflow for arbitrarily large x (decays
    like 1/x).  Series expansion for x <= 1, continued fraction for x > 1;
    relative error <= 1e-10."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"scaled E1 requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_scaled_cf(x)
