"""Dense complex Hermitian linear algebra and the special functions used
throughout the package (log of the Gaussian tail Q, the exponentially
scaled Bessel functions I0 and I1, exponential integral E1), on NumPy and
the standard library's math module alone.

All eigen-decompositions share one deterministic convention so downstream
results are reproducible bit-for-bit: eigenvalues ascending, and each
eigenvector rotated so that its largest-magnitude component (lowest index
on ties) is real and positive.  The rotation is applied to all columns of
a matrix, or of a whole stack of them, in one vectorized pass
(`_canonical_phase_columns`), which `canonical_phase` and `hermitian_eig`
share; it is bit-identical to rotating each column on its own.

Every channel that a gain rule, the phase SDP or the quadratic form's
spectral fallback squares first goes through one guard,
`scaled_by_power_of_two`: it rejects a non-finite entry and scales the
channel by a power of two, which is exact.  Under its gain rule only a
channel whose largest real or imaginary part reaches 2^384 moves; its
unit rule, the SDP's, puts that part in [1, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "HermitianEig",
    "hermitian_eig",
    "check_square_hermitian",
    "solve_hermitian_pd",
    "psd_project",
    "canonical_phase",
    "scaled_by_power_of_two",
    "log_q",
    "bessel_i01e",
    "exp_e1_scaled",
]

_HERMITIAN_RTOL = 1e-10

# the gain rule's ceiling on a largest part: |h|^2 stays below 2^769,
# far from overflow even times the gain budget, and the least shift under
# it keeps the squares of small entries and sigma_nu_sq 4^-j (for largest
# parts up to about 1e269) normal numbers
_PART_BITS = 384


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (..., M, M).

    eigenvalues are real and ascending; eigenvectors[..., :, k] is the
    unit eigenvector for eigenvalues[..., k], in the canonical phase
    convention.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def check_square_hermitian(a: np.ndarray, rtol: float) -> np.ndarray:
    """a as complex128, once checked square, finite and Hermitian within rtol."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _checked_hermitian(a, rtol)


def _checked_hermitian(a: np.ndarray, rtol: float) -> np.ndarray:
    # check_square_hermitian for a matrix or a stack (..., M, M), each
    # matrix checked against its own largest entry
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300)
    if not np.isfinite(scale).all():
        raise ValueError("matrix entries must be finite")
    if (np.abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1)) > rtol * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    return a.astype(np.complex128, copy=False)


def _canonical_phase_columns(v: np.ndarray) -> np.ndarray:
    """Rotate every column of a complex array (..., M, K) by a unit scalar
    so its largest-magnitude entry (lowest index on ties) becomes real
    and positive; all-zero columns pass through unchanged.  Returns a new
    array with the memory layout of `v`.

    Bit-identical to rotating each column separately with
    `v[:, k] * (conj(p) / abs(p))`, and a stack's matrices to rotating
    each matrix's columns alone.  The pivot magnitude is taken with
    hypot, which rounds like the scalar abs() (array np.abs does not).
    The product is spelled with the last two axes swapped, the phases a
    column (K, 1) against them: for a single column this keeps the phase
    as the broadcast second operand, as in a column times a scalar,
    whereas `v * phase` can round a length-1 column differently in the
    last bit.  A stack is handled as (B, M, K), its matrices indexed
    along the first axis.
    """
    stack = v.reshape((-1,) + v.shape[-2:])
    rows = np.abs(stack).argmax(axis=1)
    pivots = (np.arange(len(stack))[:, np.newaxis], rows, np.arange(stack.shape[2]))
    pivot = stack[pivots]
    mag = np.hypot(pivot.real, pivot.imag)
    zero = mag == 0.0
    has_zero = zero.any()
    if has_zero:
        mag[zero] = 1.0
    out = (stack.swapaxes(1, 2) * (pivot.conj() / mag)[:, :, np.newaxis]).swapaxes(1, 2)
    # kill the residual imaginary part of each pivot introduced by rounding
    out.imag[pivots] = 0.0
    if has_zero:
        np.copyto(out, stack, where=zero[:, np.newaxis, :])
    return out.reshape(v.shape)


def scaled_by_power_of_two(h: np.ndarray, unit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(H 2^-j, j) for each matrix H of a stack (D, ...), as contiguous
    complex128, with j read off H's largest real or imaginary part m
    (ValueError when an entry is not finite).  The gain rule (default) is
    the least j >= 0 that brings m below 2^_PART_BITS; with `unit`, j puts
    m in [1, 2), and j = 0 for H = 0.  Exact unless an entry falls below
    the normal range."""
    parts = np.ascontiguousarray(h, dtype=np.complex128).view(np.float64)
    # largest |part| per matrix without an |parts| temporary; NaN carries
    axes = tuple(range(1, parts.ndim))
    peak = np.maximum(parts.max(axis=axes, initial=0.0), -parts.min(axis=axes, initial=0.0))
    if not np.isfinite(peak).all():
        raise ValueError("channel entries must be finite")
    e = np.frexp(peak)[1]
    j = np.where(peak > 0.0, e - 1, 0) if unit else np.maximum(e - _PART_BITS, 0)
    if j.any():
        parts = np.ldexp(parts, -j.reshape((-1,) + (1,) * (parts.ndim - 1)))
    return parts.view(np.complex128), j


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector, or each vector along the last axis of a
    stack, by a unit scalar so its largest-magnitude component (lowest
    index on ties) becomes real and positive."""
    v = np.asarray(v, dtype=np.complex128)
    return _canonical_phase_columns(v[..., np.newaxis])[..., 0]


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of
    a stack (..., M, M).

    Rejects non-square, non-finite or non-Hermitian (relative tolerance
    1e-10) input.
    Identical input yields an identical decomposition, and a stack's
    matrices the decompositions they get alone.  The phase convention is
    applied to all eigenvectors in one vectorized pass, bit-identical to
    `canonical_phase` on each column.
    """
    a = _checked_hermitian(np.asarray(a), _HERMITIAN_RTOL)
    w, v = np.linalg.eigh((a + a.swapaxes(-1, -2).conj()) / 2.0)
    return HermitianEig(eigenvalues=w, eigenvectors=_canonical_phase_columns(v))


def solve_hermitian_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for Hermitian positive-definite a via Cholesky.

    Raises ValueError if a is not positive definite.
    """
    a = check_square_hermitian(a, _HERMITIAN_RTOL)
    b = np.asarray(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    return np.linalg.solve(factor.conj().T, np.linalg.solve(factor, b))


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive-semidefinite matrix: eigenvalues clamped
    at zero, eigenvectors kept."""
    eig = hermitian_eig(check_square_hermitian(a, _HERMITIAN_RTOL))
    w = np.maximum(eig.eigenvalues, 0.0)
    v = eig.eigenvectors
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Past this x, log Q comes from its asymptotic series: Q(x) is still a
# normal double up to x = 37.5, and the series needs <= 8 terms from here.
_LOG_Q_TAIL = 37.0


def _log_q(x: float) -> float:
    if x < 0.0:
        # log Q(x) = log1p(-Q(-x)), about -Q(-x): relative accuracy kept
        return math.log1p(-0.5 * math.erfc(-x / _SQRT2))
    if x < _LOG_Q_TAIL:
        return math.log(0.5 * math.erfc(x / _SQRT2))
    if x == math.inf:
        return -math.inf
    # Q(x) = phi(x)/x (1 + sum_k (-1)^k (2k-1)!! / x^(2k)), summed up to
    # the first term below 2^-60
    r = 1.0 / (x * x)
    term, total, k = 1.0, 0.0, 0
    while abs(term) > 8.7e-19:
        k += 1
        term *= -(2 * k - 1) * r
        total += term
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log1p(total)


def log_q(x):
    """Natural log of the Gaussian tail Q(x) = P(N(0,1) > x), with its
    relative accuracy kept on both tails and far past erfc underflow.
    Vectorized; a scalar or 0-d input gives a NumPy float.

    Below 0 it is log1p(-Q(-x)) (log Q(x) is about -Q(-x) there), up to
    x = 37 the log of Q from math.erfc, and beyond that the asymptotic
    series -x^2/2 - ln(x sqrt(2 pi)) + log1p(sum_k (-1)^k (2k-1)!!/x^2k).
    Relative error within 1e-15 * max(1, x^2): the tail's own condition
    number grows like x^2, so rounding x alone costs that.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(_log_q(float(x)))
    return np.array([_log_q(t) for t in x.ravel().tolist()], dtype=float).reshape(x.shape)


# From this x on, the Hankel expansion of e^-x I_n(x) is more accurate
# than the power series: its smallest term, near k = 2x, is below 2e-18.
_BESSEL_HANKEL_X = 20.0


def bessel_i01e(x: float) -> tuple[float, float]:
    """The exponentially scaled modified Bessel functions (e^-x I0(x),
    e^-x I1(x)) for x >= 0, finite for every finite x.

    Power series for x < 20, where every term is positive; beyond that
    the Hankel expansion e^-x I_n(x) ~ (2 pi x)^(-1/2) sum_k
    (-1)^k a_k(n) / x^k, a_k(n) = prod_{j<=k} (4 n^2 - (2j - 1)^2) /
    (k! 8^k), truncated where its terms drop below 2^-60 or, at the
    latest, at its smallest term.
    """
    if x < _BESSEL_HANKEL_X:
        # I0 = sum t_k, I1 = (x/2) sum t_k / (k+1), t_k = (x^2/4)^k / k!^2
        y = 0.25 * x * x
        term, i0, i1, k = 1.0, 1.0, 1.0, 0
        while term > 8.7e-19 * i1:
            k += 1
            term *= y / (k * k)
            i0 += term
            i1 += term / (k + 1)
        scale = math.exp(-x)
        return scale * i0, scale * (0.5 * x) * i1
    r = 1.0 / (8.0 * x)
    t0, t1, i0, i1, k = 1.0, 1.0, 1.0, 1.0, 0
    while max(t0, abs(t1)) >= 8.7e-19 and k + 1 < 2.0 * x:
        k += 1
        odd = (2 * k - 1) ** 2
        t0 *= odd * r / k
        t1 *= (odd - 4) * r / k
        i0 += t0
        i1 += t1
    scale = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(x)
    return scale * i0, scale * i1


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
