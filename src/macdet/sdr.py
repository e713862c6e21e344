"""Semidefinite relaxation of the equal-magnitude (phase-only) gain design.

For a channel H (N x L) the phase problem
max_alpha alpha^H H^H H alpha  s.t. |alpha_l| = 1  relaxes, with
C = H^H H, to the SDP

    max  tr(C X)   s.t.  X >= 0,  X_ll = 1.

It is solved in the low-rank factorization X = V V^H of Burer and
Monteiro, V (L x N) with unit rows, by the monotone ascent
V <- rownormalize(H^H (H V)) (the block form of the mixing method of
Wang, Chang and Kolter, which needs a PSD cost; C = H^H H is one by
construction).  The solution carries V itself.  Neither X nor C is
ever formed: every array the solve makes holds O(L N) entries per
channel, and every matrix it decomposes is N x N.  `solve_sdps` runs
the ascent on a stack of channels in one loop; each channel stops on
its own test and gets the bits it gets when solved alone (`solve_sdp`).

Width N is enough.  A step maps V to D C V, D = Diag((C X C)_ll)^-1/2,
so X' = D C X C D; y_l = Re (X C)_ll below, the objective tr(C X) and
the certificate read X alone.  So one X_0 takes the same steps at any
width, and after one step X has rank <= rank C <= N: the
ceil(sqrt(2 L)) columns of Barvinok and Pataki's bound for a general
cost add work, never a step or a certificate.  The start is
V_0 = D_0 H^H, H^H with unit rows (X_0 = D_0 C D_0).  A zero column of
H leaves its row of C zero; its row of V, which adds nothing to the
objective, is the first unit vector and never moves.

The solve runs on H 2^-j, for the j that puts the largest real or
imaginary part of H in [1, 2) (the unit rule of
numerics.scaled_by_power_of_two, which also rejects a non-finite entry),
and scales the objective and gap back by 4^j.  Power-of-two scaling is
exact, so the answer does not depend on the scale of H.  Unscaled,
entries near 1e80 would overflow H V, and entries near 1e-80 would
leave the objective under the floor 1 below, which any gap passes.

Every iterate carries a dual certificate.  With y_l = Re<v_l, (C V)_l>,
sum(y) is the objective, and y + mu 1 is dual feasible once
Diag(y + mu) - C >= 0, so objective + L mu bounds the SDP optimum from
above.  For y + s > 0 that holds exactly when
lambda_max(H Diag(y + s)^-1 H^H) <= 1 (the Schur complement), an N x N
eigenproblem.  One of them per step, at s = t (the largest mu at which
the step can stop; larger if some y_l < -t/2), certifies every mu with
(y_l + s) lambda <= y_l + mu on the columns of H that are not zero,
since H Diag(y + mu)^-1 H^H <= max_l ((y_l + s) / (y_l + mu)) times
H Diag(y + s)^-1 H^H; the smallest is mu = max_l y_l (lambda - 1) +
s lambda.  lambda is the computed eigenvalue raised by the rounding
margin derived in `_margin`.  The gap, L max(0, mu) plus
2 L eps max(|objective|, 1) for the rounding of the objective and of a
feasible vector's computed value, stops the solve once it is at most
max(1e-12, 4 L eps) max(|objective|, 1).  On the scaled H the SDP
optimum is at least ||H 2^-j||_F^2 >= 1 (X = I is feasible), so the
floor 1 does not loosen the stop at the optimum.

Only a step that can stop is certified.  The next iterate V' has unit
rows to rounding, so the SDP optimum is at least o' - a', with o' its
computed objective and a' its allowance (which covers a feasible
vector's computed value).  A step that stops has gap <= bound, and the
optimum is at most o + gap.  So o' - o > bound + a' rules the stop out,
and with the step's own allowance a added for the rounding of that
difference and sum (at most a few eps times them), the loop certifies
only the channels with o' - o <= bound + a + a', and every channel at
the last step.  It forms V' and its products, which the next step needs
anyway, before it certifies.  A skipped step could not have stopped, so
each solve stops at the step, and with the bits, of one certified at
every step; at figure9's size about one eigenproblem is left per solve.

Rank-one rounding of the top eigenvector of X recovers a feasible phase
vector.  That eigenvector is V w / ||V w|| for w the top eigenvector of
the N x N Gram V^H V, so the rounding decomposes only the Gram.  The
pi/4 factor of So, Zhang and Ye (Math. Program. 110, 2007) bounds the
expected value of *randomized* Gaussian rounding, not this deterministic
rounding, whose ratio to the relaxation is measured instead: the
acceptance suite requires at least 0.7, and at figure9's size the
rounded phases meet the certified bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .numerics import scaled_by_power_of_two

__all__ = [
    "SdpSolution",
    "SdpNonConvergence",
    "solve_sdp",
    "solve_sdps",
    "extract_phases",
]

# relative gap at which the solve stops (at least 4 L eps), iteration cap
_GAP_TOL = 1e-12
_MAX_ITER = 10_000
_EPS = sys.float_info.epsilon
# columns per block of the certificate's sum over l (see _margin)
_BLOCK = 32
# the rounding's global phase pivots on the lowest index whose magnitude
# is within this relative margin of the largest (see _unit_phases): far
# above the entries' rounding (1e-14 relative at figure9's size), far
# below a spread that a rounding could not decide
_PIVOT_RTOL = 1e-8


@dataclass(frozen=True)
class SdpSolution:
    """Solver output at X_ll = 1.  factor is V (L x N), with unit rows,
    so X = V V^H is feasible; objective = tr(C V V^H); gap >= 0 is the
    certified distance from objective to an upper bound on the SDP
    optimum, rounding included, and converged says
    gap <= max(1e-12, 4 L eps) max(|objective|, 4^j), with 2^j the scale
    the solve divides H by.  At X_ll = d, multiply objective and gap by d."""

    factor: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gap: float


class SdpNonConvergence(RuntimeError):
    """Raised by callers that require a certified SDP solution."""

    def __init__(self, solution: SdpSolution):
        super().__init__(
            f"SDP solve stopped after {solution.iterations} iterations with "
            f"certified gap {solution.gap:.3e}"
        )
        self.solution = solution


def solve_sdp(channel) -> SdpSolution:
    """Burer-Monteiro solve of max tr(H^H H X) over Hermitian X >= 0 with
    X_ll = 1 for a channel H (N x L): the one-channel case of
    `solve_sdps`.  ValueError unless H is a finite, non-empty N x L matrix.
    """
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim != 2 or h.size == 0:
        raise ValueError(f"channel must be a non-empty N x L matrix, got shape {h.shape}")
    return solve_sdps(h[np.newaxis])[0]


def solve_sdps(channels) -> list[SdpSolution]:
    """`solve_sdp` for each channel of a stack (D, N, L), in one ascent
    loop: each channel is stopped by its own dual certificate, or after
    _MAX_ITER ascent steps, and its solution is bit for bit the one it
    gets alone.

    Deterministic: the start is `_start`, and a row whose ascent direction
    (C V)_l is zero keeps its value.  Each step multiplies by H and H^H
    and certifies (`_certify`) only the channels whose next objective
    leaves room for a stop (module docstring).  The solve runs on H 2^-j
    (`scaled_by_power_of_two` with `unit`) and scales objective and gap
    back by 4^j.  Raises ValueError unless channels is a finite,
    non-empty D x N x L stack.
    """
    h = np.asarray(channels, dtype=np.complex128)
    if h.ndim != 3 or h.size == 0:
        raise ValueError(f"channels must be a non-empty D x N x L stack, got shape {h.shape}")
    h, scales = scaled_by_power_of_two(h, unit=True)
    count, n, size = h.shape
    v = _start(h)
    hh = np.ascontiguousarray(h.conj().transpose(0, 2, 1))
    tol = max(_GAP_TOL, 4.0 * size * _EPS)
    margin = _margin(n, size)
    # +inf on the zero columns of H, which the certificate's min and max
    # over l skip (0 everywhere when H = 0, which any mu >= 0 certifies)
    support = h.any(axis=1)
    skip = np.where(support | ~support.any(axis=1)[:, np.newaxis], 0.0, np.inf)
    live = list(range(count))
    solutions: list = [None] * count
    cv, y = _products(h, hh, v)
    terms = _stop_terms(y, size, tol)
    for iterations in range(_MAX_ITER + 1):
        final = iterations == _MAX_ITER
        if final:
            checked = list(range(len(live)))
        else:
            # the next iterate's products, which the next step needs anyway,
            # screen this one: a rise past the margin rules out its stop
            v_next = _ascend(v, cv)
            cv_next, y_next = _products(h, hh, v_next)
            terms_next = _stop_terms(y_next, size, tol)
            checked = [
                k
                for k, ((objective, bound, allowance, _), (following, _, allowance_next, _))
                in enumerate(zip(terms, terms_next))
                if following - objective <= bound + allowance + allowance_next
            ]
        stopped = _certify(checked, final, y, terms, h, hh, skip, margin) if checked else []
        for k, gap, converged in stopped:
            solutions[live[k]] = SdpSolution(
                factor=v[k].copy(),
                objective=float(np.ldexp(terms[k][0], 2 * scales[live[k]])),
                iterations=iterations,
                converged=converged,
                gap=float(np.ldexp(gap, 2 * scales[live[k]])),
            )
        if len(stopped) == len(live):
            break
        if stopped:
            keep = np.ones(len(live), dtype=bool)
            keep[[k for k, _, _ in stopped]] = False
            live = [item for item, kept in zip(live, keep) if kept]
            terms_next = [item for item, kept in zip(terms_next, keep) if kept]
            h, hh, skip, v_next, cv_next, y_next = (
                a[keep] for a in (h, hh, skip, v_next, cv_next, y_next)
            )
        v, cv, y, terms = v_next, cv_next, y_next, terms_next
    return solutions


def _certify(checked, final, y, terms, h, hh, skip, margin):
    """(k, gap, converged) for each channel k of `checked` that stops at
    this step: its certified gap is at most its bound, or the step is
    the final one.  One N x N eigenvalue per checked channel
    (`_top_eigenvalues`, `_shift`)."""
    size = y.shape[1]
    if len(checked) < len(y):
        y, h, hh, skip = y[checked], h[checked], hh[checked], skip[checked]
    lows = (y + skip).min(axis=1).tolist()
    shifts = [terms[k][3] + max(0.0, -2.0 * low) for k, low in zip(checked, lows)]
    lams = _top_eigenvalues(y, shifts, h, hh, margin)
    stopped = []
    for i, (k, low, s, lam) in enumerate(zip(checked, lows, shifts, lams)):
        # with lam > 1 every certified mu exceeds s >= t: no stop
        if lam > 1.0 and not final:
            continue
        _, bound, allowance, _ = terms[k]
        y_ref = low if lam <= 1.0 else float((y[i] - skip[i]).max())
        gap = size * _shift(y_ref, s, lam) + allowance
        if gap <= bound or final:
            stopped.append((k, gap, gap <= bound))
    return stopped


def _products(h, hh, v):
    """(C V, y) for a stack: C V = H^H (H V) and y_l = Re<v_l, (C V)_l>."""
    cv = hh @ (h @ v)
    return cv, (v.view(np.float64) * cv.view(np.float64)).sum(axis=2)


def _ascend(v, cv):
    """The ascent step: row l of V becomes (C V)_l / ||(C V)_l||; a row
    with (C V)_l = 0 keeps its value."""
    parts = cv.view(np.float64)
    norms = np.sqrt((parts * parts).sum(axis=2))
    if norms.all():
        return cv * (1.0 / norms)[:, :, np.newaxis]
    moving = norms > 0.0
    v = v.copy()
    v[moving] = cv[moving] * (1.0 / norms[moving])[:, np.newaxis]
    return v


def _stop_terms(y, size, tol) -> list[tuple[float, float, float, float]]:
    """(objective, bound, allowance, t) of each channel at one step, from
    its y: the objective sum(y), the gap at which it stops, the gap's
    rounding allowance and the largest mu at which it can stop."""
    terms = []
    for objective in y.sum(axis=1).tolist():
        scale = max(abs(objective), 1.0)
        bound = tol * scale
        allowance = 2.0 * size * _EPS * scale
        terms.append((objective, bound, allowance, (bound - allowance) / size))
    return terms


def _start(h: np.ndarray) -> np.ndarray:
    """The ascent's start for each channel of a stack (D, N, L): H^H with
    unit rows (`_ascend`), a zero row keeping the first unit vector."""
    hh = np.ascontiguousarray(h.conj().transpose(0, 2, 1))
    return _ascend(np.broadcast_to(np.eye(1, h.shape[1], dtype=np.complex128), hh.shape), hh)


def _margin(n: int, size: int) -> tuple[float, float, int]:
    """(norm_coef, trace_coef, width): the rounding margin of the
    certificate's eigenvalue for N x L channels is
    norm_coef ||M'||_2 + trace_coef tr M', with the sum over l run in
    blocks of `width` columns.

    The step computes W = fl(y + s), A = fl(H / W) and M' = A H^H as the
    sum over nb blocks of b <= _BLOCK columns, each block a complex matrix
    product (any summation order, no 3M or Strassen scheme), then the top
    eigenvalue of M' by LAPACK.  With M = H Diag(W)^-1 H^H and
    S_ij = sum_l |h_il| |h_jl| / w_l:
      - A's division rounds each part once: |dM| <= eps S;
      - each part of a block's entry is a real dot product of 2b terms
        whose absolute values sum to at most sum_l |a_il| |h_jl|:
        |dM| <= sqrt(2) gamma_2b S (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., eq. 3.5; gamma_k = k eps/(1 - k eps));
      - the nb block results, summed in any order:
        |dM| <= sqrt(2) gamma_(nb-1) S;
      - W = (y + s)(1 + e), |e| <= eps, scales lambda_max by at most 1 + eps.
    S_ij <= sqrt(M_ii M_jj) (Cauchy-Schwarz), so ||S||_2 <= tr M and
    ||M' - M||_2 <= eps (2 + 1.5 (2b + nb - 1)) tr M; 1.5 > sqrt(2) covers
    the gamma denominators and second-order terms while (2b + nb) eps <
    1e-3.  The eigensolver's backward error is taken as 4 N^2 eps ||M'||_2,
    the gamma_(cN^2) form of Householder tridiagonalization (Higham,
    section 19.3) with c = 4.  The factor 1.01 covers tr M against tr M'
    and ||M'||_2 against its computed value.
    """
    width = min(size, _BLOCK)
    blocks = -(-size // width)
    norm_coef = 1.01 * _EPS * 4.0 * n * n
    trace_coef = 1.01 * _EPS * (2.0 + 1.5 * (2 * width + blocks - 1))
    return norm_coef, trace_coef, width


def _top_eigenvalues(y, shifts, h, hh, margin) -> list[float]:
    """For each channel of the stack, an upper bound on
    lambda_max(H Diag(y + s)^-1 H^H) with s its shift: the top eigenvalue
    of the computed N x N matrix M', summed over blocks of `width`
    columns, raised by the rounding margin of `_margin` (with the sum of
    the eigenvalues' magnitudes for tr M' and the largest for ||M'||_2)."""
    norm_coef, trace_coef, width = margin
    a = h / (y + np.array(shifts)[:, np.newaxis])[:, np.newaxis, :]
    m = a[:, :, :width] @ hh[:, :width]
    for start in range(width, a.shape[2], width):
        m += a[:, :, start : start + width] @ hh[:, start : start + width]
    tops = []
    for eig in np.linalg.eigvalsh(m).tolist():
        magnitudes = [abs(value) for value in eig]
        tops.append(eig[-1] + norm_coef * max(magnitudes) + trace_coef * sum(magnitudes))
    return tops


def _shift(y_ref: float, s: float, lam: float) -> float:
    """The certified mu = y_ref (lam - 1) + s lam, for y_ref the smallest
    y_l on H's nonzero columns if lam <= 1 and the largest if not, raised
    past its own rounding (four operations, each within eps of its
    result, so within 4 eps (|first| + |second|) in all to first order)
    and clipped at 0."""
    first = y_ref * (lam - 1.0)
    second = s * lam
    return max(0.0, first + second + 4.0 * _EPS * (abs(first) + abs(second)))


def extract_phases(solution: SdpSolution) -> np.ndarray:
    """Unit-modulus phase vector from the top eigenvector of X = V V^H
    (rank-one rounding); zero components round to phase 0.

    That eigenvector is V w / ||V w|| for w the top eigenvector of the
    N x N Gram V^H V, so only the Gram is decomposed; `_unit_phases`
    fixes its global phase."""
    v = solution.factor
    return _unit_phases(v @ np.linalg.eigh(v.conj().T @ v)[1][:, -1])


def _unit_phases(top: np.ndarray) -> np.ndarray:
    """top / |top| entrywise (1 where top is 0), rotated by one unit
    scalar so that its pivot is exactly 1.  The pivot is the lowest index
    whose magnitude is within _PIVOT_RTOL of the largest, not the largest
    itself: where the relaxation is tight every entry has magnitude
    1/sqrt(L) to rounding, and a last-bit change would move an argmax."""
    mags = np.abs(top)
    out = np.ones_like(top)
    if not mags.any():
        return out
    pivot = int(np.argmax(mags >= (1.0 - _PIVOT_RTOL) * mags.max()))
    p = complex(top[pivot])
    top = top * (p.conjugate() / abs(p))
    top.imag[pivot] = 0.0
    mags = np.abs(top)
    nz = mags > 0.0
    out[nz] = top[nz] / mags[nz]
    return out
