"""Semidefinite relaxation of the equal-magnitude (phase-only) gain design.

For a channel H (N x L) the phase problem
max_alpha alpha^H H^H H alpha  s.t. |alpha_l|^2 = d  relaxes, with
C = H^H H, to the SDP

    max  tr(C X)   s.t.  X >= 0,  X_ll = d.

It is solved in the low-rank factorization X = V V^H of Burer and
Monteiro, V of rank r = min(L, ceil(sqrt(2 L))) with rows of squared norm
d, by the monotone ascent V <- sqrt(d) rownormalize(H^H (H V)) (the block
form of the mixing method of Wang, Chang and Kolter, which needs a PSD
cost; C = H^H H is one by construction).

The solve runs on H 2^-j, for the j that puts the largest real or
imaginary part of H in [1, 2), and scales the objective and gap back by
4^j.  Power-of-two scaling is exact, so the answer does not depend on the
scale of H.  Unscaled, entries near 1e80 would overflow C V and ||C||_F,
and entries near 1e-80 would leave the objective under the floor d
below, which any gap passes.

Every iterate carries a dual certificate.  With y_l = Re<v_l, (C V)_l> / d,
d sum(y) is the objective, and y + mu 1 with
mu = max(0, -lambda_min(Diag(y) - C)) is dual feasible, so
objective + d L mu bounds the SDP optimum from above.  The gap adds
2 L eps max(|objective|, d) to d L mu for rounding (of the objective, of
lambda_min and of a feasible vector's computed value); the solve stops
once the gap is at most max(1e-12, 4 L eps) max(|objective|, d).  On the
scaled H the SDP optimum is at least d ||H 2^-j||_F^2 >= d (X = d I is
feasible), so the floor d does not loosen the stop at the optimum.  Only
the steps that pass an N x N Cholesky screen, and the last step allowed,
compute the exact lambda_min by an L x L eigen-solve.

Rank-one rounding of the top eigenvector recovers a feasible phase
vector.  The pi/4 factor of So, Zhang and Ye (Math. Program. 110, 2007)
bounds the expected value of *randomized* Gaussian rounding, not this
deterministic rounding, whose ratio to the relaxation is measured
instead: the acceptance suite requires at least 0.7, and at figure9's
size the rounded phases meet the certified bound.

Scaling note: the optimal X is linear in d with unchanged eigenvectors,
so one solve at d = 1 serves every power budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import canonical_phase, hermitian_eig

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SdpNonConvergence",
    "solve_sdp",
    "extract_phases",
]

# relative gap at which the solve stops (at least 4 L eps), iteration cap
_GAP_TOL = 1e-12
_MAX_ITER = 10_000
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SdpProblem:
    """max tr(H^H H X) over Hermitian X >= 0 with X_ll = diag_value, for
    a channel H (N x L); the size of X is L."""

    channel: np.ndarray
    diag_value: float

    def __post_init__(self) -> None:
        h = np.array(self.channel, dtype=np.complex128)
        if h.ndim != 2 or h.size == 0:
            raise ValueError(f"channel must be a non-empty N x L matrix, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("channel entries must be finite")
        if not 0.0 < self.diag_value < math.inf:
            raise ValueError("diag_value must be finite and > 0")
        h.flags.writeable = False
        object.__setattr__(self, "channel", h)

    @property
    def size(self) -> int:
        return self.channel.shape[1]


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.  x = V V^H is Hermitian PSD with diagonal d up to
    rounding; objective = tr(C x); gap >= 0 is the certified distance
    from objective to an upper bound on the SDP optimum, rounding
    included, and converged says
    gap <= max(1e-12, 4 L eps) max(|objective|, 4^j d), with 2^j the
    scale the solve divides H by."""

    x: np.ndarray
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


def solve_sdp(problem: SdpProblem) -> SdpSolution:
    """Burer-Monteiro solve of the diagonally-constrained SDP, stopped by
    its dual certificate or after _MAX_ITER ascent steps.

    Deterministic: the start is the top-r eigenvectors of C = H^H H with
    each row scaled to norm sqrt(d) (a zero row takes the first unit
    vector), and a row whose ascent direction (C V)_l is zero keeps its
    value.  C is formed once, for the start and the exact certificate;
    each step multiplies by H and H^H instead.  The solve runs on H 2^-j
    (`_unit_scale`) and scales objective and gap back by 4^j.
    """
    h, j = _unit_scale(problem.channel)
    hh = h.conj().T
    c = hh @ h
    d = problem.diag_value
    size = problem.size
    rank = min(size, math.ceil(math.sqrt(2 * size)))

    v = hermitian_eig(c).eigenvectors[:, -rank:].copy()
    v[~v.any(axis=1), 0] = 1.0
    v *= (math.sqrt(d) / np.linalg.norm(v, axis=1))[:, None]

    c_norm = float(np.linalg.norm(c))
    tol = max(_GAP_TOL, 4.0 * size * _EPS)
    converged = False
    for iterations in range(_MAX_ITER + 1):
        cv = hh @ (h @ v)
        y = (v.conj() * cv).sum(axis=1).real / d
        objective = d * float(y.sum())
        scale = max(abs(objective), d)
        bound = tol * scale
        allowance = 2.0 * size * _EPS * scale
        # The rule stops only if lambda_min(Diag(y) - C) >= -t with t =
        # (bound - allowance) / (d L).  The screen asks whether Diag(y) - C
        # + s I is positive definite, s = 2t + L eps (||y||_2 + ||C||_F) (a
        # rounding allowance below Higham's Cholesky bound); at L = 2 to 128
        # a failed screen meant the step could not stop, and a wrong failure
        # only delays the stop, since the rule and gap use the exact lambda_min.
        t = (bound - allowance) / (d * size)
        s = 2.0 * t + size * _EPS * (math.sqrt(float(y @ y)) + c_norm)
        if iterations == _MAX_ITER or _positive_definite(y + s, h, hh):
            gap = d * size * max(0.0, -float(np.linalg.eigvalsh(np.diag(y) - c)[0]))
            gap += allowance
            if gap <= bound:
                converged = True
                break
            if iterations == _MAX_ITER:
                break
        norms = np.linalg.norm(cv, axis=1)
        moving = norms > 0.0
        v[moving] = cv[moving] * (math.sqrt(d) / norms[moving])[:, None]

    x = v @ v.conj().T
    return SdpSolution(
        x=(x + x.conj().T) / 2.0,
        objective=float(np.ldexp(objective, 2 * j)),
        iterations=iterations,
        converged=converged,
        gap=float(np.ldexp(gap, 2 * j)),
    )


def _unit_scale(h: np.ndarray) -> tuple[np.ndarray, int]:
    """(H 2^-j, j) for the j that puts the largest real or imaginary part
    of a complex128 H in [1, 2); j = 0 for H = 0.  Exact unless an entry
    falls below the normal range."""
    parts = np.ascontiguousarray(h).view(np.float64)
    j = int(np.frexp(np.abs(parts).max())[1]) - 1 if parts.any() else 0
    return np.ldexp(parts, -j).view(np.complex128), j


def _positive_definite(w: np.ndarray, h: np.ndarray, hh: np.ndarray) -> bool:
    """Whether Diag(w) - H^H H is numerically positive definite, through
    its Schur complement: it is exactly when w > 0 and Cholesky factors
    the N x N I - H Diag(w)^-1 H^H."""
    if not (w > 0.0).all():
        return False
    try:
        np.linalg.cholesky(np.eye(len(h)) - (h / w) @ hh)
    except np.linalg.LinAlgError:
        return False
    return True


def extract_phases(solution: SdpSolution) -> np.ndarray:
    """Unit-modulus phase vector from the top eigenvector of the SDP
    solution (rank-one rounding); zero components round to phase 0."""
    eig = hermitian_eig(solution.x)
    v = canonical_phase(eig.eigenvectors[:, -1])
    mags = np.abs(v)
    out = np.ones_like(v)
    nz = mags > 0.0
    out[nz] = v[nz] / mags[nz]
    return out
