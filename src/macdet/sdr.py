"""Semidefinite relaxation of the equal-magnitude (phase-only) gain design.

The phase problem  max_alpha alpha^H C alpha  s.t. |alpha_l|^2 = d  relaxes
to the SDP

    max  tr(C X)   s.t.  X >= 0,  X_ll = d.

It is solved in the low-rank factorization X = V V^H of Burer and
Monteiro, V of rank r = min(L, ceil(sqrt(2 L))) with rows of squared norm
d, by the monotone ascent V <- sqrt(d) rownormalize(C' V) (the block form
of the mixing method of Wang, Chang and Kolter), where
C' = C + max(0, -lambda_min(C)) I is PSD; the diagonal shift adds the
constant d L max(0, -lambda_min(C)) to every feasible objective and so
leaves the maximizer unchanged.

Every iterate carries a dual certificate.  With y_l = Re<v_l, (C V)_l> / d,
d sum(y) is the objective, and y + mu 1 with
mu = max(0, -lambda_min(Diag(y) - C)) is dual feasible, so
objective + d L mu bounds the SDP optimum from above.  The solve stops
once that gap is at most 1e-12 max(|objective|, d).  Every step is
first screened by a Cholesky factorization of Diag(y) - C shifted
slightly past that tolerance; only the steps that pass the screen, and
the last step allowed, compute the exact lambda_min by an eigen-solve.
On the iterates measured, a step whose factorization failed could not
meet the stop rule; a wrong failure would only delay the stop, since
the stop rule and the gap use the exact lambda_min alone.

Rank-one rounding of the top eigenvector recovers a feasible phase
vector; the relaxation is within a constant factor pi/4 of the rounded
solution in the worst case for PSD costs.

Scaling note: the optimal X is linear in d with unchanged eigenvectors,
so one solve at d = 1 serves every power budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import _check_square_hermitian, canonical_phase, hermitian_eig

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SdpNonConvergence",
    "solve_sdp",
    "extract_phases",
]

# certified relative gap at which the solve stops, and its iteration cap
_GAP_TOL = 1e-12
_MAX_ITER = 10_000
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SdpProblem:
    """max tr(cost @ X) over Hermitian X >= 0 with X_ll = diag_value."""

    cost: np.ndarray
    diag_value: float

    def __post_init__(self) -> None:
        c = _check_square_hermitian(self.cost, 1e-10)
        if not self.diag_value > 0.0:
            raise ValueError("diag_value must be > 0")
        c = (c + c.conj().T) / 2.0
        c.flags.writeable = False
        object.__setattr__(self, "cost", c)

    @property
    def size(self) -> int:
        return self.cost.shape[0]


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.  x = V V^H is Hermitian PSD with diagonal d up to
    rounding; objective = tr(C x); gap >= 0 is the certified distance
    from objective to an upper bound on the SDP optimum, and converged
    says gap <= 1e-12 max(|objective|, d)."""

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

    Deterministic: the start is the top-r eigenvectors of C with each row
    scaled to norm sqrt(d) (a zero row takes the first unit vector), and a
    row whose ascent direction (C' V)_l is zero keeps its value.

    Each step is screened by a Cholesky factorization of Diag(y) - C + s I;
    only a step that passes, and the _MAX_ITER-th, computes the exact
    lambda_min.  On the iterates measured, a failed factorization meant
    the step could not stop, so the result equals certifying every step
    exactly; a screen that failed wrongly could only delay the stop and
    never weakens the certificate.
    """
    c = problem.cost
    d = problem.diag_value
    size = problem.size
    rank = min(size, math.ceil(math.sqrt(2 * size)))
    eig = hermitian_eig(c)
    shift = max(0.0, -float(eig.eigenvalues[0]))

    v = eig.eigenvectors[:, -rank:].copy()
    v[~v.any(axis=1), 0] = 1.0
    v *= (math.sqrt(d) / np.linalg.norm(v, axis=1))[:, None]

    c_norm = float(np.linalg.norm(c))
    converged = False
    for iterations in range(_MAX_ITER + 1):
        cv = c @ v
        y = (v.conj() * cv).sum(axis=1).real / d
        objective = d * float(y.sum())
        bound = _GAP_TOL * max(abs(objective), d)
        # The exact rule stops when the computed lambda_min(Diag(y) - C)
        # >= -t, t = bound / (d L), up to the rounding of d L mu.  The
        # screen factors Diag(y) - C + s I with s = 2t + delta, where
        # delta = L eps (||y||_2 + ||C||_F) >= L eps ||Diag(y) - C||_F
        # stands for the rounding of the eigen-solve and of the
        # factorization; it is below Higham's worst-case Cholesky bound.
        # On iterates measured at L = 12, 32, 64 and 128, Cholesky began to
        # succeed within 0.08 delta of -lambda_min, so there a failed
        # screen meant the step could not stop.  A wrong failure would only
        # delay the stop: the stop rule and the gap use the exact lambda_min.
        shift_screen = 2.0 * bound / (d * size) + size * _EPS * (
            math.sqrt(float(y @ y)) + c_norm
        )
        if iterations == _MAX_ITER or _factors(np.diag(y + shift_screen) - c):
            gap = d * size * max(0.0, -float(np.linalg.eigvalsh(np.diag(y) - c)[0]))
            if gap <= bound:
                converged = True
                break
            if iterations == _MAX_ITER:
                break
        step = cv + shift * v
        norms = np.linalg.norm(step, axis=1)
        moving = norms > 0.0
        v[moving] = step[moving] * (math.sqrt(d) / norms[moving])[:, None]

    x = v @ v.conj().T
    return SdpSolution(
        x=(x + x.conj().T) / 2.0,
        objective=objective,
        iterations=iterations,
        converged=converged,
        gap=gap,
    )


def _factors(a: np.ndarray) -> bool:
    """Whether Cholesky factors the Hermitian matrix a, i.e. a is
    numerically positive definite."""
    try:
        np.linalg.cholesky(a)
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
