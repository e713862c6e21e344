"""Semidefinite relaxation of the equal-magnitude (phase-only) gain design.

The phase problem  max_alpha alpha^H C alpha  s.t. |alpha_l|^2 = d  relaxes
to the SDP

    max  tr(C X)   s.t.  X >= 0,  X_ll = d,

solved here by ADMM: the affine step fixes the diagonal in closed form,
the projection step clamps eigenvalues, and only dense Hermitian
eigendecompositions are required (O(L^3) per iteration; intended for
L <= ~128).  Rank-one rounding of the top eigenvector recovers a feasible
phase vector; the relaxation is within a constant factor pi/4 of the
rounded solution in the worst case for PSD costs.

Scaling note: the optimal X is linear in d with unchanged eigenvectors,
so one solve at d = 1 serves every power budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _check_square_hermitian, canonical_phase, hermitian_eig, psd_project

__all__ = [
    "SdpProblem",
    "AdmmSettings",
    "SdpSolution",
    "AdmmNonConvergence",
    "solve_sdp",
    "extract_phases",
    "brute_force_phase",
]

_BRUTE_FORCE_LIMIT = 10**8
_BRUTE_CHUNK = 1 << 16


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
class AdmmSettings:
    """Solver knobs.  Residual tolerances default to 1e-7 * L * d,
    scaling with the problem's natural magnitude."""

    rho: float = 1.0
    tol_primal: float | None = None
    tol_dual: float | None = None
    max_iter: int = 5000

    def __post_init__(self) -> None:
        if not self.rho > 0.0:
            raise ValueError("rho must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def resolved_tols(self, problem: SdpProblem) -> tuple[float, float]:
        default = 1e-7 * problem.size * problem.diag_value
        tp = default if self.tol_primal is None else self.tol_primal
        td = default if self.tol_dual is None else self.tol_dual
        return tp, td


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.  x is Hermitian, PSD to within 1e-8 * d, and has
    diagonal exactly d up to rounding (restored after convergence by a
    PSD-preserving diagonal rescale)."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    objective_history: np.ndarray


class AdmmNonConvergence(RuntimeError):
    """Raised by callers that require a converged SDP solution."""

    def __init__(self, solution: SdpSolution):
        super().__init__(
            f"ADMM stopped after {solution.iterations} iterations with "
            f"residuals ({solution.primal_residual:.3e}, "
            f"{solution.dual_residual:.3e})"
        )
        self.solution = solution


def _restore_feasible(z: np.ndarray, d: float) -> np.ndarray:
    # diagonal rescale s_l = sqrt(d / Z_ll): keeps PSD, pins the diagonal
    diag = np.maximum(z.diagonal().real, 1e-300)
    s = np.sqrt(d / diag)
    x = z * np.outer(s, s)
    x = (x + x.conj().T) / 2.0
    return x


def solve_sdp(problem: SdpProblem, settings: AdmmSettings | None = None) -> SdpSolution:
    """ADMM solve of the diagonally-constrained SDP.

    Deterministic: identical problem and settings produce the identical
    iterate sequence.  The returned objective is evaluated on the
    feasibility-restored matrix.
    """
    settings = settings or AdmmSettings()
    c = problem.cost
    d = problem.diag_value
    size = problem.size
    tol_primal, tol_dual = settings.resolved_tols(problem)
    rho = settings.rho
    c_over_rho = c / rho

    x = d * np.eye(size, dtype=np.complex128)
    z = x.copy()
    u = np.zeros_like(x)

    history = []
    converged = False
    r_primal = math.inf
    r_dual = math.inf
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        x = z - u + c_over_rho
        np.fill_diagonal(x, d)
        x = (x + x.conj().T) / 2.0

        z_prev = z
        z = psd_project(x + u)
        u = u + x - z

        r_primal = float(np.linalg.norm(x - z))
        r_dual = float(rho * np.linalg.norm(z - z_prev))
        history.append(float(np.vdot(x, c).real))
        if r_primal <= tol_primal and r_dual <= tol_dual:
            converged = True
            break

    x_out = _restore_feasible(z, d)
    objective = float(np.vdot(x_out, c).real)
    return SdpSolution(
        x=x_out,
        objective=objective,
        iterations=iterations,
        converged=converged,
        primal_residual=r_primal,
        dual_residual=r_dual,
        objective_history=np.asarray(history),
    )


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


def _phase_chunk(total_digits: int, levels: int, start: int, count: int) -> np.ndarray:
    # enumeration index -> digit matrix, first coordinate's phase fixed to 0
    idx = np.arange(start, start + count, dtype=np.int64)
    digits = np.empty((count, total_digits), dtype=np.int64)
    for pos in range(total_digits - 1, -1, -1):
        digits[:, pos] = idx % levels
        idx //= levels
    return digits


def brute_force_phase(
    cost: np.ndarray, diag_value: float, levels: int
) -> tuple[float, np.ndarray]:
    """Exhaustive phase-grid optimum of alpha^H C alpha with
    |alpha_l| = sqrt(diag_value) and phases on a uniform grid.

    The first coordinate's phase is fixed to 0 (the objective is
    invariant to a global rotation).  Rejects instances with more than
    10^8 grid points.  Returns (best objective, best alpha).
    """
    problem = SdpProblem(cost=cost, diag_value=diag_value)
    c = problem.cost
    size = problem.size
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels**size > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"{levels}^{size} grid points exceed the {_BRUTE_FORCE_LIMIT:.0e} cap"
        )

    roots = np.exp(2j * math.pi * np.arange(levels) / levels)
    total = levels ** (size - 1)
    best_obj = -math.inf
    best_u = np.ones(size, dtype=np.complex128)
    for start in range(0, total, _BRUTE_CHUNK):
        count = min(_BRUTE_CHUNK, total - start)
        if size == 1:
            u = np.ones((1, 1), dtype=np.complex128)
        else:
            digits = _phase_chunk(size - 1, levels, start, count)
            u = np.empty((count, size), dtype=np.complex128)
            u[:, 0] = 1.0
            u[:, 1:] = roots[digits]
        objs = ((u.conj() @ c) * u).sum(axis=1).real
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best_u = u[k].copy()
    alpha = math.sqrt(diag_value) * best_u
    return diag_value * best_obj, alpha
