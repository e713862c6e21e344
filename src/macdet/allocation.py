"""Sensor gain strategies and the finite-size exponent statistic.

Strategies cover channel-independent uniform gains, the optimal and
phase-only single-antenna rules, two reduced-complexity multi-antenna
methods (best-antenna selection and top-eigenvector beamforming) with
an empirically calibrated hybrid between them, and an SDP-based
phase-only design.  Every strategy spends the gain budget
P = total_power / (p1 theta^2 + sigma_eta_sq) with equality.

Any (channel, gains) pair is scored by the statistic

    (theta^2 / (8 L)) alpha^H H^H R(alpha)^{-1} H alpha,
    R(alpha) = H D(alpha) R_eta D(alpha)^H H^H + sigma_nu^2 I,

whose large-L limits are the closed forms in `exponents`.  Gains are
computed centrally from known channel state; feedback to the sensors is
modeled as noiseless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelMatrix,
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from .numerics import canonical_phase, hermitian_eig, solve_hermitian_pd
from .sdr import SdpNonConvergence, SdpProblem, extract_phases, solve_sdp

__all__ = [
    "GainVector",
    "NoCrossoverError",
    "received_covariance",
    "quadratic_form",
    "finite_exponent",
    "alpha_uniform",
    "alpha_opt_n1",
    "alpha_phase_only_n1",
    "method1",
    "method2",
    "method2_direction",
    "method_exponents",
    "hybrid",
    "calibrate_crossover",
    "alpha_sdr_phase",
]

# calibrate_crossover bisects in log gamma_s until the bracket is this
# narrow, in dB
_CROSSOVER_TOL_DB = 0.05


@dataclass(frozen=True)
class GainVector:
    """Complex sensor gains alpha with their power budget P."""

    values: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty vector")
        if not (math.isfinite(self.budget) and self.budget > 0.0):
            raise ValueError("budget must be a positive finite real")
        power = float(np.sum(np.abs(v) ** 2))
        if power > self.budget * (1.0 + 1e-9):
            raise ValueError(f"power {power} exceeds budget {self.budget}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


class NoCrossoverError(RuntimeError):
    """The two methods never swap order on the calibration grid."""

    def __init__(self, dominant: str):
        super().__init__(f"no crossover found; {dominant} dominates the grid")
        self.dominant = dominant


def _entries(channel) -> np.ndarray:
    if isinstance(channel, ChannelMatrix):
        return channel.entries
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError("channel must be a matrix of shape (N, L)")
    return h


def _gain_values(alpha) -> np.ndarray:
    if isinstance(alpha, GainVector):
        return alpha.values
    return np.asarray(alpha, dtype=np.complex128)


def _check_dims(h: np.ndarray, a: np.ndarray, params: NetworkParams) -> None:
    if h.shape != (params.num_antennas, params.num_sensors):
        raise ValueError(
            f"channel shape {h.shape} does not match "
            f"({params.num_antennas}, {params.num_sensors})"
        )
    if a.shape != (params.num_sensors,):
        raise ValueError(f"gain length {a.shape} does not match {params.num_sensors}")


def received_covariance(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> np.ndarray:
    """Covariance H D(alpha) R_eta D(alpha)^H H^H + sigma_nu^2 I of the
    array output, with R_eta = sigma_eta_sq I when no noise model is
    given.  A diagonal correlated model reproduces the iid result
    bit-for-bit (its Cholesky factor is exactly diagonal)."""
    h = _entries(channel)
    a = _gain_values(alpha)
    _check_dims(h, a, params)
    model = noise if noise is not None else SensingNoiseModel(
        sigma_eta_sq=params.sigma_eta_sq
    )
    factor = model.scale_factor(params.num_sensors)
    b = h * a[np.newaxis, :]
    bs = b @ factor if isinstance(factor, np.ndarray) else b * factor
    r = bs @ bs.conj().T
    r[np.diag_indices_from(r)] += params.sigma_nu_sq
    return r


def quadratic_form(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The matched-filter quantities (v, R^{-1} v, q) with v = H alpha and
    q = max(Re v^H R^{-1} v, 0), shared by the exponent statistic and the
    detector.  R^{-1} v comes from a Cholesky solve (the covariance is
    never inverted explicitly)."""
    h = _entries(channel)
    a = _gain_values(alpha)
    _check_dims(h, a, params)
    v = h @ a
    r = received_covariance(h, a, params, noise)
    w = solve_hermitian_pd(r, v)
    return v, w, max(float(np.vdot(v, w).real), 0.0)


def finite_exponent(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Exponent statistic (theta^2/(8L)) alpha^H H^H R^{-1} H alpha, with
    the quadratic form from quadratic_form (a Cholesky solve; the
    covariance is never inverted explicitly)."""
    q = quadratic_form(channel, alpha, params, noise)[2]
    return params.theta**2 * q / (8.0 * params.num_sensors)


def alpha_uniform(params: NetworkParams) -> GainVector:
    """Channel-independent gains sqrt(P/L) at every sensor."""
    p = params.gain_budget
    values = np.full(params.num_sensors, math.sqrt(p / params.num_sensors), dtype=np.complex128)
    return GainVector(values=values, budget=p)


def alpha_opt_n1(h_row, params: NetworkParams) -> GainVector:
    """Optimal gains for a single receive antenna: magnitudes
    |h_l| / (sigma_eta_sq P |h_l|^2 + sigma_nu_sq) scaled to spend P,
    phases conjugate to the channel."""
    h = np.asarray(h_row, dtype=np.complex128).reshape(-1)
    if h.size != params.num_sensors:
        raise ValueError(f"expected {params.num_sensors} channel entries")
    g = np.abs(h)
    if not g.any():
        raise ValueError("channel row is identically zero")
    p = params.gain_budget
    w = g / (params.sigma_eta_sq * p * g**2 + params.sigma_nu_sq)
    scale = math.sqrt(p / float(np.sum(w**2)))
    values = scale * w * np.exp(-1j * np.angle(h))
    return GainVector(values=values, budget=p)


def alpha_phase_only_n1(h_row, params: NetworkParams) -> GainVector:
    """Equal magnitudes sqrt(P/L) with channel-conjugate phases."""
    h = np.asarray(h_row, dtype=np.complex128).reshape(-1)
    if h.size != params.num_sensors:
        raise ValueError(f"expected {params.num_sensors} channel entries")
    p = params.gain_budget
    values = math.sqrt(p / params.num_sensors) * np.exp(-1j * np.angle(h))
    return GainVector(values=values, budget=p)


def method1(channel, params: NetworkParams) -> tuple[GainVector, int]:
    """Best-antenna selection: picks the antenna maximizing
    (theta^2/(8L)) sum_l 1/(sigma_eta_sq + sigma_nu_sq/(P |h_nl|^2))
    and applies the single-antenna optimal gains to its row.  Ties go
    to the lowest antenna index."""
    h = _entries(channel)
    if h.shape != (params.num_antennas, params.num_sensors):
        raise ValueError("channel shape does not match params")
    p = params.gain_budget
    g2 = np.abs(h) ** 2
    terms = p * g2 / (params.sigma_eta_sq * p * g2 + params.sigma_nu_sq)
    metric = params.theta**2 / (8.0 * params.num_sensors) * terms.sum(axis=1)
    selected = int(np.argmax(metric))
    return alpha_opt_n1(h[selected], params), selected


def method2_direction(channel) -> np.ndarray:
    """Unit top eigenvector of H^H H in the canonical phase: the
    direction method2 scales by sqrt(P).  It depends on the channel
    alone (gamma_s only moves P), so a gamma_s sweep computes it once
    per channel.  For N < L the eigenvector is recovered from the small
    Gram matrix H H^H; when that has no positive eigenvalue (an
    all-zero channel) the big Gram matrix H^H H is decomposed instead."""
    h = _entries(channel)
    n_ant, n_sens = h.shape
    if n_ant < n_sens:
        small = hermitian_eig(h @ h.conj().T)
        if small.eigenvalues[-1] > 0.0:
            u = small.eigenvectors[:, -1]
            v = h.conj().T @ u
            return canonical_phase(v / np.linalg.norm(v))
    return hermitian_eig(h.conj().T @ h).eigenvectors[:, -1]


def method2(channel, params: NetworkParams) -> GainVector:
    """Top-eigenvector beamforming: sqrt(P) times the unit top
    eigenvector of H^H H (the optimal direction when sensing noise is
    absent), as given by method2_direction.  For N < L the eigenvector
    is recovered from the small Gram matrix H H^H."""
    h = _entries(channel)
    if h.shape != (params.num_antennas, params.num_sensors):
        raise ValueError("channel shape does not match params")
    p = params.gain_budget
    return GainVector(values=math.sqrt(p) * method2_direction(h), budget=p)


def hybrid(channel, params: NetworkParams, crossover_gamma_s: float) -> GainVector:
    """Best-antenna gains below the calibrated sensing-SNR crossover,
    top-eigenvector beamforming at or above it."""
    if params.gamma_s < crossover_gamma_s:
        return method1(channel, params)[0]
    return method2(channel, params)


def method_exponents(
    channels: list[np.ndarray], directions: list[np.ndarray], params: NetworkParams
) -> tuple[list[float], list[float]]:
    """Per-channel finite exponents of method1 and method2 at one
    operating point.  `directions` holds each channel's
    method2_direction, which does not depend on gamma_s, so a sweep
    passes the same list at every point; the method2 gains are exactly
    those method2 builds."""
    p = params.gain_budget
    fe1 = [finite_exponent(h, method1(h, params)[0], params) for h in channels]
    fe2 = [
        finite_exponent(h, GainVector(values=math.sqrt(p) * v, budget=p), params)
        for h, v in zip(channels, directions, strict=True)
    ]
    return fe1, fe2


def _mean_exponent_gap(
    channels: list[np.ndarray], directions: list[np.ndarray], params: NetworkParams
) -> float:
    fe1, fe2 = method_exponents(channels, directions, params)
    return float(np.mean([a - b for a, b in zip(fe1, fe2)]))


def calibrate_crossover(
    base_params: NetworkParams,
    model: ChannelModel,
    gamma_s_grid,
    trials: int,
    rng: RandomSource,
) -> float:
    """Sensing SNR at which the mean exponents of the two
    reduced-complexity methods cross, averaged over `trials` common
    channel draws per grid point and refined by bisection in log
    gamma_s to within _CROSSOVER_TOL_DB.

    Grid points where the methods tie (a zero mean gap) are skipped: the
    crossover is bracketed by consecutive nonzero gaps of opposite sign.
    A tie strictly inside that bracket is returned as the crossover;
    otherwise the bracket is bisected.  Raises NoCrossoverError when the
    sign never flips; its dominant method follows the sign of the first
    nonzero gap, and is method1 when every gap is zero.
    """
    grid = [float(g) for g in gamma_s_grid]
    if len(grid) < 2:
        raise ValueError("gamma_s_grid needs at least two points")
    for a, b in zip(grid, grid[1:]):
        # repeated entries are only meaningful at gamma_s = inf, where
        # the whole grid collapses to the zero-sensing-noise point
        if b < a or (b == a and math.isfinite(a)):
            raise ValueError("gamma_s_grid must be strictly increasing")
    if any(g <= 0.0 for g in grid):
        raise ValueError("gamma_s_grid entries must be positive")
    finite = [math.isfinite(g) for g in grid]
    if any(finite) and not all(finite):
        raise ValueError("gamma_s_grid mixes finite and infinite entries")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    channels = [
        sample_channel(
            model, base_params.num_antennas, base_params.num_sensors, rng.substream("calibrate", t)
        ).entries
        for t in range(trials)
    ]
    directions = [method2_direction(h) for h in channels]
    gaps = [_mean_exponent_gap(channels, directions, base_params.at_gamma_s(g)) for g in grid]
    nonzero = [i for i, gap in enumerate(gaps) if gap != 0.0]
    brackets = [(i, j) for i, j in zip(nonzero, nonzero[1:]) if (gaps[i] > 0.0) != (gaps[j] > 0.0)]
    if not brackets:
        raise NoCrossoverError("method2" if nonzero and gaps[nonzero[0]] < 0.0 else "method1")
    i, j = brackets[0]
    if j > i + 1:
        return grid[i + 1]

    lo, hi = grid[i], grid[j]
    gap_lo = gaps[i]
    while 10.0 * math.log10(hi / lo) > _CROSSOVER_TOL_DB:
        mid = math.sqrt(lo * hi)
        gap_mid = _mean_exponent_gap(channels, directions, base_params.at_gamma_s(mid))
        if gap_mid == 0.0:
            return mid
        if (gap_mid > 0.0) == (gap_lo > 0.0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def alpha_sdr_phase(channel, params: NetworkParams) -> GainVector:
    """Phase-only gains from the semidefinite relaxation of
    max alpha^H H^H H alpha over |alpha_l|^2 = P/L, rounded through the
    top eigenvector of the SDP solution.

    Raises SdpNonConvergence when the solver's gap is not certified.
    """
    h = _entries(channel)
    if h.shape != (params.num_antennas, params.num_sensors):
        raise ValueError("channel shape does not match params")
    p = params.gain_budget
    problem = SdpProblem(cost=h.conj().T @ h, diag_value=p / params.num_sensors)
    solution = solve_sdp(problem)
    if not solution.converged:
        raise SdpNonConvergence(solution)
    phases = extract_phases(solution)
    values = math.sqrt(p / params.num_sensors) * phases
    return GainVector(values=values, budget=p)

