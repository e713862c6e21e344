"""Sensor gain strategies and the finite-size exponent statistic.

Strategies cover channel-independent uniform gains, the optimal and
phase-only single-antenna rules, two reduced-complexity multi-antenna
methods (best-antenna selection and top-eigenvector beamforming), the
hybrid that switches between them at a crossover calibrated on the same
channels (scheme_sweep returns all three, with the bisection steps, as
one frozen SchemeSweep), and an SDP-based phase-only design
(alpha_sdr_phase, the gains the sdr-compare runner scores).  Every
strategy spends the gain budget P = total_power / (p1 theta^2 +
sigma_eta_sq) with equality.

Any (channel, gains) pair is scored by the statistic

    (theta^2 / (8 L)) alpha^H H^H R(alpha)^{-1} H alpha,
    R(alpha) = H D(alpha) R_eta D(alpha)^H H^H + sigma_nu^2 I,

whose large-L limits are the closed forms in `exponents`.  Sensing noise
is iid CN(0, sigma_eta_sq) with the network's sigma_eta_sq when no model
is given (noise=None), so R_eta = sigma_eta_sq I, and a SensingNoiseModel's
covariance R_eta otherwise; either way the statistic goes through the
batched core of `forms`.  Gains are computed centrally from known channel
state; feedback to the sensors is modeled as noiseless.

Every rule reads its channel through numerics.scaled_by_power_of_two's
gain rule, which rejects a non-finite entry and scales a channel whose
largest part reaches 2^384 to H 2^-j, so no square overflows; a sweep
scales its stack once.  No rule's gains depend on that scale: the
direction of method2 does not, and alpha_opt_n1 and method1 see H and
sigma_nu_sq only through ratios that H 2^-j with sigma_nu_sq 4^-j leave
as they are.  Every other channel keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import checked_channel, exponent_statistic, item, shaped
from .model import NetworkParams, SensingNoiseModel
from .numerics import canonical_phase, hermitian_eig, scaled_by_power_of_two
from .sdr import SdpNonConvergence, extract_phases, solve_sdp

__all__ = [
    "GainVector",
    "NoCrossoverError",
    "received_covariance",
    "finite_exponent",
    "alpha_uniform",
    "alpha_opt_n1",
    "alpha_phase_only_n1",
    "method1",
    "method2",
    "calibrate_crossover",
    "SchemeSweep",
    "scheme_sweep",
    "alpha_sdr_phase",
]

# calibrate_crossover bisects in log gamma_s until the bracket is this
# narrow, in dB
_CROSSOVER_TOL_DB = 0.05

# _method_grid scores (point, channel) items in groups of at most this
# many channel entries (N L each): with ten channels at L = 200, three
# whole points at N = 5 and three channels of one point at N = 50;
# figure9's whole 7-point grid (N = 3, L = 32, three channels) is one
# group.  On a 2-vCPU x86-64 host with one BLAS thread that was the
# fastest split of an N = 50 point (5.4-5.8 ms; one channel per group
# 5.9-6.8, all ten 7.0-8.0), and it raised fig8-schemes' peak RSS by 2 %
# over unbatched scoring (one per group 1 %, all ten 12 %).
# _method2_directions takes its channels in the same groups: the whole
# N = 50 stack at once raised a fresh figure8 process's peak RSS by
# 0.8 MB, groups of three by none.
_GROUP_ENTRIES = 1 << 15


@dataclass(frozen=True)
class GainVector:
    """Complex sensor gains alpha with their power budget P."""

    values: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty vector")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
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


def received_covariance(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> np.ndarray:
    """Covariance H D(alpha) R_eta D(alpha)^H H^H + sigma_nu^2 I of the
    array output, with R_eta = sigma_eta_sq I under iid sensing noise
    (noise=None).  A diagonal model R_eta = sigma_eta_sq I reproduces the
    iid result bit-for-bit (its Cholesky factor is exactly diagonal);
    ValueError on a non-finite input."""
    h, a, sensing = item(channel, alpha, params, noise)
    if not all(np.isfinite(x).all() for x in (h, a, sensing)):
        raise ValueError("channel, gain and sensing-noise entries must be finite")
    b = h * a[np.newaxis, :]
    bs = b @ sensing if isinstance(sensing, np.ndarray) else b * math.sqrt(sensing)
    r = bs @ bs.conj().T
    r[np.diag_indices_from(r)] += params.sigma_nu_sq
    return r


def finite_exponent(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Exponent statistic (theta^2/(8L)) alpha^H H^H R^{-1} H alpha of one
    (channel, gains) pair: forms.exponent_statistic of the one item."""
    h, a, sensing = item(channel, alpha, params, noise)
    return float(exponent_statistic(h, a, params, sensing))


def alpha_uniform(params: NetworkParams) -> GainVector:
    """Channel-independent gains sqrt(P/L) at every sensor."""
    p = params.gain_budget
    values = np.full(params.num_sensors, math.sqrt(p / params.num_sensors), dtype=np.complex128)
    return GainVector(values=values, budget=p)


def _power(h: np.ndarray) -> np.ndarray:
    # |h|^2 by real arithmetic, the same bits for a row or a whole matrix
    return h.real**2 + h.imag**2


def _opt_n1_values(h_row, power, budget, sigma_eta_sq, sigma_nu_sq: float) -> np.ndarray:
    # alpha_opt_n1's gains for rows (..., L), their |h|^2, a gain budget,
    # sigma_eta_sq and sigma_nu_sq (floats, or arrays taken elementwise
    # that broadcast against the rows' batch).  The magnitudes are
    # rescaled by their largest entry before sum w^2, which then cannot
    # underflow, and normalized as _method2_directions normalizes a
    # direction, so equal directions give equal gains.
    p, s, nu = (np.asarray(x)[..., np.newaxis] for x in (budget, sigma_eta_sq, sigma_nu_sq))
    w = np.sqrt(power) / (s * p * power + nu)
    top = w.max(axis=-1, keepdims=True)
    if not (top > 0.0).all():
        raise ValueError("channel row is identically zero")
    w = w / top
    w = w / np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
    return np.sqrt(p) * w * np.exp(-1j * np.angle(h_row))


def alpha_opt_n1(h_row, params: NetworkParams) -> GainVector:
    """Optimal gains for a single receive antenna: magnitudes
    |h_l| / (sigma_eta_sq P |h_l|^2 + sigma_nu_sq) scaled to spend P,
    phases conjugate to the channel."""
    h = np.asarray(h_row, dtype=np.complex128).reshape(-1)
    (h,), (j,) = scaled_by_power_of_two(shaped("channel row", h, params.num_sensors)[np.newaxis])
    p = params.gain_budget
    sigma_nu_sq = math.ldexp(params.sigma_nu_sq, -2 * int(j))
    values = _opt_n1_values(h, _power(h), p, params.sigma_eta_sq, sigma_nu_sq)
    return GainVector(values=values, budget=p)


def alpha_phase_only_n1(h_row, params: NetworkParams) -> GainVector:
    """Equal magnitudes sqrt(P/L) with channel-conjugate phases."""
    h = np.asarray(h_row, dtype=np.complex128).reshape(-1)
    # checked only: the phases do not depend on the scale
    scaled_by_power_of_two(shaped("channel row", h, params.num_sensors)[np.newaxis])
    p = params.gain_budget
    values = math.sqrt(p / params.num_sensors) * np.exp(-1j * np.angle(h))
    return GainVector(values=values, budget=p)


def _method1_values(h, power, budget, sigma_eta_sq, sigma_nu_sq, params: NetworkParams):
    # method1's (gains, selected antenna) for channels (..., N, L), their
    # |h|^2, a gain budget, sigma_eta_sq and sigma_nu_sq (floats, or
    # arrays taken elementwise that broadcast against the channels'
    # batch), the channels and sigma_nu_sq scaled by scaled_by_power_of_two
    p, s, nu = (np.expand_dims(x, (-2, -1)) for x in (budget, sigma_eta_sq, sigma_nu_sq))
    terms = p * power / (s * p * power + nu)
    metric = params.theta**2 / (8.0 * params.num_sensors) * terms.sum(axis=-1)
    selected = metric.argmax(axis=-1)
    index = selected[..., np.newaxis, np.newaxis]
    # per-point budgets give the selection leading axes the channels lack
    h = h[(np.newaxis,) * (index.ndim - h.ndim)]
    row = np.take_along_axis(h, index, axis=-2)[..., 0, :]
    return _opt_n1_values(row, _power(row), budget, sigma_eta_sq, sigma_nu_sq), selected


def method1(channel, params: NetworkParams) -> tuple[GainVector, int]:
    """Best-antenna selection: picks the antenna maximizing
    (theta^2/(8L)) sum_l 1/(sigma_eta_sq + sigma_nu_sq/(P |h_nl|^2))
    and applies the single-antenna optimal gains to its row.  Ties go
    to the lowest antenna index."""
    (h,), (j,) = scaled_by_power_of_two(checked_channel(channel, params)[np.newaxis])
    p = params.gain_budget
    sigma_nu_sq = math.ldexp(params.sigma_nu_sq, -2 * int(j))
    values, selected = _method1_values(h, _power(h), p, params.sigma_eta_sq, sigma_nu_sq, params)
    return GainVector(values=values, budget=p), int(selected)


def _method2_directions(h: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of H^H H in the canonical phase for each
    channel of a stack (D, N, L): the directions method2 scales by
    sqrt(P).  They depend on the channels alone (gamma_s only moves P),
    so a gamma_s sweep computes them once.  The callers pass the
    channels through scaled_by_power_of_two, on whose scale the
    directions do not depend.

    Each is taken as H^H u, with u the top eigenvector of the small Gram
    matrix H H^H for N < L and u = H x, x the top eigenvector of H^H H,
    otherwise; H^H u is rescaled by its largest entry and then
    normalized, as alpha_opt_n1 normalizes its magnitudes (on AWGN both
    methods give the same bits).  When H^H u is zero (an all-zero
    channel) x itself is returned.  Every step runs on a group of
    channels at once (at most _GROUP_ENTRIES entries), and each channel
    gets the bits it gets in a stack of one: the eigendecompositions are
    LAPACK's per matrix, and each norm is a dot product per row, as
    np.linalg.norm takes it."""
    count, n, size = h.shape
    step = max(1, _GROUP_ENTRIES // (n * size))
    if count > step:
        return np.concatenate([_method2_directions(h[i : i + step]) for i in range(0, count, step)])
    hh = h.conj().transpose(0, 2, 1)
    directions = np.empty((count, size), dtype=np.complex128)
    if n < size:
        small = hermitian_eig(h @ hh)
        v = (hh @ small.eigenvectors[:, :, -1:])[:, :, 0]
        rest = small.eigenvalues[:, -1] <= 0.0
    else:
        v = np.empty_like(directions)
        rest = np.ones(count, dtype=bool)
    if rest.any():
        hr = h[rest]
        hhr = hr.conj().transpose(0, 2, 1)
        x = hermitian_eig(hhr @ hr).eigenvectors[:, :, -1:]
        v[rest] = (hhr @ (hr @ x))[:, :, 0]
        directions[rest] = x[:, :, 0]
    moving = v.any(axis=1)
    v = v[moving]
    v = v / np.abs(v).max(axis=1, keepdims=True)
    real, imag = v.real[:, np.newaxis], v.imag[:, np.newaxis]
    norms = np.sqrt(real @ real.swapaxes(1, 2) + imag @ imag.swapaxes(1, 2))[:, 0]
    directions[moving] = canonical_phase(v / norms)
    return directions


def method2(channel, params: NetworkParams) -> GainVector:
    """Top-eigenvector beamforming: sqrt(P) times the unit top
    eigenvector of H^H H (the optimal direction when sensing noise is
    absent), as _method2_directions gives it for a stack of one.  For
    N < L the eigenvector is recovered from the small Gram matrix H H^H."""
    h = scaled_by_power_of_two(checked_channel(channel, params)[np.newaxis])[0]
    p = params.gain_budget
    return GainVector(values=math.sqrt(p) * _method2_directions(h)[0], budget=p)


def _method_grid(channels, fitted, directions, points) -> np.ndarray:
    """Per-channel finite exponents of method1 and method2 on a stack
    (D, N, L) that scheme_sweep has checked, at every point in `points`,
    NetworkParams of that network that differ only in sigma_eta_sq (as
    params.at_gamma_s gives them): an array (points, D, 2), each entry
    bit for bit finite_exponent of method1 or method2 on its channel at
    its point.  `fitted` is scaled_by_power_of_two of the stack, (H 2^-j,
    j), on which method1's gains are built with sigma_nu_sq 4^-j, as
    method1 builds them; the items are scored on the channels
    themselves.  `directions` (D, L) holds each channel's method2
    direction (_method2_directions), which does not depend on gamma_s.

    The (point, channel) items go through the batched core in groups of
    at most _GROUP_ENTRIES channel entries, so the working set stays
    bounded at any N, L and grid size: several whole points when all
    their channels fit in a group, else a run of one point's channels.
    A group reads its channels as a view and computes their scaled |h|^2
    once; each item takes its point's gain budget and sigma_eta_sq and
    its channel's sigma_nu_sq 4^-j elementwise.  ValueError when
    `directions` is not (D, L)."""
    shaped("directions", directions, *np.shape(channels)[::2])
    params = points[0]
    scaled, shifts = fitted
    sigma_nu_sq = np.ldexp(params.sigma_nu_sq, -2 * shifts)
    # per point, as columns that broadcast against a group's channels
    budget = np.array([[x.gain_budget] for x in points])
    sigma_eta_sq = np.array([[x.sigma_eta_sq] for x in points])
    step = max(1, _GROUP_ENTRIES // (params.num_antennas * params.num_sensors))
    span, width = max(1, step // max(1, len(channels))), min(step, len(channels))
    fe = np.empty((len(points), len(channels), 2))
    for i in range(0, len(points), span):
        for j in range(0, len(channels), width):
            h, p, s = channels[j : j + width], budget[i : i + span], sigma_eta_sq[i : i + span]
            hs, nu = scaled[j : j + width], sigma_nu_sq[j : j + width]
            method1_gains = _method1_values(hs, _power(hs), p, s, nu, params)[0]
            method2_gains = np.sqrt(p)[..., np.newaxis] * directions[j : j + width]
            gains = np.stack((method1_gains, method2_gains), axis=-2)
            scored = exponent_statistic(h[:, np.newaxis], gains, params, s[..., np.newaxis])
            fe[i : i + span, j : j + width] = scored
    return fe


def _mean_exponent_gap(fe: np.ndarray) -> float:
    """Mean method1 - method2 gap over one point's (channels, >= 2) exponents."""
    return float(np.mean(fe[:, 0] - fe[:, 1]))


def _checked_grid(gamma_s_grid) -> tuple[float, ...]:
    # every entry > 0 (so not NaN), strictly increasing, and all finite or
    # all +inf; only inf may repeat, since there the whole grid collapses
    # to the zero-sensing-noise point
    grid = tuple(float(g) for g in gamma_s_grid)
    if not all(g > 0.0 for g in grid):
        raise ValueError("gamma_s_grid entries must be > 0")
    if any(b < a or (b == a and math.isfinite(a)) for a, b in zip(grid, grid[1:])):
        raise ValueError("gamma_s_grid must be strictly increasing")
    if grid and math.isfinite(grid[0]) and math.isinf(grid[-1]):  # sorted by now
        raise ValueError("gamma_s_grid mixes finite and infinite entries")
    return grid


def calibrate_crossover(gamma_s_grid, gaps, gap_at) -> float:
    """Sensing SNR at which the mean exponents of the two
    reduced-complexity methods cross.  `gaps` holds the mean gap
    (method1 - method2, see _mean_exponent_gap) at each point of
    `gamma_s_grid`, and `gap_at(gamma_s)` evaluates it at a bisection
    point, on the same channels; the crossover is refined by bisection
    in log gamma_s to within _CROSSOVER_TOL_DB.

    Grid points where the methods tie (a zero mean gap) are skipped: the
    crossover is bracketed by consecutive nonzero gaps of opposite sign.
    A tie strictly inside that bracket is returned as the crossover;
    otherwise the bracket is bisected.  Raises NoCrossoverError when the
    sign never flips; its dominant method follows the sign of the first
    nonzero gap, and is method1 when every gap is zero.  ValueError names
    a grid of fewer than two points or one that _checked_grid rejects,
    a NaN gap or a gap count that does not match the grid, and the
    gamma_s of a bisection point whose gap is NaN.
    """
    grid = _checked_grid(gamma_s_grid)
    if len(grid) < 2:
        raise ValueError("gamma_s_grid needs at least two points")
    if len(gaps) != len(grid):
        raise ValueError(f"{len(gaps)} gaps for {len(grid)} gamma_s_grid points")
    if any(math.isnan(gap) for gap in gaps):
        raise ValueError("gaps must not be NaN")

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
        gap_mid = gap_at(mid)
        if math.isnan(gap_mid):
            raise ValueError(f"gap at gamma_s = {mid!r} is NaN")
        if gap_mid == 0.0:
            return mid
        if (gap_mid > 0.0) == (gap_lo > 0.0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@dataclass(frozen=True, eq=False)
class SchemeSweep:
    """What scheme_sweep returns; `exponents` is read-only."""

    grid: tuple[float, ...]  # the gamma_s points
    params: tuple[NetworkParams, ...]  # params.at_gamma_s of each point
    exponents: np.ndarray  # (points, channels, 3): method1, method2, hybrid
    crossover: float | None  # the calibrated gamma_s, or None
    dominant: str | None  # the method the hybrid takes when crossover is None
    bisection: tuple[tuple[float, float], ...]  # (gamma_s, mean gap) of each step


def scheme_sweep(channels, gamma_s_grid, params: NetworkParams) -> SchemeSweep:
    """method1, method2 and the hybrid on shared channels (D, N, L), or a
    list of N x L arrays, over a gamma_s sweep of params (one or more
    points).  Before any arithmetic, ValueError names a stack of any other
    shape, and a grid that is empty or breaks calibrate_crossover's grid
    rules (an entry <= 0 or NaN, a decreasing or repeated finite entry,
    finite and infinite entries mixed).  Two or more points calibrate
    the crossover from the grid's mean gaps plus one evaluation per
    bisection step; the hybrid takes method1 below it and method2 at or
    above it.  Without a crossover (None) the hybrid takes `dominant`
    everywhere: NoCrossoverError's method, or on one point the one with
    the larger mean exponent (method1 on a tie)."""
    channels = np.asarray(channels, dtype=np.complex128)
    n, l = params.num_antennas, params.num_sensors
    if channels.ndim != 3 or not len(channels) or channels.shape[1:] != (n, l):
        raise ValueError(f"channel stack shape {channels.shape} is not (D >= 1, {n}, {l})")
    grid = _checked_grid(gamma_s_grid)
    if not grid:
        raise ValueError("gamma_s_grid needs at least one point")
    fitted = scaled_by_power_of_two(channels)
    directions = _method2_directions(fitted[0])
    bisection = []

    def gap_at(gamma_s):
        # one bisection point, scored as the one-point case of the grid pass
        fe = _method_grid(channels, fitted, directions, [params.at_gamma_s(gamma_s)])[0]
        bisection.append((gamma_s, _mean_exponent_gap(fe)))
        return bisection[-1][1]

    at_x = tuple(params.at_gamma_s(x) for x in grid)
    fe = np.empty((len(grid), len(channels), 3))
    fe[..., :2] = _method_grid(channels, fitted, directions, at_x)
    crossover = dominant = None
    if len(grid) >= 2:
        try:
            crossover = calibrate_crossover(grid, list(map(_mean_exponent_gap, fe)), gap_at)
        except NoCrossoverError as exc:
            dominant = exc.dominant
    else:
        dominant = "method1" if fe[0, :, 0].mean() >= fe[0, :, 1].mean() else "method2"
    use_method1 = [dominant == "method1" if crossover is None else x < crossover for x in grid]
    fe[..., 2] = np.where(np.array(use_method1)[:, np.newaxis], fe[..., 0], fe[..., 1])
    fe.flags.writeable = False
    return SchemeSweep(grid, at_x, fe, crossover, dominant, tuple(bisection))


def alpha_sdr_phase(channel, params: NetworkParams) -> GainVector:
    """Phase-only gains sqrt(P/L) extract_phases(solve_sdp(H)): the
    semidefinite relaxation of max alpha^H H^H H alpha over |alpha_l| = 1,
    rounded through the top eigenvector of its solution and scaled to
    spend P.  The sdr-compare runner builds its gains the same way.

    Raises SdpNonConvergence when the solver's gap is not certified.
    """
    solution = solve_sdp(checked_channel(channel, params))
    if not solution.converged:
        raise SdpNonConvergence(solution)
    p = params.gain_budget
    values = math.sqrt(p / params.num_sensors) * extract_phases(solution)
    return GainVector(values=values, budget=p)

