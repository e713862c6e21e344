"""Reference implementations the package's fast paths are checked against.

None of these is used by `macdet` itself:

* `Hypothesis`, `ReceivedSignal`, `synthesize` and `decide` are the
  per-trial signal model y = H alpha Theta + H D(alpha) eta + nu and the
  likelihood-ratio rule, one draw at a time.
* `reference_quadratic_form` is the per-item quadratic form
  v^H R^-1 v: the received covariance R formed explicitly and solved by
  Cholesky, the path every gain rule and noise model went through before
  the batched core.
* `received_block` forms a block of received vectors y (count x N) at
  once, and `reference_pe_montecarlo` is the block Monte Carlo loop over
  it; `estimate_pe_montecarlo` and each detector of a mixed-L
  `estimate_pe_montecarlo_batch` must count exactly the same errors from
  the same draws.
* `e_csis1_numeric` is the single-antenna full-knowledge exponent by
  quadrature of the amplitude density (scipy.integrate).
* `color` and `sample_sensing_noise` draw correlated sensing noise on
  their own, one vector or block at a time; the Monte Carlo colors its
  trial blocks through `SensingNoiseModel.scale_factor` directly.
* `phase_optimum` is a multi-start phase ascent over u in C^N for the
  phase optimum max ||H alpha||^2 s.t. |alpha_l|^2 = d, a feasible lower
  bound that the SDR phase design is compared against; the package
  certifies its SDP by the dual gap instead.
* `solve_sdps_every_step` is `sdr.solve_sdps` with its N x N
  certificate taken at every step; `sdr.solve_sdps` skips the steps
  that the next iterate's objective rules out and must return the same
  solutions bit for bit.
* `method2_direction` is method2's direction for one channel through
  `hermitian_eig` of its own Gram matrix; `allocation._method2_directions`
  takes a whole stack in one pass and must give each channel the same
  bits.
* `solve_sdp_eigen_stop` is the Burer-Monteiro ascent with the exact
  dual certificate (an eigen-solve of the L x L Diag(y) - C) at every
  step; `sdr.solve_sdp` certifies each step through one N x N eigenvalue
  of the Schur complement and a rounding margin, so it must stop at the
  same step or a little later, with a gap no smaller.
* `extract_phases_dense` rounds an SDP solution through the top
  eigenvector of the L x L matrix V V^H; `sdr.extract_phases` takes it
  from the N x N Gram V^H V instead.
* `start_old_rank` is the SDP's former start, of width ceil(sqrt(2 L))
  from an eigen-solve of H H^H and a QR factorization; a solve from it
  must reach `sdr._start`'s objective within both certified gaps.
* `q_function` is the Gaussian tail Q(x) itself, through SciPy's erfc;
  the package only needs its logarithm, `numerics.log_q`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy import integrate
from scipy.special import erfc, i0e

from macdet import sdr
from macdet.allocation import received_covariance
from macdet.detection import _MC_BLOCK, PeEstimate
from macdet.forms import item, quadratic_forms
from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    complex_normal,
)
from macdet.numerics import (
    canonical_phase,
    hermitian_eig,
    scaled_by_power_of_two,
    solve_hermitian_pd,
)
from macdet.sdr import SdpSolution

# phase_optimum: random starts, step cap, largest entry move at a fixed point
_PHASE_STARTS = 64
_PHASE_STEPS = 1_000
_PHASE_STEP_TOL = 1e-12


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x), via erfc.

    Vectorized; Q(-inf) = 1, Q(0) = 1/2, Q(inf) = 0.  Relative error
    within 1e-15 * max(1, x^2) wherever Q is a normal double: the tail's
    own condition number grows like x^2, so rounding x alone costs that.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


class Hypothesis(IntEnum):
    H0 = 0
    H1 = 1


@dataclass(frozen=True)
class ReceivedSignal:
    """Array observation y together with the hypothesis that produced it."""

    y: np.ndarray
    truth: Hypothesis

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=np.complex128)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a non-empty vector")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "truth", Hypothesis(self.truth))


def color(model: SensingNoiseModel, std: np.ndarray) -> np.ndarray:
    """Sensing noise S @ std from standard CN(0, 1) draws with the
    sensors along the first axis."""
    return model.scale_factor(std.shape[0]) @ std


def sample_sensing_noise(
    model: SensingNoiseModel, num_sensors: int, gen: np.random.Generator
) -> np.ndarray:
    """One correlated sensing-noise vector of length num_sensors: the
    model's color of one block of standard CN(0, 1) draws."""
    return color(model, complex_normal(gen, num_sensors, 1.0))


def _color(params: NetworkParams, noise: SensingNoiseModel | None, std: np.ndarray) -> np.ndarray:
    # sensing noise from standard CN(0, 1) draws with the sensors along the
    # first axis: sqrt(sigma_eta_sq) std under iid noise (noise=None)
    return math.sqrt(params.sigma_eta_sq) * std if noise is None else color(noise, std)


def _receiver_noise(params: NetworkParams, gen: np.random.Generator, count: int) -> np.ndarray:
    # CN(0, sigma_nu_sq) receiver noise (count x N), drawn antenna by
    # antenna: the real parts of antenna j's count trials, then their
    # imaginary parts, before antenna j + 1
    scale = math.sqrt(params.sigma_nu_sq / 2.0)
    parts = scale * gen.standard_normal((params.num_antennas, 2, count))
    return (parts[:, 0] + 1j * parts[:, 1]).T


def synthesize(
    channel,
    alpha,
    params: NetworkParams,
    hypothesis: Hypothesis,
    gen: np.random.Generator,
    noise: SensingNoiseModel | None = None,
) -> ReceivedSignal:
    """One draw of the received vector.  Sensing noise is drawn first,
    receiver noise second (each antenna's real part, then its imaginary
    part), so a shared generator yields reproducible pairs."""
    h, a, _ = item(channel, alpha, params, noise)
    eta = _color(params, noise, complex_normal(gen, params.num_sensors))
    nu = _receiver_noise(params, gen, 1)[0]
    signal = params.theta if hypothesis == Hypothesis.H1 else 0.0
    y = signal * (h @ a) + h @ (a * eta) + nu
    return ReceivedSignal(y=y, truth=Hypothesis(hypothesis))


def decide(
    y,
    channel,
    alpha,
    params: NetworkParams,
    noise: SensingNoiseModel | None = None,
) -> Hypothesis:
    """Likelihood-ratio decision; ties go to H1 (a probability-zero
    event under either hypothesis)."""
    form = item(channel, alpha, params, noise)
    _, w, q = quadratic_forms(*form, params.sigma_nu_sq, solve=True)
    y = np.asarray(y, dtype=np.complex128)
    statistic = params.theta * float(np.vdot(y, w).real)
    threshold = 0.5 * params.theta**2 * q + params.tau
    return Hypothesis.H1 if statistic >= threshold else Hypothesis.H0


def reference_quadratic_form(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(v, R^-1 v, q) with v = H alpha and q = max(Re v^H R^-1 v, 0): the
    covariance from received_covariance, solved by Cholesky."""
    h, a, _ = item(channel, alpha, params, noise)
    v = h @ a
    w = solve_hermitian_pd(received_covariance(h, a, params, noise), v)
    return v, w, max(float(np.vdot(v, w).real), 0.0)


def received_block(
    h: np.ndarray,
    a: np.ndarray,
    params: NetworkParams,
    truth: np.ndarray,
    gen: np.random.Generator,
    noise: SensingNoiseModel | None = None,
    block_sensors: int | None = None,
) -> np.ndarray:
    """Received vectors y (count x N), one per entry of the boolean
    hypotheses `truth` (True for H1): the sensing noise of every trial is
    drawn from `gen` as one (block_sensors, count) block, of which the
    leading L rows are used (block_sensors defaults to L), then the
    receiver noise antenna by antenna: the real parts of antenna j's
    count trials, then their imaginary parts, before antenna j + 1."""
    count = truth.size
    l = params.num_sensors
    std = complex_normal(gen, (block_sensors or l, count))[:l]
    eta = _color(params, noise, std)
    nu = _receiver_noise(params, gen, count)
    signal = np.where(truth, params.theta, 0.0)[:, np.newaxis] * (h @ a)[np.newaxis, :]
    return signal + (h @ (a[:, np.newaxis] * eta)).T + nu


def reference_pe_montecarlo(
    channel,
    alpha,
    params: NetworkParams,
    trials: int,
    rng: RandomSource,
    noise: SensingNoiseModel | None = None,
    block_size: int = _MC_BLOCK,
    block_sensors: int | None = None,
) -> PeEstimate:
    """The Monte Carlo error rate by forming every received vector: the
    same block generators and draw order (hypotheses, sensing noise,
    receiver noise) as `estimate_pe_montecarlo`, at O(N L) per trial.
    With block_size 1 each trial's generator is drawn in the order a
    `synthesize` call after one uniform draw consumes it.  With
    block_sensors the sensing noise is drawn for that many sensors and
    the leading L used, as a detector of a batch whose largest sensor
    count is block_sensors reads it."""
    h, a, sensing = item(channel, alpha, params, noise)
    _, w, q = quadratic_forms(h, a, sensing, params.sigma_nu_sq, solve=True)
    threshold = 0.5 * params.theta**2 * q + params.tau

    errors = 0
    for block, start in enumerate(range(0, trials, block_size)):
        count = min(block_size, trials - start)
        gen = rng.montecarlo_block(block)
        truth = gen.random(count) < params.p1
        y = received_block(h, a, params, truth, gen, noise, block_sensors)
        statistic = params.theta * (y.conj() @ w).real
        decisions = statistic >= threshold
        errors += int(np.sum(decisions != truth))
    return PeEstimate(errors, trials)


def e_csis1_numeric(params: NetworkParams, model: ChannelModel) -> float:
    """Single-antenna exponent with full transmit-side channel knowledge,
    by quadrature of the amplitude average

        E = (theta^2/8) E_h[ 1 / (sigma_eta^2 + sigma_nu^2/(P |h|^2)) ]

    over the model's amplitude density, to absolute accuracy 1e-9.
    """
    th2 = params.theta**2
    se2 = params.sigma_eta_sq
    sn2 = params.sigma_nu_sq
    p = params.gain_budget

    def value_at(r2: float) -> float:
        # integrand 1/(se2 + sn2/(P r^2)) written division-safe at r = 0
        return p * r2 / (se2 * p * r2 + sn2)

    if model.is_awgn:
        return 0.125 * th2 * value_at(1.0)
    if model.k_factor == 0.0:
        # |h|^2 is Exp(1): integrate over the power variable directly
        def integrand(x: float) -> float:
            return math.exp(-x) * value_at(x)

        knee = sn2 / (p * se2) if se2 > 0.0 else math.inf
        pieces = [0.0, knee, math.inf] if math.isfinite(knee) else [0.0, math.inf]
    else:
        s = model.los_amplitude
        sig2 = model.diffuse_variance / 2.0

        def integrand(r: float) -> float:
            z = r * s / sig2
            dens = (r / sig2) * i0e(z) * math.exp(-((r - s) ** 2) / (2.0 * sig2))
            return dens * value_at(r * r)

        sig = math.sqrt(sig2)
        lo, hi = max(0.0, s - 14.0 * sig), s + 14.0 * sig
        knee = math.sqrt(sn2 / (p * se2)) if se2 > 0.0 else math.inf
        pieces = sorted({lo, hi} | ({knee} if lo < knee < hi else set()))

    total = 0.0
    err_total = 0.0
    for a, b in zip(pieces, pieces[1:]):
        val, err = integrate.quad(integrand, a, b, epsabs=1e-10, epsrel=1e-11, limit=300)
        total += val
        err_total += err
    scaled_err = 0.125 * th2 * err_total
    if scaled_err > 1e-9 + 1e-9 * abs(0.125 * th2 * total):
        raise ValueError(f"amplitude quadrature error {scaled_err:g} above tolerance")
    return 0.125 * th2 * total


def _unit_phase(z: np.ndarray) -> np.ndarray:
    # z / |z| entrywise, phase 0 where z = 0 (arctan2 does not overflow on
    # subnormal z, as z / |z| can)
    return np.exp(1j * np.angle(z))


def phase_optimum(channel, diag_value: float) -> tuple[float, np.ndarray]:
    """Best phase vector found for max ||H alpha||^2 s.t. |alpha_l|^2 = d,
    for a channel H (N x L).

    Swapping the two maxima gives
    max ||H alpha||^2 = d max_{||u|| = 1} (sum_l |u^H h_l|)^2 over the unit
    sphere of C^N, attained at alpha = sqrt(d) phase(H^H u) (Karystinos and
    Liavas, IEEE Trans. IT 56(7), 2010), so the search runs over u and its
    size does not grow with L.  The starts are phase(H^H u) for u = each
    e_n, the top left singular vector of H and 64 seeded random vectors.
    From each start the ascent alpha <- phase(H^H (H alpha)) runs until no
    entry moves by more than 1e-12 or for 1,000 steps; with C = H^H H PSD,
    (a' - a)^H C (a' - a) >= 0 gives a'^H C a' - a^H C a >=
    2 (sum_l |(C a)_l| - Re a^H C a) >= 0, so no step lowers the value.
    Returns (d ||H a||^2, sqrt(d) a) for the best unit-modulus a found:
    feasible, hence a lower bound on the phase optimum for every N and L,
    and exact for a rank-one H.
    """
    h = np.asarray(channel, dtype=np.complex128)
    n = h.shape[0]
    gen = np.random.default_rng(0)
    starts = np.concatenate(
        [
            np.eye(n),
            np.linalg.svd(h)[0][:, :1],
            gen.standard_normal((n, _PHASE_STARTS)) + 1j * gen.standard_normal((n, _PHASE_STARTS)),
        ],
        axis=1,
    )
    hh = h.conj().T
    alpha = _unit_phase(hh @ starts)
    for _ in range(_PHASE_STEPS):
        step = _unit_phase(hh @ (h @ alpha))
        moved = float(np.abs(step - alpha).max())
        alpha = step
        if moved <= _PHASE_STEP_TOL:
            break
    values = np.sum(np.abs(h @ alpha) ** 2, axis=0)
    best = int(np.argmax(values))
    return diag_value * float(values[best]), math.sqrt(diag_value) * alpha[:, best]


def method2_direction(h: np.ndarray) -> np.ndarray:
    """Unit top eigenvector of H^H H in the canonical phase for one
    channel (N x L): H^H u for u the top eigenvector of H H^H when N < L
    and H H^H is not zero, else H^H H x for x the top eigenvector of
    H^H H (x itself when that is zero); rescaled by its largest entry,
    normalized and put in the canonical phase."""
    small = hermitian_eig(h @ h.conj().T) if h.shape[0] < h.shape[1] else None
    if small is not None and small.eigenvalues[-1] > 0.0:
        v = h.conj().T @ small.eigenvectors[:, -1]
    else:
        x = hermitian_eig(h.conj().T @ h).eigenvectors[:, -1]
        v = h.conj().T @ (h @ x)
        if not v.any():
            return x
    v = v / np.abs(v).max()
    return canonical_phase(v / np.linalg.norm(v))


def start_old_rank(h: np.ndarray) -> np.ndarray:
    """The start `sdr._start` took before it became H^H with unit rows,
    at rank r = min(L, ceil(sqrt(2 L))), Barvinok and Pataki's bound for
    a general cost: the right singular vectors of H, top first, then the
    leading unit vectors, orthonormalized by a QR factorization; the
    first r columns, each row scaled to unit norm (an all-zero row takes
    the first unit vector).  The right singular vectors are
    H^H u_i / sigma_i for the eigenvectors u_i of the N x N H H^H, left
    unnormalized for the QR to normalize (one with sigma_i = 0 is a zero
    column, which the QR replaces); their span is that of C's top
    eigenvectors."""
    count, _, size = h.shape
    rank = min(size, math.ceil(math.sqrt(2 * size)))
    hh = h.conj().transpose(0, 2, 1)
    right = hh @ np.linalg.eigh(h @ hh)[1][:, :, ::-1]
    units = np.broadcast_to(np.eye(size, rank, dtype=np.complex128), (count, size, rank))
    v = np.ascontiguousarray(np.linalg.qr(np.concatenate([right, units], axis=2)[:, :, :rank])[0])
    v[~v.any(axis=2), 0] = 1.0
    v *= (1.0 / np.linalg.norm(v, axis=2))[:, :, np.newaxis]
    return v


def solve_sdp_eigen_stop(channel, steps: int | None = None) -> SdpSolution:
    """`sdr.solve_sdp`'s ascent, from its start (`sdr._start`) and with
    its steps, on the same scaled channel, certified at every step by the
    exact dual certificate: gap = L max(0, -lambda_min(Diag(y) - C))
    plus the same rounding allowance, from an eigen-solve of the L x L
    Diag(y) - C, and the same stop rule and tolerance.  Reads
    `sdr._GAP_TOL` and `sdr._MAX_ITER` at call time.  With `steps`, runs
    exactly that many steps, whatever the certificate says, and reports
    the exact gap there."""
    h, j = scaled_by_power_of_two(np.asarray(channel, dtype=np.complex128)[np.newaxis], unit=True)
    hh = np.ascontiguousarray(h.conj().transpose(0, 2, 1))
    c = hh[0] @ h[0]
    size = h.shape[2]
    v = sdr._start(h)
    tol = max(sdr._GAP_TOL, 4.0 * size * sdr._EPS)
    last = sdr._MAX_ITER if steps is None else steps
    for iterations in range(last + 1):
        cv, y = sdr._products(h, hh, v)
        ((objective, bound, allowance, _),) = sdr._stop_terms(y, size, tol)
        gap = size * max(0.0, -float(np.linalg.eigvalsh(np.diag(y[0]) - c)[0]))
        gap += allowance
        converged = gap <= bound
        if (converged and steps is None) or iterations == last:
            break
        v = sdr._ascend(v, cv)

    return SdpSolution(
        factor=v[0],
        objective=float(np.ldexp(objective, 2 * j[0])),
        iterations=iterations,
        converged=converged,
        gap=float(np.ldexp(gap, 2 * j[0])),
    )


def solve_sdps_every_step(channels) -> list[SdpSolution]:
    """`sdr.solve_sdps` with a certificate at every step: the same ascent
    on the same scaled stack, each live channel certified through its
    N x N eigenvalue (`sdr._top_eigenvalues`, `sdr._shift`) at every
    step, with no screen.  `sdr.solve_sdps` certifies only the steps its
    screen lets through and must return these solutions bit for bit.
    Reads `sdr._MAX_ITER` at call time."""
    h, scales = scaled_by_power_of_two(np.asarray(channels, dtype=np.complex128), unit=True)
    count, n, size = h.shape
    v = sdr._start(h)
    hh = np.ascontiguousarray(h.conj().transpose(0, 2, 1))
    tol = max(sdr._GAP_TOL, 4.0 * size * sdr._EPS)
    margin = sdr._margin(n, size)
    support = h.any(axis=1)
    skip = np.where(support | ~support.any(axis=1)[:, np.newaxis], 0.0, np.inf)
    live = list(range(count))
    solutions: list = [None] * count
    for iterations in range(sdr._MAX_ITER + 1):
        final = iterations == sdr._MAX_ITER
        cv, y = sdr._products(h, hh, v)
        terms = sdr._stop_terms(y, size, tol)
        lows = (y + skip).min(axis=1).tolist()
        shifts = [t + max(0.0, -2.0 * low) for (_, _, _, t), low in zip(terms, lows)]
        lams = sdr._top_eigenvalues(y, shifts, h, hh, margin)
        stopped = []
        for k, ((objective, bound, allowance, _), low, s, lam) in enumerate(zip(terms, lows, shifts, lams)):
            if lam > 1.0 and not final:
                continue
            y_ref = low if lam <= 1.0 else float((y[k] - skip[k]).max())
            gap = size * sdr._shift(y_ref, s, lam) + allowance
            if gap <= bound or final:
                stopped.append(k)
                solutions[live[k]] = SdpSolution(
                    factor=v[k].copy(),
                    objective=float(np.ldexp(objective, 2 * scales[live[k]])),
                    iterations=iterations,
                    converged=gap <= bound,
                    gap=float(np.ldexp(gap, 2 * scales[live[k]])),
                )
        if len(stopped) == len(live):
            break
        if stopped:
            keep = np.ones(len(live), dtype=bool)
            keep[stopped] = False
            live = [item for item, kept in zip(live, keep) if kept]
            h, hh, v, cv, skip = h[keep], hh[keep], v[keep], cv[keep], skip[keep]
        v = sdr._ascend(v, cv)
    return solutions


def extract_phases_dense(solution: SdpSolution) -> np.ndarray:
    """Rank-one rounding through the L x L matrix: the top eigenvector of
    X = V V^H (symmetrized), normalized entrywise with the global phase
    of `sdr._unit_phases`; zero components round to phase 0.
    `sdr.extract_phases` decomposes only the N x N Gram V^H V and must
    agree with it to rounding."""
    v = solution.factor
    x = v @ v.conj().T
    return sdr._unit_phases(hermitian_eig((x + x.conj().T) / 2.0).eigenvectors[:, -1])
