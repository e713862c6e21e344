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
* `solve_sdp_eigen_stop` is the Burer-Monteiro ascent with the exact
  dual certificate (an eigen-solve) at every step; `sdr.solve_sdp`
  screens the steps with a shifted N x N Cholesky of the Schur
  complement and must return the same solution bit for bit.
* `extract_phases_dense` rounds an SDP solution through the top
  eigenvector of the L x L matrix V V^H; `sdr.extract_phases` takes it
  from the r x r Gram V^H V instead.
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
from macdet.allocation import _item, quadratic_form, received_covariance
from macdet.detection import _MC_BLOCK, PeEstimate
from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    complex_normal,
)
from macdet.numerics import hermitian_eig, solve_hermitian_pd
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
    h, a, _ = _item(channel, alpha, params, noise)
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
    _, w, q = quadratic_form(channel, alpha, params, noise)
    y = np.asarray(y, dtype=np.complex128)
    statistic = params.theta * float(np.vdot(y, w).real)
    threshold = 0.5 * params.theta**2 * q + params.tau
    return Hypothesis.H1 if statistic >= threshold else Hypothesis.H0


def reference_quadratic_form(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(v, R^-1 v, q) with v = H alpha and q = max(Re v^H R^-1 v, 0): the
    covariance from received_covariance, solved by Cholesky."""
    h, a, _ = _item(channel, alpha, params, noise)
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
    h, a, _ = _item(channel, alpha, params, noise)
    _, w, q = quadratic_form(h, a, params, noise)
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


def solve_sdp_eigen_stop(channel, diag_value: float) -> SdpSolution:
    """`sdr.solve_sdp` with the dual certificate's lambda_min computed by
    an eigen-solve at every ascent step: the same start, steps and stop
    rule, on the same scaled channel, reading `sdr._GAP_TOL` and
    `sdr._MAX_ITER` at call time."""
    h, j = sdr._unit_scale(np.asarray(channel, dtype=np.complex128))
    hh = h.conj().T
    c = hh @ h
    d = diag_value
    size = h.shape[1]
    rank = min(size, math.ceil(math.sqrt(2 * size)))

    v = hermitian_eig(c).eigenvectors[:, -rank:].copy()
    v[~v.any(axis=1), 0] = 1.0
    v *= (math.sqrt(d) / np.linalg.norm(v, axis=1))[:, None]

    tol = max(sdr._GAP_TOL, 4.0 * size * sdr._EPS)
    converged = False
    for iterations in range(sdr._MAX_ITER + 1):
        cv = hh @ (h @ v)
        y = (v.conj() * cv).sum(axis=1).real / d
        objective = d * float(y.sum())
        scale = max(abs(objective), d)
        gap = d * size * max(0.0, -float(np.linalg.eigvalsh(np.diag(y) - c)[0]))
        gap += 2.0 * size * sdr._EPS * scale
        if gap <= tol * scale:
            converged = True
            break
        if iterations == sdr._MAX_ITER:
            break
        norms = np.linalg.norm(cv, axis=1)
        moving = norms > 0.0
        v[moving] = cv[moving] * (math.sqrt(d) / norms[moving])[:, None]

    return SdpSolution(
        factor=v,
        objective=float(np.ldexp(objective, 2 * j)),
        iterations=iterations,
        converged=converged,
        gap=float(np.ldexp(gap, 2 * j)),
    )


def extract_phases_dense(solution: SdpSolution) -> np.ndarray:
    """Rank-one rounding through the L x L matrix: the top eigenvector of
    X = V V^H (symmetrized, in the canonical phase of `hermitian_eig`),
    normalized entrywise; zero components round to phase 0.
    `sdr.extract_phases` decomposes only the r x r Gram V^H V and must
    agree with it to rounding."""
    v = solution.factor
    x = v @ v.conj().T
    top = hermitian_eig((x + x.conj().T) / 2.0).eigenvectors[:, -1]
    mags = np.abs(top)
    out = np.ones_like(top)
    nz = mags > 0.0
    out[nz] = top[nz] / mags[nz]
    return out
