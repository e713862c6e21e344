"""Likelihood-ratio detection and error-rate estimation.

The fusion center observes y = H alpha Theta + H D(alpha) eta + nu with
Theta = theta under H1 and 0 under H0, and applies the matched-filter
likelihood-ratio rule

    decide H1  iff  Re{theta y^H R^{-1} H alpha}
                    >= (theta^2/2) alpha^H H^H R^{-1} H alpha + tau,

where tau = (1/2) ln(p0/p1).  Conditioned on the channel the error
probability is p0 Q(omega + tau/omega) + p1 Q(omega - tau/omega) with
omega = theta sqrt(q/2), q the quadratic form above.  All logarithms are
natural.  Error-exponent extraction works in the log domain throughout,
so probabilities far below floating-point underflow reduce to the
analytic Gaussian tail of the dominant term.

The Monte Carlo trial loop lives in estimate_pe_montecarlo_batch, which
scores several detectors of one prior on the same trial blocks (common
random numbers: figure2 scores all its sensor counts and series on one
set of blocks per draw); estimate_pe_montecarlo is its one-detector case.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .allocation import _forms, _item, _sensing, alpha_uniform
from .model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from .numerics import log_q

__all__ = [
    "PeEstimate",
    "ExponentCurve",
    "pe_conditional",
    "log_pe_conditional",
    "estimate_pe_montecarlo",
    "estimate_pe_montecarlo_batch",
    "empirical_exponent",
]

_MC_BLOCK = 8192


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo error-rate estimate with its 95% binomial halfwidth and
    the integer error count it was formed from."""

    p_hat: float
    trials: int
    ci95_halfwidth: float
    errors: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError("p_hat must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if isinstance(self.errors, bool) or not isinstance(self.errors, int):
            raise ValueError("errors must be an integer count")
        if self.errors / self.trials != self.p_hat:
            raise ValueError("p_hat inconsistent with errors and trials")
        expected = 1.96 * math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)
        if abs(self.ci95_halfwidth - expected) > 1e-12 * (1.0 + expected):
            raise ValueError("ci95_halfwidth inconsistent with p_hat and trials")

    @classmethod
    def from_counts(cls, errors: int, trials: int) -> "PeEstimate":
        errors = operator.index(errors)  # accepts NumPy integers, not floats
        p = errors / trials
        return cls(
            p_hat=p,
            trials=trials,
            ci95_halfwidth=1.96 * math.sqrt(p * (1.0 - p) / trials),
            errors=errors,
        )


def _degenerate_pe(params: NetworkParams) -> float:
    # omega = 0: the statistic carries no signal, the rule follows tau
    if params.tau < 0.0:
        return params.p0
    if params.tau > 0.0:
        return params.p1
    return 0.5


def _log_pe(params: NetworkParams, q):
    """log pe_conditional from the quadratic form q, elementwise over an
    array of them: p0 Q(omega + tau/omega) + p1 Q(omega - tau/omega) with
    omega = theta sqrt(q/2), in the log domain."""
    omega = params.theta * np.sqrt(np.asarray(q, dtype=np.float64) / 2.0)
    live = omega > 0.0
    safe = np.where(live, omega, 1.0)
    tau = params.tau
    terms = (
        math.log(params.p0) + log_q(safe + tau / safe),
        math.log(params.p1) + log_q(safe - tau / safe),
    )
    return np.where(live, np.logaddexp(*terms), math.log(_degenerate_pe(params)))


def log_pe_conditional(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Natural log of pe_conditional, stable far below underflow."""
    h, a, sensing = _item(channel, alpha, params, noise)
    return float(_log_pe(params, _forms(h, a, sensing, params.sigma_nu_sq)[1]))


def pe_conditional(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Error probability conditioned on the channel realization."""
    return math.exp(log_pe_conditional(channel, alpha, params, noise))


def estimate_pe_montecarlo(
    channel,
    alpha,
    params: NetworkParams,
    trials: int,
    rng: RandomSource,
    noise: SensingNoiseModel | None = None,
) -> PeEstimate:
    """Monte Carlo error rate of one detector with the hypothesis drawn
    from the prior each trial: estimate_pe_montecarlo_batch of the single
    detector (channel, alpha, params, noise), whose docstring gives the
    blocks, the draw order and the per-trial statistic."""
    return estimate_pe_montecarlo_batch([(channel, alpha, params, noise)], trials, rng)[0][0]


def _scorer(channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None):
    # one detector's per-channel constants: (signal, z weights, receiver
    # weights, threshold, pe_conditional), all from one _forms call
    h, a, sensing = _item(channel, alpha, params, noise)
    v, w, q = _forms(h, a, sensing, params.sigma_nu_sq, solve=True)
    threshold = 0.5 * params.theta**2 * float(q) + params.tau
    g = np.conj(a) * (h.conj().T @ w)
    c = sensing.conj().T @ g if isinstance(sensing, np.ndarray) else math.sqrt(sensing) * g
    # Re(x^H b) = sqrt(s/2) (Re b . X_re + Im b . X_im) for x ~ CN(0, s)
    # drawn as sqrt(s/2) (X_re + i X_im)
    z_weights = math.sqrt(0.5) * np.concatenate((c.real, c.imag))
    receiver = math.sqrt(params.sigma_nu_sq / 2.0) * np.stack((w.real, w.imag))
    signal = params.theta * float(np.vdot(v, w).real)
    pe = math.exp(float(_log_pe(params, q)))
    return signal, z_weights, receiver, threshold, pe


def estimate_pe_montecarlo_batch(
    detectors, trials: int, rng: RandomSource
) -> list[tuple[PeEstimate, float]]:
    """Monte Carlo error rates of several detectors scored on the same
    trials, with the hypothesis drawn from the prior each trial.

    A detector is (channel, alpha, params, noise), as the arguments of
    pe_conditional; all must share p1, since the hypotheses are shared,
    but may differ in num_sensors and num_antennas.  Returns, per
    detector, its PeEstimate and its pe_conditional, both from the
    quadratic form q of one factorization.

    Trials are processed in fixed-size blocks, each on its own
    generator, rng.montecarlo_block(block), so the estimates are
    bit-reproducible no matter how blocks are scheduled across workers.
    The blocks draw from SFC64, not from the Philox substreams that
    sample channels: they hold nearly all the normal draws of a figure2
    run, and SFC64 draws them in about two thirds of Philox's time.
    Within a block the draw order is hypotheses, sensing noise z of the
    largest L as a (2, L_max, trials) array (real parts, then imaginary
    parts), then the receiver noise of the largest N, 2 x trials x N_max
    real values.  A detector with L sensors reads z[0, :L] and z[1, :L];
    one with N antennas reads the first 2 x trials x N receiver values as
    its (2, trials, N) receiver noise, so its own draw is exactly that
    prefix.  When every detector has the same L, z has the memory order
    of a (2L, trials) draw, and a detector scores the same trials alone
    as in such a batch.

    The received vector y is never formed.  With eta = S z, S the
    sensing-noise factor (sqrt(sigma_eta_sq) under iid noise, noise=None;
    the Cholesky factor of R_eta otherwise) and z ~ CN(0, I), the
    statistic theta Re(y^H w),
    w = R^{-1} H alpha, is

        theta [1{H1} theta Re(v^H w) + Re(z^H c) + Re(nu^H w)],
        c = S^H (conj(alpha) * H^H w),

    with c computed once per channel, so a trial costs O(L + N) from
    the same draws as the y-forming loop (O(N L), O(L^2) correlated).
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000 for a meaningful estimate")
    if not isinstance(rng, RandomSource):
        raise TypeError("rng must be a RandomSource (block generators required)")
    detectors = list(detectors)
    if not detectors:
        raise ValueError("at least one detector is required")
    params = [d[2] for d in detectors]
    p1 = params[0].p1
    if any(p.p1 != p1 for p in params):
        raise ValueError("detectors must share p1")
    scorers = [_scorer(*d) for d in detectors]
    l_max = max(p.num_sensors for p in params)
    n_max = max(p.num_antennas for p in params)

    errors = [0] * len(detectors)
    for block, start in enumerate(range(0, trials, _MC_BLOCK)):
        count = min(_MC_BLOCK, trials - start)
        gen = rng.montecarlo_block(block)
        truth = gen.random(count) < p1
        z = gen.standard_normal((2, l_max, count))
        nu_max = gen.standard_normal(2 * count * n_max)
        for k, (p, (signal, z_weights, receiver, threshold, _)) in enumerate(zip(params, scorers)):
            l = p.num_sensors
            if l == l_max:
                # one product over the (2L, count) view, as a one-detector
                # call sums it; below L_max the leading rows, without a copy
                sensing = z_weights @ z.reshape(2 * l, count)
            else:
                sensing = z_weights[:l] @ z[0, :l] + z_weights[l:] @ z[1, :l]
            nu = nu_max[: 2 * count * p.num_antennas].reshape(2, count, p.num_antennas)
            statistic = p.theta * (
                np.where(truth, signal, 0.0)
                + sensing
                + (nu[0] @ receiver[0] + nu[1] @ receiver[1])
            )
            errors[k] += int(np.count_nonzero((statistic >= threshold) != truth))
    return [
        (PeEstimate.from_counts(e, trials), scorer[-1]) for e, scorer in zip(errors, scorers)
    ]


def _log_mean_exp(log_p: np.ndarray) -> np.ndarray:
    """log of the mean of exp(log_p) down the first axis, shifted by each
    column's largest entry (by 0 where that is -inf: the mean is then 0)."""
    top = log_p.max(axis=0)
    top[np.isneginf(top)] = 0.0
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(log_p - top), axis=0))
    return top + total - math.log(log_p.shape[0])


@dataclass(frozen=True)
class ExponentCurve:
    """-(1/L) ln Pe sampled over a sensor-count grid, with the large-L
    plateau taken as the mean of the two largest grid points."""

    l_grid: np.ndarray
    values: np.ndarray
    plateau: float


def empirical_exponent(
    base_params: NetworkParams,
    model: ChannelModel,
    l_grid,
    rng: RandomSource,
    noise: SensingNoiseModel | None = None,
    draws: int = 1,
) -> ExponentCurve:
    """Error exponent of the uniform-gain scheme measured from the
    conditional error probability.

    Each channel draw is sampled once at the largest grid size and its
    leading columns reused at smaller sizes (common random numbers keep
    the curve smooth in L).  With draws > 1 the error probability is
    averaged over draws in the log domain before taking the exponent.
    """
    grid = [int(l) for l in l_grid]
    if len(grid) < 4:
        raise ValueError("l_grid needs at least 4 points")
    if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError("l_grid must be positive and strictly increasing")
    if grid[-1] < 200:
        raise ValueError("largest grid point must be >= 200")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    l_max = grid[-1]
    if noise is not None and noise.dimension < l_max:
        raise ValueError("correlated noise model smaller than the largest grid point")

    # uniform gains of every grid size, zero beyond it: each row scores
    # the leading columns of a draw (and of a correlated R_eta) at its L
    gains = np.zeros((len(grid), l_max), dtype=np.complex128)
    for i, l in enumerate(grid):
        gains[i, :l] = alpha_uniform(replace(base_params, num_sensors=l)).values
    params = replace(base_params, num_sensors=l_max)
    if noise is not None:
        noise = SensingNoiseModel(noise.r_eta[:l_max, :l_max])
    sensing = _sensing(params, noise)
    log_pe = np.empty((draws, len(grid)))
    for d in range(draws):
        h = sample_channel(model, params.num_antennas, l_max, rng.substream("exponent", d)).entries
        log_pe[d] = _log_pe(params, _forms(h, gains, sensing, params.sigma_nu_sq)[1])
    values = -_log_mean_exp(log_pe) / np.asarray(grid, dtype=float)
    return ExponentCurve(
        l_grid=np.asarray(grid),
        values=values,
        plateau=float(np.mean(values[-2:])),
    )
