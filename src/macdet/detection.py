"""Signal synthesis, likelihood-ratio detection, and error-rate estimation.

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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np
from scipy.special import logsumexp

from .allocation import _check_dims, _entries, _gain_values, alpha_uniform, quadratic_form
from .model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    as_generator,
    complex_normal,
    sample_channel,
)
from .numerics import log_q, q_function

__all__ = [
    "Hypothesis",
    "ReceivedSignal",
    "PeEstimate",
    "ExponentCurve",
    "synthesize",
    "decide",
    "pe_conditional",
    "log_pe_conditional",
    "estimate_pe_montecarlo",
    "empirical_exponent",
]

_MC_BLOCK = 8192


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


def synthesize(
    channel,
    alpha,
    params: NetworkParams,
    hypothesis: Hypothesis,
    rng,
    noise: SensingNoiseModel | None = None,
) -> ReceivedSignal:
    """One draw of the received vector.  Sensing noise is drawn first,
    receiver noise second, so a shared generator yields reproducible
    pairs."""
    h = _entries(channel)
    a = _gain_values(alpha)
    _check_dims(h, a, params)
    gen = as_generator(rng)
    model = noise if noise is not None else SensingNoiseModel(
        sigma_eta_sq=params.sigma_eta_sq
    )
    eta = model.color(complex_normal(gen, params.num_sensors))
    nu = complex_normal(gen, params.num_antennas, params.sigma_nu_sq)
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


def _omega(params: NetworkParams, q: float) -> float:
    return params.theta * math.sqrt(q / 2.0)


def _degenerate_pe(params: NetworkParams) -> float:
    # omega = 0: the statistic carries no signal, the rule follows tau
    if params.tau < 0.0:
        return params.p0
    if params.tau > 0.0:
        return params.p1
    return 0.5


def pe_conditional(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Error probability conditioned on the channel realization."""
    q = quadratic_form(channel, alpha, params, noise)[2]
    omega = _omega(params, q)
    if omega == 0.0:
        return _degenerate_pe(params)
    tau = params.tau
    return params.p0 * float(q_function(omega + tau / omega)) + params.p1 * float(
        q_function(omega - tau / omega)
    )


def log_pe_conditional(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Natural log of pe_conditional, stable far below underflow."""
    q = quadratic_form(channel, alpha, params, noise)[2]
    omega = _omega(params, q)
    if omega == 0.0:
        return math.log(_degenerate_pe(params))
    tau = params.tau
    terms = (
        math.log(params.p0) + float(log_q(omega + tau / omega)),
        math.log(params.p1) + float(log_q(omega - tau / omega)),
    )
    return float(logsumexp(terms))


def estimate_pe_montecarlo(
    channel,
    alpha,
    params: NetworkParams,
    trials: int,
    rng: RandomSource,
    noise: SensingNoiseModel | None = None,
) -> PeEstimate:
    """Monte Carlo error rate with the hypothesis drawn from the prior
    each trial.

    Trials are processed in fixed-size blocks, each on its own
    substream, so the estimate is bit-reproducible no matter how blocks
    are scheduled across workers.  Within a block the draw order is
    hypotheses, sensing noise, receiver noise.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000 for a meaningful estimate")
    if not isinstance(rng, RandomSource):
        raise TypeError("rng must be a RandomSource (block substreams required)")
    h = _entries(channel)
    a = _gain_values(alpha)
    v, w, q = quadratic_form(h, a, params, noise)
    threshold = 0.5 * params.theta**2 * q + params.tau
    model = noise if noise is not None else SensingNoiseModel(
        sigma_eta_sq=params.sigma_eta_sq
    )

    errors = 0
    for block, start in enumerate(range(0, trials, _MC_BLOCK)):
        count = min(_MC_BLOCK, trials - start)
        gen = rng.substream("montecarlo", block)
        truth = gen.random(count) < params.p1
        eta = model.color(complex_normal(gen, (params.num_sensors, count)))
        nu = complex_normal(gen, (count, params.num_antennas), params.sigma_nu_sq)
        y = (
            np.where(truth, params.theta, 0.0)[:, np.newaxis] * v[np.newaxis, :]
            + (h @ (a[:, np.newaxis] * eta)).T
            + nu
        )
        statistic = params.theta * (y.conj() @ w).real
        decisions = statistic >= threshold
        errors += int(np.sum(decisions != truth))
    return PeEstimate.from_counts(errors, trials)


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
    if noise is not None and not noise.is_iid and noise.dimension < l_max:
        raise ValueError("correlated noise model smaller than the largest grid point")

    def noise_at(l: int) -> SensingNoiseModel | None:
        if noise is None or noise.is_iid:
            return noise
        return SensingNoiseModel(r_eta=noise.r_eta[:l, :l])

    noise_models = {l: noise_at(l) for l in grid}
    log_pe = np.empty((draws, len(grid)))
    for d in range(draws):
        h_full = sample_channel(
            model, base_params.num_antennas, l_max, rng.substream("exponent", d)
        ).entries
        for i, l in enumerate(grid):
            params_l = replace(base_params, num_sensors=l)
            log_pe[d, i] = log_pe_conditional(
                h_full[:, :l], alpha_uniform(params_l), params_l, noise_models[l]
            )
    averaged = logsumexp(log_pe, axis=0) - math.log(draws)
    values = -averaged / np.asarray(grid, dtype=float)
    return ExponentCurve(
        l_grid=np.asarray(grid),
        values=values,
        plateau=float(np.mean(values[-2:])),
    )
