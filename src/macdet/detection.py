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
It sets up detectors that share params and sensing noise with one
batched factorization and stacks every detector's statistic into one
weight matrix; each block of trials is drawn straight into the feature
matrix that weight matrix multiplies, one product per chunk of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .allocation import alpha_uniform
from .forms import item, quadratic_forms, sensing_argument
from .model import (
    ChannelModel, NetworkParams, RandomSource, SensingNoiseModel, check_integer, sample_channel
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

# estimate_pe_montecarlo_batch scores a block in chunks of
# _MC_ENTRIES // max(detectors, features) trials, so that each per-chunk
# product and the slice of the feature matrix it reads stay this many
# entries.  On figure2 at the benchmark's size (90 detectors over 51
# features, 10,000 trials, 2 draws; 2-vCPU x86-64 host, one BLAS thread),
# against chunks of 182 trials (1 << 14, median 31.9 ms a figure), a
# figure ran slower with 91 (1 << 13: 34.2 ms, faster in 14 of 40
# alternating in-process rounds) and not resolvably faster with 364
# (1 << 15: 31.6 ms, 26 of 40), and a fresh process peaked at 41.04,
# 41.06 and 41.36 MB for 91, 182 and 364 (medians of 5).
_MC_ENTRIES = 1 << 14


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo error count over a number of trials, with the error
    rate and its 95% binomial halfwidth derived from them."""

    errors: int
    trials: int

    def __post_init__(self) -> None:
        if isinstance(self.errors, bool) or not isinstance(self.errors, int):
            raise ValueError("errors must be an integer count")
        check_integer(self.trials, "trials", 1)
        if not 0 <= self.errors <= self.trials:
            raise ValueError("errors must lie in [0, trials]")

    @property
    def p_hat(self) -> float:
        return self.errors / self.trials

    @property
    def ci95_halfwidth(self) -> float:
        p = self.p_hat
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)


def _log_pe(params: NetworkParams, theta, q):
    """log pe_conditional from the quadratic form q, elementwise over an
    array of them: p0 Q(omega + tau/omega) + p1 Q(omega - tau/omega) with
    omega = theta sqrt(q/2), in the log domain.  params gives the prior;
    theta is a number or an array matching q."""
    omega = theta * np.sqrt(np.asarray(q, dtype=np.float64) / 2.0)
    live = omega > 0.0
    safe = np.where(live, omega, 1.0)
    tau = params.tau
    terms = (
        math.log(params.p0) + log_q(safe + tau / safe),
        math.log(params.p1) + log_q(safe - tau / safe),
    )
    # omega = 0: the statistic carries no signal, the rule follows tau
    degenerate = params.p0 if tau < 0.0 else params.p1 if tau > 0.0 else 0.5
    return np.where(live, np.logaddexp(*terms), math.log(degenerate))


def log_pe_conditional(
    channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None = None
) -> float:
    """Natural log of pe_conditional, stable far below underflow."""
    q = quadratic_forms(*item(channel, alpha, params, noise), params.sigma_nu_sq)[1]
    return float(_log_pe(params, params.theta, q))


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


def _weights(detectors):
    """The scoring constants of a batch, for the features of
    estimate_pe_montecarlo_batch: the weight matrix W (one row per
    detector), each detector's limit threshold / theta and its
    pe_conditional.

    Detectors with equal params and sensing argument go through one
    quadratic_forms call (figure2: the three channel models of each L and N),
    where each keeps the bits it gets alone; so does its pe_conditional,
    the scalar math.exp of one elementwise _log_pe over the batch (all
    detectors share p1, so theta is the only per-detector input)."""
    items = [item(*d) for d in detectors]
    groups: dict = {}
    for k, ((_, _, sensing), (_, _, params, _)) in enumerate(zip(items, detectors)):
        key = sensing.tobytes() if isinstance(sensing, np.ndarray) else sensing
        groups.setdefault((params, key), []).append(k)
    l_max = max(p.num_sensors for _, _, p, _ in detectors)
    n_max = max(p.num_antennas for _, _, p, _ in detectors)
    weights = np.zeros((len(detectors), 2 * l_max + 2 * n_max + 1))
    limits, qs, thetas = np.empty((3, len(detectors)))
    for (params, _), rows in groups.items():
        sensing = items[rows[0]][2]
        h = np.stack([items[k][0] for k in rows])
        a = np.stack([items[k][1] for k in rows])
        v, w, q = quadratic_forms(h, a, sensing, params.sigma_nu_sq, solve=True)
        qs[rows], thetas[rows] = q, params.theta
        g = np.conj(a) * (h.conj().swapaxes(-1, -2) @ w[..., np.newaxis])[..., 0]
        c = g @ sensing.conj() if isinstance(sensing, np.ndarray) else math.sqrt(sensing) * g
        # Re(x^H b) = sqrt(s/2) (Re b . X_re + Im b . X_im) for x ~ CN(0, s)
        # drawn as sqrt(s/2) (X_re + i X_im)
        l, stop = params.num_sensors, 2 * l_max + 2 * params.num_antennas
        weights[rows, :l] = math.sqrt(0.5) * c.real
        weights[rows, l_max : l_max + l] = math.sqrt(0.5) * c.imag
        receiver = math.sqrt(params.sigma_nu_sq / 2.0)
        weights[rows, 2 * l_max : stop : 2] = receiver * w.real
        weights[rows, 2 * l_max + 1 : stop : 2] = receiver * w.imag
        weights[rows, -1] = params.theta * np.sum(v.real * w.real + v.imag * w.imag, axis=-1)
        limits[rows] = (0.5 * params.theta**2 * q + params.tau) / params.theta
    pes = [math.exp(x) for x in _log_pe(detectors[0][2], thetas, qs).tolist()]
    return weights, limits, pes


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
    Within a block the draw order is the hypotheses, then one
    standard-normal draw straight into the rows of the feature matrix F
    that scores the block: the sensing noise z of the largest L as a
    (2, L_max, trials) array (real parts, then imaginary parts), then
    the receiver noise nu of the largest N as an (N_max, 2, trials)
    array, antenna by antenna (each antenna's real row, then its
    imaginary row).  A detector with L sensors reads z[0, :L] and
    z[1, :L]; one with N antennas reads the leading 2N receiver rows,
    exactly the draws it makes alone.  So each detector scores the same
    trials as it does alone in any batch where it has the largest L.

    The received vector y is never formed.  With eta = S z, S the
    sensing-noise factor (sqrt(sigma_eta_sq) under iid noise, noise=None;
    the Cholesky factor of R_eta otherwise) and z ~ CN(0, I), the
    statistic theta Re(y^H w), w = R^{-1} H alpha, is

        theta [1{H1} theta Re(v^H w) + Re(z^H c) + Re(nu^H w)],
        c = S^H (conj(alpha) * H^H w),

    linear in the features of a trial, the 2 L_max + 2 N_max + 1 rows of
    F: z, nu and 1{H1}, its last row.  The set-up (_weights, one
    factorization per group of detectors with equal params and sensing)
    stacks every detector's coefficients into one zero-padded weight
    matrix W; a block is then scored in chunks of
    _MC_ENTRIES // max(detectors, features) trials, each one product
    W F[:, chunk], whose entry k, t is detector k's statistic / theta on
    trial t, compared with its threshold / theta.  A trial costs
    O(L_max + N_max) per detector in that product, from the same draws
    as the y-forming loop (O(N L), O(L^2) correlated).
    """
    check_integer(trials, "trials", 1000)  # fewer make no meaningful estimate
    if not isinstance(rng, RandomSource):
        raise TypeError("rng must be a RandomSource (block generators required)")
    detectors = list(detectors)
    if not detectors:
        raise ValueError("at least one detector is required")
    params = [d[2] for d in detectors]
    p1 = params[0].p1
    if any(p.p1 != p1 for p in params):
        raise ValueError("detectors must share p1")
    weights, limits, pes = _weights(detectors)
    width = weights.shape[1]
    chunk = max(1, _MC_ENTRIES // max(weights.shape))  # detectors x features
    # one buffer for every block: an array per block would be allocated
    # while the last one is still held, doubling the peak
    buffer = np.empty(width * min(trials, _MC_BLOCK))

    errors = np.zeros(len(detectors), dtype=np.int64)
    for block, start in enumerate(range(0, trials, _MC_BLOCK)):
        count = min(_MC_BLOCK, trials - start)
        gen = rng.montecarlo_block(block)
        truth = gen.random(count) < p1
        features = buffer[: width * count].reshape(width, count)
        gen.standard_normal(out=features[:-1])
        features[-1] = truth
        for first in range(0, count, chunk):
            decisions = weights @ features[:, first : first + chunk] >= limits[:, np.newaxis]
            errors += np.count_nonzero(decisions != truth[first : first + chunk], axis=1)
    return [(PeEstimate(int(e), trials), pe) for e, pe in zip(errors, pes)]


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
    grid = [check_integer(l, "l_grid entry", 1) for l in l_grid]
    if len(grid) < 4:
        raise ValueError("l_grid needs at least 4 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("l_grid must be strictly increasing")
    if grid[-1] < 200:
        raise ValueError("largest grid point must be >= 200")
    check_integer(draws, "draws", 1)
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
    sensing = sensing_argument(params, noise)
    log_pe = np.empty((draws, len(grid)))
    for d in range(draws):
        h = sample_channel(model, params.num_antennas, l_max, rng.substream("exponent", d)).entries
        q = quadratic_forms(h, gains, sensing, params.sigma_nu_sq)[1]
        log_pe[d] = _log_pe(params, params.theta, q)
    values = -_log_mean_exp(log_pe) / np.asarray(grid, dtype=float)
    return ExponentCurve(
        l_grid=np.asarray(grid),
        values=values,
        plateau=float(np.mean(values[-2:])),
    )
