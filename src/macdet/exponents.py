"""Closed-form error exponents, antenna gains, performance bounds, and
large-system limits for the amplify-and-forward fusion network.

All quantities are functions of the sensing SNR gamma_s = theta^2 /
sigma_eta^2, the channel SNR gamma_c = P_T / sigma_nu^2, the prior p1,
the Ricean factor K, and the antenna count N.  Exponent units are nats
per sensor.  Ratios of exponents ("gains") are reported in dB through
20*log10, matching how SNR-equivalent gains read on exponent plots;
plain SNR quantities convert with the usual 10*log10.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .model import ChannelModel, NetworkParams, SensingNoiseModel, check_integer, mean_abs_h
from .numerics import exp_e1_scaled

__all__ = [
    "SnrPoint",
    "ZetaFactor",
    "AsymptoticBounds",
    "e_awgn",
    "gain_awgn",
    "e_nocsis",
    "gain_nocsis",
    "e_csis1_rayleigh_closed",
    "e_csis1_rayleigh_mean",
    "e_po1",
    "bound_b",
    "bound_c",
    "gain_csis_bound",
    "gain_csis_bound_nk",
    "corr_noise_z",
    "corr_power_budget",
    "mp_lambda_max",
    "bounds_asymptotic",
    "gain_inf_bound",
    "snr_to_db",
    "snr_from_db",
    "exponent_ratio_db",
]


def snr_to_db(x: float) -> float:
    """Linear SNR-like quantity to dB (10*log10)."""
    return 10.0 * math.log10(x)


def snr_from_db(db: float) -> float:
    """dB to linear for SNR-like quantities (10^(db/10))."""
    return 10.0 ** (db / 10.0)


def exponent_ratio_db(ratio: float) -> float:
    """Exponent ratio to dB (20*log10), the convention for quoting the
    SNR-equivalent value of an exponent gain."""
    return 20.0 * math.log10(ratio)


@dataclass(frozen=True)
class SnrPoint:
    """Operating point for the closed-form expressions."""

    gamma_s: float
    gamma_c: float
    p1: float
    k_factor: float = 0.0
    num_antennas: int = 1

    def __post_init__(self) -> None:
        if not self.gamma_s > 0.0:  # +inf allowed (noise-free sensing)
            raise ValueError("gamma_s must be > 0 (math.inf allowed)")
        if not (self.gamma_c > 0.0 and math.isfinite(self.gamma_c)):
            raise ValueError("gamma_c must be finite and > 0")
        if not 0.0 < self.p1 < 1.0:
            raise ValueError("p1 must lie strictly between 0 and 1")
        if not 0.0 <= self.k_factor < math.inf:
            raise ValueError("k_factor must be >= 0 and finite")
        check_integer(self.num_antennas, "num_antennas", 1)

    @classmethod
    def from_params(
        cls, params: NetworkParams, k_factor: float = 0.0
    ) -> "SnrPoint":
        return cls(
            gamma_s=params.gamma_s,
            gamma_c=params.gamma_c,
            p1=params.p1,
            k_factor=k_factor,
            num_antennas=params.num_antennas,
        )

    def with_antennas(self, num_antennas: int) -> "SnrPoint":
        return dataclasses.replace(self, num_antennas=num_antennas)

    @property
    def z(self) -> float:
        """Channel-to-effective-sensing SNR ratio gamma_c/(p1 gamma_s + 1)."""
        if math.isinf(self.gamma_s):
            return 0.0
        return self.gamma_c / (self.p1 * self.gamma_s + 1.0)


@dataclass(frozen=True)
class ZetaFactor:
    """Fading penalty zeta = 1 / (E|h|)^2 >= 1 (= 4/pi for Rayleigh)."""

    zeta: float

    def __post_init__(self) -> None:
        if not self.zeta >= 1.0 - 1e-12:
            raise ValueError("zeta must be >= 1")

    @classmethod
    def from_model(cls, model: ChannelModel) -> "ZetaFactor":
        return cls(zeta=1.0 / mean_abs_h(model) ** 2)

    @classmethod
    def rayleigh(cls) -> "ZetaFactor":
        return cls(zeta=4.0 / math.pi)


def e_awgn(pt: SnrPoint) -> float:
    """Exponent with deterministic unit channel gains and uniform
    amplification:

        E = (1/8) N gamma_s gamma_c / (N gamma_c + p1 gamma_s + 1),

    approaching (1/8) N gamma_c / p1 as gamma_s -> inf.
    """
    n, gc, p1 = pt.num_antennas, pt.gamma_c, pt.p1
    if math.isinf(pt.gamma_s):
        return n * gc / (8.0 * p1)
    gs = pt.gamma_s
    return 0.125 * n * gs * gc / (n * gc + p1 * gs + 1.0)


def gain_awgn(pt: SnrPoint) -> float:
    """Multi-antenna exponent ratio e_awgn(N)/e_awgn(1):

        G = (N gamma_c + N p1 gamma_s + N) / (N gamma_c + p1 gamma_s + 1),

    which is 1 at N = 1 and tends to N as gamma_c -> 0.
    """
    n, gc, p1 = pt.num_antennas, pt.gamma_c, pt.p1
    if math.isinf(pt.gamma_s):
        return float(n)
    gs = pt.gamma_s
    return n * (gc + p1 * gs + 1.0) / (n * gc + p1 * gs + 1.0)


def e_nocsis(pt: SnrPoint) -> float:
    """Ricean exponent without transmit-side channel knowledge (uniform
    gains; only the line-of-sight component is coherently combinable):

        E = (1/8) N K gamma_s gamma_c
            / (gamma_c (N K + 1) + (p1 gamma_s + 1)(K + 1)).

    Zero for Rayleigh (K = 0).
    """
    n, gc, p1, k = pt.num_antennas, pt.gamma_c, pt.p1, pt.k_factor
    if math.isinf(pt.gamma_s):
        return n * k * gc / (8.0 * p1 * (k + 1.0))
    gs = pt.gamma_s
    return (
        0.125 * n * k * gs * gc
        / (gc * (n * k + 1.0) + (p1 * gs + 1.0) * (k + 1.0))
    )


def gain_nocsis(pt: SnrPoint) -> float:
    """Multi-antenna ratio e_nocsis(N)/e_nocsis(1), valid at K = 0 by
    algebraic simplification (where it equals exactly N):

        G = N (K+1)(gamma_c + p1 gamma_s + 1)
            / (gamma_c (N K + 1) + (p1 gamma_s + 1)(K + 1)).
    """
    n, gc, p1, k = pt.num_antennas, pt.gamma_c, pt.p1, pt.k_factor
    if math.isinf(pt.gamma_s):
        return float(n)
    gs = pt.gamma_s
    return (
        n * (k + 1.0) * (gc + p1 * gs + 1.0)
        / (gc * (n * k + 1.0) + (p1 * gs + 1.0) * (k + 1.0))
    )


def e_csis1_rayleigh_mean(pt: SnrPoint) -> float:
    """Single-antenna full-knowledge exponent, the amplitude average

        E = (theta^2/8) E_h[ 1 / (sigma_eta^2 + sigma_nu^2/(P |h|^2)) ],

    in exact closed form for Rayleigh fading (|h|^2 ~ Exp(1)):

        E = (gamma_s/8) (1 - a e^a E1(a)),  a = (p1 gamma_s + 1)/gamma_c.
    """
    if pt.k_factor != 0.0:
        raise ValueError("Rayleigh form requires k_factor = 0")
    if math.isinf(pt.gamma_s):
        return pt.gamma_c / (8.0 * pt.p1)
    gs = pt.gamma_s
    a = (pt.p1 * gs + 1.0) / pt.gamma_c
    return 0.125 * gs * (1.0 - a * exp_e1_scaled(a))


def e_csis1_rayleigh_closed(pt: SnrPoint) -> float:
    """Rayleigh single-antenna full-knowledge exponent in the published
    closed form, kept exactly as printed:

        E = (gamma_s/32) (2 - a e^{a/2} E1(a/2)),
        a = (p1 gamma_s + 1)/gamma_c.

    This equals 0.5 * e_csis1_rayleigh_mean evaluated at doubled gamma_c
    (a halved); the two conventions differ away from the extremes and the
    discrepancy is reported, not hidden (see the acceptance suite).
    """
    if pt.k_factor != 0.0:
        raise ValueError("Rayleigh form requires k_factor = 0")
    if math.isinf(pt.gamma_s):
        return pt.gamma_c / (8.0 * pt.p1)
    gs = pt.gamma_s
    a = (pt.p1 * gs + 1.0) / pt.gamma_c
    return gs / 32.0 * (2.0 - a * exp_e1_scaled(a / 2.0))


def e_po1(pt: SnrPoint, zeta: ZetaFactor) -> float:
    """Single-antenna exponent when only phases are fed back: the
    deterministic-channel exponent shrunk by (E|h|)^2 = 1/zeta."""
    return e_awgn(pt.with_antennas(1)) / zeta.zeta


def bound_b(pt: SnrPoint) -> float:
    """Channel-limited upper bound on any gain-allocation exponent:

        B = (1/8)(gamma_c/p1)(N K + 1)/(K + 1).
    """
    n, k = pt.num_antennas, pt.k_factor
    return 0.125 * (pt.gamma_c / pt.p1) * (n * k + 1.0) / (k + 1.0)


def bound_c(pt: SnrPoint) -> float:
    """Combined ceiling C = min(e_awgn, B) on full-knowledge performance.

    Equivalently: e_awgn applies at low channel SNR (large effective
    sensing noise) and B beyond the sigma_eta^2 threshold where the two
    expressions cross.
    """
    return min(e_awgn(pt), bound_b(pt))


def gain_csis_bound(pt: SnrPoint, zeta: ZetaFactor) -> float:
    """Upper bound on the N-antenna full-knowledge gain over the optimal
    single-antenna scheme, via z = gamma_c/(p1 gamma_s + 1):

        G <= zeta * min( N(z+1)/(Nz+1), (z+1)(NK+1)/(K+1) ).
    """
    n, k, z = pt.num_antennas, pt.k_factor, pt.z
    first = n * (z + 1.0) / (n * z + 1.0)
    second = (z + 1.0) * (n * k + 1.0) / (k + 1.0)
    return zeta.zeta * min(first, second)


def gain_csis_bound_nk(num_antennas: int, k_factor: float, zeta: ZetaFactor) -> float:
    """gain_csis_bound maximized over operating points (worst case over z,
    attained at z* = (N-1)/(N(NK+1))):

        G <= zeta (N^2 K + 2N - 1) / (N (K + 1)),

    increasing in N with limit 2*zeta at K = 0 (= 8/pi for Rayleigh).
    """
    check_integer(num_antennas, "num_antennas", 1)
    if not 0.0 <= k_factor < math.inf:
        raise ValueError("k_factor must be >= 0 and finite")
    n, k = float(num_antennas), k_factor
    return zeta.zeta * (n * n * k + 2.0 * n - 1.0) / (n * (k + 1.0))


def corr_power_budget(params: NetworkParams, noise: SensingNoiseModel) -> float:
    """Relaxed amplification budget under correlated sensing noise:
    P = P_T / (p1 theta^2 + lambda_min(R_eta))."""
    return params.total_power / (params.p1 * params.theta**2 + noise.lambda_min)


def corr_noise_z(params: NetworkParams, noise: SensingNoiseModel) -> float:
    """Effective z under correlated sensing noise.

    The gain bound keeps its iid form with gamma_s replaced by
    gamma_s_eff = theta^2 / lambda_min(R_eta) and the amplification
    budget by P = P_T / (p1 theta^2 + lambda_min):

        z_eff = gamma_c / (p1 * gamma_s_eff + 1).

    A diagonal R_eta = sigma_eta_sq I reproduces the iid z of
    SnrPoint.from_params exactly.
    """
    lam = noise.lambda_min
    if lam == 0.0:
        return 0.0
    gs_eff = params.theta**2 / lam
    return params.gamma_c / (params.p1 * gs_eff + 1.0)


def mp_lambda_max(beta: float) -> float:
    """Limiting largest eigenvalue (1 + sqrt(beta))^2 / beta of the
    per-sensor-normalized Gram matrix (1/L) H^H H for zero-mean unit-
    variance iid entries, as N, L -> inf with L/N -> beta."""
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be > 0 and finite")
    return (1.0 + math.sqrt(beta)) ** 2 / beta


@dataclass(frozen=True)
class AsymptoticBounds:
    """Per-sensor exponent ceilings in the many-antenna limit
    N, L -> inf with L/N -> beta."""

    e_awgn_inf: float
    b_inf: float
    c_inf: float


def bounds_asymptotic(beta: float, pt: SnrPoint) -> AsymptoticBounds:
    """Large-system ceilings at aspect ratio beta = L/N.

    e_awgn_inf = gamma_s/8 (sensing-limited); b_inf applies the
    Marchenko-Pastur edge to the channel-limited bound and is finite only
    for K = 0 (a line-of-sight component makes the top eigenvalue grow
    with the system); c_inf is their min.  The branches cross where
    gamma_c (1+sqrt(beta))^2 / beta = p1 gamma_s, i.e. the normalized
    product P sigma_eta^2/sigma_nu^2 hits beta/(1+sqrt(beta))^2.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be > 0 and finite")
    e_inf = math.inf if math.isinf(pt.gamma_s) else pt.gamma_s / 8.0
    if pt.k_factor == 0.0:
        b_inf = 0.125 * (pt.gamma_c / pt.p1) * mp_lambda_max(beta)
    else:
        b_inf = math.inf
    return AsymptoticBounds(e_awgn_inf=e_inf, b_inf=b_inf, c_inf=min(e_inf, b_inf))


def gain_inf_bound(beta: float, zeta: ZetaFactor) -> float:
    """Many-antenna ceiling on the full-knowledge gain over the optimal
    single-antenna scheme:

        G_inf <= zeta (1 + (1 + sqrt(beta))^2 / beta),

    equal to 5*zeta at beta = 1 and decreasing toward 2*zeta as beta
    grows.  Like mp_lambda_max, raises ValueError unless beta is > 0 and
    finite.
    """
    return zeta.zeta * (1.0 + mp_lambda_max(beta))
