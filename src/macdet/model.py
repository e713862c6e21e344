"""Network parameters, channel and sensing-noise models, and seeded sampling.

Conventions used everywhere in the package:

* CN(0, s) is the circularly-symmetric complex Gaussian whose real and
  imaginary parts are independent N(0, s/2), so E|x|^2 = s.
* Channel entries are normalized to E|h|^2 = 1 for every channel model.
* Sensors transmit amplified observations; the per-network amplification
  budget is P = P_T / (p1 * theta^2 + sigma_eta^2), which makes the
  expected total transmit power equal P_T.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, i1e

from .numerics import _check_square_hermitian

__all__ = [
    "RandomSource",
    "NetworkParams",
    "ChannelModel",
    "ChannelMatrix",
    "SensingNoiseModel",
    "mean_abs_h",
    "sample_channel",
    "sample_sensing_noise",
    "as_generator",
]


@dataclass(frozen=True)
class RandomSource:
    """Splittable deterministic random stream.

    Built on Philox counter-based bit generation keyed by
    (master_seed, stream_id), so identical fields reproduce identical
    draws bit-for-bit and distinct stream ids are statistically
    independent regardless of how work is scheduled across workers.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be a non-negative integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return self.substream()

    def stream(self, stream_id: int) -> "RandomSource":
        """Sibling source with the same master seed."""
        return RandomSource(self.master_seed, stream_id)

    def substream(self, *path: "int | str") -> np.random.Generator:
        """Generator for a nested split of this stream.

        The path extends the spawn key, so substream(i, j) draws are
        independent of substream(i, k) for j != k and of the parent.
        String labels are admitted via a stable crc32 digest so callers
        can name purposes ("mc-channel", 3) without seed bookkeeping.
        """
        key = tuple(
            zlib.crc32(p.encode()) if isinstance(p, str) else p for p in path
        )
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *key)
        )
        return np.random.Generator(np.random.Philox(seq))


def as_generator(rng: "RandomSource | np.random.Generator") -> np.random.Generator:
    """Accept either a RandomSource or a ready Generator."""
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomSource or numpy Generator, got {type(rng)!r}")


def complex_normal(
    gen: np.random.Generator, shape, variance: float = 1.0
) -> np.ndarray:
    """CN(0, variance) samples: independent real/imag parts of variance/2."""
    scale = math.sqrt(variance / 2.0)
    return scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


@dataclass(frozen=True)
class NetworkParams:
    """Static description of one sensing network instance.

    num_sensors:   L, number of amplify-and-forward sensors.
    num_antennas:  N, receive antennas at the fusion center.
    theta:         signal amplitude observed by every sensor under H1.
    sigma_eta_sq:  per-sensor sensing-noise power (0 allows noise-free).
    sigma_nu_sq:   per-antenna receiver-noise power, > 0.
    p1:            prior probability of H1, in (0, 1).
    total_power:   P_T, expected total transmit power across the network.

    Every power is finite, p1 theta^2 neither overflows nor underflows
    to 0, and the gain budget P is a positive finite number, so every
    quantity derived from a valid network is finite.
    """

    num_sensors: int
    num_antennas: int
    theta: float
    sigma_eta_sq: float
    sigma_nu_sq: float
    p1: float
    total_power: float

    def __post_init__(self) -> None:
        if self.num_sensors < 1:
            raise ValueError("num_sensors must be >= 1")
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be > 0 and finite")
        if not 0.0 <= self.sigma_eta_sq < math.inf:
            raise ValueError("sigma_eta_sq must be >= 0 and finite")
        if not 0.0 < self.sigma_nu_sq < math.inf:
            raise ValueError("sigma_nu_sq must be > 0 and finite")
        if not 0.0 < self.p1 < 1.0:
            raise ValueError("p1 must lie strictly between 0 and 1")
        if not 0.0 < self.total_power < math.inf:
            raise ValueError("total_power must be > 0 and finite")
        # theta * theta is theta**2 without the OverflowError
        if not 0.0 < self.p1 * (self.theta * self.theta) < math.inf:
            raise ValueError(f"p1 theta^2 overflows or underflows to 0 at theta = {self.theta!r}")
        budget = self.gain_budget
        if not 0.0 < budget < math.inf:
            raise ValueError(
                f"gain budget total_power / (p1 theta^2 + sigma_eta_sq) = {budget!r}"
                " is not a positive finite number"
            )

    @property
    def p0(self) -> float:
        return 1.0 - self.p1

    @property
    def gain_budget(self) -> float:
        """Amplification budget P = P_T / (p1 * theta^2 + sigma_eta_sq).  A
        sensor transmits |alpha_l|^2 (p1 theta^2 + sigma_eta_sq) on average,
        so gains with sum |alpha_l|^2 <= P spend at most P_T in expectation."""
        return self.total_power / (self.p1 * self.theta**2 + self.sigma_eta_sq)

    @property
    def gamma_s(self) -> float:
        """Sensing SNR theta^2 / sigma_eta_sq; +inf when noise-free."""
        if self.sigma_eta_sq == 0.0:
            return math.inf
        return self.theta**2 / self.sigma_eta_sq

    def at_gamma_s(self, gamma_s: float) -> "NetworkParams":
        """The same network at sensing SNR gamma_s: sigma_eta_sq =
        theta^2 / gamma_s, or 0 (noise-free sensing) when gamma_s = inf."""
        sigma_eta_sq = 0.0 if math.isinf(gamma_s) else self.theta**2 / gamma_s
        return dataclasses.replace(self, sigma_eta_sq=sigma_eta_sq)

    @property
    def gamma_c(self) -> float:
        """Channel SNR P_T / sigma_nu_sq."""
        return self.total_power / self.sigma_nu_sq

    @property
    def tau(self) -> float:
        """Bayesian log-likelihood threshold (1/2) ln(p0/p1)."""
        return 0.5 * math.log(self.p0 / self.p1)


@dataclass(frozen=True)
class ChannelModel:
    """Flat-fading channel family with E|h|^2 = 1.

    kind "awgn"   : h = 1 deterministically.
    kind "ricean" : h = sqrt(K/(K+1)) + CN(0, 1/(K+1)); K = 0 is Rayleigh.
    """

    kind: str
    k_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("awgn", "ricean"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "ricean" and not self.k_factor >= 0.0:
            raise ValueError("Ricean K-factor must be >= 0")

    @classmethod
    def awgn(cls) -> "ChannelModel":
        return cls(kind="awgn")

    @classmethod
    def ricean(cls, k_factor: float) -> "ChannelModel":
        return cls(kind="ricean", k_factor=float(k_factor))

    @classmethod
    def rayleigh(cls) -> "ChannelModel":
        return cls(kind="ricean", k_factor=0.0)

    @property
    def is_awgn(self) -> bool:
        return self.kind == "awgn"

    @property
    def is_rayleigh(self) -> bool:
        return self.kind == "ricean" and self.k_factor == 0.0

    @property
    def los_amplitude(self) -> float:
        """Deterministic line-of-sight component sqrt(K/(K+1))."""
        if self.is_awgn:
            return 1.0
        return math.sqrt(self.k_factor / (self.k_factor + 1.0))

    @property
    def diffuse_variance(self) -> float:
        """Variance 1/(K+1) of the scattered component."""
        if self.is_awgn:
            return 0.0
        return 1.0 / (self.k_factor + 1.0)

    @property
    def label(self) -> str:
        if self.is_awgn:
            return "awgn"
        if self.is_rayleigh:
            return "rayleigh"
        return f"ricean(K={self.k_factor:g})"


def mean_abs_h(model: ChannelModel) -> float:
    """E|h| for the channel model.

    1 for the deterministic channel; for Ricean K the closed-form Rice mean

        E|h| = sqrt(pi / (4 (K + 1))) ((1 + K) i0e(K/2) + K i1e(K/2)),

    with the exponentially scaled Bessel functions i_ne(x) = e^-x I_n(x),
    which keep every factor finite for any finite K.  It is sqrt(pi)/2 at
    K = 0 (Rayleigh) and tends to 1 as K grows; relative error within
    1e-15 of the exact mean.
    """
    if model.is_awgn:
        return 1.0
    k = model.k_factor
    bessel = (1.0 + k) * i0e(k / 2.0) + k * i1e(k / 2.0)
    return math.sqrt(math.pi / (4.0 * (k + 1.0))) * float(bessel)


@dataclass(frozen=True)
class ChannelMatrix:
    """One realization of the N x L fading matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ValueError("channel entries must form a 2-D matrix")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def num_antennas(self) -> int:
        return self.entries.shape[0]

    @property
    def num_sensors(self) -> int:
        return self.entries.shape[1]


def sample_channel(
    model: ChannelModel,
    num_antennas: int,
    num_sensors: int,
    rng: "RandomSource | np.random.Generator",
) -> ChannelMatrix:
    """Draw one channel realization for the given model."""
    if num_antennas < 1 or num_sensors < 1:
        raise ValueError("channel dimensions must be >= 1")
    shape = (num_antennas, num_sensors)
    if model.is_awgn:
        entries = np.ones(shape, dtype=np.complex128)
    else:
        gen = as_generator(rng)
        entries = model.los_amplitude + complex_normal(
            gen, shape, model.diffuse_variance
        )
    return ChannelMatrix(entries=entries)


@dataclass(frozen=True)
class SensingNoiseModel:
    """Per-sensor additive sensing noise: iid CN(0, sigma_eta_sq) or a
    jointly Gaussian vector with Hermitian positive-definite covariance."""

    sigma_eta_sq: float | None = None
    r_eta: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.sigma_eta_sq is None) == (self.r_eta is None):
            raise ValueError("specify exactly one of sigma_eta_sq or r_eta")
        if self.sigma_eta_sq is not None:
            if self.sigma_eta_sq < 0.0:
                raise ValueError("sigma_eta_sq must be >= 0")
            object.__setattr__(self, "_chol", None)
            return
        r = _check_square_hermitian(self.r_eta, 1e-12)
        try:
            chol = np.linalg.cholesky(r)
        except np.linalg.LinAlgError as exc:
            raise ValueError("r_eta is not positive definite") from exc
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "r_eta", r)
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def iid(cls, sigma_eta_sq: float) -> "SensingNoiseModel":
        return cls(sigma_eta_sq=float(sigma_eta_sq))

    @classmethod
    def correlated(cls, r_eta: np.ndarray) -> "SensingNoiseModel":
        return cls(r_eta=r_eta)

    @property
    def is_iid(self) -> bool:
        return self.sigma_eta_sq is not None

    @property
    def dimension(self) -> int | None:
        """Sensor count pinned by a correlated covariance, else None."""
        return None if self.is_iid else self.r_eta.shape[0]

    @property
    def lambda_min(self) -> float:
        """Smallest covariance eigenvalue (equals sigma_eta_sq when iid)."""
        if self.is_iid:
            return self.sigma_eta_sq
        off = self.r_eta - np.diag(np.diag(self.r_eta))
        if not off.any():
            # eigenvalues of an exactly diagonal matrix are its diagonal
            return float(np.min(self.r_eta.real.diagonal()))
        return float(np.linalg.eigvalsh(self.r_eta)[0])

    def scale_factor(self, num_sensors: int) -> np.ndarray | float:
        """Cholesky-style factor S with S S^H = R_eta (scalar when iid)."""
        if self.is_iid:
            return math.sqrt(self.sigma_eta_sq)
        if self.r_eta.shape[0] != num_sensors:
            raise ValueError(
                f"correlated noise is {self.r_eta.shape[0]}-dimensional, "
                f"network has {num_sensors} sensors"
            )
        return self._chol

    def color(self, std: np.ndarray) -> np.ndarray:
        """Sensing noise from standard CN(0, 1) draws with the sensors
        along the first axis: S @ std, or s * std when iid."""
        factor = self.scale_factor(std.shape[0])
        if self.is_iid:
            return factor * std
        return factor @ std


def sample_sensing_noise(
    model: SensingNoiseModel,
    num_sensors: int,
    rng: "RandomSource | np.random.Generator",
) -> np.ndarray:
    """One sensing-noise vector of length num_sensors.

    Both variants transform the same standard CN(0,1) draws, so an iid
    model and Correlated(sigma^2 I) produce identical samples.
    """
    return model.color(complex_normal(as_generator(rng), num_sensors, 1.0))
