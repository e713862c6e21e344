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

from .numerics import bessel_i01e, check_square_hermitian

__all__ = [
    "RandomSource",
    "NetworkParams",
    "ChannelModel",
    "ChannelMatrix",
    "SensingNoiseModel",
    "check_integer",
    "mean_abs_h",
    "sample_channel",
]


def check_integer(value, name: str, low: int) -> int:
    """int(value), once value is checked to be an int or a NumPy integer
    (a bool or a float is neither) and at least low; ValueError names it
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class RandomSource:
    """Splittable deterministic random stream.

    Every generator is keyed by seed_sequence(*path), a SeedSequence
    with entropy master_seed and spawn key (stream_id, *path), so identical fields reproduce
    identical draws bit-for-bit and distinct keys are statistically
    independent regardless of how work is scheduled across workers.

    Two bit generators sit on that one key derivation:

    * `substream` is Philox.  Channels and every other small draw use
      it; those draws fix every analytic row of every output.  A Monte
      Carlo sweep builds the key
      seed_sequence("mc-channel", i, d) once per point i and draw d, and
      gives each series that draws a channel a Philox generator of its
      own on it: the generator substream("mc-channel", i, d) returns.
    * `montecarlo_block` is SFC64.  Only the Monte Carlo trial blocks
      of `estimate_pe_montecarlo_batch` (and so of its one-detector case
      `estimate_pe_montecarlo`) use it: they are nearly all the normal
      draws of a figure2 run, and SFC64 draws them in about two thirds
      of Philox's time.  A Monte Carlo sweep draws one set of blocks per
      channel draw d, on stream 1 + d, at the largest L and N of the
      sweep, and scores every sweep point and series on it (the layout
      a point reads is estimate_pe_montecarlo_batch's).  A change of
      this generator or of that layout moves only Pe_MC rows.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        check_integer(self.master_seed, "master_seed", 0)
        check_integer(self.stream_id, "stream_id", 0)

    def substream(self, *path: "int | str") -> np.random.Generator:
        """Generator for a nested split of this stream.

        The path extends the spawn key, so substream(i, j) draws are
        independent of substream(i, k) for j != k and of the parent.
        String labels are admitted via a stable crc32 digest so callers
        can name purposes ("mc-channel", 3) without seed bookkeeping.
        """
        return np.random.Generator(np.random.Philox(self.seed_sequence(*path)))

    def montecarlo_block(self, block: int) -> np.random.Generator:
        """SFC64 generator for Monte Carlo trial block `block`, keyed
        like substream("montecarlo", block)."""
        return np.random.Generator(np.random.SFC64(self.seed_sequence("montecarlo", block)))

    def seed_sequence(self, *path: "int | str") -> np.random.SeedSequence:
        """The key of the generators for `path`, each string label
        replaced by its crc32."""
        key = tuple(zlib.crc32(p.encode()) if isinstance(p, str) else p for p in path)
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id, *key))


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

    Every power and P_T / sigma_nu_sq are finite, p1 theta^2 neither
    overflows nor underflows to 0, and the gain budget P is a positive
    finite number, so every quantity derived from a valid network is finite.
    """

    num_sensors: int
    num_antennas: int
    theta: float
    sigma_eta_sq: float
    sigma_nu_sq: float
    p1: float
    total_power: float

    def __post_init__(self) -> None:
        check_integer(self.num_sensors, "num_sensors", 1)
        check_integer(self.num_antennas, "num_antennas", 1)
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
        if not self.gamma_c < math.inf:
            raise ValueError(f"channel SNR total_power / sigma_nu_sq = {self.gamma_c!r} is not finite")
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
        theta^2 / gamma_s, or 0 (noise-free sensing) when gamma_s = inf.
        ValueError names gamma_s unless it is > 0 (0, negative or NaN)."""
        if not gamma_s > 0.0:
            raise ValueError(f"gamma_s must be > 0, not {gamma_s!r}")
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
        if self.kind == "ricean" and not 0.0 <= self.k_factor < math.inf:
            raise ValueError("Ricean K-factor must be >= 0 and finite")

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

    with the exponentially scaled Bessel functions i_ne(x) = e^-x I_n(x)
    (numerics.bessel_i01e), which keep every factor finite for any
    finite K.  It is sqrt(pi)/2 at K = 0 (Rayleigh) and tends to 1 as K
    grows; relative error within 1e-15 of the exact mean.
    """
    if model.is_awgn:
        return 1.0
    k = model.k_factor
    i0e, i1e = bessel_i01e(k / 2.0)
    return math.sqrt(math.pi / (k + 1.0)) / 2.0 * ((1.0 + k) * i0e + k * i1e)


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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The read-only entries, so that np.asarray reads a ChannelMatrix
        (and a list of them) as a matrix; a copy only where dtype or copy
        asks for one, as np.array gives it."""
        return np.array(self.entries, dtype=dtype, copy=copy)

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
    rng: np.random.Generator | None,
) -> ChannelMatrix:
    """Draw one channel realization for the given model from `rng`,
    e.g. a `RandomSource.substream`; an AWGN channel draws nothing, and
    its rng may be None."""
    if not (isinstance(rng, np.random.Generator) or rng is None and model.is_awgn):
        raise TypeError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    check_integer(num_antennas, "num_antennas", 1)
    check_integer(num_sensors, "num_sensors", 1)
    shape = (num_antennas, num_sensors)
    if model.is_awgn:
        entries = np.ones(shape, dtype=np.complex128)
    else:
        entries = model.los_amplitude + complex_normal(
            rng, shape, model.diffuse_variance
        )
    return ChannelMatrix(entries=entries)


@dataclass(frozen=True)
class SensingNoiseModel:
    """Sensing noise correlated across sensors: one jointly Gaussian
    CN(0, R_eta) vector with Hermitian positive-definite covariance r_eta,
    held with its Cholesky factor S (S S^H = R_eta).  iid sensing noise is
    no model at all: noise=None means CN(0, sigma_eta_sq) at every sensor,
    with the network's NetworkParams.sigma_eta_sq."""

    r_eta: np.ndarray

    def __post_init__(self) -> None:
        r = check_square_hermitian(self.r_eta, 1e-12)
        try:
            chol = np.linalg.cholesky(r)
        except np.linalg.LinAlgError as exc:
            raise ValueError("r_eta is not positive definite") from exc
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "r_eta", r)
        object.__setattr__(self, "_chol", chol)

    @property
    def dimension(self) -> int:
        """Sensor count the covariance pins."""
        return self.r_eta.shape[0]

    @property
    def lambda_min(self) -> float:
        """Smallest covariance eigenvalue."""
        off = self.r_eta - np.diag(np.diag(self.r_eta))
        if not off.any():
            # eigenvalues of an exactly diagonal matrix are its diagonal
            return float(np.min(self.r_eta.real.diagonal()))
        return float(np.linalg.eigvalsh(self.r_eta)[0])

    def scale_factor(self, num_sensors: int) -> np.ndarray:
        """Cholesky factor S with S S^H = R_eta, for a network of
        num_sensors sensors."""
        if self.dimension != num_sensors:
            raise ValueError(
                f"correlated noise is {self.dimension}-dimensional, "
                f"network has {num_sensors} sensors"
            )
        return self._chol
