"""Error exponents, gain bounds, and transmit-gain design for analog
amplify-and-forward sensor fusion over fading multiple-access channels
with a multi-antenna receiver.

Submodules:

* model       network parameters, channel/noise models, seeded sampling
* numerics    Hermitian linear algebra, Q function, scaled exponential integral
* exponents   closed-form error exponents, gains, and asymptotic bounds
* forms       the quadratic form v^H R^-1 v behind the finite-network
              exponent, the conditional Pe and the detector weights
* allocation  transmit-gain strategies and the finite-network exponent
* sdr         diagonally-constrained SDP relaxation (certified
              Burer-Monteiro solve) and rounding
* detection   conditional and Monte Carlo error probability of the LRT,
              empirical exponents
* cli         the `macdet` experiment runner

The power budget P is the property `NetworkParams.gain_budget`.
"""

from .model import (
    ChannelMatrix,
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    mean_abs_h,
    sample_channel,
)

__all__ = [
    "ChannelMatrix",
    "ChannelModel",
    "NetworkParams",
    "RandomSource",
    "SensingNoiseModel",
    "mean_abs_h",
    "sample_channel",
]

__version__ = "0.1.0"
