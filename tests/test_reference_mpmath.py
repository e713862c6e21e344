"""Special functions, the Ricean amplitude mean and the single-antenna
full-CSI exponent quadrature against mpmath (50 significant digits, 30
for the quadrature), each held to the accuracy its docstring states."""

import math

import numpy as np
import pytest

from macdet import numerics
from macdet.exponents import e_csis1_numeric
from macdet.model import ChannelModel, NetworkParams, mean_abs_h

mp = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def mp_q(x):
    return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


def rel_err(value, reference):
    return float(abs(mp.mpf(value) - reference) / abs(reference))


# up to x = 37.5, where Q(x) is still a normal double (~5e-308)
Q_POINTS = np.concatenate([np.linspace(-38.0, 0.0, 77), np.linspace(0.25, 37.5, 150)])


def test_q_function_within_tail_conditioning():
    for x in Q_POINTS:
        bound = 1e-15 * max(1.0, x * x)
        assert rel_err(float(numerics.q_function(x)), mp_q(x)) <= bound, x


@pytest.mark.parametrize("x", np.linspace(-1.0, 25.0, 105))
def test_log_q_relative_up_to_branch_point(x):
    assert rel_err(numerics.log_q(x), mp.log(mp_q(x))) <= 1e-15


@pytest.mark.parametrize("x", np.linspace(-40.0, -1.0, 40))
def test_log_q_absolute_below_minus_one(x):
    assert abs(numerics.log_q(x) - float(mp.log(mp_q(x)))) <= 1e-15


# For x < -1, log Q(x) = log1p(-Q(-x)) is about -Q(-x), a tiny number
# whose relative accuracy is that of the tail Q(-x), hence the same
# 1e-15 * max(1, x^2) bound as q_function.  The reference is taken the
# same way: Q(x) lies so close to 1 that mp.log(mp_q(x)) rounds to 0 even
# at 50 digits.  Down to x = -37.5, where Q(-x) is still a normal double.
@pytest.mark.parametrize("x", np.linspace(-37.5, -1.0, 74))
def test_log_q_relative_below_minus_one(x):
    bound = 1e-15 * max(1.0, x * x)
    assert rel_err(numerics.log_q(x), mp.log1p(-mp_q(-x))) <= bound


# Past x = 25, where log_q used to switch to a truncated asymptotic series
# for Q (1.9e-10 relative off at x = 25.05); log_ndtr has no such seam.
@pytest.mark.parametrize("x", [25.05, 25.5, 26.0, 28.0, 30.0])
def test_log_q_relative_past_branch_point(x):
    assert rel_err(numerics.log_q(x), mp.log(mp_q(x))) <= 1e-15


# series branch (x <= 1), both sides of the switch, the continued
# fraction, and E1 down to where e^-x leaves the normal range
E1_POINTS = np.concatenate(
    [np.geomspace(1e-300, 1e-3, 30), np.linspace(0.05, 2.0, 40), np.geomspace(2.0, 700.0, 40)]
)


def test_exp_e1_scaled_documented_accuracy():
    for x in np.concatenate([E1_POINTS, np.geomspace(700.0, 1e300, 20)]):
        reference = mp.exp(x) * mp.e1(x)
        assert rel_err(numerics.exp_e1_scaled(x), reference) <= 1e-10, x


def mp_mean_rice(k):
    # Rice mean E|h| = s sqrt(pi/2) L_{1/2}(-nu^2 / (2 s^2)) for line of
    # sight nu and per-component variance s^2, with the Laguerre function
    # written through modified Bessel functions: a closed form, independent
    # of mean_abs_h's quadrature
    nu2 = mp.mpf(k) / (k + 1)
    s2 = mp.mpf(1) / (2 * (k + 1))
    x = -nu2 / (2 * s2)
    laguerre = mp.exp(x / 2) * ((1 - x) * mp.besseli(0, -x / 2) - x * mp.besseli(1, -x / 2))
    return mp.sqrt(s2) * mp.sqrt(mp.pi / 2) * laguerre


@pytest.mark.parametrize("k", [1.0, 10.0, 20.0, 1e8, 1e15, 1e50, 1e300])
def test_mean_abs_h_ricean_documented_accuracy(k):
    assert rel_err(mean_abs_h(ChannelModel.ricean(k)), mp_mean_rice(k)) <= 1e-15


def test_mean_rice_reference_matches_rayleigh_closed_form():
    # the reference itself: K = 0 must give sqrt(pi)/2
    assert float(mp_mean_rice(0)) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)


def mp_e_csis1_ricean(params, k):
    # (theta^2/8) E[P r^2 / (sigma_eta^2 P r^2 + sigma_nu^2)] over the Rice
    # amplitude density with line of sight s and per-component variance
    # sig2, split at the integrand's knee, at s and 20 sigma past it
    s = mp.sqrt(mp.mpf(k) / (k + 1))
    sig2 = 1 / (2 * (mp.mpf(k) + 1))
    p, se2, sn2 = (mp.mpf(v) for v in (params.gain_budget, params.sigma_eta_sq, params.sigma_nu_sq))

    def integrand(r):
        density = (r / sig2) * mp.exp(-(r * r + s * s) / (2 * sig2)) * mp.besseli(0, r * s / sig2)
        return density * p * r * r / (se2 * p * r * r + sn2)

    knee = mp.sqrt(sn2 / (p * se2))
    points = sorted({mp.mpf(0), knee, s, s + 20 * mp.sqrt(sig2)}) + [mp.inf]
    return mp.mpf(params.theta) ** 2 / 8 * mp.quad(integrand, points)


@pytest.mark.parametrize("k", [0.0, 1.0, 10.0, 20.0])
@pytest.mark.parametrize("gamma_s,gamma_c", [(0.5, 10.0), (4.0, 1.0), (20.0, 100.0)])
def test_e_csis1_numeric_ricean_documented_accuracy(k, gamma_s, gamma_c):
    params = NetworkParams(
        num_sensors=1,
        num_antennas=1,
        theta=1.0,
        sigma_eta_sq=1.0 / gamma_s,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=gamma_c,
    )
    with mp.workdps(30):
        reference = mp_e_csis1_ricean(params, k)
    value = e_csis1_numeric(params, ChannelModel.ricean(k))
    assert abs(value - float(reference)) <= 1e-9
