"""Special functions, the Ricean amplitude mean and the single-antenna
full-CSI exponent quadrature against mpmath (50 significant digits, 30
for the quadrature), each held to the accuracy its docstring states.
The log-sum-exp over channel draws is checked against SciPy's."""

import math

import numpy as np
import pytest

from macdet import numerics
from macdet.model import ChannelModel, NetworkParams, mean_abs_h
from oracles import e_csis1_numeric, q_function

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
        assert rel_err(float(q_function(x)), mp_q(x)) <= bound, x


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


def mp_log_q(x):
    # log1p(-Q(-x)) below -1: Q(x) lies so close to 1 there that
    # mp.log(mp_q(x)) would round to 0 even at 50 digits
    return mp.log1p(-mp_q(-x)) if x < -1.0 else mp.log(mp_q(x))


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# every branch of log_q and both seams (x = 0 and the far-tail threshold
# numerics._LOG_Q_TAIL = 37), from where log Q(x) ~ -Q(-x) is subnormal
# out to x = 1e150
LOG_Q_GRID = np.concatenate(
    [
        np.linspace(-38.0, 40.0, 781),
        _around(0.0),
        [-1e-300, 1e-300],
        _around(numerics._LOG_Q_TAIL),
        np.geomspace(40.0, 1e150, 150),
    ]
)


def test_log_q_dense_grid_within_tail_conditioning():
    # 1e-15 * max(1, x^2) relative, the tail's own conditioning; where
    # log Q(x) ~ -Q(-x) is subnormal (x < -37.5) the result is also
    # allowed the rounding of its last place, a few units of 2^-1074
    values = numerics.log_q(LOG_Q_GRID)
    for x, value in zip(LOG_Q_GRID, values):
        reference = mp_log_q(x)
        bound = 1e-15 * max(1.0, x * x) * abs(reference) + 4 * math.ulp(0.0)
        assert abs(mp.mpf(value) - reference) <= bound, x
        assert numerics.log_q(x) == value, x


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


# K = 0, a log grid out to 1e300 and both sides of the switch from the
# Bessel power series to the Hankel expansion at K/2 = 20
MEAN_ABS_H_GRID = np.concatenate(
    [[0.0], np.logspace(-6.0, 300.0, 52), np.logspace(-6.0, 3.0, 46), np.linspace(28.0, 44.0, 33)]
)


def test_mean_abs_h_dense_grid():
    for k in MEAN_ABS_H_GRID:
        assert rel_err(mean_abs_h(ChannelModel.ricean(k)), mp_mean_rice(k)) <= 1e-14, k


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


def mp_quadratic_form(h, a, r_eta, sigma_nu_sq):
    # v^H R^-1 v with R = H D(a) R_eta D(a)^H H^H + sigma_nu_sq I, formed
    # and solved in mpmath from the double inputs; a scalar r_eta stands
    # for r_eta I (iid sensing noise)
    n, l = h.shape
    hm = mp.matrix(h.tolist())
    b = hm * mp.diag(a.tolist())
    r_m = mp.matrix(r_eta.tolist()) if np.ndim(r_eta) else r_eta * mp.eye(l)
    r = b * r_m * b.H + sigma_nu_sq * mp.eye(n)
    v = hm * mp.matrix(a.tolist())
    return mp.re((v.H * mp.lu_solve(r, v))[0])


@pytest.mark.parametrize("seed", range(12))
def test_quadratic_form_at_extreme_powers(seed):
    # N > L channels at P_T up to 1e60: the Gram matrix is rank deficient
    # and, past about 1e16, swamps the identity in R; the core answers
    # through Cholesky where it factors and the spectral form where not
    from macdet.forms import item, quadratic_forms

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    l = int(rng.integers(1, n))
    params = NetworkParams(l, n, 1.0, 1.0, 1.0, 0.5, 10.0 ** rng.uniform(10.0, 60.0))
    h = rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))
    a = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    a *= math.sqrt(params.gain_budget) / np.linalg.norm(a)
    with mp.workdps(120):
        reference = mp_quadratic_form(h, a, params.sigma_eta_sq, params.sigma_nu_sq)
        q = quadratic_forms(*item(h, a, params, None), params.sigma_nu_sq, solve=True)[2]
        assert rel_err(q, reference) <= 1e-12


@pytest.mark.parametrize("model", [ChannelModel.rayleigh(), ChannelModel.ricean(1.0)],
                         ids=["rayleigh", "ricean"])
@pytest.mark.parametrize("l", [1, 3])
def test_quadratic_form_where_the_scaled_gram_overflows(model, l):
    # one antenna at sigma_nu_sq = 1e-300, gamma_c = 1e308, gamma_s = 0.01:
    # the normalized Gram sigma_eta_sq/sigma_nu_sq H D(|a|^2) H^H is about
    # gamma_c |h|^2 and overflows on a strong draw, where R itself is ~1e8
    from macdet.allocation import alpha_uniform, method1
    from macdet.forms import item, quadratic_forms
    from macdet.model import RandomSource, sample_channel

    params = NetworkParams(l, 1, 1.0, 100.0, 1e-300, 0.5, 1e8)
    scale = params.sigma_eta_sq / params.sigma_nu_sq * params.gain_budget / l
    draws = (sample_channel(model, 1, l, RandomSource(5).substream("gram", d)).entries
             for d in range(200))
    h = next(h for h in draws if math.isinf(scale * float(np.sum(np.abs(h) ** 2))))
    for a in (alpha_uniform(params).values, method1(h, params)[0].values):
        with mp.workdps(60):
            reference = mp_quadratic_form(h, a, params.sigma_eta_sq, params.sigma_nu_sq)
            q = quadratic_forms(*item(h, a, params, None), params.sigma_nu_sq, solve=True)[2]
            assert rel_err(q, reference) <= 1e-12


@pytest.mark.parametrize("gains", ["uniform", "method2"])
@pytest.mark.parametrize(
    "sigma_nu_sq,total_power", [(1.0, 1e300), (1e-300, 1.0), (1.0, 1e10)],
    ids=["gamma_c", "sigma_nu", "moderate"],
)
@pytest.mark.parametrize("model", [ChannelModel.awgn(), ChannelModel.rayleigh()],
                         ids=["awgn", "rayleigh"])
@pytest.mark.parametrize("rho", [0.5, 0.95])
def test_correlated_quadratic_form_at_extreme_powers(rho, model, sigma_nu_sq, total_power, gains):
    # AR(1) sensing noise of power 0.3 (so that |S|_max is not 1), N=2,
    # L=4: at P_T / sigma_nu_sq = 1e300 the Gram
    # matrix H D(a) R_eta D(a)^H H^H swamps sigma_nu_sq I (and is rank one
    # on AWGN), so an explicitly formed R does not factor; the core answers
    # through the same Cholesky and spectral forms as under iid noise
    from macdet.allocation import alpha_uniform, method2
    from macdet.forms import item, quadratic_forms
    from macdet.model import RandomSource, SensingNoiseModel, sample_channel

    params = NetworkParams(4, 2, 1.0, 0.3, sigma_nu_sq, 0.5, total_power)
    lag = np.arange(4)[:, np.newaxis] - np.arange(4)[np.newaxis, :]
    r_eta = 0.3 * rho ** np.abs(lag) + 0j
    h = sample_channel(model, 2, 4, RandomSource(3).substream()).entries
    a = (alpha_uniform(params) if gains == "uniform" else method2(h, params)).values
    noise = SensingNoiseModel(r_eta=r_eta)
    q = quadratic_forms(*item(h, a, params, noise), sigma_nu_sq, solve=True)[2]
    with mp.workdps(700):
        assert rel_err(q, mp_quadratic_form(h, a, r_eta, sigma_nu_sq)) <= 1e-12


LOG_MEAN_EXP_COLUMNS = {
    "near -1e300": -1e300 * (1.0 + np.array([0.0, 1e-16, 3e-16, 1e-15])),
    "-1e300 beside -1": [-1e300, -1.0, -1e300, -2.0],
    "wide spread": [-0.5, -40.0, -700.0, -1e5],
    "ties": [-3.0, -3.0, -3.0, -3.0],
    "one -inf": [-np.inf, -2.0, -1.0, -5.0],
    "all -inf": [-np.inf] * 4,
    "close": [-12.25, -12.5, -12.75, -13.0],
}


def test_log_mean_exp_matches_scipy_logsumexp():
    # detection._log_mean_exp, the average over draws of empirical_exponent
    from scipy.special import logsumexp

    from macdet.detection import _log_mean_exp

    columns = np.array(list(LOG_MEAN_EXP_COLUMNS.values()), dtype=float).T
    value = _log_mean_exp(columns)
    reference = logsumexp(columns, axis=0) - math.log(columns.shape[0])
    for name, v, r in zip(LOG_MEAN_EXP_COLUMNS, value, reference):
        if math.isinf(r):
            assert v == r, name
        else:
            assert abs(v - r) <= 4e-16 * abs(r), name


def test_empirical_exponent_averages_draws_like_logsumexp():
    # draws > 1: the curve is -(logsumexp over draws of log Pe - ln draws)
    # / L, with each draw's log Pe at L scored on its leading L columns
    from dataclasses import replace

    from scipy.special import logsumexp

    from macdet.allocation import alpha_uniform
    from macdet.detection import empirical_exponent, log_pe_conditional
    from macdet.model import RandomSource, sample_channel

    base = NetworkParams(4, 2, 1.0, 0.5, 1.0, 0.5, 3.0)
    model = ChannelModel.ricean(1.0)
    grid = [20, 60, 120, 200]
    draws = 3
    curve = empirical_exponent(base, model, grid, RandomSource(11), draws=draws)
    log_pe = np.empty((draws, len(grid)))
    for d in range(draws):
        h = sample_channel(model, 2, grid[-1], RandomSource(11).substream("exponent", d)).entries
        for i, l in enumerate(grid):
            params = replace(base, num_sensors=l)
            log_pe[d, i] = log_pe_conditional(h[:, :l], alpha_uniform(params), params)
    expected = -(logsumexp(log_pe, axis=0) - math.log(draws)) / np.asarray(grid, dtype=float)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)


# Criterion 8's AWGN setting (gamma_s = 1, gamma_c = 10) and the sensor
# counts it measures, from 25 up to its plateau points L = 400 and 600
AWGN_GRID = (25, 50, 100, 200, 300, 400, 600)


@pytest.mark.parametrize("p1", [0.5, 0.3])
@pytest.mark.parametrize("n", [2, 10])
def test_awgn_empirical_exponent_is_the_gaussian_tail_of_e_awgn(n, p1):
    # On AWGN with uniform gains the finite exponent is e_awgn at every L,
    # so Pe = p0 Q(omega + tau/omega) + p1 Q(omega - tau/omega) with
    # omega = sqrt(4 L e_awgn), and -(1/L) ln Pe tends to 2 e_awgn: the
    # measured/closed-form constant of criterion 8 is 2 plus the prefactor
    # term ln(omega sqrt(2 pi)) / L, not a model mismatch.
    from macdet.detection import empirical_exponent
    from macdet.exponents import SnrPoint, e_awgn
    from macdet.model import RandomSource

    params = NetworkParams(AWGN_GRID[-1], n, 1.0, 1.0, 1.0, p1, 10.0)
    curve = empirical_exponent(params, ChannelModel.awgn(), AWGN_GRID, RandomSource(8))
    e = e_awgn(SnrPoint.from_params(params))
    tau = mp.mpf(params.tau)
    for l, value in zip(AWGN_GRID, curve.values):
        omega = mp.sqrt(4 * l * mp.mpf(e))
        pe = (1 - mp.mpf(p1)) * mp_q(omega + tau / omega) + p1 * mp_q(omega - tau / omega)
        assert rel_err(value, -mp.log(pe) / l) <= 1e-9, l
    if p1 == 0.5:
        expected = {2: 2.0648, 10: 2.0617}[n]
        assert abs(curve.plateau / e - expected) <= 1e-3
