"""Tests for gain strategies and the finite-size exponent statistic."""

import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from macdet.allocation import (
    GainVector,
    NoCrossoverError,
    alpha_opt_n1,
    alpha_phase_only_n1,
    alpha_sdr_phase,
    alpha_uniform,
    calibrate_crossover,
    finite_exponent,
    method1,
    method2,
    received_covariance,
    scheme_sweep,
)
from macdet import allocation, forms, sdr
from macdet.allocation import (
    _CROSSOVER_TOL_DB,
    _GROUP_ENTRIES,
    _mean_exponent_gap,
    _method2_directions,
    _method_grid,
)
from macdet.detection import log_pe_conditional
from macdet.forms import exponent_statistic, item, quadratic_forms
from macdet.exponents import e_awgn, SnrPoint
from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from macdet.numerics import hermitian_eig, scaled_by_power_of_two
from macdet.sdr import SdpNonConvergence, solve_sdp
from oracles import e_csis1_numeric, method2_direction, phase_optimum, reference_quadratic_form


def make_params(l=8, n=2, sigma_eta_sq=1.0, sigma_nu_sq=1.0, p1=0.5, total_power=1.5):
    return NetworkParams(
        num_sensors=l,
        num_antennas=n,
        theta=1.0,
        sigma_eta_sq=sigma_eta_sq,
        sigma_nu_sq=sigma_nu_sq,
        p1=p1,
        total_power=total_power,
    )


def params_for(gamma_s, gamma_c, l=8, n=2, p1=0.5):
    # theta = sigma_nu_sq = 1 so gamma_s and gamma_c map directly
    return make_params(
        l=l, n=n, sigma_eta_sq=1.0 / gamma_s, sigma_nu_sq=1.0, p1=p1, total_power=gamma_c
    )


def solved_form(h, alpha, params, noise=None):
    # (v, R^-1 v, q) of one item, from the core with solve=True
    return quadratic_forms(*item(h, alpha, params, noise), params.sigma_nu_sq, solve=True)


def grid_pass(channels, directions, points):
    # _method_grid on a stack scaled as scheme_sweep scales it
    return _method_grid(channels, scaled_by_power_of_two(channels), directions, points)


def one_point(channels, directions, params):
    # the one-point case of the grid pass, as its two per-channel lists
    fe = grid_pass(channels, directions, [params])[0]
    return fe[:, 0].tolist(), fe[:, 1].tolist()


def random_channel(rng, n, l):
    return (rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))) / math.sqrt(2.0)


def random_feasible_gains(rng, count, l, budget):
    # boundary points: random directions scaled to spend the budget exactly
    u = rng.standard_normal((count, l)) + 1j * rng.standard_normal((count, l))
    norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=1, keepdims=True))
    return u * (math.sqrt(budget) / norms)


def n1_exponent_batch(h_row, alphas, params):
    # closed-form single-antenna statistic for a batch of gain vectors,
    # written independently of finite_exponent's solve path
    num = np.abs(alphas @ h_row) ** 2
    den = (
        params.sigma_eta_sq * (np.abs(alphas) ** 2 @ np.abs(h_row) ** 2)
        + params.sigma_nu_sq
    )
    return params.theta**2 * (num / den) / (8.0 * params.num_sensors)


class TestGainVector:
    def test_stores_readonly_copy(self):
        raw = np.ones(3, dtype=complex)
        gv = GainVector(values=raw, budget=4.0)
        raw[0] = 99.0
        assert gv.values[0] == 1.0
        assert not gv.values.flags.writeable
        assert gv.size == 3
        assert gv.power == pytest.approx(3.0)

    def test_rejects_power_above_budget(self):
        with pytest.raises(ValueError, match="exceeds"):
            GainVector(values=np.ones(4), budget=3.0)

    def test_allows_tiny_relative_overshoot(self):
        GainVector(values=np.ones(2) * math.sqrt(0.5 * (1 + 1e-10)), budget=1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.inf])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ValueError):
            GainVector(values=np.zeros(2), budget=budget)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GainVector(values=np.array([bad, 1.0]), budget=1.0)


NON_FINITE_ITEMS = pytest.mark.parametrize(
    "channel,gains",
    [
        (np.ones((1, 2)), [math.nan, 1.0]),
        (np.ones((1, 2)), [math.inf, 0.0]),
        (np.array([[1.0, math.nan]]), [0.5, 0.5]),
        (np.array([[math.inf, 1.0]]), [0.5, 0.5]),
    ],
    ids=["nan-gain", "inf-gain", "nan-channel", "inf-channel"],
)


class TestNonFiniteInputs:
    """A channel or gain entry that is not finite raises ValueError in
    place of a silent exponent of 0 or a NaN result."""

    @NON_FINITE_ITEMS
    def test_finite_exponent(self, channel, gains):
        params = make_params(l=2, n=1)
        with pytest.raises(ValueError, match="finite"):
            finite_exponent(channel, np.array(gains), params)

    @NON_FINITE_ITEMS
    def test_received_covariance(self, channel, gains):
        params = make_params(l=2, n=1)
        with pytest.raises(ValueError, match="finite"):
            received_covariance(channel, np.array(gains), params)

    @pytest.mark.parametrize(
        "bad",
        [
            math.inf,
            -math.inf,
            math.nan,
            complex(math.inf, 1.0),
            complex(0.0, math.nan),
            complex(0.0, -math.inf),
        ],
        ids=["inf", "-inf", "nan", "inf+1j", "nanj", "-infj"],
    )
    @pytest.mark.parametrize(
        "rule",
        [
            alpha_opt_n1,
            alpha_phase_only_n1,
            method1,
            method2,
            lambda channel, params: scheme_sweep([channel], [1.0, 2.0], params),
        ],
        ids=["alpha_opt_n1", "alpha_phase_only_n1", "method1", "method2", "scheme_sweep"],
    )
    def test_gain_rules_name_a_non_finite_channel(self, rule, bad):
        # checked before any arithmetic: no NumPy warning (the suite
        # turns warnings into errors), no message about a later value
        # and no gains returned
        params = make_params(l=2, n=1)
        with pytest.raises(ValueError, match="^channel entries must be finite$"):
            rule(np.array([[bad, 1.0]]), params)

    def test_batch_with_one_non_finite_item(self):
        params = make_params(l=2, n=1)
        gains = np.array([[0.5, 0.5], [math.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            exponent_statistic(np.ones((1, 2)), gains, params)
        with pytest.raises(ValueError, match="finite"):
            exponent_statistic(np.ones((1, 2)), gains[:1], params, np.array([math.nan]))


class TestReceivedCovariance:
    def test_zero_gains_leave_receiver_noise(self):
        params = make_params(l=4, n=3)
        h = random_channel(np.random.default_rng(0), 3, 4)
        r = received_covariance(h, np.zeros(4, dtype=complex), params)
        assert np.allclose(r, params.sigma_nu_sq * np.eye(3))

    def test_unit_channel_uniform_gains_structure(self):
        # all-ones channel with uniform gains: sigma_eta_sq P on every
        # entry plus receiver noise on the diagonal
        params = make_params(l=50, n=3, sigma_eta_sq=0.7)
        h = np.ones((3, 50), dtype=complex)
        r = received_covariance(h, alpha_uniform(params), params)
        p = params.gain_budget
        expected = 0.7 * p * np.ones((3, 3)) + params.sigma_nu_sq * np.eye(3)
        assert np.allclose(r, expected, rtol=1e-12)

    def test_diagonal_correlated_model_matches_iid_bitwise(self):
        params = make_params(l=6, n=2, sigma_eta_sq=0.8)
        h = random_channel(np.random.default_rng(1), 2, 6)
        alpha = random_feasible_gains(np.random.default_rng(2), 1, 6, params.gain_budget)[0]
        iid = received_covariance(h, alpha, params)
        corr = received_covariance(
            h, alpha, params, SensingNoiseModel(r_eta=0.8 * np.eye(6))
        )
        assert np.array_equal(iid, corr)

    def test_dimension_mismatch(self):
        params = make_params(l=4, n=2)
        h = np.ones((2, 5), dtype=complex)
        with pytest.raises(ValueError):
            received_covariance(h, np.zeros(4), params)
        with pytest.raises(ValueError):
            received_covariance(np.ones((2, 4)), np.zeros(5), params)


class TestFiniteExponent:
    def test_zero_gains_give_zero(self):
        params = make_params()
        h = random_channel(np.random.default_rng(3), 2, 8)
        assert finite_exponent(h, np.zeros(8), params) == 0.0

    def test_unit_channel_uniform_matches_closed_form(self):
        # the statistic is exact for the all-ones channel at any size
        params = params_for(gamma_s=2.0, gamma_c=5.0, l=10_000, n=2)
        h = np.ones((2, 10_000), dtype=complex)
        fe = finite_exponent(h, alpha_uniform(params), params)
        expected = e_awgn(SnrPoint.from_params(params).with_antennas(2))
        assert fe == pytest.approx(expected, rel=1e-10)

    def test_budget_scaling_is_monotone(self):
        rng = np.random.default_rng(4)
        params = make_params(l=6, n=3)
        for _ in range(20):
            h = random_channel(rng, 3, 6)
            alpha = random_feasible_gains(rng, 1, 6, params.gain_budget)[0]
            full = finite_exponent(h, alpha, params)
            for c in (0.2, 0.5, 0.9):
                assert finite_exponent(h, c * alpha, params) < full

    def test_correlated_noise_changes_value(self):
        params = make_params(l=3, n=2, sigma_eta_sq=1.0)
        h = random_channel(np.random.default_rng(5), 2, 3)
        alpha = random_feasible_gains(np.random.default_rng(6), 1, 3, params.gain_budget)[0]
        r_eta = np.array(
            [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]], dtype=complex
        )
        base = finite_exponent(h, alpha, params)
        corr = finite_exponent(h, alpha, params, SensingNoiseModel(r_eta=r_eta))
        assert corr != pytest.approx(base, rel=1e-6)


def params_with_budget(budget, l, n, sigma_eta_sq=1.0, sigma_nu_sq=1.0):
    # total power chosen so that gain_budget equals `budget`
    return make_params(
        l=l, n=n, sigma_eta_sq=sigma_eta_sq, sigma_nu_sq=sigma_nu_sq,
        total_power=budget * (0.5 + sigma_eta_sq),
    )


def sensing_noise(kind, l, sigma_eta_sq):
    # R_eta of each kind the oracle tests cover, at per-sensor power
    # sigma_eta_sq (None: iid noise from the network's sigma_eta_sq)
    if kind == "iid":
        return None
    lag = np.arange(l)[:, np.newaxis] - np.arange(l)[np.newaxis, :]
    r_eta = {
        "ar1": 0.5 ** np.abs(lag) + 0j,
        "phase-ar1": 0.5 ** np.abs(lag) * np.exp(0.7j * lag),
        "diagonal": np.diag(np.linspace(0.5, 1.5, l)) + 0j,
    }[kind]
    return SensingNoiseModel(r_eta=sigma_eta_sq * r_eta)


class TestQuadraticFormOracle:
    """The batched core against the received-covariance Cholesky path it
    replaced (tests/oracles.py), on every gain rule and under iid, AR(1),
    complex phase-modulated AR(1) and diagonal sensing-noise covariances."""

    @pytest.mark.parametrize("noise_kind", ["iid", "ar1", "phase-ar1", "diagonal"])
    @pytest.mark.parametrize(
        "model",
        [ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh()],
        ids=["awgn", "ricean", "rayleigh"],
    )
    @pytest.mark.parametrize("n,l", [(3, 8), (4, 4), (6, 3)], ids=["N<L", "N=L", "N>L"])
    @pytest.mark.parametrize("budget", [0.1, 10.0, 1e4])
    def test_agrees_with_cholesky_of_the_covariance(self, model, n, l, budget, noise_kind):
        params = params_with_budget(budget, l, n, sigma_eta_sq=0.7)
        noise = sensing_noise(noise_kind, l, params.sigma_eta_sq)
        rng = RandomSource(master_seed=90)
        for t in range(4):
            h = sample_channel(model, n, l, rng.substream("oracle", t)).entries
            rules = [
                alpha_uniform(params),
                method1(h, params)[0],
                method2(h, params),
                random_feasible_gains(np.random.default_rng(t), 1, l, budget)[0],
            ]
            for alpha in rules:
                v, w, q = solved_form(h, alpha, params, noise)
                v_ref, w_ref, q_ref = reference_quadratic_form(h, alpha, params, noise)
                assert np.array_equal(v, v_ref)
                assert q == pytest.approx(q_ref, rel=1e-12, abs=0.0)
                # w = R^-1 v is backward stable: its residual is rounding
                # on the scale of R w (w itself is as ill-conditioned as R)
                r = received_covariance(h, alpha, params, noise)
                scale = np.linalg.norm(r, 2) * np.linalg.norm(w) + np.linalg.norm(v)
                assert np.linalg.norm(r @ w - v) <= 1e-14 * scale
                fe = finite_exponent(h, alpha, params, noise)
                assert fe == params.theta**2 * q / (8.0 * l)


class TestExtremePowers:
    """Where s H D(|a|^2) H^H swallows the identity, Cholesky cannot
    factor R, and the core answers from the normalized spectral form:
    on AWGN, N=2, L=4 with uniform gains, q = P L N / (sigma_nu_sq +
    sigma_eta_sq P N), whose limit at gamma_s = 1 is 4."""

    @pytest.mark.parametrize(
        "sigma_nu_sq,total_power", [(1.0, 1e300), (1e-300, 1.0)], ids=["gamma_c", "sigma_nu"]
    )
    def test_exact_limit_where_cholesky_fails(self, sigma_nu_sq, total_power):
        params = make_params(l=4, n=2, sigma_nu_sq=sigma_nu_sq, total_power=total_power)
        h = np.ones((2, 4), dtype=complex)
        if sigma_nu_sq == 1.0:
            with pytest.raises(ValueError, match="not positive definite"):
                reference_quadratic_form(h, alpha_uniform(params), params)
        for alpha in (alpha_uniform(params), method1(h, params)[0], method2(h, params)):
            v, w, q = solved_form(h, alpha, params)
            assert q == pytest.approx(4.0, rel=1e-14)
            assert np.vdot(v, w).real == pytest.approx(4.0, rel=1e-14)
            assert finite_exponent(h, alpha, params) == pytest.approx(4.0 / 32.0, rel=1e-14)

    def test_batch_mixing_both_regimes(self):
        # zero gains leave R = sigma_nu_sq I, which always factors
        params = make_params(l=4, n=2, total_power=1e300)
        h = np.ones((2, 4), dtype=complex)
        gains = np.stack((alpha_uniform(params).values, np.zeros(4), method2(h, params).values))
        batch = exponent_statistic(h, gains, params)
        assert batch.tolist() == [finite_exponent(h, a, params) for a in gains]
        assert batch[1] == 0.0
        assert batch[0] == pytest.approx(0.125, rel=1e-14)


class TestHugeChannels:
    """A finite channel whose largest part could overflow a square is
    scaled by a power of two before a gain rule squares it.  The rules
    do not depend on that scale, so no NumPy warning comes first (the
    suite turns warnings into errors) and the gains are the channel's
    own."""

    def test_gains_on_an_entry_of_1e200(self):
        params = make_params(l=2, n=1)
        h = np.array([[1e200, 1.0]])
        # the optimal magnitudes |h| / (s P |h|^2 + sigma_nu_sq), formed
        # without a square
        p, mags = params.gain_budget, np.abs(h[0])
        w = 1.0 / (params.sigma_eta_sq * p * mags + params.sigma_nu_sq / mags)
        expected = math.sqrt(p) * w / np.linalg.norm(w)
        for gains in (alpha_opt_n1(h[0], params), method1(h, params)[0]):
            assert np.allclose(gains.values, expected, rtol=1e-14, atol=0.0)
        direction = method2(h, params).values / math.sqrt(p)
        assert np.allclose(direction, [1.0, 1e-200], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k", [150, 300, 450, 500])
    def test_rules_do_not_depend_on_the_scale(self, k):
        # H 2^k with sigma_nu_sq 4^k poses the same problem: the same
        # bits below the threshold and past it; method2's eigensolver
        # scales a Gram above 1e146 itself, so its bits may move
        h = random_channel(np.random.default_rng(12), 3, 8)
        base = make_params(l=8, n=3)
        scaled = make_params(l=8, n=3, sigma_nu_sq=4.0**k)
        hk = h * 2.0**k
        for want, got in (
            (alpha_opt_n1(h[0], base).values, alpha_opt_n1(hk[0], scaled).values),
            (method1(h, base)[0].values, method1(hk, scaled)[0].values),
        ):
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert method1(hk, scaled)[1] == method1(h, base)[1]
        assert np.allclose(method2(hk, scaled).values, method2(h, base).values, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("k", [384, 450, 510, 520, 700, 1000])
    def test_scheme_sweep_is_the_per_channel_rules(self, k):
        # the sweep builds method1's gains on the scaled channels, as
        # method1 does, and scores the channels themselves, so each item
        # keeps finite_exponent's bits past where |h|^2 overflows
        params = params_for(1.0, 10.0)
        channels = scheme_channels(ChannelModel.rayleigh(), 2, 8, 3, 1, "x") * 2.0**k
        sweep = scheme_sweep(channels, [0.5, 2.0], params)
        for p, point in zip(sweep.params, sweep.exponents):
            got = (point[:, 0].tolist(), point[:, 1].tolist())
            assert got == per_channel_exponents(channels, p)

    @pytest.mark.parametrize("noise_kind", ["iid", "ar1"])
    @pytest.mark.parametrize("k", [520, 700, 1000])
    def test_forms_past_overflow_match_a_smaller_scale(self, k, noise_kind):
        # from about 2^512 on B B^H overflows and the spectral form
        # answers, on the scaled channel: the exponent, log Pe and R^-1 v
        # times 2^k (to 1e-12 of its norm) do not depend on k
        params = make_params(l=8, n=2)
        h = random_channel(np.random.default_rng(5), 2, 8)
        noise = sensing_noise(noise_kind, 8, params.sigma_eta_sq)

        def forms_at(m):
            hm = h * 2.0**m
            for alpha in (alpha_uniform(params), method1(hm, params)[0]):
                exponent = finite_exponent(hm, alpha, params, noise)
                log_pe = log_pe_conditional(hm, alpha, params, noise)
                yield [exponent, log_pe], solved_form(hm, alpha, params, noise)[1] * 2.0**m

        for (got, got_w), (want, want_w) in zip(forms_at(k), forms_at(500)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert np.linalg.norm(got_w - want_w) <= 1e-12 * np.linalg.norm(want_w)

    @pytest.mark.parametrize("k", [520, 1000])
    def test_noise_free_overflow_is_named(self, k):
        # without sensing noise q grows as 4^k: finite at k = 500, past a
        # double at k = 520 (an overflow), and at k = 1000 sigma_nu_sq
        # 4^-j underflows to 0 (a division by zero); the suite turns a
        # NumPy warning into an error, so none may come first
        params = make_params(l=8, n=2, sigma_eta_sq=0.0, total_power=1.0)
        h = sample_channel(ChannelModel.rayleigh(), 2, 8, RandomSource(1).substream("x")).entries
        assert 0.0 < finite_exponent(h * 2.0**500, alpha_uniform(params), params) < math.inf
        with pytest.raises(ValueError, match="overflows a double"):
            finite_exponent(h * 2.0**k, alpha_uniform(params), params)


class TestBatchedCore:
    """exponent_statistic gives each item the bits of finite_exponent on
    that item alone, whatever the batch around it."""

    @pytest.mark.parametrize("n,l", [(1, 7), (3, 5), (5, 40), (4, 3), (2, 33)])
    def test_stack_matches_items(self, n, l):
        params = make_params(l=l, n=n, sigma_eta_sq=0.3, total_power=4.0)
        rng = np.random.default_rng(100 + n + l)
        hs = np.stack([random_channel(rng, n, l) for _ in range(5)])
        gains = random_feasible_gains(rng, 5, l, params.gain_budget)
        stacked = exponent_statistic(hs, gains, params)
        assert stacked.tolist() == [finite_exponent(h, a, params) for h, a in zip(hs, gains)]
        # one channel broadcast against many gain vectors, and batches of one
        broadcast = exponent_statistic(hs[0], gains, params)
        assert broadcast.tolist() == [finite_exponent(hs[0], a, params) for a in gains]
        assert exponent_statistic(hs[:1], gains[:1], params).tolist() == stacked[:1].tolist()

    @staticmethod
    def assert_solve_matches_items(hs, gains, params, noise):
        # the core (solve=True) on the stack against the core per item
        sensing = item(hs[0], gains[0], params, noise)[2]
        v, w, q = quadratic_forms(hs, gains, sensing, params.sigma_nu_sq, solve=True)
        for k, (h, a) in enumerate(zip(hs, gains)):
            v_k, w_k, q_k = solved_form(h, a, params, noise)
            assert np.array_equal(v[k], v_k)
            assert np.array_equal(w[k], w_k)
            assert q[k] == q_k

    @pytest.mark.parametrize("noise_kind", ["iid", "phase-ar1"])
    @pytest.mark.parametrize("n,l", [(1, 7), (3, 5), (5, 3), (2, 15)])
    def test_solve_stack_matches_items(self, n, l, noise_kind):
        params = make_params(l=l, n=n, sigma_eta_sq=0.3, total_power=4.0)
        rng = np.random.default_rng(200 + n + l)
        hs = np.stack([random_channel(rng, n, l) for _ in range(5)])
        gains = random_feasible_gains(rng, 5, l, params.gain_budget)
        noise = sensing_noise(noise_kind, l, params.sigma_eta_sq)
        self.assert_solve_matches_items(hs, gains, params, noise)

    @pytest.mark.parametrize("noise_kind", ["iid", "phase-ar1"])
    def test_solve_stack_with_a_spectral_item(self, noise_kind, monkeypatch):
        # at sigma_nu_sq = 1e-200, B B^H overflows on item 0 (uniform gains
        # on an all-ones channel), which _spectral_form answers; zero gains
        # and a small random gain vector factor
        params = make_params(l=4, n=2, sigma_nu_sq=1e-200)
        rng = np.random.default_rng(300)
        channels = [np.ones((2, 4), dtype=complex)] + [random_channel(rng, 2, 4) for _ in range(2)]
        hs = np.stack(channels)
        gains = np.stack(
            (alpha_uniform(params).values, np.zeros(4), random_feasible_gains(rng, 1, 4, 1.0)[0])
        )
        spectral = []
        original = forms._spectral_form
        monkeypatch.setattr(
            forms, "_spectral_form", lambda *args: spectral.append(1) or original(*args)
        )
        noise = sensing_noise(noise_kind, 4, params.sigma_eta_sq)
        self.assert_solve_matches_items(hs, gains, params, noise)
        # once for the stack's item 0, once for the core on it alone
        assert len(spectral) == 2

    @pytest.mark.parametrize("solve", [False, True])
    def test_per_item_sensing_noise_powers(self, solve, monkeypatch):
        # the iid sensing argument as one sigma_eta_sq per item: each item
        # gets the bits of the core on it alone with its own float, also
        # item 0, which overflows at sigma_nu_sq = 1e-200 and goes to
        # _spectral_form with its own power
        rng = np.random.default_rng(301)
        channels = [np.ones((2, 4), dtype=complex)] + [random_channel(rng, 2, 4) for _ in range(4)]
        hs = np.stack(channels)
        gains = np.concatenate(
            (np.full((1, 4), 1e60 + 0j), random_feasible_gains(rng, 4, 4, 2.0))
        )
        sigma_eta_sq = np.array([0.7, 0.0, 1.3, 1e-3, 4.0])
        spectral = []
        original = forms._spectral_form
        monkeypatch.setattr(
            forms, "_spectral_form", lambda *args: spectral.append(args[2]) or original(*args)
        )
        stacked = quadratic_forms(hs, gains, sigma_eta_sq, 1e-200, solve)
        for k, (h, a, s) in enumerate(zip(hs, gains, sigma_eta_sq.tolist())):
            alone = quadratic_forms(h, a, s, 1e-200, solve)
            for part, part_alone in zip(stacked, alone):
                assert np.array_equal(part[k], part_alone)
        assert spectral == [0.7, 0.7]

    def test_rejects_mismatched_shapes(self):
        params = make_params(l=4, n=2)
        with pytest.raises(ValueError):
            exponent_statistic(np.ones((2, 5)), np.ones((3, 4)), params)
        with pytest.raises(ValueError):
            exponent_statistic(np.ones((2, 4)), np.ones((3, 5)), params)


class TestAlphaUniform:
    def test_single_sensor(self):
        params = make_params(l=1)
        gv = alpha_uniform(params)
        assert gv.values[0] == pytest.approx(math.sqrt(params.gain_budget))

    def test_spends_budget_exactly(self):
        params = make_params(l=7, total_power=2.4)
        assert alpha_uniform(params).power == pytest.approx(params.gain_budget, rel=1e-12)

    def test_rayleigh_statistic_decays_with_size(self):
        # no channel knowledge over Rayleigh fading: the statistic
        # shrinks as the network grows
        rng = RandomSource(master_seed=77)
        model = ChannelModel.rayleigh()
        means = []
        for l in (100, 1000, 10_000):
            params = params_for(gamma_s=1.0, gamma_c=10.0, l=l, n=1)
            gv = alpha_uniform(params)
            vals = [
                finite_exponent(
                    sample_channel(model, 1, l, rng.substream("decay", l, t)),
                    gv,
                    params,
                )
                for t in range(20)
            ]
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


class TestAlphaOptN1:
    def test_equal_magnitudes_reduce_to_uniform_with_conjugate_phases(self):
        params = make_params(l=4, n=1)
        h = np.exp(1j * np.array([0.3, -1.2, 2.5, 0.0]))
        gv = alpha_opt_n1(h, params)
        assert np.allclose(np.abs(gv.values), math.sqrt(params.gain_budget / 4))
        assert np.allclose(gv.values * h, np.abs(h) * np.abs(gv.values))

    def test_zero_sensing_noise_matches_channel_magnitudes(self):
        params = make_params(l=5, n=1, sigma_eta_sq=0.0)
        h = random_channel(np.random.default_rng(7), 1, 5)[0]
        gv = alpha_opt_n1(h, params)
        ratio = np.abs(gv.values) / np.abs(h)
        assert np.allclose(ratio, ratio[0])

    def test_spends_budget_exactly(self):
        params = make_params(l=6, n=1)
        h = random_channel(np.random.default_rng(8), 1, 6)[0]
        assert alpha_opt_n1(h, params).power == pytest.approx(
            params.gain_budget, rel=1e-12
        )

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="zero"):
            alpha_opt_n1(np.zeros(3, dtype=complex), make_params(l=3, n=1))

    def test_beats_random_search(self):
        # budget P = 1 with the default prior and unit noise figures
        params = make_params(l=2, n=1, total_power=1.5)
        assert params.gain_budget == pytest.approx(1.0)
        h = np.array([1.0, 2.0], dtype=complex)
        best = finite_exponent(h[None, :], alpha_opt_n1(h, params), params)
        rng = np.random.default_rng(9)
        candidates = random_feasible_gains(rng, 100_000, 2, params.gain_budget)
        batch = n1_exponent_batch(h, candidates, params)
        assert batch.max() <= best * (1 + 1e-12)
        # the batch evaluator agrees with the solve-based statistic
        for idx in range(0, 100_000, 2500):
            direct = finite_exponent(h[None, :], candidates[idx], params)
            assert direct == pytest.approx(batch[idx], rel=1e-10)

    def test_dominates_named_strategies_per_realization(self):
        params = params_for(gamma_s=2.0, gamma_c=4.0, l=12, n=1)
        model = ChannelModel.rayleigh()
        rng = RandomSource(master_seed=5)
        for t in range(25):
            h = sample_channel(model, 1, 12, rng.substream("dom", t)).entries[0]
            best = finite_exponent(h[None, :], alpha_opt_n1(h, params), params)
            others = [
                finite_exponent(h[None, :], alpha_uniform(params), params),
                finite_exponent(h[None, :], alpha_phase_only_n1(h, params), params),
            ]
            gains = random_feasible_gains(
                np.random.default_rng(t), 1000, 12, params.gain_budget
            )
            others.append(float(n1_exponent_batch(h, gains, params).max()))
            assert best >= max(others) * (1 - 1e-12)

    def test_large_network_mean_approaches_limit(self):
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=2000, n=1)
        model = ChannelModel.rayleigh()
        rng = RandomSource(master_seed=21)
        vals = [
            finite_exponent(
                sample_channel(model, 1, 2000, rng.substream("limit", t)),
                alpha_opt_n1(
                    sample_channel(model, 1, 2000, rng.substream("limit", t)).entries[0],
                    params,
                ),
                params,
            )
            for t in range(50)
        ]
        limit = e_csis1_numeric(params, model)
        assert np.mean(vals) == pytest.approx(limit, rel=0.02)


class TestAlphaPhaseOnly:
    def test_real_positive_channel_reduces_to_uniform(self):
        params = make_params(l=5, n=1)
        h = np.array([0.5, 1.0, 2.0, 0.1, 3.0], dtype=complex)
        assert np.array_equal(
            alpha_phase_only_n1(h, params).values, alpha_uniform(params).values
        )

    def test_rayleigh_statistic_matches_quarter_pi_value(self):
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10_000, n=1)
        model = ChannelModel.rayleigh()
        rng = RandomSource(master_seed=31)
        vals = []
        for t in range(5):
            h = sample_channel(model, 1, 10_000, rng.substream("po", t)).entries[0]
            vals.append(
                finite_exponent(h[None, :], alpha_phase_only_n1(h, params), params)
            )
        expected = (math.pi / 4.0) * e_awgn(
            SnrPoint.from_params(params).with_antennas(1)
        )
        assert np.mean(vals) == pytest.approx(expected, rel=0.02)

    def test_never_beats_optimal_gains(self):
        params = params_for(gamma_s=1.0, gamma_c=3.0, l=10, n=1)
        model = ChannelModel.rayleigh()
        rng = RandomSource(master_seed=41)
        for t in range(100):
            h = sample_channel(model, 1, 10, rng.substream("po-vs-opt", t)).entries[0]
            po = finite_exponent(h[None, :], alpha_phase_only_n1(h, params), params)
            opt = finite_exponent(h[None, :], alpha_opt_n1(h, params), params)
            assert po <= opt * (1 + 1e-12)


class TestMethod1:
    def test_single_antenna_reduces_to_optimal_rule(self):
        params = make_params(l=6, n=1)
        h = random_channel(np.random.default_rng(10), 1, 6)
        gv, selected = method1(h, params)
        assert selected == 0
        assert np.array_equal(gv.values, alpha_opt_n1(h[0], params).values)

    @pytest.mark.parametrize("n,l", [(1, 3), (2, 6), (3, 7), (5, 16)])
    @pytest.mark.parametrize("sigma_eta_sq", [0.1, 0.5, 2.0, 10.0])
    def test_awgn_gains_are_method2s_bits(self, n, l, sigma_eta_sq):
        # both rescale their direction by its largest entry and divide by
        # its norm, so on AWGN (N < L) the two methods agree bit for bit
        params = make_params(l=l, n=n, sigma_eta_sq=sigma_eta_sq)
        h = np.ones((n, l), dtype=complex)
        assert np.array_equal(method1(h, params)[0].values, method2(h, params).values)

    def test_selects_dominant_antenna(self):
        params = make_params(l=2, n=2)
        h = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex)
        _, selected = method1(h, params)
        assert selected == 1

    def test_ties_break_to_lowest_index(self):
        params = make_params(l=3, n=3)
        h = np.ones((3, 3), dtype=complex)
        _, selected = method1(h, params)
        assert selected == 0

    def test_full_array_dominates_selected_antenna(self):
        # fusing all antennas can only improve on the best single one
        params = params_for(gamma_s=2.0, gamma_c=5.0, l=16, n=3)
        single = replace(params, num_antennas=1)
        model = ChannelModel.ricean(1.0)
        rng = RandomSource(master_seed=51)
        for t in range(200):
            h = sample_channel(model, 3, 16, rng.substream("m1", t)).entries
            gv, n_star = method1(h, params)
            full = finite_exponent(h, gv, params)
            restricted = finite_exponent(h[n_star : n_star + 1], gv, single)
            assert full >= restricted * (1 - 1e-12)


class TestMethod2:
    def test_single_antenna_matched_filter(self):
        params = make_params(l=5, n=1)
        h = random_channel(np.random.default_rng(11), 1, 5)
        gv = method2(h, params)
        assert np.allclose(
            np.abs(gv.values), math.sqrt(params.gain_budget) * np.abs(h[0]) / np.linalg.norm(h[0])
        )
        rotations = np.angle(gv.values * h[0])
        assert np.allclose(rotations, rotations[0])

    def test_zero_sensing_noise_attains_top_eigenvalue(self):
        params = make_params(l=6, n=2, sigma_eta_sq=0.0)
        h = random_channel(np.random.default_rng(12), 2, 6)
        gv = method2(h, params)
        lam_max = hermitian_eig(h.conj().T @ h).eigenvalues[-1]
        expected = (
            params.theta**2
            * params.gain_budget
            * lam_max
            / (8.0 * params.num_sensors * params.sigma_nu_sq)
        )
        assert finite_exponent(h, gv, params) == pytest.approx(expected, rel=1e-10)

    def test_zero_sensing_noise_beats_random_search(self):
        params = make_params(l=8, n=3, sigma_eta_sq=0.0)
        h = random_channel(np.random.default_rng(13), 3, 8)
        best = finite_exponent(h, method2(h, params), params)
        candidates = random_feasible_gains(
            np.random.default_rng(14), 10_000, 8, params.gain_budget
        )
        received = candidates @ h.T
        batch = (
            params.theta**2
            * np.sum(np.abs(received) ** 2, axis=1)
            / (8.0 * params.num_sensors * params.sigma_nu_sq)
        )
        assert batch.max() <= best * (1 + 1e-12)

    def test_small_gram_path_matches_direct_eigenvector(self):
        params = make_params(l=5, n=2)
        h = random_channel(np.random.default_rng(15), 2, 5)
        gv = method2(h, params)
        direct = hermitian_eig(h.conj().T @ h).eigenvectors[:, -1]
        overlap = abs(np.vdot(gv.values, direct))
        assert overlap == pytest.approx(math.sqrt(params.gain_budget), rel=1e-8)

    def test_wide_array_path(self):
        params = make_params(l=3, n=4)
        h = random_channel(np.random.default_rng(16), 4, 3)
        gv = method2(h, params)
        assert gv.power == pytest.approx(params.gain_budget, rel=1e-12)

    def test_spends_budget_exactly(self):
        params = make_params(l=6, n=2)
        h = random_channel(np.random.default_rng(17), 2, 6)
        assert method2(h, params).power == pytest.approx(params.gain_budget, rel=1e-12)


class TestMethod2Direction:
    """method2 is sqrt(P) times _method2_directions of a stack of one,
    bit for bit, so a gamma_s sweep may compute every channel's
    direction once, in one stacked pass."""

    @pytest.mark.parametrize(
        "n,l,zero",
        [(2, 6, False), (3, 3, False), (4, 3, False), (2, 5, True)],
        ids=["N<L", "N=L", "N>L", "all-zero"],
    )
    def test_method2_is_scaled_direction(self, n, l, zero):
        params = make_params(l=l, n=n)
        h = random_channel(np.random.default_rng(40 + n + l), n, l)
        if zero:
            h = np.zeros_like(h)
        expected = math.sqrt(params.gain_budget) * _method2_directions(h[np.newaxis])[0]
        got = method2(h, params).values
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_direction_is_unit_norm(self):
        h = random_channel(np.random.default_rng(47), 3, 9)
        assert np.linalg.norm(_method2_directions(h[np.newaxis])[0]) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "n,l",
        [(1, 6), (3, 8), (5, 40), (3, 3), (5, 3), (50, 200)],
        ids=["N=1", "N<L", "N<<L", "N=L", "N>L", "groups-of-3"],
    )
    def test_stack_matches_the_one_channel_oracle(self, n, l):
        # each channel of a stack gets the bits of the per-channel path,
        # alone or in the stack: an all-zero channel and a zero column
        # too, and at N = 50, L = 200 in groups of 3 channels
        rng = np.random.default_rng(60 + n + l)
        channels = np.stack([random_channel(rng, n, l) for _ in range(5)])
        channels[3] = 0.0
        channels[4, :, 1] = 0.0
        stacked = _method2_directions(channels)
        for h, got in zip(channels, stacked):
            want = method2_direction(h).tobytes()
            assert got.tobytes() == want
            assert _method2_directions(h[np.newaxis])[0].tobytes() == want


def _mean_exponent_gap_per_point(channels, params):
    # the gap as it was computed before the direction was hoisted: a
    # fresh method2 (and eigendecomposition) per channel at every point
    gaps = []
    for h in channels:
        fe1 = finite_exponent(h, method1(h, params)[0], params)
        fe2 = finite_exponent(h, method2(h, params), params)
        gaps.append(fe1 - fe2)
    return float(np.mean(gaps))


class TestHoistedDirectionOracle:
    """The hoisted method2 direction reproduces the per-point evaluation
    exactly (==, not approx) on the paths calibrate_crossover and the
    scheme runners take."""

    @pytest.mark.parametrize(
        "model", [ChannelModel.ricean(1.0), ChannelModel.rayleigh()], ids=["ricean", "rayleigh"]
    )
    @pytest.mark.parametrize("n,l", [(2, 12), (5, 40), (4, 3)])
    @pytest.mark.parametrize("gamma_s", [0.1, 1.0, 7.5, 100.0, math.inf])
    def test_matches_per_point_method2(self, model, n, l, gamma_s):
        sigma = 0.0 if math.isinf(gamma_s) else 1.0 / gamma_s
        params = make_params(l=l, n=n, sigma_eta_sq=sigma, total_power=10.0)
        rng = RandomSource(master_seed=81)
        channels = np.stack(
            [sample_channel(model, n, l, rng.substream("oracle", t)).entries for t in range(6)]
        )
        directions = _method2_directions(channels)
        fe = grid_pass(channels, directions, [params])[0]
        assert _mean_exponent_gap(fe) == _mean_exponent_gap_per_point(channels, params)
        fe1, fe2 = fe[:, 0].tolist(), fe[:, 1].tolist()
        assert fe1 == [finite_exponent(h, method1(h, params)[0], params) for h in channels]
        assert fe2 == [finite_exponent(h, method2(h, params), params) for h in channels]

    def test_rejects_mismatched_directions(self):
        params = make_params(l=6, n=2)
        h = random_channel(np.random.default_rng(48), 2, 6)
        with pytest.raises(ValueError):
            one_point([h, h], _method2_directions(h[np.newaxis]), params)


def per_channel_exponents(channels, params):
    # finite_exponent of method1 and of method2, one channel at a time
    return (
        [finite_exponent(h, method1(h, params)[0], params) for h in channels],
        [finite_exponent(h, method2(h, params), params) for h in channels],
    )


# _method_grid cases: (model, N, L, draws, gamma_s grid)
METHOD_GRIDS = {
    # three channels per group at N L = 10,000: each point in two groups,
    # the second a partial one
    "n50-channel-runs": (ChannelModel.ricean(1.0), 50, 200, 4, (0.3, 1.0, 3.0, 10.0)),
    # 32 items per group at N L = 1,000: eight whole points per group, so
    # the ten points take a full group and a partial one
    "n5-point-blocks": (
        ChannelModel.ricean(1.0), 5, 200, 4, tuple(10.0 ** (db / 10.0) for db in range(-5, 15, 2))
    ),
    "with-inf": (ChannelModel.rayleigh(), 3, 12, 3, (0.5, 2.0, math.inf)),
    "one-point": (ChannelModel.ricean(1.0), 4, 16, 3, (2.0,)),
    "awgn-ties": (ChannelModel.awgn(), 3, 12, 2, (0.5, 2.0, 8.0)),
}


class TestMethodGrid:
    """The grouped grid pass gives every (point, channel) item the bits of
    the grid's one-point case at its point and of finite_exponent of method1 and
    method2 on its channel alone."""

    def test_cases_cover_partial_groups(self):
        _, n, l, draws, _ = METHOD_GRIDS["n50-channel-runs"]
        step = _GROUP_ENTRIES // (n * l)
        assert 1 < step < draws and draws % step
        _, n, l, draws, grid = METHOD_GRIDS["n5-point-blocks"]
        span = _GROUP_ENTRIES // (n * l) // draws
        assert 1 < span < len(grid) and len(grid) % span

    @pytest.mark.parametrize("case", METHOD_GRIDS)
    def test_grid_is_the_per_point_and_per_channel_compositions(self, case):
        model, n, l, draws, grid = METHOD_GRIDS[case]
        params = params_for(1.0, 10.0, l=l, n=n)
        channels = scheme_channels(model, n, l, draws, 11, "grid")
        directions = _method2_directions(np.stack(channels))
        at_x = [params.at_gamma_s(x) for x in grid]
        fe = grid_pass(channels, directions, at_x)
        assert fe.shape == (len(grid), draws, 2)
        for p, point in zip(at_x, fe):
            fe1, fe2 = point[:, 0].tolist(), point[:, 1].tolist()
            assert (fe1, fe2) == one_point(channels, directions, p)
            assert (fe1, fe2) == per_channel_exponents(channels, p)
            if model.is_awgn:
                assert fe1 == fe2

    def test_figure9_sized_grid_is_one_core_call(self, monkeypatch):
        # N = 3, L = 32, three channels, seven points: 21 items, one group
        params = params_for(1.0, 10.0, l=32, n=3)
        channels = scheme_channels(ChannelModel.ricean(1.0), 3, 32, 3, 12, "grid")
        directions = _method2_directions(np.stack(channels))
        calls = []
        original = forms.quadratic_forms
        monkeypatch.setattr(
            forms,
            "quadratic_forms",
            lambda h, a, *args: calls.append(a.shape) or original(h, a, *args),
        )
        grid = [10.0 ** (-0.5 + 0.25 * k) for k in range(7)]
        grid_pass(channels, directions, [params.at_gamma_s(x) for x in grid])
        assert calls == [(7, 3, 2, 32)]


def scheme_channels(model, n, l, draws, seed, label):
    # the channels a scheme runner draws: draw d from substream(label, d)
    rng = RandomSource(master_seed=seed)
    return np.stack(
        [sample_channel(model, n, l, rng.substream(label, d)).entries for d in range(draws)]
    )


# scheme_sweep cases: (model, N, L, draws, grid, the dominant method, or
# None where a crossover is expected); the first three are the
# schemes-crossover, AWGN (every gap exactly 0) and
# schemes-method2-dominant sweeps
SCHEME_SWEEPS = {
    "crossover": (ChannelModel.ricean(1.0), 5, 40, 3, (0.3, 1.0, 3.0, 10.0, 30.0), None),
    "awgn-ties": (ChannelModel.awgn(), 3, 12, 2, (0.5, 2.0, 8.0), "method1"),
    "method2-dominant": (ChannelModel.ricean(1.0), 50, 30, 2, (0.5, 2.0, 8.0), "method2"),
    "one-point": (ChannelModel.ricean(1.0), 50, 30, 2, (2.0,), "method2"),
    "one-point-tie": (ChannelModel.awgn(), 3, 12, 2, (2.0,), "method1"),
}


class TestHybrid:
    """The hybrid is scheme_sweep's switch: method1's exponents below
    the calibrated crossover, method2's at or above it, each equal to
    the public per-channel compositions."""

    def sweep(self, grid):
        params = params_for(1.0, 10.0, l=12, n=2)
        channels = scheme_channels(ChannelModel.ricean(1.0), 2, 12, 4, 0, "hybrid")
        result = scheme_sweep(channels, grid, params)
        at_x = [params.at_gamma_s(x) for x in grid]
        assert list(result.params) == at_x
        points = zip(result.grid, at_x, result.exponents[..., 2].tolist())
        return channels, result.crossover, list(points)

    def test_low_sensing_snr_uses_antenna_selection(self):
        channels, crossover, points = self.sweep([0.05, 0.5, 5.0, 50.0, 500.0])
        below = [p for p in points if p[0] < crossover]
        assert below
        for _, params, feh in below:
            assert feh == [
                finite_exponent(h, method1(h, params)[0], params) for h in channels
            ]

    def test_high_sensing_snr_uses_beamforming(self):
        channels, crossover, points = self.sweep([0.05, 0.5, 5.0, 50.0, 500.0])
        above = [p for p in points if p[0] >= crossover]
        assert above
        for _, params, feh in above:
            assert feh == [finite_exponent(h, method2(h, params), params) for h in channels]

    @pytest.mark.parametrize("case", SCHEME_SWEEPS)
    def test_scheme_sweep_rule(self, case):
        model, n, l, draws, grid, dominant = SCHEME_SWEEPS[case]
        params = params_for(1.0, 10.0, l=l, n=n)
        channels = scheme_channels(model, n, l, draws, 7, "schemes")
        result = scheme_sweep(channels, grid, params)
        crossover = result.crossover
        assert result.dominant == dominant
        assert (crossover is None) == (dominant is not None)
        if crossover is not None:
            assert grid[0] < crossover < grid[-1]
        assert result.grid == grid
        assert result.exponents.shape == (len(grid), draws, 3)
        for x, p, point in zip(grid, result.params, result.exponents):
            fe1, fe2, feh = point.T.tolist()
            assert p == params.at_gamma_s(x)
            method1_fe = [finite_exponent(h, method1(h, p)[0], p) for h in channels]
            method2_fe = [finite_exponent(h, method2(h, p), p) for h in channels]
            assert fe1 == method1_fe
            assert fe2 == method2_fe
            if model.is_awgn:
                assert fe1 == fe2
            if crossover is not None:
                assert feh == (method1_fe if x < crossover else method2_fe)
            else:
                assert feh == (method1_fe if dominant == "method1" else method2_fe)

    @pytest.mark.parametrize(
        "channels,shape",
        [
            ([], (0,)),
            (np.ones((0, 2, 12)), (0, 2, 12)),
            (np.ones((2, 12)), (2, 12)),
            (np.ones((1, 2, 11)), (1, 2, 11)),
        ],
        ids=["empty-list", "no-draws", "bare-matrix", "wrong-size"],
    )
    def test_names_a_bad_channel_stack(self, channels, shape):
        # checked before any arithmetic, with the shape in the message
        params = params_for(1.0, 10.0, l=12, n=2)
        with pytest.raises(ValueError, match=re.escape(f"channel stack shape {shape} is not ")):
            scheme_sweep(channels, [1.0, 2.0], params)

    def test_takes_a_list_of_channel_matrices(self):
        params = params_for(1.0, 10.0, l=12, n=2)
        rng = RandomSource(master_seed=5)
        model = ChannelModel.rayleigh()
        matrices = [sample_channel(model, 2, 12, rng.substream(d)) for d in range(3)]
        want = scheme_sweep(np.stack([h.entries for h in matrices]), [0.5, 2.0], params)
        got = scheme_sweep(matrices, [0.5, 2.0], params)
        assert got.exponents.tobytes() == want.exponents.tobytes()

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([], "needs at least one point"),
            ([0.0], "entries must be > 0"),
            ([-1.0, 2.0], "entries must be > 0"),
            ([math.nan], "entries must be > 0"),
            ([2.0, 1.0], "must be strictly increasing"),
            ([1.0, math.inf], "mixes finite and infinite entries"),
        ],
        ids=["empty", "zero", "negative", "nan", "decreasing", "finite-and-inf"],
    )
    def test_rejects_a_bad_grid_before_any_work(self, grid, message, monkeypatch):
        params = params_for(1.0, 10.0, l=12, n=2)
        channels = scheme_channels(ChannelModel.ricean(1.0), 2, 12, 2, 0, "hybrid")
        calls = []
        for name in ("_method2_directions", "_method_grid"):
            original = getattr(allocation, name)
            monkeypatch.setattr(
                allocation, name, lambda *args, name=name, f=original: calls.append(name) or f(*args)
            )
        with pytest.raises(ValueError, match=f"^gamma_s_grid {message}$"):
            scheme_sweep(channels, grid, params)
        assert calls == []


class TestBisectionTrace:
    """scheme_sweep records each bisection step as (gamma_s, mean gap):
    the gap the crossover was calibrated on, bit for bit."""

    def sweep(self, case):
        model, n, l, draws, grid, _ = SCHEME_SWEEPS[case]
        params = params_for(1.0, 10.0, l=l, n=n)
        channels = scheme_channels(model, n, l, draws, 7, "schemes")
        return channels, params, scheme_sweep(channels, grid, params)

    def test_trace_narrows_the_bracket_to_the_tolerance(self):
        channels, params, result = self.sweep("crossover")
        assert result.bisection
        points = [*result.grid, *(x for x, _ in result.bisection)]
        lo = max(x for x in points if x < result.crossover)
        hi = min(x for x in points if x > result.crossover)
        assert 10.0 * math.log10(hi / lo) < _CROSSOVER_TOL_DB
        assert result.crossover == math.sqrt(lo * hi)
        directions = _method2_directions(channels)
        for gamma_s, gap in result.bisection:
            fe = grid_pass(channels, directions, [params.at_gamma_s(gamma_s)])[0]
            assert gap == _mean_exponent_gap(fe)

    def test_channels_are_scaled_once_per_sweep(self, monkeypatch):
        # the grid pass and every bisection step read the one scaled stack
        calls = []
        original = allocation.scaled_by_power_of_two
        monkeypatch.setattr(
            allocation, "scaled_by_power_of_two", lambda h: calls.append(1) or original(h)
        )
        assert self.sweep("crossover")[2].bisection
        assert len(calls) == 1

    @pytest.mark.parametrize("case", [c for c, v in SCHEME_SWEEPS.items() if v[-1] is not None])
    def test_no_crossover_has_no_trace(self, case):
        assert self.sweep(case)[2].bisection == ()

    def test_result_is_frozen_and_read_only(self):
        result = self.sweep("crossover")[2]
        with pytest.raises(FrozenInstanceError):
            result.crossover = None
        assert not result.exponents.flags.writeable
        with pytest.raises(ValueError):
            result.exponents[0, 0, 2] = 0.0


def sampled_gaps(params, model, grid, trials, seed):
    """calibrate_crossover's inputs on `trials` common channel draws: the
    mean gap at each grid point and the evaluator for bisection points."""
    rng = RandomSource(master_seed=seed)
    n, l = params.num_antennas, params.num_sensors
    channels = np.stack(
        [sample_channel(model, n, l, rng.substream("cal", t)).entries for t in range(trials)]
    )
    directions = _method2_directions(channels)

    def gap_at(gamma_s):
        return _mean_exponent_gap(grid_pass(channels, directions, [params.at_gamma_s(gamma_s)])[0])

    return [gap_at(g) for g in grid], gap_at


class TestCalibrateCrossover:
    def test_zero_sensing_noise_grid_has_no_crossover(self):
        grid = [math.inf, math.inf]
        gaps, gap_at = sampled_gaps(make_params(l=8, n=2), ChannelModel.rayleigh(), grid, 4, 61)
        with pytest.raises(NoCrossoverError) as err:
            calibrate_crossover(grid, gaps, gap_at)
        assert err.value.dominant == "method2"

    def test_finds_deterministic_crossover(self):
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=50, n=5)
        grid = [10 ** (db / 10.0) for db in range(-4, 13, 2)]
        gaps, gap_at = sampled_gaps(params, ChannelModel.ricean(1.0), grid, 8, 71)
        first = calibrate_crossover(grid, gaps, gap_at)
        second = calibrate_crossover(grid, gaps, gap_at)
        assert first == second
        assert grid[0] <= first <= grid[-1]

    def test_rejects_a_nan_gap(self):
        # a NaN gap is neither > 0 nor 0, so it would read as a sign change
        def gap_at(gamma_s):
            raise AssertionError("a rejected gap is never bisected")

        with pytest.raises(ValueError, match="NaN"):
            calibrate_crossover([1.0, 2.0], [1.0, math.nan], gap_at)

    def test_rejects_a_nan_bisection_gap(self):
        # the first bisection point of [1, 10] is sqrt(10); a NaN there
        # would read as a gap of the upper end's sign
        message = f"gap at gamma_s = {math.sqrt(10.0)!r} is NaN"
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate_crossover([1.0, 10.0], [1.0, -1.0], lambda gamma_s: math.nan)

    def test_rejects_bad_grids(self):
        def gap_at(gamma_s):
            raise AssertionError("a rejected grid is never bisected")

        for grid, gaps in (
            ([1.0], [1.0]),
            ([2.0, 1.0], [1.0, -1.0]),
            ([1.0, 1.0], [1.0, -1.0]),
            ([0.0, 1.0], [1.0, -1.0]),
            ([1.0, math.inf], [1.0, -1.0]),
            ([1.0, 2.0], [1.0]),
            ([1.0, 2.0], [1.0, -1.0, -1.0]),
        ):
            with pytest.raises(ValueError):
                calibrate_crossover(grid, gaps, gap_at)


class TestCrossoverRule:
    """calibrate_crossover on scripted mean gaps (method1 - method2):
    ties are skipped, a tie inside a sign-change bracket is the
    crossover, and without a sign change the first nonzero gap names the
    dominant method (method1 when every gap ties)."""

    def calibrate(self, grid, gap):
        calls = []

        def gap_at(gamma_s):
            calls.append(gamma_s)
            return gap(gamma_s)

        crossover = calibrate_crossover(grid, [gap(g) for g in grid], gap_at)
        return crossover, calls

    @pytest.mark.parametrize(
        "grid,gap,dominant",
        [
            pytest.param([1.0, 2.0], lambda g: 0.0, "method1", id="0,0"),
            pytest.param([1.0, 2.0], lambda g: 0.0 if g < 1.5 else -1.0, "method2", id="0,-"),
            pytest.param(
                [1.0, 2.0, 4.0], lambda g: 0.0 if 1.5 < g < 3.0 else 1.0, "method1", id="+,0,+"
            ),
        ],
    )
    def test_no_sign_change(self, grid, gap, dominant):
        with pytest.raises(NoCrossoverError) as err:
            self.calibrate(grid, gap)
        assert err.value.dominant == dominant

    def test_tie_inside_bracket_is_the_crossover(self):
        # [+, 0, -]: the tied grid point is returned without bisecting
        gap = lambda g: 1.0 if g < 1.5 else (0.0 if g < 3.0 else -1.0)
        crossover, calls = self.calibrate([1.0, 2.0, 4.0], gap)
        assert crossover == 2.0
        assert calls == []

    def test_sign_change_is_bisected(self):
        # [+, -]: bisection in log gamma_s to within 0.05 dB of the flip,
        # evaluating only points strictly inside the bracket
        crossover, calls = self.calibrate([1.0, 4.0], lambda g: 1.0 if g < 2.5 else -1.0)
        assert abs(10.0 * math.log10(crossover / 2.5)) <= 0.05
        assert calls and all(1.0 < g < 4.0 for g in calls)


class TestAlphaSdrPhase:
    def test_single_antenna_aligns_with_channel_phases(self):
        params = make_params(l=6, n=1)
        h = random_channel(np.random.default_rng(20), 1, 6)
        gv = alpha_sdr_phase(h, params)
        p = params.gain_budget
        objective = abs(h[0] @ gv.values) ** 2
        assert objective == pytest.approx(
            (p / 6) * float(np.abs(h[0]).sum()) ** 2, rel=1e-5
        )
        overlap = abs(np.vdot(gv.values, alpha_phase_only_n1(h[0], params).values))
        assert overlap == pytest.approx(p, rel=1e-5)

    def test_spends_budget_exactly(self):
        params = make_params(l=6, n=2)
        h = random_channel(np.random.default_rng(21), 2, 6)
        assert alpha_sdr_phase(h, params).power == pytest.approx(
            params.gain_budget, rel=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brackets_phase_optimum(self, seed):
        params = make_params(l=6, n=2)
        h = random_channel(np.random.default_rng(30 + seed), 2, 6)
        cost = h.conj().T @ h
        d = params.gain_budget / 6
        relaxed = solve_sdp(h)
        best, _ = phase_optimum(h, d)
        assert d * (relaxed.objective + relaxed.gap) >= best
        gv = alpha_sdr_phase(h, params)
        rounded = float(np.vdot(gv.values, cost @ gv.values).real)
        # a measured ratio: pi/4 bounds randomized rounding in expectation,
        # not this top-eigenvector rounding
        assert rounded >= (math.pi / 4.0) * best

    def test_propagates_non_convergence(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 1)
        params = make_params(l=6, n=2)
        h = random_channel(np.random.default_rng(22), 2, 6)
        with pytest.raises(SdpNonConvergence):
            alpha_sdr_phase(h, params)


def per_sensor_bound(h, params):
    # theta^2/(8L) sum_l phi(|h_l|^2), phi(x) = P x / (sigma_eta^2 P x +
    # sigma_nu^2), h_l the l-th column.  For any unit combiner w and gains
    # of power P, q(w) = |sum_l a_l g_l|^2 / (sigma_eta^2 sum_l |a_l g_l|^2
    # + sigma_nu^2) with g_l = w^H h_l is at most sum_l phi(|g_l|^2)
    # (Cauchy-Schwarz), which is at most sum_l phi(|h_l|^2); the
    # MVDR identity q = max_w q(w) carries the bound to every gain rule.
    # At N = 1 alpha_opt_n1 attains it.
    p = params.gain_budget
    x = np.sum(h.real**2 + h.imag**2, axis=0)
    phi = p * x / (params.sigma_eta_sq * p * x + params.sigma_nu_sq)
    return params.theta**2 / (8.0 * params.num_sensors) * float(np.sum(phi))


class TestPerSensorBound:
    """Every gain rule's finite exponent against the per-sensor bound, on
    40 channels of each shape at random sensing and channel SNRs."""

    MODELS = (ChannelModel.rayleigh(), ChannelModel.ricean(1.0), ChannelModel.awgn())

    @pytest.mark.parametrize("n, l", [(1, 6), (1, 40), (2, 6), (5, 12), (8, 6)])
    def test_every_rule_within_bound(self, n, l):
        rng = np.random.default_rng(100 * n + l)
        for seed in range(40):
            gamma_s, gamma_c = 10.0 ** rng.uniform(-1.0, 2.0, size=2)
            params = params_for(gamma_s, gamma_c, l=l, n=n)
            model = self.MODELS[seed % len(self.MODELS)]
            h = sample_channel(model, n, l, RandomSource(seed, n * 100 + l).substream()).entries
            bound = per_sensor_bound(h, params)
            rules = {
                "uniform": alpha_uniform(params),
                "method1": method1(h, params)[0],
                "method2": method2(h, params),
                "sdr_phase": alpha_sdr_phase(h, params),
            }
            if n == 1:
                rules["opt_n1"] = alpha_opt_n1(h[0], params)
                rules["phase_only_n1"] = alpha_phase_only_n1(h[0], params)
            for name, gains in rules.items():
                assert finite_exponent(h, gains, params) <= bound * (1 + 1e-12), (name, seed)
            if n == 1:
                opt = finite_exponent(h, rules["opt_n1"], params)
                assert opt == pytest.approx(bound, rel=1e-12, abs=0.0), seed


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
