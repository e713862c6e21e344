"""Tests for gain strategies and the finite-size exponent statistic."""

import math
from dataclasses import replace

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
    finite_exponents,
    method1,
    method2,
    method2_direction,
    method_exponents,
    quadratic_form,
    received_covariance,
)
from macdet import cli, sdr
from macdet.allocation import _mean_exponent_gap
from macdet.exponents import e_awgn, SnrPoint
from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from macdet.numerics import hermitian_eig
from macdet.sdr import SdpNonConvergence, SdpProblem, solve_sdp
from oracles import e_csis1_numeric, phase_optimum, reference_quadratic_form


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
                v, w, q = quadratic_form(h, alpha, params, noise)
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
            v, w, q = quadratic_form(h, alpha, params)
            assert q == pytest.approx(4.0, rel=1e-14)
            assert np.vdot(v, w).real == pytest.approx(4.0, rel=1e-14)
            assert finite_exponent(h, alpha, params) == pytest.approx(4.0 / 32.0, rel=1e-14)

    def test_batch_mixing_both_regimes(self):
        # zero gains leave R = sigma_nu_sq I, which always factors
        params = make_params(l=4, n=2, total_power=1e300)
        h = np.ones((2, 4), dtype=complex)
        gains = np.stack((alpha_uniform(params).values, np.zeros(4), method2(h, params).values))
        batch = finite_exponents(h, gains, params)
        assert batch.tolist() == [finite_exponent(h, a, params) for a in gains]
        assert batch[1] == 0.0
        assert batch[0] == pytest.approx(0.125, rel=1e-14)


class TestBatchedCore:
    """finite_exponents gives each item the bits of finite_exponent on
    that item alone, whatever the batch around it."""

    @pytest.mark.parametrize("n,l", [(1, 7), (3, 5), (5, 40), (4, 3), (2, 33)])
    def test_stack_matches_items(self, n, l):
        params = make_params(l=l, n=n, sigma_eta_sq=0.3, total_power=4.0)
        rng = np.random.default_rng(100 + n + l)
        hs = np.stack([random_channel(rng, n, l) for _ in range(5)])
        gains = random_feasible_gains(rng, 5, l, params.gain_budget)
        stacked = finite_exponents(hs, gains, params)
        assert stacked.tolist() == [finite_exponent(h, a, params) for h, a in zip(hs, gains)]
        # one channel broadcast against many gain vectors, and batches of one
        broadcast = finite_exponents(hs[0], gains, params)
        assert broadcast.tolist() == [finite_exponent(hs[0], a, params) for a in gains]
        assert finite_exponents(hs[:1], gains[:1], params).tolist() == stacked[:1].tolist()

    def test_rejects_mismatched_shapes(self):
        params = make_params(l=4, n=2)
        with pytest.raises(ValueError):
            finite_exponents(np.ones((2, 5)), np.ones((3, 4)), params)
        with pytest.raises(ValueError):
            finite_exponents(np.ones((2, 4)), np.ones((3, 5)), params)


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
    """method2 is sqrt(P) times method2_direction, bit for bit, so a
    gamma_s sweep may compute the direction once per channel."""

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
        expected = math.sqrt(params.gain_budget) * method2_direction(h)
        got = method2(h, params).values
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_direction_is_unit_norm(self):
        h = random_channel(np.random.default_rng(47), 3, 9)
        assert np.linalg.norm(method2_direction(h)) == pytest.approx(1.0, rel=1e-14)


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
        channels = [
            sample_channel(model, n, l, rng.substream("oracle", t)).entries for t in range(6)
        ]
        directions = [method2_direction(h) for h in channels]
        fe1, fe2 = method_exponents(channels, directions, params)
        assert _mean_exponent_gap(fe1, fe2) == _mean_exponent_gap_per_point(channels, params)
        assert fe1 == [finite_exponent(h, method1(h, params)[0], params) for h in channels]
        assert fe2 == [finite_exponent(h, method2(h, params), params) for h in channels]

    def test_rejects_mismatched_directions(self):
        params = make_params(l=6, n=2)
        h = random_channel(np.random.default_rng(48), 2, 6)
        with pytest.raises(ValueError):
            method_exponents([h, h], [method2_direction(h)], params)

    def test_rejects_channels_of_another_size(self):
        h = random_channel(np.random.default_rng(49), 2, 6)
        with pytest.raises(ValueError):
            method_exponents([h], [method2_direction(h)], make_params(l=5, n=2))


class TestHybrid:
    """The hybrid is the scheme sweep's switch: method1's exponents below
    the calibrated crossover, method2's at or above it, each equal to
    the public per-channel compositions."""

    def sweep(self, grid):
        cfg = cli.parse_config(
            {"channel": "ricean", "ricean_k": 1.0, "num_antennas": 2, "num_sensors": 12,
             "gamma_c": 10.0, "sweep": {"variable": "gamma_s", "grid": grid}},
            "schemes",
        )
        return cli._scheme_sweep(cfg, cfg.sweep_grid, "hybrid", 4)

    def test_low_sensing_snr_uses_antenna_selection(self):
        channels, crossover, points = self.sweep([0.05, 0.5, 5.0, 50.0, 500.0])
        below = [p for p in points if p[0] < crossover]
        assert below
        for _, params, _, _, feh in below:
            assert feh == [
                finite_exponent(h, method1(h, params)[0], params) for h in channels
            ]

    def test_high_sensing_snr_uses_beamforming(self):
        channels, crossover, points = self.sweep([0.05, 0.5, 5.0, 50.0, 500.0])
        above = [p for p in points if p[0] >= crossover]
        assert above
        for _, params, _, _, feh in above:
            assert feh == [finite_exponent(h, method2(h, params), params) for h in channels]


def sampled_gaps(params, model, grid, trials, seed):
    """calibrate_crossover's inputs on `trials` common channel draws: the
    mean gap at each grid point and the evaluator for bisection points."""
    rng = RandomSource(master_seed=seed)
    n, l = params.num_antennas, params.num_sensors
    channels = [sample_channel(model, n, l, rng.substream("cal", t)).entries for t in range(trials)]
    directions = [method2_direction(h) for h in channels]

    def gap_at(gamma_s):
        return _mean_exponent_gap(
            *method_exponents(channels, directions, params.at_gamma_s(gamma_s))
        )

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
        relaxed = solve_sdp(SdpProblem(channel=h, diag_value=d))
        best, _ = phase_optimum(h, d)
        assert relaxed.objective + relaxed.gap >= best
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
