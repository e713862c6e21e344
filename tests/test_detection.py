"""Tests for signal synthesis, detection, and error-rate estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from macdet import detection
from macdet.allocation import (
    _forms,
    alpha_opt_n1,
    alpha_phase_only_n1,
    alpha_uniform,
    method1,
    quadratic_form,
    received_covariance,
)
from macdet.detection import (
    ExponentCurve,
    PeEstimate,
    empirical_exponent,
    estimate_pe_montecarlo,
    estimate_pe_montecarlo_batch,
    log_pe_conditional,
    pe_conditional,
)
from macdet.exponents import e_nocsis, SnrPoint
from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from oracles import (
    Hypothesis,
    ReceivedSignal,
    decide,
    q_function,
    received_block,
    reference_pe_montecarlo,
    synthesize,
)


def make_params(l=6, n=2, sigma_eta_sq=1.0, sigma_nu_sq=1.0, p1=0.5, total_power=1.5):
    return NetworkParams(
        num_sensors=l,
        num_antennas=n,
        theta=1.0,
        sigma_eta_sq=sigma_eta_sq,
        sigma_nu_sq=sigma_nu_sq,
        p1=p1,
        total_power=total_power,
    )


def params_for(gamma_s, gamma_c, l=6, n=2, p1=0.5):
    return make_params(
        l=l, n=n, sigma_eta_sq=1.0 / gamma_s, sigma_nu_sq=1.0, p1=p1, total_power=gamma_c
    )


def ar1_covariance(size, rho, variance=1.0):
    idx = np.arange(size)
    return variance * rho ** np.abs(idx[:, None] - idx[None, :]) + 0j


class TestReceivedSignal:
    def test_stores_readonly_vector_and_enum(self):
        sig = ReceivedSignal(y=np.array([1.0 + 1j, 2.0]), truth=1)
        assert sig.truth is Hypothesis.H1
        assert not sig.y.flags.writeable

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            ReceivedSignal(y=np.ones((2, 2)), truth=Hypothesis.H0)


class TestPeEstimate:
    def test_rate_and_halfwidth(self):
        est = PeEstimate(250, 10_000)
        assert est.p_hat == pytest.approx(0.025)
        assert est.ci95_halfwidth == pytest.approx(
            1.96 * math.sqrt(0.025 * 0.975 / 10_000)
        )

    @pytest.mark.parametrize("errors", [250.0, True, np.int64(250)], ids=["float", "bool", "numpy"])
    def test_rejects_non_integer_errors(self, errors):
        with pytest.raises(ValueError, match="integer"):
            PeEstimate(errors, 10_000)

    def test_montecarlo_estimate_carries_its_count(self):
        params = make_params(l=4, n=2)
        h = np.ones((2, 4), dtype=complex)
        est = estimate_pe_montecarlo(h, np.ones(4), params, 1000, RandomSource(3))
        assert est.errors == round(est.p_hat * est.trials)
        assert est.p_hat == est.errors / est.trials

    @pytest.mark.parametrize("errors", [-1, 1500])
    def test_rejects_out_of_range_count(self, errors):
        with pytest.raises(ValueError, match=r"\[0, trials\]"):
            PeEstimate(errors, 1000)

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials"):
            PeEstimate(0, 0)


class TestCovarianceR:
    def test_zero_gains(self):
        params = make_params(l=4, n=3)
        h = np.ones((3, 4), dtype=complex)
        assert np.allclose(
            received_covariance(h, np.zeros(4), params), params.sigma_nu_sq * np.eye(3)
        )

    def test_unit_channel_uniform_structure(self):
        params = make_params(l=20, n=2, sigma_eta_sq=0.5)
        h = np.ones((2, 20), dtype=complex)
        r = received_covariance(h, alpha_uniform(params), params)
        p = params.gain_budget
        assert np.allclose(r, 0.5 * p * np.ones((2, 2)) + np.eye(2), rtol=1e-12)

    def test_diagonal_correlated_matches_iid_bitwise(self):
        params = make_params(l=5, n=2, sigma_eta_sq=0.9)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        alpha = alpha_uniform(params)
        assert np.array_equal(
            received_covariance(h, alpha, params),
            received_covariance(h, alpha, params, SensingNoiseModel(r_eta=0.9 * np.eye(5))),
        )


class TestSynthesize:
    """The per-trial signal model; its sample moments are drawn as one
    block by received_block, which TestMontecarloOracle ties to
    synthesize trial by trial."""

    def test_noiseless_limit_reproduces_signal(self):
        params = make_params(l=4, n=2, sigma_eta_sq=0.0, sigma_nu_sq=1e-18)
        h = np.ones((2, 4), dtype=complex)
        alpha = alpha_uniform(params)
        sig = synthesize(h, alpha, params, Hypothesis.H1, RandomSource(1).substream())
        assert np.allclose(sig.y, params.theta * (h @ alpha.values), atol=1e-7)
        assert sig.truth is Hypothesis.H1

    def test_h0_sample_covariance_matches_formula(self):
        params = params_for(gamma_s=1.0, gamma_c=4.0, l=4, n=2)
        rng = np.random.default_rng(2)
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / math.sqrt(2)
        alpha = alpha_uniform(params)
        n_draws = 100_000
        gen = RandomSource(master_seed=3).substream()
        ys = received_block(h, alpha.values, params, np.zeros(n_draws, dtype=bool), gen)
        sample = ys.T @ ys.conj() / n_draws
        r = received_covariance(h, alpha, params)
        se = np.sqrt(np.outer(np.diag(r).real, np.diag(r).real) / n_draws)
        assert np.all(np.abs(sample - r) <= 3.0 * se)

    def test_h1_sample_mean_matches_signal(self):
        params = params_for(gamma_s=2.0, gamma_c=4.0, l=4, n=2)
        rng = np.random.default_rng(4)
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / math.sqrt(2)
        alpha = alpha_uniform(params)
        n_draws = 100_000
        gen = RandomSource(master_seed=5).substream()
        ys = received_block(h, alpha.values, params, np.ones(n_draws, dtype=bool), gen)
        mean = ys.mean(axis=0)
        expected = params.theta * (h @ alpha.values)
        r = received_covariance(h, alpha, params)
        se = np.sqrt(np.diag(r).real / n_draws)
        assert np.all(np.abs(mean - expected) <= 3.0 * se)


class TestDecide:
    def test_clean_signal_decides_h1(self):
        params = make_params(p1=0.5)
        h = np.ones((2, 6), dtype=complex)
        alpha = alpha_uniform(params)
        assert params.tau == 0.0
        y = params.theta * (h @ alpha.values)
        assert decide(y, h, alpha, params) is Hypothesis.H1

    def test_zero_observation_decides_h0(self):
        params = make_params(p1=0.5)
        h = np.ones((2, 6), dtype=complex)
        alpha = alpha_uniform(params)
        assert decide(np.zeros(2, dtype=complex), h, alpha, params) is Hypothesis.H0

    def test_loop_of_synthesize_and_decide_matches_conditional_rate(self):
        params = params_for(gamma_s=1.0, gamma_c=2.0, l=5, n=2, p1=0.4)
        h = sample_channel(ChannelModel.rayleigh(), 2, 5, RandomSource(6).substream()).entries
        alpha = alpha_uniform(params)
        gen = RandomSource(master_seed=7).substream()
        trials = 4000
        errors = 0
        for _ in range(trials):
            truth = Hypothesis.H1 if gen.random() < params.p1 else Hypothesis.H0
            sig = synthesize(h, alpha, params, truth, gen)
            errors += decide(sig.y, h, alpha, params) != truth
        pe = pe_conditional(h, alpha, params)
        assert abs(errors / trials - pe) <= 4.0 * math.sqrt(pe * (1 - pe) / trials)


class TestPeConditional:
    def test_symmetric_prior_reduces_to_single_q(self):
        params = params_for(gamma_s=1.0, gamma_c=3.0, l=6, n=2, p1=0.5)
        h = sample_channel(ChannelModel.rayleigh(), 2, 6, RandomSource(8).substream()).entries
        alpha = alpha_uniform(params)
        q = quadratic_form(h, alpha.values, params)[2]
        omega = params.theta * math.sqrt(q / 2.0)
        assert pe_conditional(h, alpha, params) == pytest.approx(
            float(q_function(omega)), rel=1e-12
        )

    def test_zero_signal_follows_prior(self):
        h = np.ones((2, 6), dtype=complex)
        even = make_params(p1=0.5)
        assert pe_conditional(h, np.zeros(6), even) == 0.5
        tilted_h1 = make_params(p1=0.7)
        assert pe_conditional(h, np.zeros(6), tilted_h1) == tilted_h1.p0
        tilted_h0 = make_params(p1=0.3)
        assert pe_conditional(h, np.zeros(6), tilted_h0) == tilted_h0.p1

    def test_error_rate_decays_exponentially_in_size(self):
        sizes = np.arange(50, 401, 50)
        log_pes = []
        for l in sizes:
            params = params_for(gamma_s=1.0, gamma_c=1.0, l=int(l), n=2)
            h = np.ones((2, int(l)), dtype=complex)
            log_pes.append(log_pe_conditional(h, alpha_uniform(params), params))
        slope, intercept = np.polyfit(sizes, log_pes, 1)
        fitted = slope * sizes + intercept
        ss_res = np.sum((np.asarray(log_pes) - fitted) ** 2)
        ss_tot = np.sum((np.asarray(log_pes) - np.mean(log_pes)) ** 2)
        assert slope < 0
        assert 1.0 - ss_res / ss_tot > 0.99

    def test_shrinking_gains_raise_error_rate(self):
        rng = RandomSource(master_seed=9)
        for t, p1 in enumerate((0.3, 0.5, 0.7)):
            params = params_for(gamma_s=1.0, gamma_c=2.0, l=6, n=2, p1=p1)
            h = sample_channel(ChannelModel.rayleigh(), 2, 6, rng.substream(t)).entries
            alpha = alpha_uniform(params)
            base = pe_conditional(h, alpha, params)
            for c in (0.8, 0.5, 0.2):
                assert pe_conditional(h, c * alpha.values, params) > base

    def test_log_variant_agrees_in_moderate_regime(self):
        params = params_for(gamma_s=1.0, gamma_c=2.0, l=8, n=2, p1=0.35)
        h = sample_channel(ChannelModel.ricean(1.0), 2, 8, RandomSource(10).substream()).entries
        alpha = alpha_uniform(params)
        assert log_pe_conditional(h, alpha, params) == pytest.approx(
            math.log(pe_conditional(h, alpha, params)), rel=1e-12
        )

    def test_log_variant_reaches_deep_tails(self):
        params = params_for(gamma_s=10.0, gamma_c=10.0, l=5000, n=2)
        h = np.ones((2, 5000), dtype=complex)
        val = log_pe_conditional(h, alpha_uniform(params), params)
        assert math.isfinite(val)
        assert val < -800.0


class TestEstimatePeMontecarlo:
    def test_rejects_small_trial_counts(self):
        params = make_params()
        h = np.ones((2, 6), dtype=complex)
        with pytest.raises(ValueError):
            estimate_pe_montecarlo(h, alpha_uniform(params), params, 999, RandomSource(0))

    def test_requires_splittable_source(self):
        params = make_params()
        h = np.ones((2, 6), dtype=complex)
        with pytest.raises(TypeError):
            estimate_pe_montecarlo(
                h, alpha_uniform(params), params, 1000, np.random.default_rng(0)
            )

    def test_noise_free_regime_is_error_free(self):
        params = make_params(l=4, n=2, sigma_eta_sq=0.0, sigma_nu_sq=1e-12, total_power=1.0)
        h = np.ones((2, 4), dtype=complex)
        est = estimate_pe_montecarlo(h, alpha_uniform(params), params, 2000, RandomSource(11))
        assert est.p_hat == 0.0

    def test_deterministic_given_source(self):
        params = params_for(gamma_s=1.0, gamma_c=2.0, l=5, n=2)
        h = sample_channel(ChannelModel.rayleigh(), 2, 5, RandomSource(12).substream()).entries
        alpha = alpha_uniform(params)
        a = estimate_pe_montecarlo(h, alpha, params, 10_000, RandomSource(13))
        b = estimate_pe_montecarlo(h, alpha, params, 10_000, RandomSource(13))
        assert a.p_hat == b.p_hat

    def test_diagonal_correlated_model_matches_iid_bitwise(self):
        params = make_params(l=5, n=2, sigma_eta_sq=0.7)
        h = sample_channel(ChannelModel.rayleigh(), 2, 5, RandomSource(14).substream()).entries
        alpha = alpha_uniform(params)
        iid = estimate_pe_montecarlo(h, alpha, params, 5000, RandomSource(15))
        corr = estimate_pe_montecarlo(
            h, alpha, params, 5000, RandomSource(15),
            noise=SensingNoiseModel(r_eta=0.7 * np.eye(5)),
        )
        assert iid.p_hat == corr.p_hat

    def test_large_run_lands_inside_confidence_interval(self):
        params = params_for(gamma_s=1.0, gamma_c=2.0, l=6, n=2, p1=0.4)
        h = sample_channel(ChannelModel.ricean(1.0), 2, 6, RandomSource(16).substream()).entries
        alpha = alpha_uniform(params)
        pe = pe_conditional(h, alpha, params)
        est = estimate_pe_montecarlo(h, alpha, params, 1_000_000, RandomSource(19))
        assert abs(est.p_hat - pe) <= est.ci95_halfwidth

    def test_binomial_coverage_over_random_configurations(self):
        # thirty moderate-error configurations, each checked against the
        # analytic conditional error rate.  A correct estimator leaves its
        # 95% interval with probability about 0.05 per draw, so all 30
        # inside would pass only 0.95^30 = 21% of the time; the gate is
        # instead at most 6 misses (P(Bin(30, 0.05) >= 7) = 5.7e-4) and
        # every |z| <= 4 (P = 30 x 6.3e-5 = 1.9e-3 that one lies beyond).
        master = np.random.default_rng(2024)
        models = [ChannelModel.awgn(), ChannelModel.rayleigh(), ChannelModel.ricean(2.0)]
        accepted = 0
        attempt = 0
        misses = []
        far = []
        while accepted < 30:
            attempt += 1
            assert attempt < 300, "configuration sampling failed to terminate"
            l = int(master.integers(4, 13))
            n = int(master.integers(1, 4))
            params = params_for(
                gamma_s=10 ** master.uniform(-1, 1),
                gamma_c=10 ** master.uniform(-0.5, 1.2),
                l=l,
                n=n,
                p1=float(master.uniform(0.25, 0.75)),
            )
            model = models[attempt % 3]
            h = sample_channel(model, n, l, RandomSource(9000 + attempt).substream()).entries
            if n == 1 and attempt % 2:
                alpha = alpha_opt_n1(h[0], params)
            else:
                alpha = alpha_uniform(params)
            pe = pe_conditional(h, alpha, params)
            if not 0.02 <= pe <= 0.45:
                continue
            accepted += 1
            est = estimate_pe_montecarlo(h, alpha, params, 20_000, RandomSource(500 + attempt))
            if abs(est.p_hat - pe) > est.ci95_halfwidth:
                misses.append(attempt)
            z = (est.p_hat - pe) / math.sqrt(pe * (1.0 - pe) / est.trials)
            if abs(z) > 4.0:
                far.append((attempt, round(z, 2)))
        assert len(misses) <= 6, f"coverage misses at attempts {misses}"
        assert not far, f"|z| > 4 at (attempt, z) {far}"

    def test_mean_error_rate_improves_with_antennas(self):
        model = ChannelModel.rayleigh()
        rng = RandomSource(master_seed=18)
        means = []
        for n in (1, 2, 4):
            params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=n)
            alpha = alpha_uniform(params)
            rates = []
            for t in range(20):
                h = sample_channel(model, n, 10, rng.substream("n-sweep", n, t)).entries
                rates.append(
                    estimate_pe_montecarlo(
                        h, alpha, params, 4000, RandomSource(700 + 10 * n + t)
                    ).p_hat
                )
            means.append(np.mean(rates))
        assert means[0] > means[1] > means[2]


def _batch_detectors(l=7, p1=0.3):
    # mixed N in {1, 2, 3, 10}, channel models, SNRs and iid / AR(1)
    # sensing noise, all on one sensor count and prior
    cases = [
        (ChannelModel.awgn(), 2, 1.0, 2.0, None),
        (ChannelModel.rayleigh(), 10, 0.5, 1.0, None),
        (ChannelModel.ricean(1.0), 2, 2.0, 0.5, 0.6),
        (ChannelModel.rayleigh(), 10, 1.0, 0.3, 0.4),
        (ChannelModel.ricean(1.0), 10, 0.3, 3.0, None),
        (ChannelModel.rayleigh(), 1, 1.0, 2.0, None),
        (ChannelModel.ricean(1.0), 3, 0.7, 1.0, 0.5),
    ]
    detectors = []
    for k, (model, n, gamma_s, gamma_c, rho) in enumerate(cases):
        params = params_for(gamma_s=gamma_s, gamma_c=gamma_c, l=l, n=n, p1=p1)
        noise = None
        if rho is not None:
            noise = SensingNoiseModel(r_eta=ar1_covariance(l, rho, params.sigma_eta_sq))
        h = sample_channel(model, n, l, RandomSource(41, k).substream()).entries
        detectors.append((h, alpha_uniform(params), params, noise))
    return detectors


class TestEstimatePeMontecarloBatch:
    """The batch core scores every detector on one set of trial blocks;
    each must get exactly what it gets alone."""

    def test_receiver_noise_is_drawn_once_for_the_largest_n(self, monkeypatch):
        # N = 1..16 at one L: each detector reads the leading 2N receiver
        # rows of noise drawn for 16 antennas, so W has 2L + 2 * 16 + 1
        # columns (not 2 * (1 + ... + 16) receiver columns), and each
        # detector counts what it counts alone
        l = 5
        detectors = []
        for n in range(1, 17):
            params = params_for(gamma_s=1.0, gamma_c=1.0, l=l, n=n, p1=0.3)
            h = sample_channel(ChannelModel.rayleigh(), n, l, RandomSource(48, n).substream())
            detectors.append((h.entries, alpha_uniform(params), params, None))
        shapes, weights = [], detection._weights

        def spied(*args):
            result = weights(*args)
            shapes.append(result[0].shape)
            return result

        monkeypatch.setattr(detection, "_weights", spied)
        scored = estimate_pe_montecarlo_batch(detectors, 1000, RandomSource(49))
        monkeypatch.undo()
        assert shapes == [(16, 2 * l + 33)]
        for (channel, alpha, params, noise), (est, _) in zip(detectors, scored):
            alone = estimate_pe_montecarlo(channel, alpha, params, 1000, RandomSource(49), noise)
            assert est == alone

    @pytest.mark.parametrize("trials", [1000, 10_000])
    def test_each_detector_gets_its_own_estimate_bitwise(self, trials):
        # 10,000 trials are two blocks, 8192 + 1808
        detectors = _batch_detectors()
        scored = estimate_pe_montecarlo_batch(detectors, trials, RandomSource(42, 5))
        assert len(scored) == len(detectors)
        for detector, (est, pe) in zip(detectors, scored):
            channel, alpha, params, noise = detector
            alone = estimate_pe_montecarlo(
                channel, alpha, params, trials, RandomSource(42, 5), noise
            )
            assert est == alone
            assert pe == pe_conditional(channel, alpha, params, noise)
            assert 0 < est.errors < trials

    def test_rejects_detectors_that_differ_in_prior(self):
        detectors = _batch_detectors()
        params = replace(detectors[0][2], p1=0.4)
        h = sample_channel(ChannelModel.awgn(), 2, 7, RandomSource(44).substream()).entries
        detectors.append((h, alpha_uniform(params), params, None))
        with pytest.raises(ValueError, match="share p1"):
            estimate_pe_montecarlo_batch(detectors, 1000, RandomSource(45))

    def test_accepts_detectors_that_differ_in_sensors(self):
        # a smaller L reads the leading rows of the L = 7 sensing noise;
        # the L = 7 detectors keep what they get alone
        detectors = _batch_detectors()
        small = replace(detectors[0][2], num_sensors=3)
        h = sample_channel(ChannelModel.awgn(), 2, 3, RandomSource(44).substream()).entries
        detectors.append((h, alpha_uniform(small), small, None))
        scored = estimate_pe_montecarlo_batch(detectors, 1000, RandomSource(45))
        assert len(scored) == len(detectors)
        for (channel, alpha, params, noise), (est, _) in zip(detectors[:-1], scored):
            alone = estimate_pe_montecarlo(channel, alpha, params, 1000, RandomSource(45), noise)
            assert est == alone
        est, pe = scored[-1]
        assert pe == pe_conditional(h, alpha_uniform(small), small)
        assert 0 < est.errors < 1000

    def test_rejects_small_trial_counts_and_plain_generators(self):
        detectors = _batch_detectors()
        with pytest.raises(ValueError):
            estimate_pe_montecarlo_batch(detectors, 999, RandomSource(0))
        with pytest.raises(TypeError):
            estimate_pe_montecarlo_batch(detectors, 1000, np.random.default_rng(0))

    def test_rejects_an_empty_batch(self):
        with pytest.raises(ValueError):
            estimate_pe_montecarlo_batch([], 1000, RandomSource(0))

    def test_groups_that_differ_in_theta_and_receiver_noise(self, monkeypatch):
        # groups of detectors with equal params and sensing noise, the
        # groups differing in theta and sigma_nu_sq, iid and AR(1): every
        # pe comes from one _log_pe over the batch and must be the one
        # pe_conditional gives, and every count the one it gets alone
        l = 6
        models = (ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh())
        detectors = []
        for g, (theta, sigma_nu_sq, n, rho) in enumerate(
            [(0.5, 1.0, 2, None), (2.0, 1.0, 2, None), (1.0, 0.25, 3, None),
             (1.0, 4.0, 1, 0.5), (1.5, 0.5, 2, 0.5)]
        ):
            params = replace(make_params(l=l, n=n, sigma_nu_sq=sigma_nu_sq, p1=0.3), theta=theta)
            noise = None if rho is None else SensingNoiseModel(r_eta=ar1_covariance(l, rho))
            for k, model in enumerate(models[: 2 + g % 2]):
                h = sample_channel(model, n, l, RandomSource(46, g).substream(k)).entries
                detectors.append((h, alpha_uniform(params), params, noise))
        forms = []

        def counted(*args, **kwargs):
            forms.append(args)
            return _forms(*args, **kwargs)

        monkeypatch.setattr(detection, "_forms", counted)
        scored = estimate_pe_montecarlo_batch(detectors, 10_000, RandomSource(47))
        monkeypatch.undo()
        assert len(forms) == 5
        for (channel, alpha, params, noise), (est, pe) in zip(detectors, scored):
            assert pe == pe_conditional(channel, alpha, params, noise)
            alone = estimate_pe_montecarlo(channel, alpha, params, 10_000, RandomSource(47), noise)
            assert est == alone
        assert all(0 < est.errors < 10_000 for est, _ in scored)


def _oracle_case(noise_kind, channel, n, l, p1):
    # complex gains and a complex Hermitian covariance (a phase-modulated
    # AR(1)), so that a dropped conjugate or transpose changes the count
    sigma_eta_sq = {"iid": 1.0, "correlated": 1.0, "noise-free": 0.0}[noise_kind]
    params = make_params(l=l, n=n, sigma_eta_sq=sigma_eta_sq, p1=p1, total_power=2.0)
    ramp = np.exp(0.7j * np.arange(l) + 0.3j)
    noise = None
    if noise_kind == "correlated":
        noise = SensingNoiseModel(r_eta=ar1_covariance(l, 0.5) * np.outer(ramp, ramp.conj()))
    model = ChannelModel.awgn() if channel == "awgn" else ChannelModel.rayleigh()
    h = sample_channel(model, n, l, RandomSource(31, n * 100 + l).substream()).entries
    alpha = alpha_uniform(params).values * ramp
    if sigma_eta_sq == 0.0:
        # receiver noise alone: q = |H alpha|^2 / sigma_nu_sq, set to 2
        params = replace(params, sigma_nu_sq=float(np.sum(np.abs(h @ alpha) ** 2)) / 2.0)
    return h, alpha, params, noise


def _mixed_l_detectors():
    # mixed L, N, channel models and iid / AR(1) sensing noise on one prior
    cases = [
        (ChannelModel.awgn(), 1, 2, None),
        (ChannelModel.rayleigh(), 4, 10, 0.6),
        (ChannelModel.ricean(1.0), 7, 3, None),
        (ChannelModel.rayleigh(), 9, 1, None),
        (ChannelModel.ricean(1.0), 12, 2, 0.4),
        (ChannelModel.awgn(), 12, 10, None),
    ]
    detectors = []
    for k, (model, l, n, rho) in enumerate(cases):
        params = params_for(gamma_s=1.0, gamma_c=2.0 / l, l=l, n=n, p1=0.3)
        noise = None
        if rho is not None:
            noise = SensingNoiseModel(r_eta=ar1_covariance(l, rho, params.sigma_eta_sq))
        h = sample_channel(model, n, l, RandomSource(34, k).substream()).entries
        detectors.append((h, alpha_uniform(params), params, noise))
    return detectors


class TestMontecarloOracle:
    """estimate_pe_montecarlo never forms y; the y-forming loop in
    tests/oracles.py must count exactly the same errors from the same
    draws, across block boundaries (8192 trials per block)."""

    @pytest.mark.parametrize("trials", [1000, 10_000, 20_000])
    @pytest.mark.parametrize("p1", [0.5, 0.2])
    @pytest.mark.parametrize("n, l", [(2, 6), (1, 5), (3, 1)])
    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("noise_kind", ["iid", "correlated", "noise-free"])
    def test_same_errors_as_y_forming_loop(self, noise_kind, channel, n, l, p1, trials):
        h, alpha, params, noise = _oracle_case(noise_kind, channel, n, l, p1)
        source = RandomSource(32, trials)
        fast = estimate_pe_montecarlo(h, alpha, params, trials, source, noise)
        reference = reference_pe_montecarlo(h, alpha, params, trials, source, noise)
        assert fast == reference
        assert 0 < fast.errors < trials

    @pytest.mark.parametrize("noise_kind", ["iid", "correlated"])
    def test_reference_agrees_with_per_trial_model(self, noise_kind):
        # one trial per block: each block generator yields one uniform,
        # then the sensing and receiver noise exactly as synthesize draws them
        h, alpha, params, noise = _oracle_case(noise_kind, "rayleigh", 2, 5, 0.4)
        source = RandomSource(33)
        trials = 300
        errors = 0
        for t in range(trials):
            gen = source.montecarlo_block(t)
            truth = Hypothesis.H1 if gen.random() < params.p1 else Hypothesis.H0
            sig = synthesize(h, alpha, params, truth, gen, noise)
            errors += decide(sig.y, h, alpha, params, noise) != truth
        reference = reference_pe_montecarlo(h, alpha, params, trials, source, noise, block_size=1)
        assert reference.errors == errors
        assert errors > 0


@pytest.mark.parametrize("trials", [1000, 10_000, 20_000])
def test_mixed_l_batch_matches_y_forming_loop(trials):
    # each detector of a batch over L = 1..12 reads the leading L rows of
    # sensing noise drawn for 12 sensors, as the oracle's loop does
    detectors = _mixed_l_detectors()
    source = RandomSource(35, trials)
    scored = estimate_pe_montecarlo_batch(detectors, trials, source)
    for (h, alpha, params, noise), (est, _) in zip(detectors, scored):
        reference = reference_pe_montecarlo(
            h, alpha, params, trials, source, noise, block_sensors=12
        )
        assert est == reference
        assert 0 < est.errors < trials


def test_figure2_shaped_batch_matches_y_forming_loop():
    # figure2's shape: 3 channel models x N in {2, 10} x L = 1..15, 90
    # detectors on one prior, the three models of each (L, N) sharing
    # their params and so one set-up batch.  10,000 trials are two blocks,
    # 8192 + 1808, each scored in chunks of fewer trials than a block
    models = (ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh())
    detectors = []
    for l in range(1, 16):
        for n in (2, 10):
            params = params_for(gamma_s=1.0, gamma_c=1.0, l=l, n=n, p1=0.3)
            for k, model in enumerate(models):
                h = sample_channel(model, n, l, RandomSource(36).substream(l, n, k)).entries
                detectors.append((h, alpha_uniform(params), params, None))
    trials = 10_000
    source = RandomSource(37)
    scored = estimate_pe_montecarlo_batch(detectors, trials, source)
    assert len(scored) == 90
    for (h, alpha, params, noise), (est, pe) in zip(detectors, scored):
        reference = reference_pe_montecarlo(
            h, alpha, params, trials, source, noise, block_sensors=15
        )
        assert est == reference
        assert pe == pe_conditional(h, alpha, params, noise)
        assert 0 < est.errors < trials


class TestEmpiricalExponent:
    def test_grid_validation(self):
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=2)
        model = ChannelModel.awgn()
        rng = RandomSource(19)
        with pytest.raises(ValueError):
            empirical_exponent(params, model, [100, 200, 300], rng)
        with pytest.raises(ValueError):
            empirical_exponent(params, model, [50, 100, 150, 199], rng)
        with pytest.raises(ValueError):
            empirical_exponent(params, model, [50, 100, 300, 200], rng)
        with pytest.raises(ValueError):
            empirical_exponent(params, model, [50, 100, 200, 300], rng, draws=0)
        with pytest.raises(ValueError):
            empirical_exponent(
                params,
                model,
                [50, 100, 200, 300],
                rng,
                noise=SensingNoiseModel(r_eta=ar1_covariance(100, 0.4)),
            )

    def test_unit_channel_curve_is_flat_beyond_two_hundred(self):
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=5)
        curve = empirical_exponent(
            params, ChannelModel.awgn(), [50, 100, 200, 300, 400], RandomSource(20)
        )
        at_200 = curve.values[2]
        assert curve.plateau == pytest.approx(at_200, rel=0.05)
        assert curve.plateau == pytest.approx(float(np.mean(curve.values[-2:])), rel=1e-15)

    def test_unit_channel_insensitive_to_draw_count(self):
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=3)
        grid = [50, 100, 200, 300]
        one = empirical_exponent(params, ChannelModel.awgn(), grid, RandomSource(21), draws=1)
        three = empirical_exponent(params, ChannelModel.awgn(), grid, RandomSource(21), draws=3)
        assert np.allclose(one.values, three.values, rtol=1e-12)

    def test_rayleigh_exponent_vanishes_relative_to_ricean(self):
        grid = [200, 500, 1000, 2000]
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=2)
        ray = empirical_exponent(
            params, ChannelModel.rayleigh(), grid, RandomSource(22), draws=25
        )
        rice = empirical_exponent(
            params, ChannelModel.ricean(1.0), grid, RandomSource(22), draws=25
        )
        assert ray.values[-1] <= 0.2 * rice.values[-1]
        assert ray.values[0] > ray.values[-1]

    def test_ricean_plateau_tracks_closed_form_up_to_constant(self):
        # the measured slope settles at twice the printed limit; the
        # factor is reported by the acceptance suite, ratios are
        # insensitive to it
        grid = [200, 500, 1000, 2000]
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=2)
        curve = empirical_exponent(
            params, ChannelModel.ricean(1.0), grid, RandomSource(23), draws=25
        )
        limit = e_nocsis(SnrPoint.from_params(params, k_factor=1.0).with_antennas(2))
        assert 1.8 <= curve.plateau / limit <= 2.2

    @pytest.mark.parametrize("correlated", [False, True], ids=["iid", "ar1"])
    def test_matches_the_per_size_loop(self, correlated):
        # the reference: log_pe_conditional on each draw's leading columns
        # with that size's uniform gains (and leading block of R_eta)
        grid = [200, 210, 220, 240]
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=3)
        noise = SensingNoiseModel(r_eta=ar1_covariance(260, 0.4)) if correlated else None
        curve = empirical_exponent(
            params, ChannelModel.ricean(1.0), grid, RandomSource(25), noise=noise, draws=2
        )
        log_pe = np.empty((2, len(grid)))
        for d in range(2):
            h = sample_channel(
                ChannelModel.ricean(1.0), 3, 240, RandomSource(25).substream("exponent", d)
            ).entries
            for i, l in enumerate(grid):
                params_l = replace(params, num_sensors=l)
                noise_l = SensingNoiseModel(r_eta=noise.r_eta[:l, :l]) if correlated else None
                log_pe[d, i] = log_pe_conditional(
                    h[:, :l], alpha_uniform(params_l), params_l, noise_l
                )
        expected = -(np.logaddexp(log_pe[0], log_pe[1]) - math.log(2)) / np.asarray(grid)
        assert np.allclose(curve.values, expected, rtol=1e-12, atol=0.0)

    def test_correlated_noise_is_accepted_and_changes_curve(self):
        grid = [200, 210, 220, 240]
        params = params_for(gamma_s=1.0, gamma_c=10.0, l=10, n=2)
        noise = SensingNoiseModel(r_eta=ar1_covariance(240, 0.4))
        corr = empirical_exponent(
            params, ChannelModel.ricean(1.0), grid, RandomSource(24), noise=noise
        )
        iid = empirical_exponent(
            params, ChannelModel.ricean(1.0), grid, RandomSource(24)
        )
        assert np.all(np.isfinite(corr.values))
        assert not np.allclose(corr.values, iid.values)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
