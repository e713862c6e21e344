import math

import numpy as np
import pytest

from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    mean_abs_h,
    sample_channel,
    sample_sensing_noise,
)


def make_params(**overrides):
    base = dict(
        num_sensors=10,
        num_antennas=2,
        theta=1.0,
        sigma_eta_sq=1.0,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=1.0,
    )
    base.update(overrides)
    return NetworkParams(**base)


class TestNetworkParams:
    def test_derive_power_default(self):
        assert make_params().gain_budget == pytest.approx(1.0 / 1.5, rel=1e-15)

    def test_derive_power_noise_free(self):
        p = make_params(sigma_eta_sq=0.0, total_power=2.0)
        assert p.gain_budget == pytest.approx(4.0, rel=1e-15)

    def test_derive_power_hand_value(self):
        # p1 theta^2 + sigma_eta^2 = 0.25*4 + 1 = 2, P_T = 2 -> P = 1
        p = make_params(theta=2.0, p1=0.25, total_power=2.0)
        assert p.gain_budget == pytest.approx(1.0, rel=1e-15)

    def test_snr_properties(self):
        p = make_params(theta=2.0, sigma_eta_sq=0.5, total_power=3.0, sigma_nu_sq=1.5)
        assert p.gamma_s == pytest.approx(8.0)
        assert p.gamma_c == pytest.approx(2.0)
        assert make_params(sigma_eta_sq=0.0).gamma_s == math.inf

    def test_tau_sign(self):
        assert make_params(p1=0.5).tau == 0.0
        assert make_params(p1=0.3).tau > 0.0
        assert make_params(p1=0.7).tau < 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(num_sensors=0),
            dict(num_antennas=0),
            dict(theta=0.0),
            dict(sigma_eta_sq=-1.0),
            dict(sigma_nu_sq=0.0),
            dict(p1=0.0),
            dict(p1=1.0),
            dict(total_power=0.0),
            # non-finite powers, p1 theta^2 out of range, and a gain budget
            # that overflows or underflows
            dict(theta=math.inf),
            dict(theta=math.nan),
            dict(sigma_eta_sq=math.inf),
            dict(sigma_nu_sq=math.nan),
            dict(total_power=math.inf),
            dict(theta=1e-300),
            dict(theta=1e200),
            dict(total_power=1e308, sigma_eta_sq=1e-10, theta=1e-3),
            dict(total_power=1e-300, theta=1e20),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            make_params(**bad)


class TestChannelModel:
    def test_rayleigh_is_ricean_zero(self):
        assert ChannelModel.rayleigh() == ChannelModel.ricean(0.0)
        assert ChannelModel.rayleigh().is_rayleigh

    def test_component_split(self):
        m = ChannelModel.ricean(3.0)
        assert m.los_amplitude == pytest.approx(math.sqrt(0.75))
        assert m.diffuse_variance == pytest.approx(0.25)
        assert m.los_amplitude**2 + m.diffuse_variance == pytest.approx(1.0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            ChannelModel.ricean(-0.5)


class TestMeanAbsH:
    def test_awgn(self):
        assert mean_abs_h(ChannelModel.awgn()) == 1.0

    def test_rayleigh_closed_form(self):
        assert mean_abs_h(ChannelModel.rayleigh()) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=1e-12
        )

    def test_between_rayleigh_and_one(self):
        val = mean_abs_h(ChannelModel.ricean(1.0))
        assert math.sqrt(math.pi) / 2.0 < val < 1.0

    def test_monotone_in_k(self):
        vals = [mean_abs_h(ChannelModel.ricean(k)) for k in [0.0, 0.5, 1.0, 4.0, 20.0]]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_k_approaches_one(self):
        assert mean_abs_h(ChannelModel.ricean(1e8)) == pytest.approx(1.0, abs=1e-4)

    def test_against_monte_carlo_oracle(self):
        # oracle: sample-mean of |h| over 10^7 draws
        model = ChannelModel.ricean(1.0)
        gen = np.random.default_rng(20240814)
        n = 10_000_000
        h = model.los_amplitude + math.sqrt(model.diffuse_variance / 2.0) * (
            gen.standard_normal(n) + 1j * gen.standard_normal(n)
        )
        mc = float(np.abs(h).mean())
        se = float(np.abs(h).std() / math.sqrt(n))
        assert abs(mean_abs_h(model) - mc) <= 4.0 * se


class TestSampleChannel:
    def test_awgn_all_ones(self):
        h = sample_channel(ChannelModel.awgn(), 2, 3, RandomSource(0))
        assert np.array_equal(h.entries, np.ones((2, 3), dtype=complex))

    def test_large_k_near_one(self):
        h = sample_channel(ChannelModel.ricean(1e12), 4, 50, RandomSource(1))
        assert np.max(np.abs(h.entries - 1.0)) < 1e-5

    def test_unit_second_moment(self):
        rng = RandomSource(2)
        for i, model in enumerate(
            [ChannelModel.rayleigh(), ChannelModel.ricean(1.0), ChannelModel.ricean(5.0)]
        ):
            h = sample_channel(model, 1, 1_000_000, rng.stream(i))
            m2 = float(np.mean(np.abs(h.entries) ** 2))
            assert m2 == pytest.approx(1.0, rel=0.01)

    def test_ricean_mean_matches_los(self):
        model = ChannelModel.ricean(2.0)
        h = sample_channel(model, 1, 1_000_000, RandomSource(3))
        mean = complex(np.mean(h.entries))
        se = math.sqrt(model.diffuse_variance / 2.0 / h.entries.size)
        assert abs(mean.real - model.los_amplitude) <= 4.0 * se
        assert abs(mean.imag) <= 4.0 * se

    def test_reproducible_and_streams_differ(self):
        model = ChannelModel.rayleigh()
        a = sample_channel(model, 2, 8, RandomSource(9, 4))
        b = sample_channel(model, 2, 8, RandomSource(9, 4))
        c = sample_channel(model, 2, 8, RandomSource(9, 5))
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_entries_read_only(self):
        h = sample_channel(ChannelModel.rayleigh(), 2, 2, RandomSource(0))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 0.0


class TestSensingNoise:
    def test_zero_variance_gives_zero_vector(self):
        eta = sample_sensing_noise(SensingNoiseModel.iid(0.0), 5, RandomSource(0))
        assert np.array_equal(eta, np.zeros(5, dtype=complex))

    def test_iid_sample_covariance(self):
        sigma2 = 0.7
        gen = RandomSource(5).generator()
        n, L = 100_000, 4
        draws = np.empty((n, L), dtype=complex)
        model = SensingNoiseModel.iid(sigma2)
        for i in range(n):
            draws[i] = sample_sensing_noise(model, L, gen)
        cov = draws.conj().T @ draws / n
        assert np.allclose(np.diag(cov).real, sigma2, rtol=0.02)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.02 * sigma2

    def test_correlated_sample_covariance(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        model = SensingNoiseModel.correlated(r)
        gen = RandomSource(6).generator()
        n = 200_000
        draws = np.empty((n, 2), dtype=complex)
        for i in range(n):
            draws[i] = sample_sensing_noise(model, 2, gen)
        cov = draws.conj().T @ draws / n
        for i in range(2):
            for j in range(2):
                se = math.sqrt(abs(r[i, i] * r[j, j]) / n)
                assert abs(cov[i, j] - r[i, j]) <= 3.0 * se

    def test_iid_equals_diagonal_correlated_bitwise(self):
        sigma2 = 0.3
        L = 6
        iid = SensingNoiseModel.iid(sigma2)
        corr = SensingNoiseModel.correlated(sigma2 * np.eye(L))
        a = sample_sensing_noise(iid, L, RandomSource(7, 1))
        b = sample_sensing_noise(corr, L, RandomSource(7, 1))
        assert np.array_equal(a, b)

    def test_lambda_min(self):
        assert SensingNoiseModel.iid(0.4).lambda_min == 0.4
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert SensingNoiseModel.correlated(r).lambda_min == pytest.approx(0.5)
        d = SensingNoiseModel.correlated(np.diag([0.25, 1.0]))
        assert d.lambda_min == 0.25

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SensingNoiseModel.correlated(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SensingNoiseModel.correlated(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_mismatch(self):
        model = SensingNoiseModel.correlated(np.eye(3))
        with pytest.raises(ValueError):
            sample_sensing_noise(model, 4, RandomSource(0))


class TestRandomSource:
    def test_same_fields_same_draws(self):
        a = RandomSource(42, 3).generator().standard_normal(8)
        b = RandomSource(42, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_substreams_independent_of_order(self):
        src = RandomSource(42)
        first = src.substream(0).standard_normal(4)
        _ = src.substream(1).standard_normal(4)
        again = src.substream(0).standard_normal(4)
        assert np.array_equal(first, again)

    def test_string_labels_are_stable_and_distinct(self):
        src = RandomSource(42)
        a = src.substream("calibrate", 3).standard_normal(4)
        b = src.substream("calibrate", 3).standard_normal(4)
        c = src.substream("exponent", 3).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
