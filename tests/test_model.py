import math
import zlib

import numpy as np
import pytest

from macdet.model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    complex_normal,
    mean_abs_h,
    sample_channel,
)
from oracles import sample_sensing_noise


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
            # counts are integers: not a float, a bool or a NumPy float
            dict(num_sensors=2.5),
            dict(num_sensors=10.0),
            dict(num_antennas=True),
            dict(num_antennas=np.float64(2.0)),
            dict(theta=0.0),
            dict(sigma_eta_sq=-1.0),
            dict(sigma_nu_sq=0.0),
            dict(p1=0.0),
            dict(p1=1.0),
            dict(total_power=0.0),
            # non-finite powers, p1 theta^2 out of range, a gain budget that
            # overflows or underflows, and a channel SNR that overflows
            dict(theta=math.inf),
            dict(theta=math.nan),
            dict(sigma_eta_sq=math.inf),
            dict(sigma_nu_sq=math.nan),
            dict(total_power=math.inf),
            dict(theta=1e-300),
            dict(theta=1e200),
            dict(total_power=1e308, sigma_eta_sq=1e-10, theta=1e-3),
            dict(total_power=1e-300, theta=1e20),
            dict(total_power=1e10, sigma_nu_sq=1e-300),
        ],
    )
    def test_validation(self, bad):
        # the message names the first field of the case
        with pytest.raises(ValueError, match=next(iter(bad))):
            make_params(**bad)

    def test_accepts_numpy_integer_counts(self):
        p = make_params(num_sensors=np.int64(10), num_antennas=np.int32(2))
        assert (p.num_sensors, p.num_antennas) == (10, 2)

    @pytest.mark.parametrize("gamma_s", [0.0, -1.0, math.nan])
    def test_at_gamma_s_rejects_a_non_positive_snr(self, gamma_s):
        with pytest.raises(ValueError, match="gamma_s"):
            make_params().at_gamma_s(gamma_s)

    def test_at_infinite_gamma_s_is_noise_free(self):
        assert make_params().at_gamma_s(math.inf).sigma_eta_sq == 0.0


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
        # and an infinite K, whose sample_channel entries would all be NaN
        for k in (-0.5, math.inf):
            with pytest.raises(ValueError):
                ChannelModel.ricean(k)


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
        h = sample_channel(ChannelModel.awgn(), 2, 3, RandomSource(0).substream())
        assert np.array_equal(h.entries, np.ones((2, 3), dtype=complex))

    def test_large_k_near_one(self):
        h = sample_channel(ChannelModel.ricean(1e12), 4, 50, RandomSource(1).substream())
        assert np.max(np.abs(h.entries - 1.0)) < 1e-5

    def test_unit_second_moment(self):
        for i, model in enumerate(
            [ChannelModel.rayleigh(), ChannelModel.ricean(1.0), ChannelModel.ricean(5.0)]
        ):
            h = sample_channel(model, 1, 1_000_000, RandomSource(2, i).substream())
            m2 = float(np.mean(np.abs(h.entries) ** 2))
            assert m2 == pytest.approx(1.0, rel=0.01)

    def test_ricean_mean_matches_los(self):
        model = ChannelModel.ricean(2.0)
        h = sample_channel(model, 1, 1_000_000, RandomSource(3).substream())
        mean = complex(np.mean(h.entries))
        se = math.sqrt(model.diffuse_variance / 2.0 / h.entries.size)
        assert abs(mean.real - model.los_amplitude) <= 4.0 * se
        assert abs(mean.imag) <= 4.0 * se

    def test_reproducible_and_streams_differ(self):
        model = ChannelModel.rayleigh()
        a = sample_channel(model, 2, 8, RandomSource(9, 4).substream())
        b = sample_channel(model, 2, 8, RandomSource(9, 4).substream())
        c = sample_channel(model, 2, 8, RandomSource(9, 5).substream())
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    @pytest.mark.parametrize("model", [ChannelModel.awgn(), ChannelModel.rayleigh()])
    def test_rejects_anything_but_a_generator(self, model):
        # an AWGN channel draws nothing, so only the type check catches it
        with pytest.raises(TypeError, match="numpy Generator"):
            sample_channel(model, 2, 3, RandomSource(0))

    def test_only_awgn_needs_no_generator(self):
        h = sample_channel(ChannelModel.awgn(), 2, 3, None)
        assert np.array_equal(h.entries, np.ones((2, 3), dtype=complex))
        with pytest.raises(TypeError, match="numpy Generator"):
            sample_channel(ChannelModel.rayleigh(), 2, 3, None)

    def test_entries_read_only(self):
        h = sample_channel(ChannelModel.rayleigh(), 2, 2, RandomSource(0).substream())
        with pytest.raises(ValueError):
            h.entries[0, 0] = 0.0

    @pytest.mark.parametrize(
        "dims,name",
        [
            ((2.5, 3), "num_antennas"),
            ((2.0, 3), "num_antennas"),
            ((0, 3), "num_antennas"),
            ((2, True), "num_sensors"),
            ((2, np.float64(3.0)), "num_sensors"),
        ],
    )
    def test_dimensions_must_be_integers(self, dims, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, not "):
            sample_channel(ChannelModel.awgn(), *dims, None)

    def test_reads_as_its_entries(self):
        # np.asarray gives the read-only entries themselves, a stack of
        # them stacks the entries, and dtype and copy are honoured
        h = sample_channel(ChannelModel.rayleigh(), 2, 3, RandomSource(0).substream())
        assert np.asarray(h) is h.entries
        assert np.asarray(h, dtype=np.complex128) is h.entries
        assert np.array_equal(np.asarray([h, h]), np.stack([h.entries, h.entries]))
        copy = np.array(h)
        assert copy is not h.entries and copy.flags.writeable
        assert np.array_equal(copy, h.entries)
        assert np.asarray(h, dtype=np.complex64).dtype == np.complex64
        with pytest.raises(ValueError):
            np.array(h, dtype=np.complex64, copy=False)


class TestSensingNoise:
    # iid sensing noise of any power, zero included, is noise=None with
    # the network's sigma_eta_sq; a model is a positive-definite covariance
    def test_zero_covariance_is_rejected(self):
        with pytest.raises(ValueError):
            SensingNoiseModel(np.zeros((5, 5)))

    # Both covariance checks color one (L, n) block of standard CN(0, 1)
    # draws with the Cholesky factor, as the Monte Carlo colors its trial
    # blocks.
    def test_diagonal_sample_covariance(self):
        sigma2 = 0.7
        gen = RandomSource(5).substream()
        n, L = 100_000, 4
        model = SensingNoiseModel(sigma2 * np.eye(L))
        draws = model.scale_factor(L) @ complex_normal(gen, (L, n))
        cov = draws @ draws.conj().T / n
        assert np.allclose(np.diag(cov).real, sigma2, rtol=0.02)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.02 * sigma2

    def test_correlated_sample_covariance(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        model = SensingNoiseModel(r)
        gen = RandomSource(6).substream()
        n = 200_000
        draws = model.scale_factor(2) @ complex_normal(gen, (2, n))
        cov = draws @ draws.conj().T / n
        for i in range(2):
            for j in range(2):
                se = math.sqrt(abs(r[i, i] * r[j, j]) / n)
                assert abs(cov[i, j] - r[i, j]) <= 3.0 * se

    def test_diagonal_model_equals_scaled_iid_draws_bitwise(self):
        # iid noise is sqrt(sigma_eta_sq) times the same standard draws
        sigma2 = 0.3
        L = 6
        iid = math.sqrt(sigma2) * complex_normal(RandomSource(7, 1).substream(), L)
        model = SensingNoiseModel(sigma2 * np.eye(L))
        corr = sample_sensing_noise(model, L, RandomSource(7, 1).substream())
        assert np.array_equal(iid, corr)

    def test_lambda_min(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert SensingNoiseModel(r).lambda_min == pytest.approx(0.5)
        d = SensingNoiseModel(np.diag([0.25, 1.0]))
        assert d.lambda_min == 0.25

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SensingNoiseModel(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SensingNoiseModel(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # numpy's Cholesky factors a NaN matrix without raising
        r = np.eye(2)
        r[0, 0] = bad
        with pytest.raises(ValueError):
            SensingNoiseModel(r)

    def test_dimension_mismatch(self):
        model = SensingNoiseModel(np.eye(3))
        with pytest.raises(ValueError):
            sample_sensing_noise(model, 4, RandomSource(0).substream())


class TestRandomSource:
    def test_same_fields_same_draws(self):
        a = RandomSource(42, 3).substream().standard_normal(8)
        b = RandomSource(42, 3).substream().standard_normal(8)
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

    def test_montecarlo_blocks_are_sfc64_on_the_substream_key(self):
        # the Monte Carlo blocks draw SFC64 from the SeedSequence that
        # substream("montecarlo", block) feeds to Philox
        src = RandomSource(42, 5)
        gen = src.montecarlo_block(3)
        assert isinstance(gen.bit_generator, np.random.SFC64)
        assert isinstance(src.substream("montecarlo", 3).bit_generator, np.random.Philox)
        seq = np.random.SeedSequence(entropy=42, spawn_key=(5, zlib.crc32(b"montecarlo"), 3))
        expected = np.random.Generator(np.random.SFC64(seq)).standard_normal(4)
        assert np.array_equal(gen.standard_normal(4), expected)
        assert not np.array_equal(src.montecarlo_block(4).standard_normal(4), expected)

    def test_seed_sequence_is_the_key_of_every_generator(self):
        src = RandomSource(42, 5)
        seq = src.seed_sequence("mc-channel", 2, 1)
        assert seq.entropy == 42
        assert seq.spawn_key == (5, zlib.crc32(b"mc-channel"), 2, 1)
        expected = np.random.Generator(np.random.Philox(seq)).standard_normal(4)
        assert np.array_equal(src.substream("mc-channel", 2, 1).standard_normal(4), expected)

    @pytest.mark.parametrize(
        "args,field",
        [
            ((-1,), "master_seed"),
            ((True,), "master_seed"),
            ((1.5,), "master_seed"),
            ((np.float64(2.0),), "master_seed"),
            ((1, -1), "stream_id"),
            ((1, False), "stream_id"),
            ((1, 2.0), "stream_id"),
        ],
    )
    def test_rejects_what_is_not_a_non_negative_integer(self, args, field):
        # at construction, naming the field, not at the first draw
        with pytest.raises(ValueError, match=field):
            RandomSource(*args)

    def test_accepts_numpy_integers(self):
        a = RandomSource(np.int64(42), np.uint8(3)).substream().standard_normal(4)
        assert np.array_equal(a, RandomSource(42, 3).substream().standard_normal(4))
