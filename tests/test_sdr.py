"""Tests for the diagonally-constrained SDP solver and phase rounding."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from macdet import sdr
from macdet.model import ChannelModel, RandomSource, sample_channel
from macdet.sdr import (
    SdpNonConvergence,
    SdpProblem,
    SdpSolution,
    extract_phases,
    solve_sdp,
)
from oracles import phase_optimum, solve_sdp_eigen_stop

# Oracle: for a rank-one cost h h^H (the channel h^H, one antenna) the
# SDP optimum is known in closed form.  |X_ij| <= sqrt(X_ii X_jj) = d for
# any feasible X gives h^H X h <= d (sum |h_i|)^2, and X = d a a^H with
# a_i = h_i/|h_i| attains it, so the relaxation is tight.


def rank_one_optimum(h: np.ndarray, d: float) -> float:
    return d * float(np.abs(h).sum()) ** 2


def rank_one_channel(h: np.ndarray) -> np.ndarray:
    # the 1 x L channel whose Gram matrix is h h^H
    return h.conj()[None, :]


def random_channel(size: int, rng: np.random.Generator) -> np.ndarray:
    """A random complex channel (size x size) with Gaussian entries,
    returned as A^H so that its Gram matrix is the cost A A^H."""
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return a.conj().T


def gram(h: np.ndarray) -> np.ndarray:
    return h.conj().T @ h


def assert_feasible(x: np.ndarray, d: float) -> None:
    assert np.max(np.abs(x - x.conj().T)) <= 1e-10 * d * x.shape[0]
    assert np.max(np.abs(x.diagonal().real - d)) <= 1e-8 * d
    assert np.min(np.linalg.eigvalsh((x + x.conj().T) / 2.0)) >= -1e-8 * d


class TestSdpProblem:
    def test_freezes_a_copy_of_the_channel(self):
        h = np.array([[1.0, 2.0j, 3.0], [0.5, -1.0, 1j]])
        problem = SdpProblem(channel=h, diag_value=1.0)
        assert problem.channel.dtype == np.complex128
        assert np.array_equal(problem.channel, h)
        assert not problem.channel.flags.writeable
        h[0, 0] = 7.0
        assert problem.channel[0, 0] == 1.0
        assert problem.size == 3

    @pytest.mark.parametrize("shape", [(4, 2), (1, 5), (1, 1)])
    def test_size_is_the_number_of_sensors(self, shape):
        assert SdpProblem(channel=np.ones(shape), diag_value=1.0).size == shape[1]

    @pytest.mark.parametrize(
        "channel",
        [np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)],
        ids=["vector", "3-d", "scalar"],
    )
    def test_rejects_non_2d(self, channel):
        with pytest.raises(ValueError, match="N x L"):
            SdpProblem(channel=channel, diag_value=1.0)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            SdpProblem(channel=np.ones(shape), diag_value=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_channel(self, bad):
        h = np.ones((2, 3), dtype=np.complex128)
        h[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            SdpProblem(channel=h, diag_value=1.0)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_diag(self, d):
        with pytest.raises(ValueError, match="diag_value"):
            SdpProblem(channel=np.eye(2), diag_value=d)


class TestSolveSdp:
    def test_identity_cost_objective_is_trace(self):
        # every feasible point has tr(X) = L d, so the objective is flat
        solution = solve_sdp(SdpProblem(channel=np.eye(5), diag_value=2.0))
        assert solution.converged
        assert solution.objective == pytest.approx(5 * 2.0, rel=1e-9)
        assert_feasible(solution.x, 2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_one_cost_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        solution = solve_sdp(SdpProblem(channel=rank_one_channel(h), diag_value=1.5))
        assert solution.converged
        assert solution.objective == pytest.approx(rank_one_optimum(h, 1.5), rel=1e-5)
        assert_feasible(solution.x, 1.5)

    def test_rank_one_solution_matrix_and_phases(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = h / np.abs(h)
        d = 2.0
        solution = solve_sdp(SdpProblem(channel=rank_one_channel(h), diag_value=d))
        assert np.allclose(solution.x, d * np.outer(a, a.conj()), atol=1e-5 * d)
        phases = extract_phases(solution)
        assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
        assert abs(np.vdot(phases, a)) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_relaxation_upper_bounds_phase_optimum(self, seed):
        rng = np.random.default_rng(100 + seed)
        h = random_channel(6, rng)
        cost = gram(h)
        d = 1.0
        solution = solve_sdp(SdpProblem(channel=h, diag_value=d))
        assert solution.converged
        assert_feasible(solution.x, d)
        best, _ = phase_optimum(h, d)
        assert best <= solution.objective + solution.gap
        phases = extract_phases(solution)
        alpha = math.sqrt(d) * phases
        rounded = float(np.vdot(alpha, cost @ alpha).real)
        assert rounded <= solution.objective * (1.0 + 1e-6)
        assert rounded >= 0.6 * solution.objective

    def test_objective_scales_linearly_in_diag_value(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        obj1 = solve_sdp(SdpProblem(channel=rank_one_channel(h), diag_value=1.0)).objective
        obj3 = solve_sdp(SdpProblem(channel=rank_one_channel(h), diag_value=3.5)).objective
        assert obj3 == pytest.approx(3.5 * obj1, rel=1e-5)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        h = random_channel(5, rng)
        first = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
        second = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
        assert np.array_equal(first.x, second.x)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_certified_gap_bounds_phase_optimum(self):
        # objective + gap is an upper bound on the SDP optimum, hence on
        # every feasible phase vector, the oracle's included
        for seed in range(3):
            h = random_channel(6, np.random.default_rng(5 + seed))
            solution = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
            assert solution.converged
            assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective
            best, _ = phase_optimum(h, 1.0)
            assert best <= solution.objective + solution.gap

    # Any NumPy overflow or invalid-value warning fails these two tests,
    # as everywhere in the suite (filterwarnings = error).
    @pytest.mark.parametrize("k", [250, -250])
    def test_power_of_two_scale_is_exact(self, k):
        h = sample_channel(ChannelModel.rayleigh(), 3, 12, RandomSource(0).substream("sdr", 0)).entries
        base = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
        scaled = solve_sdp(SdpProblem(channel=h * 2.0**k, diag_value=1.0))
        assert np.array_equal(scaled.x, base.x)
        assert scaled.iterations == base.iterations and scaled.converged
        assert scaled.objective == base.objective * 4.0**k
        assert scaled.gap == base.gap * 4.0**k

    @pytest.mark.parametrize("k", [80, -80, 150, -150])
    def test_certifies_at_any_channel_scale(self, k):
        # unscaled, entries near 1e80 overflow ||C||_F and the ascent
        # products, and near 1e-80 the objective falls under the floor
        # max(|objective|, d), which any gap passes at step 0
        h = sample_channel(ChannelModel.rayleigh(), 3, 12, RandomSource(0).substream("sdr", 0)).entries
        base = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
        solution = solve_sdp(SdpProblem(channel=h * 10.0**k, diag_value=1.0))
        assert solution.converged
        assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective
        assert solution.objective == pytest.approx(base.objective * 10.0 ** (2 * k), rel=1e-9)

    def test_iteration_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 2)
        rng = np.random.default_rng(9)
        solution = solve_sdp(SdpProblem(channel=random_channel(6, rng), diag_value=1.0))
        assert not solution.converged
        assert solution.iterations == 2
        assert solution.gap > sdr._GAP_TOL * solution.objective
        assert_feasible(solution.x, 1.0)

    def test_non_convergence_error_carries_solution(self):
        solution = SdpSolution(
            x=np.eye(2),
            objective=2.0,
            iterations=7,
            converged=False,
            gap=1e-3,
        )
        err = SdpNonConvergence(solution)
        assert err.solution is solution
        assert "7 iterations" in str(err)
        assert "1.000e-03" in str(err)


def figure9_channels() -> list[np.ndarray]:
    # figure9's three SDP channels: Ricean K = 1, N = 3, L = 32, seed 0
    source = RandomSource(0)
    return [
        sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", draw)).entries
        for draw in range(3)
    ]


def screen_cases() -> list:
    h64 = sample_channel(ChannelModel.rayleigh(), 3, 64, RandomSource(0).substream("sdr", 1)).entries
    # a zero column of H is a zero row of C: (C V)_l = 0, so that row of V
    # never moves and the update must leave it as it is
    zero_row = random_channel(5, np.random.default_rng(5))
    zero_row[:, 2] = 0.0
    tall = sample_channel(ChannelModel.rayleigh(), 8, 5, RandomSource(0).substream("sdr", 2)).entries
    single = sample_channel(ChannelModel.rayleigh(), 1, 12, RandomSource(0).substream("sdr", 3)).entries
    return [
        *(pytest.param(h, id=f"figure9-{draw}") for draw, h in enumerate(figure9_channels())),
        pytest.param(h64, id="rayleigh-L64"),
        pytest.param(np.eye(5), id="identity"),
        pytest.param(zero_row, id="zero-row"),
        pytest.param(tall, id="rayleigh-N8-L5"),
        pytest.param(single, id="rayleigh-N1-L12"),
    ]


def assert_same_solution(got: SdpSolution, want: SdpSolution) -> None:
    assert np.array_equal(got.x, want.x)
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.gap == want.gap


class TestCholeskyScreen:
    """solve_sdp certifies only the steps that pass a shifted N x N
    Cholesky; the oracle takes the exact certificate at every step.  Both
    must stop at the same step with the same bits."""

    @pytest.mark.parametrize("channel", screen_cases())
    def test_matches_eigen_stop_oracle(self, channel):
        problem = SdpProblem(channel=channel, diag_value=1.0)
        assert_same_solution(solve_sdp(problem), solve_sdp_eigen_stop(problem))

    def test_matches_oracle_at_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 3)
        problem = SdpProblem(channel=random_channel(6, np.random.default_rng(9)), diag_value=1.0)
        solution = solve_sdp(problem)
        assert not solution.converged
        assert solution.iterations == 3
        assert_same_solution(solution, solve_sdp_eigen_stop(problem))

    def test_at_most_two_eigen_solves_on_figure9(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(sdr.np.linalg, "eigvalsh", counted)
        for draw, h in enumerate(figure9_channels()):
            calls.clear()
            solution = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
            assert solution.converged, draw
            assert solution.iterations >= 10, draw
            assert 1 <= len(calls) <= 2, (draw, len(calls))

    def test_certifies_where_the_allowance_exceeds_1e_12(self, monkeypatch):
        # Above L = 1125 the rounding allowance 2 L eps is more than half
        # of 1e-12, and above L = 2251 more than all of it; the stop
        # tolerance is then 4 L eps.  Lowering _GAP_TOL below 4 L eps
        # puts figure9's L = 32 in that regime: every solve must still
        # certify, match the oracle, and run an eigen-solve on few of
        # its steps (a screen that ignored the allowance would pass on
        # every step near the optimum without being able to stop).
        monkeypatch.setattr(sdr, "_GAP_TOL", 1e-15)
        monkeypatch.setattr(sdr, "_MAX_ITER", 200)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(sdr.np.linalg, "eigvalsh", counted)
        for draw, h in enumerate(figure9_channels()):
            problem = SdpProblem(channel=h, diag_value=1.0)
            calls.clear()
            solution = solve_sdp(problem)
            eigen_solves = len(calls)
            assert solution.converged, draw
            assert solution.gap <= 4 * 32 * sdr._EPS * solution.objective, draw
            assert 1 <= eigen_solves <= 3, (draw, eigen_solves)
            assert_same_solution(solution, solve_sdp_eigen_stop(problem))


class TestTightnessOracle:
    def test_relaxation_is_tight_at_figure9_size(self):
        # figure9's setting (Ricean K = 1, N = 3, L = 32): the oracle's
        # feasible value meets the certified upper bound objective + gap,
        # so the relaxation is tight and the rounded phases are optimal
        source = RandomSource(0)
        for draw in range(10):
            h = sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", draw))
            cost = h.entries.conj().T @ h.entries
            solution = solve_sdp(SdpProblem(channel=h.entries, diag_value=1.0))
            assert solution.converged
            upper = solution.objective + solution.gap
            lower, _ = phase_optimum(h.entries, 1.0)
            assert lower <= upper
            assert lower >= upper * (1.0 - 1e-12), draw
            phases = extract_phases(solution)
            rounded = float(np.vdot(phases, cost @ phases).real)
            assert rounded >= upper * (1.0 - 1e-12), draw


def channel_draws(seed: int, key: str, model: ChannelModel, n: int, size: int, draws: int):
    source = RandomSource(seed)
    return [
        sample_channel(model, n, size, source.substream(key, i)).entries for i in range(draws)
    ]


class TestCertificateCoversRounding:
    @pytest.mark.parametrize(
        "seed, key, model, n, size, d, draws",
        [
            pytest.param(66, "h", ChannelModel.rayleigh(), 2, 6, 2.0 / 3.0, 8, id="demo06"),
            pytest.param(66, "h", ChannelModel.rayleigh(), 2, 6, 1.0, 200, id="rayleigh-N2-L6"),
            pytest.param(0, "sdr", ChannelModel.ricean(1.0), 3, 32, 1.0, 38, id="ricean-N3-L32"),
        ],
    )
    def test_rounded_value_within_objective_plus_gap(self, seed, key, model, n, size, d, draws):
        # objective + gap must bound every feasible phase vector as
        # computed, with no slack.  The inputs are demo 06's eight draws
        # at its d = 2/3, then 200 draws of the same stream and figure9's
        # stream at d = 1; without the gap's rounding allowance the
        # computed value of the rounded vector lies above the bound on
        # about a third of them.
        for i, h in enumerate(channel_draws(seed, key, model, n, size, draws)):
            solution = solve_sdp(SdpProblem(channel=h, diag_value=d))
            assert solution.converged, i
            alpha = math.sqrt(d) * extract_phases(solution)
            rounded = float(np.vdot(alpha, gram(h) @ alpha).real)
            assert rounded <= solution.objective + solution.gap, i

    def test_demo06_bound_column_bounds_phase_optimum(self):
        # demo 06's bound column, objective + gap, lies above the
        # oracle's phase optimum on each of its eight draws
        d = 2.0 / 3.0
        for i, h in enumerate(channel_draws(66, "h", ChannelModel.rayleigh(), 2, 6, 8)):
            solution = solve_sdp(SdpProblem(channel=h, diag_value=d))
            best, _ = phase_optimum(h, d)
            assert best <= solution.objective + solution.gap, i


class TestExtractPhases:
    def test_zero_component_defaults_to_unit(self):
        u = np.array([1.0, 0.0, 1.0j])
        x = np.outer(u, u.conj())
        solution = SdpSolution(
            x=x,
            objective=0.0,
            iterations=1,
            converged=True,
            gap=0.0,
        )
        phases = extract_phases(solution)
        assert np.allclose(np.abs(phases), 1.0)
        assert phases[1] == 1.0


class TestPhaseOptimum:
    @pytest.mark.parametrize("seed, size, d", [(0, 1, 1.0), (1, 6, 2.0), (2, 32, 0.25), (3, 200, 3.5)])
    def test_rank_one_is_exact(self, seed, size, d):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        value, _ = phase_optimum(rank_one_channel(h), d)
        assert value == pytest.approx(rank_one_optimum(h, d), rel=1e-12)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(2), st.just(2)),
            elements=st.floats(-10.0, 10.0),
        )
    )
    def test_two_sensors_closed_form(self, parts):
        # ||a_1 h_1 + a_2 h_2||^2 = |h_1|^2 + |h_2|^2 + 2 Re(conj(a_1) a_2 h_1^H h_2)
        # at |a_l| = 1 peaks at |h_1|^2 + |h_2|^2 + 2 |h_1^H h_2|
        h = parts[..., 0] + 1j * parts[..., 1]
        h1, h2 = h[:, 0], h[:, 1]
        peak = float(np.vdot(h1, h1).real + np.vdot(h2, h2).real + 2.0 * abs(np.vdot(h1, h2)))
        value, _ = phase_optimum(h, 1.0)
        assert abs(value - peak) <= 1e-12 * peak + 1e-300

    def test_linear_in_diag_value(self):
        h = random_channel(6, np.random.default_rng(13))
        one, _ = phase_optimum(h, 1.0)
        for d in [1e-3, 2.0 / 3.0, 7.5]:
            value, _ = phase_optimum(h, d)
            assert value == pytest.approx(d * one, rel=1e-14)

    @pytest.mark.parametrize("d", [1.0, 2.0 / 3.0, 3.5])
    def test_returns_feasible_alpha_of_that_value(self, d):
        h = sample_channel(ChannelModel.rayleigh(), 3, 32, RandomSource(4).substream("sdr", 0)).entries
        value, alpha = phase_optimum(h, d)
        assert np.abs(alpha) ** 2 == pytest.approx(np.full(32, d), rel=1e-14)
        assert value == pytest.approx(float(np.linalg.norm(h @ alpha)) ** 2, rel=1e-13)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
