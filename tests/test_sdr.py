"""Tests for the diagonally-constrained SDP solver and phase rounding."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macdet import sdr
from macdet.model import ChannelModel, RandomSource, sample_channel
from macdet.sdr import (
    SdpNonConvergence,
    SdpProblem,
    SdpSolution,
    extract_phases,
    solve_sdp,
)
from oracles import brute_force_phase, solve_sdp_eigen_stop

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
    def test_relaxation_upper_bounds_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        h = random_channel(6, rng)
        cost = gram(h)
        d = 1.0
        solution = solve_sdp(SdpProblem(channel=h, diag_value=d))
        assert solution.converged
        assert_feasible(solution.x, d)
        best, _ = brute_force_phase(cost, d, levels=16)
        assert best <= solution.objective * (1.0 + 1e-6)
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

    def test_certified_gap_bounds_brute_force(self):
        # objective + gap is an upper bound on the SDP optimum, hence on
        # every feasible phase vector, the grid optimum included
        for seed in range(3):
            h = random_channel(6, np.random.default_rng(5 + seed))
            solution = solve_sdp(SdpProblem(channel=h, diag_value=1.0))
            assert solution.converged
            assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective
            best, _ = brute_force_phase(gram(h), 1.0, levels=16)
            assert best <= solution.objective + solution.gap

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


def sphere_search_phase_value(h: np.ndarray) -> float:
    """Lower bound on max_{|alpha_l| = 1} ||H alpha||^2 for a 3 x L channel.

    Swapping the two maxima gives
    max_alpha ||H alpha||^2 = max_{||u|| = 1} (sum_l |h_l^H u|)^2 over the
    unit sphere of C^3, whose dimension does not depend on L (Karystinos
    and Liavas, IEEE Trans. IT 56(7), 2010).  Any u gives the feasible
    alpha_l = phase(u^H h_l)^*, so the value found is a lower bound.  A
    grid over u (first coordinate real, the global phase removed) picks
    the best few starts; alternating u <- H alpha / ||H alpha||,
    alpha <- phase(H^H u) then climbs from each.
    """
    a, b = np.meshgrid(np.linspace(0.0, np.pi / 2, 9), np.linspace(0.0, np.pi / 2, 9))
    p1, p2 = np.meshgrid(np.linspace(0.0, 2 * np.pi, 12, endpoint=False),
                         np.linspace(0.0, 2 * np.pi, 12, endpoint=False))
    a, b = a.ravel()[:, None], b.ravel()[:, None]
    p1, p2 = p1.ravel()[None, :], p2.ravel()[None, :]
    u = np.stack(
        [np.broadcast_to(np.cos(a), (a.size, p1.size)),
         np.sin(a) * np.cos(b) * np.exp(1j * p1),
         np.sin(a) * np.sin(b) * np.exp(1j * p2)],
        axis=-1,
    ).reshape(-1, 3)
    scores = np.abs(u.conj() @ h).sum(axis=1)
    best = 0.0
    for k in np.argsort(scores)[-8:]:
        alpha = np.exp(1j * np.angle(h.conj().T @ u[k]))
        for _ in range(300):
            g = h.conj().T @ (h @ alpha)
            alpha = np.exp(1j * np.angle(g))
        best = max(best, float(np.linalg.norm(h @ alpha) ** 2))
    return best


class TestTightnessOracle:
    def test_relaxation_is_tight_at_figure9_size(self):
        # figure9's setting (Ricean K = 1, N = 3, L = 32), out of reach
        # of brute_force_phase: the sphere search's feasible value meets
        # the certified upper bound objective + gap, so the relaxation
        # is tight and the rounded phases are optimal
        source = RandomSource(0)
        for draw in range(10):
            h = sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", draw))
            cost = h.entries.conj().T @ h.entries
            solution = solve_sdp(SdpProblem(channel=h.entries, diag_value=1.0))
            assert solution.converged
            upper = solution.objective + solution.gap
            lower = sphere_search_phase_value(h.entries)
            assert lower <= upper * (1.0 + 1e-12)
            assert lower >= upper * (1.0 - 1e-6), draw
            phases = extract_phases(solution)
            rounded = float(np.vdot(phases, cost @ phases).real)
            assert rounded >= upper * (1.0 - 1e-6), draw


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

    def test_demo06_bound_column_bounds_grid_optimum(self):
        # demo 06's bound column, objective + gap, lies above the
        # 16-level grid optimum on each of its eight draws
        d = 2.0 / 3.0
        for i, h in enumerate(channel_draws(66, "h", ChannelModel.rayleigh(), 2, 6, 8)):
            solution = solve_sdp(SdpProblem(channel=h, diag_value=d))
            grid, _ = brute_force_phase(gram(h), d, levels=16)
            assert grid <= solution.objective + solution.gap, i


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


class TestBruteForcePhase:
    def test_all_ones_cost_hand_value(self):
        best, alpha = brute_force_phase(np.ones((2, 2)), 1.0, levels=4)
        assert best == pytest.approx(4.0, rel=1e-12)
        assert np.allclose(alpha, np.ones(2))

    def test_diag_value_scales_magnitudes(self):
        best, alpha = brute_force_phase(np.ones((2, 2)), 2.0, levels=4)
        assert best == pytest.approx(8.0, rel=1e-12)
        assert np.allclose(np.abs(alpha), math.sqrt(2.0))

    def test_first_phase_fixed_to_zero(self):
        rng = np.random.default_rng(13)
        _, alpha = brute_force_phase(gram(random_channel(4, rng)), 3.0, levels=8)
        assert alpha[0] == pytest.approx(math.sqrt(3.0))
        assert alpha[0].imag == 0.0

    def test_chunked_enumeration_matches_aligned_optimum(self):
        # 3^11 grid points forces several chunks; the all-equal phase
        # assignment lies on the grid so the optimum is exact
        size = 12
        best, alpha = brute_force_phase(np.ones((size, size)), 1.0, levels=3)
        assert best == pytest.approx(float(size**2), rel=1e-12)
        assert np.allclose(alpha, np.ones(size))

    def test_rejects_oversized_grids(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_phase(np.eye(8), 1.0, levels=16)

    def test_rejects_too_few_levels(self):
        with pytest.raises(ValueError):
            brute_force_phase(np.eye(2), 1.0, levels=1)

    def test_single_sensor(self):
        best, alpha = brute_force_phase(np.array([[2.0]]), 1.5, levels=4)
        assert best == pytest.approx(3.0, rel=1e-12)
        assert alpha[0] == pytest.approx(math.sqrt(1.5))

    @given(
        a=st.floats(0.1, 5.0),
        b=st.floats(0.1, 5.0),
        re=st.floats(-2.0, 2.0),
        im=st.floats(-2.0, 2.0),
    )
    def test_two_sensor_grid_brackets_analytic_optimum(self, a, b, re, im):
        # alpha^H C alpha = a + b + 2 Re(conj(c) a0* a1) peaks at a + b + 2|c|;
        # a 64-point grid gets within the cosine resolution of that peak
        c = re + 1j * im
        cost = np.array([[a, c], [np.conj(c), b]])
        best, _ = brute_force_phase(cost, 1.0, levels=64)
        peak = a + b + 2.0 * abs(c)
        slack = 2.0 * abs(c) * (1.0 - math.cos(math.pi / 64))
        assert best <= peak + 1e-9 * (1.0 + peak)
        assert best >= peak - slack - 1e-9


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
