"""Tests for the diagonally-constrained SDP solver and phase rounding."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macdet import sdr
from macdet.model import ChannelModel, NetworkParams, RandomSource, sample_channel
from macdet.sdr import (
    SdpNonConvergence,
    SdpProblem,
    SdpSolution,
    extract_phases,
    solve_sdp,
)
from oracles import brute_force_phase, solve_sdp_eigen_stop

# Oracle: for a rank-one cost h h^H the SDP optimum is known in closed
# form.  |X_ij| <= sqrt(X_ii X_jj) = d for any feasible X gives
# h^H X h <= d (sum |h_i|)^2, and X = d a a^H with a_i = h_i/|h_i|
# attains it, so the relaxation is tight.


def rank_one_optimum(h: np.ndarray, d: float) -> float:
    return d * float(np.abs(h).sum()) ** 2


def random_psd_cost(size: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return a @ a.conj().T


def assert_feasible(x: np.ndarray, d: float) -> None:
    assert np.max(np.abs(x - x.conj().T)) <= 1e-10 * d * x.shape[0]
    assert np.max(np.abs(x.diagonal().real - d)) <= 1e-8 * d
    assert np.min(np.linalg.eigvalsh((x + x.conj().T) / 2.0)) >= -1e-8 * d


class TestSdpProblem:
    def test_hermitizes_and_freezes_cost(self):
        c = np.array([[1.0, 1.0 + 1e-12j], [1.0 - 1e-12j, 2.0]])
        problem = SdpProblem(cost=c, diag_value=1.0)
        assert np.array_equal(problem.cost, problem.cost.conj().T)
        assert not problem.cost.flags.writeable
        assert problem.size == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SdpProblem(cost=np.ones((2, 3)), diag_value=1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SdpProblem(cost=np.array([[1.0, 2.0], [0.0, 1.0]]), diag_value=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_cost(self, bad):
        # NaN fails no comparison, and inf - inf is NaN with a warning
        with pytest.raises(ValueError, match="finite"):
            SdpProblem(cost=np.full((2, 2), bad), diag_value=1.0)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_rejects_bad_diag(self, d):
        with pytest.raises(ValueError):
            SdpProblem(cost=np.eye(2), diag_value=d)


class TestSolveSdp:
    def test_identity_cost_objective_is_trace(self):
        # every feasible point has tr(X) = L d, so the objective is flat
        solution = solve_sdp(SdpProblem(cost=np.eye(5), diag_value=2.0))
        assert solution.converged
        assert solution.objective == pytest.approx(5 * 2.0, rel=1e-9)
        assert_feasible(solution.x, 2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_one_cost_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        cost = np.outer(h, h.conj())
        solution = solve_sdp(SdpProblem(cost=cost, diag_value=1.5))
        assert solution.converged
        assert solution.objective == pytest.approx(rank_one_optimum(h, 1.5), rel=1e-5)
        assert_feasible(solution.x, 1.5)

    def test_rank_one_solution_matrix_and_phases(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = h / np.abs(h)
        d = 2.0
        solution = solve_sdp(SdpProblem(cost=np.outer(h, h.conj()), diag_value=d))
        assert np.allclose(solution.x, d * np.outer(a, a.conj()), atol=1e-5 * d)
        phases = extract_phases(solution)
        assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
        assert abs(np.vdot(phases, a)) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_relaxation_upper_bounds_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        cost = random_psd_cost(6, rng)
        d = 1.0
        solution = solve_sdp(SdpProblem(cost=cost, diag_value=d))
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
        cost = np.outer(h, h.conj())
        obj1 = solve_sdp(SdpProblem(cost=cost, diag_value=1.0)).objective
        obj3 = solve_sdp(SdpProblem(cost=cost, diag_value=3.5)).objective
        assert obj3 == pytest.approx(3.5 * obj1, rel=1e-5)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        cost = random_psd_cost(5, rng)
        first = solve_sdp(SdpProblem(cost=cost, diag_value=1.0))
        second = solve_sdp(SdpProblem(cost=cost, diag_value=1.0))
        assert np.array_equal(first.x, second.x)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_certified_gap_bounds_brute_force(self):
        # objective + gap is an upper bound on the SDP optimum, hence on
        # every feasible phase vector, the grid optimum included
        for seed in range(3):
            cost = random_psd_cost(6, np.random.default_rng(5 + seed))
            solution = solve_sdp(SdpProblem(cost=cost, diag_value=1.0))
            assert solution.converged
            assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective
            best, _ = brute_force_phase(cost, 1.0, levels=16)
            assert best <= solution.objective + solution.gap

    def test_iteration_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 2)
        rng = np.random.default_rng(9)
        cost = random_psd_cost(6, rng)
        solution = solve_sdp(SdpProblem(cost=cost, diag_value=1.0))
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


def figure9_costs() -> list[np.ndarray]:
    # figure9's three SDP costs: Ricean K = 1, N = 3, L = 32, seed 0
    source = RandomSource(0)
    costs = []
    for draw in range(3):
        h = sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", draw)).entries
        costs.append(h.conj().T @ h)
    return costs


def screen_cases() -> list:
    rng = np.random.default_rng(12)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h64 = sample_channel(ChannelModel.rayleigh(), 3, 64, RandomSource(0).substream("sdr", 1)).entries
    # this draw's computed lambda_min is >= 0, so the ascent shift is 0 and
    # the zero row never moves: the update must leave it as it is
    zero_row = random_psd_cost(5, np.random.default_rng(5))
    zero_row[2, :] = 0.0
    zero_row[:, 2] = 0.0
    return [
        *(pytest.param(cost, id=f"figure9-{draw}") for draw, cost in enumerate(figure9_costs())),
        pytest.param(h64.conj().T @ h64, id="rayleigh-L64"),
        pytest.param((a + a.conj().T) / 2.0, id="indefinite-L12"),
        pytest.param(np.eye(5), id="identity"),
        pytest.param(zero_row, id="zero-row"),
    ]


def assert_same_solution(got: SdpSolution, want: SdpSolution) -> None:
    assert np.array_equal(got.x, want.x)
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.gap == want.gap


class TestCholeskyScreen:
    """solve_sdp certifies only the steps that pass a shifted Cholesky;
    the oracle takes the exact certificate at every step.  Both must
    stop at the same step with the same bits."""

    @pytest.mark.parametrize("cost", screen_cases())
    def test_matches_eigen_stop_oracle(self, cost):
        problem = SdpProblem(cost=cost, diag_value=1.0)
        assert_same_solution(solve_sdp(problem), solve_sdp_eigen_stop(problem))

    def test_matches_oracle_at_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 3)
        problem = SdpProblem(cost=random_psd_cost(6, np.random.default_rng(9)), diag_value=1.0)
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
        for draw, cost in enumerate(figure9_costs()):
            calls.clear()
            solution = solve_sdp(SdpProblem(cost=cost, diag_value=1.0))
            assert solution.converged, draw
            assert solution.iterations >= 10, draw
            assert 1 <= len(calls) <= 2, (draw, len(calls))


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
            solution = solve_sdp(SdpProblem(cost=cost, diag_value=1.0))
            assert solution.converged
            upper = solution.objective + solution.gap
            lower = sphere_search_phase_value(h.entries)
            assert lower <= upper * (1.0 + 1e-12)
            assert lower >= upper * (1.0 - 1e-6), draw
            phases = extract_phases(solution)
            rounded = float(np.vdot(phases, cost @ phases).real)
            assert rounded >= upper * (1.0 - 1e-6), draw


class TestDemo06Claim:
    def test_bound_column_bounds_rounded_and_grid_optima(self):
        # demo 06's eight draws (Rayleigh, N = 2, L = 6, seed 66): its
        # bound column objective + gap lies above the rounded vector's
        # value and the 16-level grid optimum.  The rounded value is
        # compared with a 1e-13 relative allowance: it meets the bound to
        # within 2 ulps, above it on some draws, since both are rounded sums
        params = NetworkParams(
            num_sensors=6, num_antennas=2, theta=1.0, sigma_eta_sq=1.0,
            sigma_nu_sq=1.0, p1=0.5, total_power=6.0,
        )
        d = params.gain_budget / params.num_sensors
        src = RandomSource(66)
        for i in range(8):
            h = sample_channel(ChannelModel.rayleigh(), 2, 6, src.substream("h", i)).entries
            cost = h.conj().T @ h
            solution = solve_sdp(SdpProblem(cost=cost, diag_value=d))
            assert solution.converged, i
            bound = solution.objective + solution.gap
            alpha = math.sqrt(d) * extract_phases(solution)
            rounded = float(np.real(alpha.conj() @ cost @ alpha))
            assert rounded <= bound * (1.0 + 1e-13), i
            grid, _ = brute_force_phase(cost, d, levels=16)
            assert grid <= bound, i


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
        cost = random_psd_cost(4, rng)
        _, alpha = brute_force_phase(cost, 3.0, levels=8)
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
