"""Tests for the diagonally-constrained SDP solver and phase rounding."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from macdet import sdr
from macdet.model import ChannelModel, RandomSource, sample_channel
from macdet.sdr import (
    SdpNonConvergence,
    SdpSolution,
    extract_phases,
    solve_sdp,
    solve_sdps,
)
from macdet import cli
from oracles import (
    extract_phases_dense,
    phase_optimum,
    solve_sdp_eigen_stop,
    solve_sdps_every_step,
    start_old_rank,
)

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


def matrix(solution: SdpSolution) -> np.ndarray:
    # X = V V^H from the solution's factor
    v = solution.factor
    return v @ v.conj().T


def assert_feasible(x: np.ndarray, d: float) -> None:
    assert np.max(np.abs(x - x.conj().T)) <= 1e-10 * d * x.shape[0]
    assert np.max(np.abs(x.diagonal().real - d)) <= 1e-8 * d
    assert np.min(np.linalg.eigvalsh((x + x.conj().T) / 2.0)) >= -1e-8 * d


class TestSolveSdpInput:
    def test_leaves_the_channel_unchanged(self):
        h = np.array([[1.0, 2.0j, 3.0], [0.5, -1.0, 1j]])
        copy = h.copy()
        solution = solve_sdp(h)
        assert np.array_equal(h, copy)
        assert solution.factor.dtype == np.complex128

    @pytest.mark.parametrize("shape", [(4, 2), (1, 5), (1, 1)])
    def test_factor_is_sensors_by_rank(self, shape):
        # rank C = H^H H <= N, so the factor is L x N
        assert solve_sdp(np.ones(shape)).factor.shape == shape[::-1]

    @pytest.mark.parametrize(
        "channel",
        [np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)],
        ids=["vector", "3-d", "scalar"],
    )
    def test_rejects_non_2d(self, channel):
        with pytest.raises(ValueError, match="N x L"):
            solve_sdp(channel)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            solve_sdp(np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_channel(self, bad):
        h = np.ones((2, 3), dtype=np.complex128)
        h[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_sdp(h)

    def test_takes_a_channel_matrix(self):
        channel = sample_channel(ChannelModel.rayleigh(), 3, 8, RandomSource(2).substream("sdr"))
        want = solve_sdp(channel.entries)
        for got in (solve_sdp(channel), *solve_sdps([channel, channel])):
            assert got.factor.tobytes() == want.factor.tobytes()
            assert (got.objective, got.gap) == (want.objective, want.gap)


class TestSolveSdp:
    def test_identity_cost_objective_is_trace(self):
        # every feasible point has tr(X) = L d, so the objective is flat;
        # the solve is at d = 1, and d = 2 scales X and the objective
        solution = solve_sdp(np.eye(5))
        assert solution.converged
        assert 2.0 * solution.objective == pytest.approx(5 * 2.0, rel=1e-9)
        assert_feasible(2.0 * matrix(solution), 2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_one_cost_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        solution = solve_sdp(rank_one_channel(h))
        assert solution.converged
        assert 1.5 * solution.objective == pytest.approx(rank_one_optimum(h, 1.5), rel=1e-5)
        assert_feasible(1.5 * matrix(solution), 1.5)

    def test_rank_one_solution_matrix_and_phases(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = h / np.abs(h)
        d = 2.0
        solution = solve_sdp(rank_one_channel(h))
        assert np.allclose(d * matrix(solution), d * np.outer(a, a.conj()), atol=1e-5 * d)
        phases = extract_phases(solution)
        assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
        assert abs(np.vdot(phases, a)) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_relaxation_upper_bounds_phase_optimum(self, seed):
        rng = np.random.default_rng(100 + seed)
        h = random_channel(6, rng)
        cost = gram(h)
        solution = solve_sdp(h)
        assert solution.converged
        assert_feasible(matrix(solution), 1.0)
        best, _ = phase_optimum(h, 1.0)
        assert best <= solution.objective + solution.gap
        phases = extract_phases(solution)
        rounded = float(np.vdot(phases, cost @ phases).real)
        assert rounded <= solution.objective * (1.0 + 1e-6)
        assert rounded >= 0.6 * solution.objective

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        h = random_channel(5, rng)
        first = solve_sdp(h)
        second = solve_sdp(h)
        assert np.array_equal(first.factor, second.factor)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_certified_gap_bounds_phase_optimum(self):
        # objective + gap is an upper bound on the SDP optimum, hence on
        # every feasible phase vector, the oracle's included
        for seed in range(3):
            h = random_channel(6, np.random.default_rng(5 + seed))
            solution = solve_sdp(h)
            assert solution.converged
            assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective
            best, _ = phase_optimum(h, 1.0)
            assert best <= solution.objective + solution.gap

    # Any NumPy overflow or invalid-value warning fails these two tests,
    # as everywhere in the suite (filterwarnings = error).
    @pytest.mark.parametrize("k", [250, -250])
    def test_power_of_two_scale_is_exact(self, k):
        h = sample_channel(ChannelModel.rayleigh(), 3, 12, RandomSource(0).substream("sdr", 0)).entries
        base = solve_sdp(h)
        scaled = solve_sdp(h * 2.0**k)
        assert np.array_equal(scaled.factor, base.factor)
        assert scaled.iterations == base.iterations and scaled.converged
        assert scaled.objective == base.objective * 4.0**k
        assert scaled.gap == base.gap * 4.0**k

    @pytest.mark.parametrize("k", [80, -80, 150, -150])
    def test_certifies_at_any_channel_scale(self, k):
        # unscaled, entries near 1e80 overflow ||C||_F and the ascent
        # products, and near 1e-80 the objective falls under the floor
        # max(|objective|, 1), which any gap passes at step 0
        h = sample_channel(ChannelModel.rayleigh(), 3, 12, RandomSource(0).substream("sdr", 0)).entries
        base = solve_sdp(h)
        solution = solve_sdp(h * 10.0**k)
        assert solution.converged
        assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective
        assert solution.objective == pytest.approx(base.objective * 10.0 ** (2 * k), rel=1e-9)

    def test_iteration_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 2)
        rng = np.random.default_rng(9)
        solution = solve_sdp(random_channel(6, rng))
        assert not solution.converged
        assert solution.iterations == 2
        assert solution.gap > sdr._GAP_TOL * solution.objective
        assert_feasible(matrix(solution), 1.0)

    def test_non_convergence_error_carries_solution(self):
        solution = SdpSolution(
            factor=np.eye(2),
            objective=2.0,
            iterations=7,
            converged=False,
            gap=1e-3,
        )
        err = SdpNonConvergence(solution)
        assert err.solution is solution
        assert "7 iterations" in str(err)
        assert "1.000e-03" in str(err)


def figure9_channels(seed: int = 0) -> list[np.ndarray]:
    # figure9's three SDP channels: Ricean K = 1, N = 3, L = 32
    source = RandomSource(seed)
    return [
        sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", draw)).entries
        for draw in range(3)
    ]


def certificate_cases() -> list:
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
    assert np.array_equal(got.factor, want.factor)
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.gap == want.gap


def stack_cases() -> list:
    # stacks of equal-shape channels over the shapes of certificate_cases(),
    # with L = 64 and L = 40 for the certificate's column blocks (two
    # whole blocks, then a whole block and a partial one)
    def rayleigh(n, size, seed, draws):
        source = RandomSource(seed)
        return np.stack(
            [sample_channel(ChannelModel.rayleigh(), n, size, source.substream("sdr", d)).entries for d in draws]
        )

    zero_row = random_channel(5, np.random.default_rng(5))
    zero_row[:, 2] = 0.0
    return [
        pytest.param(np.stack(figure9_channels()), id="figure9"),
        pytest.param(np.stack([np.eye(5), zero_row, random_channel(5, np.random.default_rng(6))]), id="identity-zero-row"),
        pytest.param(rayleigh(8, 5, 0, range(2, 5)), id="rayleigh-N8-L5"),
        pytest.param(rayleigh(1, 12, 0, range(3, 6)), id="rayleigh-N1-L12"),
        pytest.param(rayleigh(3, 64, 0, [1, 2]), id="rayleigh-L64"),
        pytest.param(rayleigh(3, 40, 1, range(3)), id="rayleigh-L40"),
    ]


class TestStackedSolve:
    """solve_sdps runs one ascent loop over a stack of channels; each
    channel stops on its own and must get the solution it gets alone."""

    @pytest.mark.parametrize("channels", stack_cases())
    def test_each_channel_matches_its_own_solve(self, channels):
        solutions = solve_sdps(channels)
        assert len(solutions) == len(channels)
        for channel, solution in zip(channels, solutions):
            assert solution.converged
            assert_same_solution(solution, solve_sdp(channel))

    def test_certified_and_capped_channels_in_one_stack(self, monkeypatch):
        # the identity certifies at step 0, the random channels run to the cap
        monkeypatch.setattr(sdr, "_MAX_ITER", 3)
        channels = np.stack(
            [random_channel(5, np.random.default_rng(9)), np.eye(5), random_channel(5, np.random.default_rng(10))]
        )
        solutions = solve_sdps(channels)
        assert [s.converged for s in solutions] == [False, True, False]
        assert [s.iterations for s in solutions] == [3, 0, 3]
        for channel, solution in zip(channels, solutions):
            assert_same_solution(solution, solve_sdp(channel))

    def test_accepts_a_list_of_channels(self):
        channels = figure9_channels()
        for got, want in zip(solve_sdps(channels), solve_sdps(np.stack(channels))):
            assert_same_solution(got, want)

    @pytest.mark.parametrize("shape", [(3, 4), (0, 2, 3), (2, 0, 3), (2, 3, 0), (1, 1, 1, 1)])
    def test_rejects_what_is_not_a_stack(self, shape):
        with pytest.raises(ValueError, match="D x N x L"):
            solve_sdps(np.ones(shape))


def screen_cases() -> list:
    # stacks whose channels stop at different steps, with zero columns,
    # with H = 0 alone and beside live channels, and at sizes where the
    # ascent runs long
    def draws(model, n, size, seed, count):
        source = RandomSource(seed)
        return np.stack(
            [sample_channel(model, n, size, source.substream("sdr", d)).entries for d in range(count)]
        )

    mixed = draws(ChannelModel.rayleigh(), 3, 16, 4, 4)
    mixed[1] = 0.0
    mixed[2][:, [0, 5]] = 0.0
    return [
        *stack_cases(),
        pytest.param(np.stack(figure9_channels(7)), id="figure9-seed7"),
        pytest.param(mixed, id="zero-channel-and-columns"),
        pytest.param(np.zeros((2, 3, 8)), id="H=0"),
        pytest.param(draws(ChannelModel.rayleigh(), 5, 200, 0, 2), id="rayleigh-N5-L200"),
        pytest.param(draws(ChannelModel.ricean(1.0), 2, 100, 3, 3), id="ricean-N2-L100"),
    ]


def assert_identical(got: list, want: list) -> None:
    # field by field, the factor as bytes
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.factor.shape == b.factor.shape
        assert a.factor.tobytes() == b.factor.tobytes()
        assert (a.objective, a.gap, a.iterations, a.converged) == (
            b.objective,
            b.gap,
            b.iterations,
            b.converged,
        )


class TestScreenedCertificate:
    """solve_sdps skips the certificate of a step whose successor's
    objective rises past the step's stop bound plus the two rounding
    allowances, since no such step can stop; the oracle certifies every
    step, and the two must return the same solutions bit for bit."""

    @pytest.mark.parametrize("channels", screen_cases())
    def test_matches_the_every_step_oracle(self, channels):
        assert_identical(solve_sdps(channels), solve_sdps_every_step(channels))

    def test_channels_stop_at_different_steps(self):
        assert len({s.iterations for s in solve_sdps(figure9_channels(7))}) > 1

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_matches_the_oracle_when_the_cap_ends_the_solve(self, monkeypatch, cap):
        # the final iterate is certified whatever the screen says
        monkeypatch.setattr(sdr, "_MAX_ITER", cap)
        channels = np.stack(
            [random_channel(5, np.random.default_rng(9)), np.eye(5), random_channel(5, np.random.default_rng(10))]
        )
        got = solve_sdps(channels)
        assert [s.iterations for s in got] == [cap, 0, cap]
        assert not got[0].converged and not got[2].converged
        assert_identical(got, solve_sdps_every_step(channels))

    def test_figure9_eigenproblem_count(self, monkeypatch):
        # figure9 at the benchmark's size (channel_draws 3), seed 7: the
        # screen leaves 3 of the every-step loop's 41 N x N eigenproblems
        sizes = []
        top_eigenvalues = sdr._top_eigenvalues

        def counting(y, *args):
            sizes.append(len(y))
            return top_eigenvalues(y, *args)

        monkeypatch.setattr(sdr, "_top_eigenvalues", counting)
        cfg = cli.parse_config({"figure_id": 9, "seed": 7, "channel_draws": 3}, "figure")
        assert cli.run(cfg)[1] == 0
        assert (len(sizes), sum(sizes)) == (3, 3)
        sizes.clear()
        solve_sdps_every_step(figure9_channels(7))
        assert (len(sizes), sum(sizes)) == (16, 41)


class TestExactCertificate:
    """solve_sdp certifies each step through one N x N eigenvalue of the
    Schur complement, raised by a rounding margin.  The oracle runs the
    same ascent from the same start (sdr._start) and takes the exact
    certificate, an L x L eigen-solve, at every step."""

    @pytest.mark.parametrize("channel", certificate_cases())
    def test_exact_gap_at_the_stop_step_is_within_the_reported_gap(self, channel):
        solution = solve_sdp(channel)
        exact = solve_sdp_eigen_stop(channel, steps=solution.iterations)
        assert np.array_equal(exact.factor, solution.factor)
        assert exact.objective == solution.objective
        assert exact.gap <= solution.gap

    @pytest.mark.parametrize("channel", certificate_cases())
    def test_stops_at_the_oracle_step_or_shortly_after(self, channel):
        # the margin takes a few percent of the stop slack, so a solve
        # stops where the exact certificate first passes or, where the
        # ascent converges slowly, a few steps later: at most 2 steps or
        # 1 % of the oracle's.  (On 293 draws of the shapes here, L up to
        # 64, the lag was 0 on 265, 1 on 21, and 2 to 6 only on draws
        # that took 730 to 1,950 steps.)
        solution = solve_sdp(channel)
        oracle = solve_sdp_eigen_stop(channel)
        assert solution.converged and oracle.converged
        assert 0 <= solution.iterations - oracle.iterations <= max(2, oracle.iterations // 100)

    def test_exact_gap_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(sdr, "_MAX_ITER", 3)
        channel = random_channel(6, np.random.default_rng(9))
        solution = solve_sdp(channel)
        assert not solution.converged
        assert solution.iterations == 3
        exact = solve_sdp_eigen_stop(channel, steps=3)
        assert np.array_equal(exact.factor, solution.factor)
        assert exact.gap <= solution.gap

    def test_no_linalg_operand_is_larger_than_n(self, monkeypatch):
        # every np.linalg call of a solve and its rounding, on channels
        # whose L exceeds N, sees no square matrix larger than N x N: no
        # L x L Gram, certificate or eigen-solve
        seen = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                seen.extend(a.shape for a in args if isinstance(a, np.ndarray) and a.ndim >= 2)
                return fn(*args, **kwargs)

            return wrapper

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, recording(fn))
        cases = [
            np.stack(figure9_channels()),
            sample_channel(ChannelModel.rayleigh(), 3, 64, RandomSource(0).substream("sdr", 1)).entries[None],
        ]
        for channels in cases:
            seen.clear()
            for solution in solve_sdps(channels):
                extract_phases(solution)
            limit = channels.shape[1]
            assert seen
            assert all(shape[-1] != shape[-2] or shape[-1] <= limit for shape in seen), seen


class TestOldRankStart:
    """The start is H^H with unit rows, of width N; the oracle is the
    former start of width ceil(sqrt(2 L)) (Barvinok and Pataki's bound
    for a general cost).  Each objective is a feasible value, which the
    other solve's objective plus its certified gap bounds; that holds at
    the iteration cap too, where the Rayleigh draw at N = 4, L = 128
    ends under either start."""

    @pytest.mark.parametrize("size", [32, 128, 512])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_objectives_agree_within_both_gaps(self, monkeypatch, n, size):
        source = RandomSource(5)
        channels = np.stack(
            [
                sample_channel(model, n, size, source.substream("sdr", n, size)).entries
                for model in (ChannelModel.ricean(1.0), ChannelModel.rayleigh())
            ]
        )
        new = solve_sdps(channels)
        monkeypatch.setattr(sdr, "_start", start_old_rank)
        old = solve_sdps(channels)
        assert old[0].factor.shape[1] == min(size, math.ceil(math.sqrt(2 * size)))
        for a, b in zip(new, old):
            assert a.objective <= b.objective + b.gap
            assert b.objective <= a.objective + a.gap


class TestLargeChannels:
    # Rayleigh N = 3 (RandomSource(0).substream("sdr", 0)); one L x L
    # complex array at L = 2,048 takes 64 MiB
    @staticmethod
    def channel(size: int) -> np.ndarray:
        return sample_channel(ChannelModel.rayleigh(), 3, size, RandomSource(0).substream("sdr", 0)).entries

    def test_l2048_peak_memory_is_far_below_one_l_by_l_array(self):
        h = self.channel(2048)
        tracemalloc.start()
        try:
            solution = solve_sdp(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        assert solution.converged

    def test_l512_certifies(self):
        solution = solve_sdp(self.channel(512))
        assert solution.converged
        assert 0.0 <= solution.gap <= sdr._GAP_TOL * solution.objective


class TestTightnessOracle:
    def test_relaxation_is_tight_at_figure9_size(self):
        # figure9's setting (Ricean K = 1, N = 3, L = 32): the oracle's
        # feasible value meets the certified upper bound objective + gap,
        # so the relaxation is tight and the rounded phases are optimal
        source = RandomSource(0)
        for draw in range(10):
            h = sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", draw))
            cost = h.entries.conj().T @ h.entries
            solution = solve_sdp(h.entries)
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
        # d (objective + gap) must bound every feasible phase vector of
        # power d per sensor as computed, with no slack.  The inputs are
        # demo 06's eight draws at its d = 2/3, then 200 draws of the same
        # stream and figure9's stream at d = 1; without the gap's rounding
        # allowance the computed value of the rounded vector lies above
        # the bound on about a third of them.
        for i, h in enumerate(channel_draws(seed, key, model, n, size, draws)):
            solution = solve_sdp(h)
            assert solution.converged, i
            alpha = math.sqrt(d) * extract_phases(solution)
            rounded = float(np.vdot(alpha, gram(h) @ alpha).real)
            assert rounded <= d * (solution.objective + solution.gap), i

    def test_demo06_bound_column_bounds_phase_optimum(self):
        # demo 06's bound column, d (objective + gap), lies above the
        # oracle's phase optimum on each of its eight draws
        d = 2.0 / 3.0
        for i, h in enumerate(channel_draws(66, "h", ChannelModel.rayleigh(), 2, 6, 8)):
            solution = solve_sdp(h)
            best, _ = phase_optimum(h, d)
            assert best <= d * (solution.objective + solution.gap), i


class TestExtractPhases:
    def test_zero_component_defaults_to_unit(self):
        u = np.array([1.0, 0.0, 1.0j])
        solution = SdpSolution(
            factor=u[:, None],
            objective=0.0,
            iterations=1,
            converged=True,
            gap=0.0,
        )
        phases = extract_phases(solution)
        assert np.allclose(np.abs(phases), 1.0)
        assert phases[1] == 1.0

    @pytest.mark.parametrize(
        "seed, key, model, n, size, draws",
        [
            pytest.param(0, "sdr", ChannelModel.ricean(1.0), 3, 32, 3, id="figure9"),
            pytest.param(66, "h", ChannelModel.rayleigh(), 2, 6, 8, id="demo06"),
        ],
    )
    def test_matches_dense_rounding(self, seed, key, model, n, size, draws):
        # the N x N Gram rounding against the top eigenvector of the L x L
        # V V^H; both put the same pivot entry on the positive real axis,
        # so they agree including the global phase
        for i, h in enumerate(channel_draws(seed, key, model, n, size, draws)):
            solution = solve_sdp(h)
            got, want = extract_phases(solution), extract_phases_dense(solution)
            assert np.max(np.abs(got - want)) <= 1e-12, i

    @pytest.mark.parametrize(
        "seed, key, model, n, size, draws",
        [
            pytest.param(0, "sdr", ChannelModel.ricean(1.0), 3, 32, 3, id="figure9"),
            pytest.param(66, "h", ChannelModel.rayleigh(), 2, 6, 8, id="demo06"),
        ],
    )
    def test_one_ulp_never_rotates_the_phases(self, seed, key, model, n, size, draws):
        # where the relaxation is tight every entry of V w has magnitude
        # 1/sqrt(L) to rounding, so the largest one is decided by the last
        # bits; each entry of V nudged by one ulp, up and down, in its real
        # and its imaginary part, must leave the phases where they are
        for i, h in enumerate(channel_draws(seed, key, model, n, size, draws)):
            solution = solve_sdp(h)
            base = extract_phases(solution)
            for index in np.ndindex(solution.factor.shape):
                for part in ("real", "imag"):
                    for toward in (np.inf, -np.inf):
                        v = solution.factor.copy()
                        getattr(v, part)[index] = np.nextafter(getattr(v, part)[index], toward)
                        phases = extract_phases(dataclasses.replace(solution, factor=v))
                        assert np.max(np.abs(phases - base)) <= 1e-12, (i, index, part)

    @pytest.mark.parametrize(
        "seed, key, model, n, size, draws",
        [
            pytest.param(0, "sdr", ChannelModel.ricean(1.0), 3, 32, 3, id="figure9"),
            pytest.param(66, "h", ChannelModel.rayleigh(), 2, 6, 8, id="demo06"),
        ],
    )
    def test_last_bits_drift_never_rotates_the_phases(self, seed, key, model, n, size, draws):
        # the top two magnitudes of V w differ by 3 to 50 ulps on these
        # draws, more than one ulp of V can move them, but less than the
        # drift between two versions of the solver (objectives moved by
        # up to 2e-13 relative).  Every entry of V scaled by 1 +- 2^-44
        # (about 256 ulps), 20 seeded patterns a draw: pivoting on the
        # largest magnitude rotated the phases on 8 of the 11 draws.
        rng = np.random.default_rng(0)
        for i, h in enumerate(channel_draws(seed, key, model, n, size, draws)):
            solution = solve_sdp(h)
            base = extract_phases(solution)
            for _ in range(20):
                signs = rng.choice([-1.0, 1.0], size=solution.factor.shape)
                v = solution.factor * (1.0 + 2.0**-44 * signs)
                phases = extract_phases(dataclasses.replace(solution, factor=v))
                assert np.max(np.abs(phases - base)) <= 1e-12, i


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
