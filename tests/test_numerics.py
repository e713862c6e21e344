import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from macdet import numerics
from oracles import q_function


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def quad_q(x):
    # independent oracle: direct quadrature of the normal density tail
    val, _ = scipy.integrate.quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), x, np.inf
    )
    return val


def quad_e1(x):
    # independent oracle: quadrature of the defining integral, written in
    # the shifted form E1(x) = e^-x * int_0^inf e^-u / (x+u) du so the
    # quadrature stays accurate when the result is tiny
    val, _ = scipy.integrate.quad(
        lambda u: math.exp(-u) / (x + u), 0.0, np.inf, limit=200
    )
    return math.exp(-x) * val


class TestHermitianEig:
    def test_identity(self):
        eig = numerics.hermitian_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_rank_one_ones(self):
        n = 4
        eig = numerics.hermitian_eig(np.ones((n, n)))
        expected = np.array([0.0, 0.0, 0.0, float(n)])
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        eig = numerics.hermitian_eig(a)
        v, w = eig.eigenvectors, eig.eigenvalues
        assert np.all(np.diff(w) >= -1e-14)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - a)) <= 1e-10 * np.max(np.abs(a))
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_hermitian(rng, 6)
            eig = numerics.hermitian_eig(a)
            tr = np.trace(a).real
            assert abs(eig.eigenvalues.sum() - tr) <= 1e-9 * max(abs(tr), 1.0)

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5)
        eig = numerics.hermitian_eig(a)
        for k in range(5):
            col = eig.eigenvectors[:, k]
            i = int(np.argmax(np.abs(col)))
            assert col[i].imag == 0.0
            assert col[i].real > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 6)
        e1 = numerics.hermitian_eig(a)
        e2 = numerics.hermitian_eig(a)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            numerics.hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            numerics.hermitian_eig(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            numerics.hermitian_eig(np.full((2, 2), np.nan))


class TestSolveHermitianPd:
    def test_identity(self):
        b = np.array([1.0 + 1j, 2.0, -3.0])
        assert np.allclose(numerics.solve_hermitian_pd(np.eye(3), b), b)

    def test_scaled_identity(self):
        b = np.array([2.0, -4.0])
        x = numerics.solve_hermitian_pd(2.0 * np.eye(2), b)
        assert np.allclose(x, b / 2.0)

    def test_residual_small(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = m @ m.conj().T + np.eye(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = numerics.solve_hermitian_pd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            numerics.solve_hermitian_pd(np.diag([1.0, -1.0]), np.ones(2))


class TestPsdProject:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = m @ m.conj().T
        p = numerics.psd_project(a)
        assert np.max(np.abs(p - a)) <= 1e-10 * np.max(np.abs(a))

    def test_clamps_negative_eigenvalue(self):
        p = numerics.psd_project(np.diag([1.0, -1.0]))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        a = random_hermitian(rng, 6)
        p1 = numerics.psd_project(a)
        p2 = numerics.psd_project(p1)
        assert np.max(np.abs(p2 - p1)) <= 1e-12 * max(np.max(np.abs(p1)), 1.0)

    def test_projection_distance_matches_clamping_oracle(self):
        # Frobenius distance to the PSD cone equals the norm of the
        # negative eigenvalue part; oracle via an independent eigh call.
        rng = np.random.default_rng(23)
        a = random_hermitian(rng, 7)
        p = numerics.psd_project(a)
        w = scipy.linalg.eigh(a, eigvals_only=True)
        expected = math.sqrt(float(np.sum(np.minimum(w, 0.0) ** 2)))
        assert abs(np.linalg.norm(p - a, "fro") - expected) <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = random_hermitian(rng, 5)
            b = random_hermitian(rng, 5)
            lhs = np.linalg.norm(numerics.psd_project(a) - numerics.psd_project(b), "fro")
            rhs = np.linalg.norm(a - b, "fro")
            assert lhs <= rhs + 1e-12


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == 0.5

    def test_infinities(self):
        assert q_function(np.inf) == 0.0
        assert q_function(-np.inf) == 1.0

    def test_value_at_95th_percentile(self):
        # oracle-derived: quadrature of the normal tail at the 95% point
        x = 1.6448536269514722
        oracle = quad_q(x)
        assert abs(oracle - 0.05) <= 1e-10
        assert abs(q_function(x) - oracle) <= 1e-12

    def test_matches_quadrature_oracle(self):
        for x in [-6.0, -2.5, -0.3, 0.7, 1.0, 3.3, 6.0, 8.0]:
            q = float(q_function(x))
            assert abs(q - quad_q(x)) <= 1e-12 * max(q, 1e-12) + 1e-15

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 201)
        qs = q_function(xs)
        assert np.all(np.diff(qs) < 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        total = float(q_function(x) + q_function(-x))
        assert abs(total - 1.0) <= 1e-12


class TestLogQ:
    def test_matches_direct_log_in_normal_range(self):
        for x in [-5.0, 0.0, 1.0, 10.0, 24.0]:
            direct = math.log(float(q_function(x)))
            assert abs(numerics.log_q(x) - direct) <= 1e-10 * abs(direct) + 1e-12

    def test_continuous_at_switchover(self):
        lo, hi = numerics.log_q(24.999999), numerics.log_q(25.000001)
        assert abs(lo - hi) <= 1e-4

    def test_far_tail_finite(self):
        val = numerics.log_q(2000.0)
        assert math.isfinite(val)
        assert abs(val - (-0.5 * 2000.0**2 - math.log(2000.0 * math.sqrt(2 * math.pi)))) <= 1e-4

    def test_limits(self):
        assert numerics.log_q(-math.inf) == 0.0
        assert numerics.log_q(math.inf) == -math.inf


class TestExpIntegralE1:
    # E1 itself is checked as e^-x times the scaled product exp_e1_scaled
    def test_rejects_nonpositive(self):
        for x in [0.0, -1.0]:
            with pytest.raises(ValueError):
                numerics.exp_e1_scaled(x)

    def test_value_at_one(self):
        # oracle-derived: quadrature of the defining integral at x = 1
        oracle = quad_e1(1.0)
        assert abs(oracle - 0.2193839343) <= 1e-9
        assert abs(math.exp(-1.0) * numerics.exp_e1_scaled(1.0) - oracle) <= 1e-10

    def test_matches_quadrature_oracle(self):
        for x in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]:
            val = math.exp(-x) * numerics.exp_e1_scaled(x)
            assert abs(val - quad_e1(x)) <= 1e-10 * val + 1e-16

    def test_matches_scipy_reference(self):
        xs = np.logspace(-3, np.log10(500.0), 60)
        for x in xs:
            ref = float(scipy.special.exp1(x))
            val = math.exp(-x) * numerics.exp_e1_scaled(float(x))
            assert abs(val - ref) <= 1e-10 * ref + 1e-300

    def test_asymptotic_tail(self):
        x = 50.0
        assert abs(x * numerics.exp_e1_scaled(x) - 1.0) <= 0.02

    def test_strictly_decreasing(self):
        # e^x E1(x) is itself strictly decreasing, so E1 is too
        xs = np.logspace(-2, 1.5, 40)
        vals = [numerics.exp_e1_scaled(float(x)) for x in xs]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_scaled_variant_huge_argument(self):
        x = 1e4
        # e^x E1(x) ~ 1/x - 1/x^2 + 2/x^3
        expected = 1.0 / x - 1.0 / x**2 + 2.0 / x**3
        assert abs(numerics.exp_e1_scaled(x) - expected) <= 1e-8 * expected


class TestScaledByPowerOfTwo:
    """The one channel guard: its shift j per matrix under the gain rule
    (the least j >= 0 that brings the largest real or imaginary part
    below 2^384) and the unit rule (that part in [1, 2), j = 0 for H = 0),
    read off the largest part, whichever of real or imaginary it is."""

    @pytest.mark.parametrize(
        "peak,gain_j,unit_j",
        [
            (0.0, 0, 0),
            (2.0**-600, 0, -600),
            (1.5, 0, 0),
            (math.nextafter(2.0**384, 0.0), 0, 383),
            (2.0**384, 1, 384),
            (-(2.0**1000) * 1.5, 617, 1000),
        ],
    )
    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 1)], ids=["real", "imag"])
    def test_shift_of_the_largest_part(self, peak, gain_j, unit_j, where):
        h = np.full((2, 3, 2), 0.25 + 0.25j) * min(1.0, abs(peak))
        stack, row, col = where
        h[stack, row, col] = complex(peak, 0.0) if col == 0 else complex(0.0, peak)
        for unit, j in ((False, gain_j), (True, unit_j)):
            scaled, shifts = numerics.scaled_by_power_of_two(h, unit=unit)
            assert shifts[stack] == j
            assert np.array_equal(scaled[stack], h[stack] * 2.0**-j)
            assert np.array_equal(scaled[1 - stack], h[1 - stack] * 2.0**-shifts[1 - stack])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_entry(self, bad):
        h = np.ones((2, 2, 3), dtype=complex)
        h[1, 1, 2] = bad
        for unit in (False, True):
            with pytest.raises(ValueError, match="^channel entries must be finite$"):
                numerics.scaled_by_power_of_two(h, unit=unit)


class TestCanonicalPhase:
    def test_pivot_real_positive(self):
        v = np.array([0.1 + 0.2j, -0.9j, 0.3])
        out = numerics.canonical_phase(v)
        i = int(np.argmax(np.abs(out)))
        assert out[i].imag == 0.0 and out[i].real > 0.0
        # rotation preserves the magnitude profile
        assert np.allclose(np.abs(out), np.abs(v))

    def test_zero_vector_passthrough(self):
        v = np.zeros(3, dtype=complex)
        assert np.array_equal(numerics.canonical_phase(v), v)


def _loop_canonical_phase(v):
    # oracle: the original one-column-at-a-time convention
    v = np.asarray(v, dtype=np.complex128)
    i = int(np.argmax(np.abs(v)))
    pivot = v[i]
    if pivot == 0:
        return v.copy()
    out = v * (pivot.conjugate() / abs(pivot))
    out[i] = out[i].real
    return out


def _loop_hermitian_eig(a):
    # oracle: eigh followed by the per-column phase loop
    a = np.asarray(a).astype(np.complex128)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    v = np.asarray(v, dtype=np.complex128)
    for k in range(v.shape[1]):
        v[:, k] = _loop_canonical_phase(v[:, k])
    return w, v


def _bits(x):
    # exact comparison, including signed zeros and NaN payloads
    return np.ascontiguousarray(x).view(np.float64)


class TestPhaseConventionOracle:
    """The vectorized convention is bit-identical to the per-column loop."""

    def assert_eig_matches_loop(self, a):
        eig = numerics.hermitian_eig(a)
        w, v = _loop_hermitian_eig(a)
        assert np.array_equal(eig.eigenvalues.view(np.float64), w.view(np.float64))
        assert np.array_equal(_bits(eig.eigenvectors), _bits(v))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_random_complex_hermitian(self, n):
        rng = np.random.default_rng(1000 + n)
        for scale in (1e-6, 1.0, 1e6):
            self.assert_eig_matches_loop(random_hermitian(rng, n, scale))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_random_real_symmetric(self, n):
        rng = np.random.default_rng(2000 + n)
        a = rng.standard_normal((n, n))
        self.assert_eig_matches_loop((a + a.T) / 2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_tied_magnitudes(self, n):
        rng = np.random.default_rng(n)
        self.assert_eig_matches_loop(np.eye(n))
        self.assert_eig_matches_loop(np.ones((n, n)))
        u = 1j ** np.arange(n)  # unit-modulus entries: every magnitude ties
        self.assert_eig_matches_loop(np.outer(u, u.conj()) + np.eye(n))
        self.assert_eig_matches_loop(np.diag(rng.standard_normal(n)))
        self.assert_eig_matches_loop(np.diag(np.repeat([2.0, -1.0], n)))

    def test_vectors_of_length_one(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = (rng.standard_normal(1) + 1j * rng.standard_normal(1)) * 10.0 ** rng.uniform(-8, 8)
            assert np.array_equal(_bits(numerics.canonical_phase(v)), _bits(_loop_canonical_phase(v)))
        for v in ([3.0], [-2.5], [1j], [-1j], [0.0], [-0.0]):
            assert np.array_equal(_bits(numerics.canonical_phase(v)), _bits(_loop_canonical_phase(v)))

    def test_all_zero_vectors_pass_through(self):
        for v in (
            np.zeros(1, dtype=complex),
            np.zeros(5, dtype=complex),
            np.array([-0.0, 0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]),
        ):
            out = numerics.canonical_phase(v)
            assert np.array_equal(_bits(out), _bits(_loop_canonical_phase(v)))
            assert np.array_equal(_bits(out), _bits(v))
            assert not np.shares_memory(out, v)

    def test_tied_magnitude_vectors_pick_lowest_index(self):
        cases = (
            np.array([1.0, -1.0, 1j, -1j]),
            np.array([-1j, 1.0, 1.0]),
            np.array([0.6 + 0.8j, -0.8 + 0.6j, 1.0]),
            np.full(7, -0.5 - 0.5j),
        )
        for v in cases:
            out = numerics.canonical_phase(v)
            assert np.array_equal(_bits(out), _bits(_loop_canonical_phase(v)))
            assert out[0].imag == 0.0 and out[0].real > 0.0

    def test_random_and_strided_vectors(self):
        rng = np.random.default_rng(12)
        for n in range(2, 70):
            m = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            for v in (m[:, 0], m[:, 2], m[:, 1].real, m[:, 1].copy()):
                assert np.array_equal(
                    _bits(numerics.canonical_phase(v)), _bits(_loop_canonical_phase(v))
                )


class TestStacks:
    """hermitian_eig and canonical_phase take a stack in one pass, and
    each matrix or vector gets the bits it gets alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_hermitian_eig_of_a_stack(self, n):
        rng = np.random.default_rng(3000 + n)
        stack = np.stack(
            [random_hermitian(rng, n), np.zeros((n, n)), np.eye(n), random_hermitian(rng, n, 1e6)]
        )
        eig = numerics.hermitian_eig(stack)
        for a, w, v in zip(stack, eig.eigenvalues, eig.eigenvectors):
            alone = numerics.hermitian_eig(a)
            assert np.array_equal(_bits(w), _bits(alone.eigenvalues))
            assert np.array_equal(_bits(v), _bits(alone.eigenvectors))

    def test_canonical_phase_of_a_stack(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 7, 64):
            rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
            rows[1] = 0.0
            rows[2] = np.full(n, -0.5 - 0.5j)
            out = numerics.canonical_phase(rows)
            for row, got in zip(rows, out):
                assert np.array_equal(_bits(got), _bits(_loop_canonical_phase(row)))

    def test_each_matrix_is_checked_on_its_own_scale(self):
        # a matrix off Hermitian by its own size is rejected beside one
        # of entries 1e6, which a whole-stack scale would let it pass
        skew = np.array([[1e-12, 1e-12], [0.0, 1e-12]])
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.hermitian_eig(np.stack([1e6 * np.eye(2), skew]))
        with pytest.raises(ValueError, match="finite"):
            numerics.hermitian_eig(np.stack([np.eye(2), np.full((2, 2), np.inf)]))

    def test_check_square_hermitian_takes_one_matrix(self):
        with pytest.raises(ValueError, match="square matrix"):
            numerics.check_square_hermitian(np.stack([np.eye(2), np.eye(2)]), 1e-10)
        with pytest.raises(ValueError, match="square matrix"):
            numerics.psd_project(np.stack([np.eye(2), np.eye(2)]))
