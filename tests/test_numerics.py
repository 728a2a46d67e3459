"""Dense kernel tests: pseudoinverse, linear solve, finite differences."""

import numpy as np
import pytest

from ssflow import numerics


def penrose_violation(m, mp):
    return max(
        np.abs(m @ mp @ m - m).max(),
        np.abs(mp @ m @ mp - mp).max(),
        np.abs((m @ mp).T - m @ mp).max(),
        np.abs((mp @ m).T - mp @ m).max(),
    )


class TestPinv:
    def test_identity(self):
        assert np.allclose(numerics.pinv(np.eye(2)), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        out = numerics.pinv(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_rank_deficient_diagonal(self):
        out = numerics.pinv(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 6), (20, 6)])
    def test_penrose_identities_random(self, shape):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = rng.standard_normal(shape)
            assert penrose_violation(m, numerics.pinv(m)) < 1e-10

    def test_matches_solve_inverse_well_conditioned(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            if np.linalg.cond(a) >= 1e4:
                continue
            inv = numerics.solve(a, np.eye(4))
            assert np.abs(numerics.pinv(a) - inv).max() < 1e-8

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            numerics.pinv(np.zeros(3))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 6), (20, 6)])
    def test_stack_equals_per_matrix_bit_for_bit(self, shape):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((2, 5) + shape)
        stack[0, 1] = 0.0
        stack[1, 3, :, 0] = 0.0  # rank-deficient
        # scales far apart: each matrix's cutoff follows its own sigma_max
        stack[0, 2] *= 1e20
        stack[1, 4] *= 1e-20
        out = numerics.pinv(stack)
        assert out.shape == (2, 5, shape[1], shape[0])
        for i in range(2):
            for j in range(5):
                assert np.array_equal(out[i, j], numerics.pinv(stack[i, j]))

    def test_empty_stack_member_shape(self):
        assert numerics.pinv(np.zeros((4, 3, 0))).shape == (4, 0, 3)


class TestSolve:
    def test_diagonal(self):
        x = numerics.solve(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(numerics.solve(np.eye(2), b), b, atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve(np.ones((2, 2)), np.eye(2))

    def test_residual_spd_and_diagonally_dominant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((5, 5))
            spd = g @ g.T + 5.0 * np.eye(5)
            dd = rng.standard_normal((5, 5))
            dd += np.diag(np.abs(dd).sum(axis=1) + 1.0)
            for a in (spd, dd):
                b = rng.standard_normal((5, 2))
                x = numerics.solve(a, b)
                assert np.abs(a @ x - b).max() <= 1e-10 * max(np.abs(b).max(), 1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            numerics.solve(np.zeros((2, 3)), np.zeros(2))


class TestFiniteDiffJacobian:
    def test_identity_map(self):
        out = numerics.finite_diff_jacobian(lambda x: x, np.zeros(2))
        assert np.abs(out - np.eye(2)).max() < 1e-12

    def test_square(self):
        out = numerics.finite_diff_jacobian(lambda x: x**2, np.array([3.0]), h=1e-6)
        assert abs(out[0, 0] - 6.0) < 1e-6

    def test_conversion_reaction_state_derivative(self):
        theta = np.array([3.9, 1.5])

        def f(x):
            return np.array([theta[1] * 1.0 - (theta[0] + theta[1]) * x[0]])

        out = numerics.finite_diff_jacobian(f, np.array([0.2]))
        assert abs(out[0, 0] - (-5.4)) < 1e-6

    def test_non_finite_names_coordinate(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.array([np.sqrt(x[1])])

        with pytest.raises(numerics.NumericalFailure, match="coordinate 1"):
            numerics.finite_diff_jacobian(f, np.array([1.0, 0.0]))
