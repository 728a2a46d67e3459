"""Dense kernel tests: finiteness test, pseudoinverse, linear solve, finite
differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ssflow import numerics

# every kind of float the finiteness test must tell apart
SPECIAL_FLOATS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1.8e308]


def penrose_violation(m, mp):
    return max(
        np.abs(m @ mp @ m - m).max(),
        np.abs(mp @ m @ mp - mp).max(),
        np.abs((m @ mp).T - m @ mp).max(),
        np.abs((mp @ m).T - mp @ m).max(),
    )


@settings(max_examples=300, deadline=None)
@given(
    a=arrays(
        float,
        array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        elements=st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from(SPECIAL_FLOATS),
    )
)
def test_all_finite_decides_as_isfinite_all(a):
    # 0-d and empty arrays included; NaN, +-inf, +-0.0 and subnormals drawn
    assert numerics.all_finite(a) == bool(np.isfinite(a).all())


@pytest.mark.parametrize("value", SPECIAL_FLOATS)
@pytest.mark.parametrize("shape", [(), (0,), (1,), (3,), (2, 0, 3), (3, 3)])
def test_all_finite_on_each_special_value(value, shape):
    # the value fills the array, or sits alone among ones in its middle
    filled = np.full(shape, value)
    middle = np.ones(shape)
    middle.flat[middle.size // 2 : middle.size // 2 + 1] = value
    for a in (filled, middle):
        assert numerics.all_finite(a) == bool(np.isfinite(a).all())


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

    @pytest.mark.parametrize("a", [np.zeros((2, 3)), np.zeros((4, 2, 3)), np.zeros(2)])
    def test_rejects_non_square(self, a):
        with pytest.raises(ValueError):
            numerics.solve(a, np.zeros(2))

    @pytest.mark.parametrize(
        "a", [[[1.0, 1.0], [1.0, 1.0 + 1e-15]], np.diag([3.0, 2.0, 1.0, 1e-15])]
    )
    def test_nearly_singular_matrices_solve(self, a):
        # a nonzero pivot at or below 1e-14 ||A||_inf is no singularity:
        # only LAPACK's exact zero pivot is
        a = np.asarray(a)
        b = np.arange(2.0 * len(a)).reshape(len(a), 2) + 1.0
        x = numerics.solve(a, b)
        assert np.array_equal(x, np.linalg.solve(a, b))
        assert np.isfinite(x).all()

    def test_stack_has_the_bits_of_each_matrix_and_raises_at_a_singular_one(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 3, 3))
        b = rng.standard_normal((6, 3, 2))
        x = numerics.solve(a, b)
        for k in range(6):
            assert np.array_equal(x[k], numerics.solve(a[k], b[k])), k
        a[4, 1] = 0.0
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve(a, b)


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
