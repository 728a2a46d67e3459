"""Steady-state sensitivity tests: exact solve, pseudoinverse form, chain rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflow import numerics
from ssflow.core import Condition, ModelSpec, ObjectiveSpec
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    conversion_reaction_model,
    ngf_erk_model,
    reduced_objective_cr,
)
from ssflow.sensitivity import (
    manifold_gradient,
    pinv_sensitivity,
    sensitivity_exact,
    sensitivity_hat,
)

NO_U = np.zeros(0)


class TestSensitivityExact:
    def test_conversion_reaction_closed_form(self):
        model = conversion_reaction_model()
        theta = np.array([3.9, 1.5])
        x_s = model.analytic_steady_state(theta, NO_U)
        s = sensitivity_exact(model, theta, x_s, NO_U)
        # closed form: s1 = -x_s/(theta1+theta2), s2 = (xi-x_s)/(theta1+theta2)
        assert abs(s[0, 0] - (-0.05144)) < 1e-4
        assert abs(s[0, 1] - 0.13374) < 1e-4

    def test_zero_parameter_jacobian_gives_zero(self):
        model = ModelSpec(
            n_x=2,
            n_theta=3,
            n_u=0,
            f=lambda theta, x, u: -x,
            jac_x=lambda theta, x, u: -np.eye(2),
            jac_theta=lambda theta, x, u: np.zeros((2, 3)),
        )
        s = sensitivity_exact(model, np.zeros(3), np.zeros(2), NO_U)
        assert np.all(s == 0.0)

    def test_ngf_first_row_sparsity(self):
        # the first state equation does not involve parameters 3, 4, 6
        model = ngf_erk_model()
        theta = np.zeros(6)
        u = np.array([1.0])
        s = sensitivity_exact(model, theta, np.array([0.5, 0.6]), u)
        assert np.abs(s[0, [2, 3, 5]]).max() < 1e-14

    def test_singular_jacobian_raises(self):
        model = ModelSpec(
            n_x=2,
            n_theta=1,
            n_u=0,
            f=lambda theta, x, u: np.zeros(2),
            jac_x=lambda theta, x, u: np.ones((2, 2)),
            jac_theta=lambda theta, x, u: np.ones((2, 1)),
        )
        with pytest.raises(numerics.SingularMatrixError):
            sensitivity_exact(model, np.zeros(1), np.zeros(2), NO_U)

    @pytest.mark.parametrize(
        "make_model,n_u,box",
        [
            (conversion_reaction_model, 0, (0.1, 8.0)),
            (ngf_erk_model, 1, (-3.0, 1.0)),
        ],
    )
    def test_matches_finite_differences_of_steady_state_map(
        self, make_model, n_u, box
    ):
        model = make_model()
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            u = rng.uniform(0.1, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            s = sensitivity_exact(model, theta, x_s, u)
            fd = numerics.finite_diff_jacobian(
                lambda t: model.analytic_steady_state(t, u), theta
            )
            assert np.abs(s - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())


class TestSensitivityHat:
    @pytest.mark.parametrize(
        "make_model,n_u,box",
        [
            (conversion_reaction_model, 0, (0.1, 8.0)),
            (ngf_erk_model, 1, (-3.0, 1.0)),
        ],
    )
    def test_equals_exact_on_manifold(self, make_model, n_u, box):
        model = make_model()
        rng = np.random.default_rng(17)
        for _ in range(1000):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            u = rng.uniform(0.1, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            s = sensitivity_exact(model, theta, x_s, u)
            s_hat = sensitivity_hat(model, theta, x_s, u)
            assert np.abs(s - s_hat).max() < 1e-10 * (1.0 + np.abs(s).max())

    def test_zero_parameter_jacobian_gives_zero(self):
        model = ModelSpec(
            n_x=1,
            n_theta=2,
            n_u=0,
            f=lambda theta, x, u: np.zeros(1),
            jac_x=lambda theta, x, u: np.zeros((1, 1)),
            jac_theta=lambda theta, x, u: np.zeros((1, 2)),
        )
        assert np.all(sensitivity_hat(model, np.zeros(2), np.zeros(1), NO_U) == 0.0)

    def test_off_manifold_against_implicit_solve_oracle(self):
        # off-manifold the pseudoinverse form still equals -(df/dx)^-1 df/dtheta
        # wherever the state Jacobian is invertible; check against solving the
        # 1x1 system by hand for the conversion reaction at x = 0.9
        model = conversion_reaction_model()
        theta = np.array([3.9, 1.5])
        x = np.array([0.9])
        s_hat = sensitivity_hat(model, theta, x, NO_U)
        total = theta[0] + theta[1]
        expected = np.array([[-x[0] / total, (1.0 - x[0]) / total]])
        assert np.abs(s_hat - expected).max() < 1e-12


class TestPinvSensitivity:
    def test_singular_matrix_in_a_stack_falls_back_alone(self):
        # one exactly singular (zero) state Jacobian in a stack of NGF rows:
        # it alone takes the truncated pseudoinverse, every other matrix is
        # solved as it would be on its own
        model = ngf_erk_model()
        rng = np.random.default_rng(23)
        theta = rng.uniform(-3.0, 1.0, 6)
        x_mat = rng.uniform(0.0, 3.0, (12, 2))
        u_mat = rng.uniform(0.0, 100.0, (12, 1))
        a = model.jac_x_batch(theta, x_mat, u_mat)
        b = model.jac_theta_batch(theta, x_mat, u_mat)
        a[5] = 0.0
        got = pinv_sensitivity(a, b)
        assert got.shape == b.shape
        for k in range(12):
            if k == 5:
                expected = -(numerics.pinv(a[k]) @ b[k])
            else:
                expected = -np.linalg.solve(a[k], b[k])
            assert np.array_equal(got[k], expected), k


def same_bits(a, b):
    """Equal shapes and bit patterns; unlike np.array_equal, 0.0 and -0.0
    differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def log_uniform(shape):
    """Arrays of shape with magnitudes log-uniform over 1e-300..1e300 and
    either sign: the products of two entries overflow and underflow."""
    n = int(np.prod(shape))
    exponents = st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n)
    signs = st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)
    return st.tuples(exponents, signs).map(
        lambda es: (np.array(es[1]) * 10.0 ** np.array(es[0])).reshape(shape)
    )


@st.composite
def one_by_one_systems(draw):
    """A 1x1 state Jacobian with its parameter block, as one (1, 1) matrix
    or as a stack of 1 to 64."""
    rows = draw(st.none() | st.integers(1, 64))
    n_theta = draw(st.integers(1, 3))
    lead = () if rows is None else (rows,)
    return draw(log_uniform(lead + (1, 1))), draw(log_uniform(lead + (1, n_theta)))


class TestOneByOneClosedForm:
    @given(one_by_one_systems())
    @settings(max_examples=300, deadline=None)
    def test_has_the_bits_of_lapack(self, system):
        a, b = system
        with np.errstate(all="ignore"):
            got = pinv_sensitivity(a, b)
            expected = -np.linalg.solve(a, b)
        assert same_bits(got, expected)

    @pytest.mark.parametrize("a", [1.0, -1.0, 3e-300, -7e299])
    def test_signed_zeros_keep_the_bits_of_lapack(self, a):
        a = np.array([[a]])
        b = np.array([[0.0, -0.0, 2.5, -2.5]])
        assert same_bits(pinv_sensitivity(a, b), -np.linalg.solve(a, b))
        assert same_bits(
            pinv_sensitivity(np.stack([a, -a]), np.stack([b, b])),
            -np.linalg.solve(np.stack([a, -a]), np.stack([b, b])),
        )

    @pytest.mark.parametrize("n_theta", [1, 2])
    def test_makes_no_lapack_call(self, n_theta, monkeypatch):
        def refuse(*args):
            raise AssertionError("np.linalg.solve called")

        # -10 and -1e33: one right-hand side divides, several multiply by
        # the reciprocal, and the two round this quotient differently
        a = np.array([[[-10.0]], [[0.5]]])
        b = np.array([[[-1e33, 3.0]], [[-4.0, 0.0]]])[..., :n_theta]
        expected = -np.linalg.solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert same_bits(pinv_sensitivity(a, b), expected)
        assert same_bits(pinv_sensitivity(a[0], b[0]), expected[0])

    def test_singular_matrix_in_a_conversion_reaction_stack_falls_back_alone(self):
        # theta = (0, 0) makes d f/d x = -(theta_1 + theta_2) exactly zero:
        # those rows alone take the truncated pseudoinverse, every other row
        # is its own matrix solved alone
        model = conversion_reaction_model()
        rng = np.random.default_rng(31)
        theta = rng.uniform(0.1, 8.0, (12, 2))
        singular = [0, 5, 11]
        theta[singular] = 0.0
        x_mat = rng.uniform(0.0, 1.0, (12, 1))
        _, jac = model.f_jac_batch(theta, x_mat, np.zeros((12, 0)))
        a, b = jac[..., :1], jac[..., 1:]
        assert np.flatnonzero(a == 0.0).tolist() == singular
        got = pinv_sensitivity(a, b)
        assert got.shape == b.shape
        for k in range(12):
            if k in singular:
                expected = -(numerics.pinv(a[k]) @ b[k])
            else:
                expected = -np.linalg.solve(a[k], b[k])
                assert same_bits(pinv_sensitivity(a[k], b[k]), expected), k
            assert same_bits(got[k], expected), k


class TestManifoldGradient:
    def test_conversion_reaction_at_prior_mean(self):
        # at theta = theta_bar the prior term vanishes and the gradient is
        # the data misfit pulled back through the sensitivity
        prob = ConversionReactionProblem()
        model = prob.model()
        theta = np.array([3.9, 1.5])
        x_s = model.analytic_steady_state(theta, NO_U)
        grad = manifold_gradient(
            model, prob.objective(), theta, [x_s], prob.conditions()
        )
        s = sensitivity_exact(model, theta, x_s, NO_U)[0]
        expected = 10.0 * (x_s[0] - 0.2) * s
        assert np.abs(grad - expected).max() < 1e-12

    def test_is_the_flow_parameter_derivative_off_manifold(self):
        # the flow's right-hand side and manifold_gradient share one kernel
        from ssflow.core import FlowConfig
        from ssflow.flow import _assemble

        prob = NgfErkProblem().with_generated_data(3)
        problem = prob.flow_problem(FlowConfig(lam=5.0))
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = rng.uniform(-2.0, 1.0, 6)
            states = rng.uniform(0.0, 3.0, (10, 2))
            d_theta, _ = _assemble(problem, theta, states)
            grad = manifold_gradient(
                problem.model, problem.objective, theta, list(states), problem.conditions
            )
            assert np.array_equal(grad, -d_theta)

    def test_state_independent_objective(self):
        prob = ConversionReactionProblem()
        model = prob.model()
        objective = ObjectiveSpec(
            eval=lambda theta, states: float(theta @ theta),
            grad_theta=lambda theta, states: 2.0 * theta,
            grad_x=lambda theta, states: [np.zeros(1)],
        )
        theta = np.array([2.0, 0.5])
        grad = manifold_gradient(
            model, objective, theta, [np.array([0.3])], prob.conditions()
        )
        assert np.array_equal(grad, 2.0 * theta)

    def test_matches_reduced_objective_finite_differences_cr(self):
        prob = ConversionReactionProblem()
        model = prob.model()
        objective = prob.objective()
        conditions = prob.conditions()
        rng = np.random.default_rng(23)
        for _ in range(100):
            theta = rng.uniform(0.1, 8.0, 2)
            x_s = model.analytic_steady_state(theta, NO_U)
            grad = manifold_gradient(model, objective, theta, [x_s], conditions)
            fd = numerics.finite_diff_jacobian(
                lambda t: np.array([reduced_objective_cr(t, prob)[0]]), theta
            )[0]
            assert np.abs(grad - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())

    def test_matches_reduced_objective_finite_differences_ngf(self):
        from ssflow.models import reduced_objective_ngf

        prob = NgfErkProblem().with_generated_data(0)
        model = prob.model()
        objective = prob.objective()
        conditions = prob.conditions()
        rng = np.random.default_rng(29)
        for _ in range(100):
            theta = rng.uniform(-2.0, 1.0, 6)
            states = [
                model.analytic_steady_state(theta, c.u) for c in conditions
            ]
            grad = manifold_gradient(model, objective, theta, states, conditions)
            fd = numerics.finite_diff_jacobian(
                lambda t: np.array([reduced_objective_ngf(t, prob)[0]]), theta
            )[0]
            assert np.abs(grad - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())
