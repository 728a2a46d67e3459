"""Domain type tests: model validation, flow state packing, config checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssflow.core import (
    Condition,
    FlowConfig,
    FlowState,
    ModelSpec,
    RunResult,
    StopReason,
    validate_model,
)
from ssflow.models import conversion_reaction_model, ngf_erk_model

NAN = float("nan")


def linear_decay_model():
    return ModelSpec(
        n_x=2,
        n_theta=1,
        n_u=0,
        f=lambda theta, x, u: -x,
        jac_x=lambda theta, x, u: -np.eye(2),
        jac_theta=lambda theta, x, u: np.zeros((2, 1)),
        name="linear_decay",
    )


def rate_decay_model(**batched):
    """dx/dt = -theta_1 x with two states; batched forms as given."""
    return ModelSpec(
        n_x=2,
        n_theta=1,
        n_u=0,
        f=lambda theta, x, u: -theta[0] * x,
        jac_x=lambda theta, x, u: -theta[0] * np.eye(2),
        jac_theta=lambda theta, x, u: -x[:, None],
        name="rate_decay",
        **batched,
    )


class TestValidateModel:
    def test_conversion_reaction_jacobians(self):
        report = validate_model(conversion_reaction_model(), n_samples=100, seed=0)
        assert report.ok(1e-6)
        assert report.max_rel_err_jac_x < 1e-6
        assert report.max_rel_err_jac_theta < 1e-6

    def test_ngf_erk_jacobians(self):
        report = validate_model(ngf_erk_model(), n_samples=100, seed=0)
        assert report.ok(1e-6)

    def test_transposed_jacobian_flagged(self):
        base = conversion_reaction_model()
        wrong = ModelSpec(
            n_x=1,
            n_theta=2,
            n_u=0,
            f=base.f,
            jac_x=base.jac_x,
            # wrong on purpose: the parameter Jacobian with swapped columns
            jac_theta=lambda theta, x, u: base.jac_theta(theta, x, u)[:, ::-1],
            name="wrong",
        )
        report = validate_model(wrong, n_samples=50, seed=1)
        assert report.max_rel_err_jac_theta > 1e-2

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        # a report over no sample would pass having checked nothing
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            validate_model(linear_decay_model(), n_samples=n_samples)

    def test_linear_model_exact(self):
        report = validate_model(linear_decay_model(), n_samples=20, seed=2)
        assert report.max_rel_err_jac_x < 1e-9
        assert report.max_rel_err_jac_theta < 1e-12

    def test_non_finite_model_recorded_as_failure(self):
        bad = ModelSpec(
            n_x=1,
            n_theta=1,
            n_u=0,
            f=lambda theta, x, u: np.array([np.nan]),
            jac_x=lambda theta, x, u: np.zeros((1, 1)),
            jac_theta=lambda theta, x, u: np.zeros((1, 1)),
            name="bad",
        )
        report = validate_model(bad, n_samples=3, seed=0)
        assert len(report.failures) == 3
        assert not report.ok()

    def test_batched_kernels_with_one_theta_per_row(self):
        # the per-condition kernels stacked by ModelSpec pass; a batched
        # jac_x that reads theta[0] as a scalar gives every row the first
        # row's rate, and a batched f that needs one theta raises
        assert validate_model(rate_decay_model(), n_samples=20, seed=3).ok()

        def jac_x_batch(theta, x_mat, u_mat):
            return np.stack([-theta[0] * np.eye(2)] * len(x_mat))

        def f_batch(theta, x_mat, u_mat):
            return -np.asarray(theta).item() * x_mat

        report = validate_model(
            rate_decay_model(jac_x_batch=jac_x_batch, f_batch=f_batch),
            n_samples=20,
            seed=3,
        )
        assert report.max_rel_err_jac_x < 1e-6
        assert not report.ok()
        messages = [failure[-1] for failure in report.failures]
        assert messages[0].startswith("f_batch with one theta per row raises ValueError")
        assert [failure[0] for failure in report.failures[1:]] == [1, 2, 3, 4]
        for message in messages[1:]:
            assert message.startswith("jac_x_batch with one theta per row: row ")
            assert "differs from jac_x" in message


class TestModelSpecBatchedForms:
    def test_missing_batched_forms_stack_the_per_condition_calls(self):
        model = linear_decay_model()
        x_mat = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
        u_mat = np.zeros((3, 0))
        theta = np.array([0.7])
        assert np.array_equal(model.f_batch(theta, x_mat, u_mat), -x_mat)
        assert np.array_equal(
            model.jac_x_batch(theta, x_mat, u_mat), np.stack([-np.eye(2)] * 3)
        )
        assert model.jac_theta_batch(theta, x_mat, u_mat).shape == (3, 2, 1)

    def test_given_batched_form_is_kept(self):
        def f_batch(theta, x_mat, u_mat):
            return -x_mat

        model = dataclasses.replace(linear_decay_model(), f_batch=f_batch)
        assert model.f_batch is f_batch

    def test_replaced_per_condition_form_restacks(self):
        model = dataclasses.replace(linear_decay_model(), f=lambda theta, x, u: 2.0 * x)
        x_mat = np.array([[1.0, 2.0]])
        assert np.array_equal(model.f_batch(np.zeros(1), x_mat, np.zeros((1, 0))), 2.0 * x_mat)


class TestAnalyticSteadyStates:
    @pytest.mark.parametrize(
        "model,n_u", [(conversion_reaction_model(), 0), (ngf_erk_model(), 1)]
    )
    def test_steady_state_zeroes_vector_field(self, model, n_u):
        rng = np.random.default_rng(11)
        for _ in range(200):
            theta = rng.uniform(-1.0, 1.0, model.n_theta)
            u = rng.uniform(0.0, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            assert np.abs(model.f(theta, x_s, u)).max() < 1e-12


class TestCondition:
    def test_rejects_non_finite_data(self):
        with pytest.raises(ValueError, match="finite"):
            Condition(u=np.zeros(1), data=np.array([np.inf]), id="bad")

    def test_coerces_scalars(self):
        c = Condition(u=1.0, data=0.5)
        assert c.u.shape == (1,)
        assert c.data.shape == (1,)


class TestFlowState:
    def test_pack_unpack_round_trip(self):
        state = FlowState(
            theta=np.array([1.0, 2.0]),
            states=[np.array([0.1]), np.array([0.2])],
            r=3.5,
        )
        vec = state.pack()
        back = FlowState.unpack(vec, n_theta=2, n_x=1, m=2, r=3.5)
        assert np.array_equal(back.theta, state.theta)
        assert all(np.array_equal(a, b) for a, b in zip(back.states, state.states))
        assert back.r == 3.5

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pack_unpack_round_trip_keeps_every_bit(self, data):
        # any floats, NaN, +-inf and -0.0 included, come back bit for bit,
        # and the unpacked state does not share memory with the vector
        n_theta = data.draw(st.integers(1, 6), label="n_theta")
        m = data.draw(st.integers(1, 10), label="m")
        n_x = data.draw(st.integers(1, 3), label="n_x")
        theta = data.draw(arrays(float, n_theta), label="theta")
        states = data.draw(arrays(float, (m, n_x)), label="states")
        r = data.draw(st.floats(), label="r")
        vec = FlowState(theta=theta, states=states, r=r).pack()
        assert vec.shape == (n_theta + m * n_x,)
        back = FlowState.unpack(vec, n_theta, n_x, m, r=r)
        assert back.theta.shape == theta.shape
        assert back.states.shape == states.shape
        assert back.theta.tobytes() == theta.tobytes()
        assert back.states.tobytes() == states.tobytes()
        assert back.r is r
        assert not np.shares_memory(back.theta, vec)
        assert not np.shares_memory(back.states, vec)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FlowState.unpack(np.zeros(5), n_theta=2, n_x=1, m=2)

    def test_is_finite(self):
        good = FlowState(theta=np.zeros(1), states=[np.zeros(1)])
        bad = FlowState(theta=np.array([np.nan]), states=[np.zeros(1)])
        assert good.is_finite()
        assert not bad.is_finite()


class TestFlowConfig:
    def test_defaults(self):
        cfg = FlowConfig(lam=20.0)
        assert cfg.tol == 1e-6
        assert cfg.r_max == 1e4
        assert cfg.max_rhs_evals == 100_000
        assert cfg.integrator_rel_tol == 1e-6
        assert cfg.integrator_abs_tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"lam": 2.0, "tol": 0.0},
            {"lam": 2.0, "r_max": -1.0},
            {"lam": 2.0, "integrator_rel_tol": 0.0},
            {"lam": 2.0, "max_rhs_evals": 0},
            # NaN fails every check
            {"lam": NAN},
            {"lam": 2.0, "tol": NAN},
            {"lam": 2.0, "r_max": NAN},
            {"lam": 2.0, "integrator_rel_tol": NAN},
            {"lam": 2.0, "integrator_abs_tol": NAN},
            {"lam": 2.0, "max_rhs_evals": NAN},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)

    def test_lambda_zero_allowed(self):
        assert FlowConfig(lam=0.0).lam == 0.0


class TestRunResult:
    def test_converged_requires_tolerance_met(self):
        state = FlowState(theta=np.zeros(1), states=[np.zeros(1)])
        with pytest.raises(ValueError):
            RunResult(
                final=state,
                objective=0.0,
                manifold_residual=0.0,
                converged=True,
                reason=StopReason.HORIZON_REACHED,
                rhs_evals=0,
                steps_accepted=0,
                steps_rejected=0,
                wall_time=0.0,
            )
