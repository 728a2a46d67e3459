"""Domain type tests: model validation, flow state packing, config checks."""

import dataclasses

import numpy as np
import pytest

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
