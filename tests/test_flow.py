"""Optimiser-flow tests: right-hand side, stopping, retraction, descent."""

import numpy as np
import pytest

from ssflow.core import FlowConfig, FlowState, ModelSpec, ObjectiveSpec, StopReason
from ssflow.flow import (
    FlowProblem,
    _assemble,
    manifold_residual,
    rhs,
    run_flow,
    stop_check,
)
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    conversion_reaction_model,
    ngf_erk_model,
    reduced_objective_cr,
)

NO_U = np.zeros(0)


def cr_flow_problem(lam, **cfg_overrides):
    prob = ConversionReactionProblem()
    return prob.flow_problem(FlowConfig(lam=lam, **cfg_overrides))


def cr_optimum():
    """Newton iteration on the reduced 2-D objective from the prior mean."""
    from ssflow import numerics

    prob = ConversionReactionProblem()
    theta = np.array([3.9, 1.5])
    for _ in range(50):
        g = reduced_objective_cr(theta, prob)[1]
        h = numerics.finite_diff_jacobian(
            lambda t: reduced_objective_cr(t, prob)[1], theta
        )
        theta = theta - np.linalg.solve(h, g)
        if np.abs(g).max() < 1e-14:
            break
    return theta


def derivative(problem, state):
    """The packed flow rhs at state, unpacked into its blocks."""
    dy = rhs(problem, state.r, state.pack())
    model = problem.model
    return FlowState.unpack(dy, model.n_theta, model.n_x, len(problem.conditions))


class TestRhs:
    def test_vanishes_at_optimum(self):
        problem = cr_flow_problem(20.0)
        theta_star = cr_optimum()
        x_star = problem.model.analytic_steady_state(theta_star, NO_U)
        d = derivative(problem, FlowState(theta=theta_star, states=[x_star]))
        assert np.abs(d.theta).max() < 1e-8
        assert np.abs(d.states[0]).max() < 1e-8

    def test_tangent_flow_on_manifold(self):
        # lam = 0 and an on-manifold point: dx/dr = S dtheta/dr exactly
        from ssflow.sensitivity import sensitivity_exact

        problem = cr_flow_problem(0.0)
        theta = np.array([2.0, 1.0])
        x_s = problem.model.analytic_steady_state(theta, NO_U)
        d = derivative(problem, FlowState(theta=theta, states=[x_s]))
        s = sensitivity_exact(problem.model, theta, x_s, NO_U)
        assert np.abs(d.states[0] - s @ d.theta).max() < 1e-12

    def test_retraction_contribution(self):
        # at theta=(3.9,1.5), x=0.9 the retraction term is
        # lam * f = 20 * (1.5 - 5.4*0.9) = -67.2
        p0 = cr_flow_problem(0.0)
        p20 = cr_flow_problem(20.0)
        state = FlowState(theta=np.array([3.9, 1.5]), states=[np.array([0.9])])
        d0 = derivative(p0, state)
        d20 = derivative(p20, state)
        contribution = d20.states[0][0] - d0.states[0][0]
        assert abs(contribution - (-67.2)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        problem = cr_flow_problem(2.0)
        bad = FlowState(theta=np.zeros(3), states=[np.zeros(1)])
        with pytest.raises(ValueError):
            run_flow(problem, bad)


class TestStopCheck:
    # conversion reaction blocks: theta (2 entries) and one state (1 entry)
    @staticmethod
    def stops(d_theta, d_x, tol=1e-6):
        problem = cr_flow_problem(2.0, tol=tol)
        dy = np.concatenate([d_theta, d_x])
        return stop_check(problem, np.zeros(dy.size), dy)

    def test_all_zero(self):
        assert self.stops(np.zeros(2), np.zeros(1))

    def test_theta_block_above(self):
        assert not self.stops(np.array([1e-5, 0.0]), np.zeros(1))

    def test_both_below(self):
        # each block is below tol although their joint norm (1.03e-6) is not
        assert self.stops(np.array([5e-7, 0.0]), np.array([9e-7]))

    def test_later_state_block_above(self):
        problem = NgfErkProblem().with_generated_data(0).flow_problem(
            FlowConfig(lam=1.0, tol=1e-6)
        )
        dy = np.zeros(6 + 10 * 2)
        dy[6 + 7 * 2 + 1] = 2e-6
        assert not stop_check(problem, np.zeros(dy.size), dy)
        dy[6 + 7 * 2 + 1] = 5e-7
        assert stop_check(problem, np.zeros(dy.size), dy)


class TestManifoldResidual:
    def test_analytic_steady_state_near_zero(self):
        problem = cr_flow_problem(2.0)
        theta = np.array([3.9, 1.5])
        x_s = problem.model.analytic_steady_state(theta, NO_U)
        assert manifold_residual(problem, FlowState(theta=theta, states=[x_s])) < 1e-12

    def test_off_manifold_value(self):
        problem = cr_flow_problem(2.0)
        state = FlowState(theta=np.array([3.9, 1.5]), states=[np.array([0.9])])
        assert abs(manifold_residual(problem, state) - 3.36) < 1e-12

    def test_ngf_on_manifold_point(self):
        model = ngf_erk_model()
        # theta = 0, u = 1: x_s = (0.5, 0.6) by direct evaluation
        f = model.f(np.zeros(6), np.array([0.5, 0.6]), np.array([1.0]))
        assert np.abs(f).max() < 1e-12


class TestRunFlow:
    def test_converges_near_optimum(self):
        problem = cr_flow_problem(20.0)
        theta0 = np.array([3.5, 1.8])
        x0 = problem.model.analytic_steady_state(theta0, NO_U)
        result = run_flow(problem, FlowState(theta=theta0, states=[x0]))
        assert result.converged
        assert result.reason is StopReason.TOLERANCE_MET
        assert result.manifold_residual < 1e-6
        assert np.linalg.norm(result.final.theta - cr_optimum()) < 1e-4

    def test_off_manifold_start_retracts(self):
        problem = cr_flow_problem(20.0)
        init = FlowState(theta=np.array([6.0, 4.0]), states=[np.array([0.95])])
        result = run_flow(problem, init)
        assert result.converged
        assert result.manifold_residual < 1e-6

    def test_two_phase_dynamics(self):
        # large lam: the residual collapses long before the parameters settle
        init = FlowState(theta=np.array([3.9, 1.5]), states=[np.array([0.9])])
        fractions = {}
        for lam in (2.0, 20.0):
            problem = cr_flow_problem(lam)
            result, traj = run_flow(problem, init, store_trajectory=True)
            assert result.converged
            r_drop = next(
                s.r for s in traj if manifold_residual(problem, s) < 1e-3
            )
            fractions[lam] = r_drop / result.final.r
        assert fractions[20.0] < 0.1
        assert fractions[2.0] > fractions[20.0]

    def test_tangent_invariance_lambda_zero(self):
        problem = cr_flow_problem(0.0)
        theta0 = np.array([3.0, 2.0])
        x0 = problem.model.analytic_steady_state(theta0, NO_U)
        result, traj = run_flow(
            problem, FlowState(theta=theta0, states=[x0]), store_trajectory=True
        )
        assert result.converged
        assert max(manifold_residual(problem, s) for s in traj) < 1e-4

    def test_descent_after_retraction(self):
        problem = cr_flow_problem(20.0)
        init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
        result, traj = run_flow(problem, init, store_trajectory=True)
        objs = [
            problem.objective.eval(s.theta, s.states)
            for s in traj
            if manifold_residual(problem, s) < 1e-6
        ]
        assert len(objs) > 2
        assert all(b <= a + 1e-8 for a, b in zip(objs, objs[1:]))

    def test_tiny_horizon(self):
        problem = cr_flow_problem(20.0, r_max=1e-12)
        init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
        result = run_flow(problem, init)
        assert not result.converged
        assert result.reason is StopReason.HORIZON_REACHED
        assert np.abs(result.final.theta - init.theta).max() < 1e-9

    def test_budget_exhausted(self):
        problem = cr_flow_problem(20.0, max_rhs_evals=10)
        init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
        result = run_flow(problem, init)
        assert not result.converged
        assert result.reason is StopReason.EVAL_BUDGET_EXHAUSTED

    def test_non_finite_init_rejected(self):
        problem = cr_flow_problem(20.0)
        bad = FlowState(theta=np.array([np.nan, 1.0]), states=[np.array([0.5])])
        with pytest.raises(ValueError):
            run_flow(problem, bad)

    def test_lambda_endpoint_robustness(self):
        init = FlowState(theta=np.array([6.0, 0.5]), states=[np.array([0.4])])
        endpoints = []
        for lam in (2.0, 20.0, 200.0):
            result = run_flow(cr_flow_problem(lam), init)
            assert result.converged
            endpoints.append(result.final.theta)
        for a in endpoints:
            for b in endpoints:
                assert np.linalg.norm(a - b) < 1e-4

    def test_trajectory_starts_at_init(self):
        problem = cr_flow_problem(20.0)
        init = FlowState(theta=np.array([3.9, 1.5]), states=[np.array([0.9])])
        result, traj = run_flow(problem, init, store_trajectory=True)
        assert np.array_equal(traj[0].theta, init.theta)
        assert traj[0].r == 0.0
        assert traj[-1].r == result.final.r


def hand_written_conversion_reaction(xi=1.0):
    """The conversion reaction with per-condition kernels only, as a user
    would write it; the batched forms are left to ModelSpec."""
    return ModelSpec(
        n_x=1,
        n_theta=2,
        n_u=0,
        f=lambda theta, x, u: np.array([theta[1] * xi - (theta[0] + theta[1]) * x[0]]),
        jac_x=lambda theta, x, u: np.array([[-(theta[0] + theta[1])]]),
        jac_theta=lambda theta, x, u: np.array([[-x[0], xi - x[0]]]),
    )


class TestOnePath:
    def test_per_condition_model_runs_bit_identical_to_built_in(self):
        prob = ConversionReactionProblem()
        built_in = prob.flow_problem(FlowConfig(lam=20.0))
        user = FlowProblem(
            model=hand_written_conversion_reaction(),
            objective=prob.objective(),
            conditions=prob.conditions(),
            config=FlowConfig(lam=20.0),
        )
        init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
        a = run_flow(built_in, init)
        b = run_flow(user, init)
        assert a.reason is b.reason is StopReason.TOLERANCE_MET
        assert np.array_equal(a.final.pack(), b.final.pack())
        assert a.final.r == b.final.r
        assert (a.objective, a.manifold_residual) == (b.objective, b.manifold_residual)
        counts = ("rhs_evals", "steps_accepted", "steps_rejected", "jacobian_evals")
        assert [getattr(a, k) for k in counts] == [getattr(b, k) for k in counts]
        assert (a.min_step, a.max_step) == (b.min_step, b.max_step)

    def test_exactly_singular_state_jacobian_gives_zero_sensitivity(self):
        # theta = (0, 0): d f/d x = -(theta_1 + theta_2) = 0 and f = 0, so the
        # truncated pseudoinverse sensitivity is zero and the parameters
        # follow the prior gradient alone
        prob = ConversionReactionProblem()
        problem = prob.flow_problem(FlowConfig(lam=20.0))
        d_theta, d_states = _assemble(problem, np.zeros(2), np.array([[0.3]]))
        assert np.array_equal(d_theta, np.asarray(prob.theta_bar))
        assert np.all(np.isfinite(d_states))
        assert np.array_equal(d_states, np.zeros((1, 1)))


class TestNumericalFailureCounts:
    def test_reports_the_work_done_before_the_failure(self):
        # grad_theta (one call per rhs evaluation) turns NaN after 200 calls
        prob = ConversionReactionProblem()
        base = prob.objective()
        calls = []

        def grad_theta(theta, states):
            calls.append(1)
            g = base.grad_theta(theta, states)
            return g if len(calls) <= 200 else np.full_like(g, np.nan)

        problem = FlowProblem(
            model=prob.model(),
            objective=ObjectiveSpec(base.eval, grad_theta, base.grad_x),
            conditions=prob.conditions(),
            config=FlowConfig(lam=20.0),
        )
        init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
        result, traj = run_flow(problem, init, store_trajectory=True)
        assert result.reason is StopReason.NUMERICAL_FAILURE
        assert result.rhs_evals == len(calls) == 201
        assert result.steps_accepted == len(traj) - 1 > 0
        assert result.jacobian_evals >= result.steps_accepted
        assert 0.0 < result.min_step <= result.max_step
        assert np.array_equal(result.final.pack(), traj[-1].pack())
