"""Optimiser-flow tests: right-hand side, stopping, retraction, descent."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssflow import flow, integrator
from ssflow.core import FlowConfig, FlowState, ModelSpec, ObjectiveSpec, StopReason
from ssflow.flow import (
    FlowNumericalError,
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
    dy = rhs(problem, state.pack())
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

    def test_ragged_state_blocks_rejected(self):
        # the right total size, but not one n_x = 2 block per condition: a
        # ragged list is no state array, and a (5, 4) one fails the shape
        # check
        prob = NgfErkProblem().with_generated_data(0)
        problem = prob.flow_problem(FlowConfig(lam=20.0, max_rhs_evals=50))
        sizes = [3, 1] + [2] * 8
        with pytest.raises(ValueError):
            FlowState(theta=np.zeros(6), states=[np.full(k, 0.5) for k in sizes])
        bad = FlowState(theta=np.zeros(6), states=np.full((5, 4), 0.5))
        with pytest.raises(ValueError, match=r"states \(5, 4\).*n_x = 2"):
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
        # the parameter block alone above tol, by its last entry
        dy[5] = 2e-6
        assert not stop_check(problem, np.zeros(dy.size), dy)


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


def per_condition_model(model):
    """model with its per-condition kernels only; ModelSpec stacks them into
    the batched forms."""
    return ModelSpec(
        n_x=model.n_x,
        n_theta=model.n_theta,
        n_u=model.n_u,
        f=model.f,
        jac_x=model.jac_x,
        jac_theta=model.jac_theta,
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

    def test_per_condition_ngf_runs_bit_identical_to_built_in(self):
        # with 20 state columns every FD Jacobian shares one model
        # evaluation, so the stacked per-condition kernels get one theta per
        # row
        prob = NgfErkProblem().with_generated_data(0)
        config = FlowConfig(lam=20.0, max_rhs_evals=1500)
        built_in = prob.flow_problem(config)
        user = dataclasses.replace(built_in, model=per_condition_model(built_in.model))
        a = run_flow(built_in, ngf_start())
        b = run_flow(user, ngf_start())
        assert a.reason is b.reason is StopReason.EVAL_BUDGET_EXHAUSTED
        assert a.jacobian_evals > 10
        assert_same_run(a, b)
        assert (a.objective, a.manifold_residual) == (b.objective, b.manifold_residual)

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


class TestNonFiniteBlocks:
    """At one point, a non-finite derivative block raises an error naming
    it: the parameter block when it holds one, else each state block that
    does."""

    @pytest.mark.parametrize(
        "bad_rows, bad_gradient, message",
        [
            ([2, 7], False, "non-finite derivative in state block(s) [2, 7]"),
            ([], True, "non-finite derivative in parameter block"),
            ([2, 7], True, "non-finite derivative in parameter block"),
        ],
    )
    def test_names_the_failing_block(self, bad_rows, bad_gradient, message):
        # an infinite f at some condition rows reaches only their state
        # blocks, through the retraction term; a NaN parameter gradient
        # reaches both blocks
        prob = NgfErkProblem().with_generated_data(0)
        base = prob.flow_problem(FlowConfig(lam=20.0))
        f_batch = base.model.f_batch

        def f_inf_at_rows(theta, x_mat, u_mat):
            out = f_batch(theta, x_mat, u_mat)
            out[bad_rows] = np.inf
            return out

        objective = base.objective
        if bad_gradient:
            objective = dataclasses.replace(
                objective, grad_theta=lambda theta, states: np.full(6, np.nan)
            )
        model = dataclasses.replace(base.model, f_batch=f_inf_at_rows)
        problem = dataclasses.replace(base, model=model, objective=objective)
        with pytest.raises(FlowNumericalError) as info:
            rhs(problem, ngf_start().pack())
        assert str(info.value) == message


def nan_from_point(grad, k):
    """grad at one point or a stack, with a NaN gradient at the k-th point
    it sees and every later one, and the list of the points of each call."""
    calls = []

    def wrapped(theta, states):
        seen = sum(calls)
        calls.append(len(theta) if np.ndim(theta) == 2 else 1)
        g = np.array(grad(theta, states), dtype=float)
        g.reshape(calls[-1], -1)[max(k - 1 - seen, 0) :] = np.nan
        return g

    return wrapped, calls


class TestNumericalFailureCounts:
    def test_reports_the_work_done_before_the_failure(self):
        # grad_theta (one call per rhs evaluation) turns NaN after 200 calls
        prob = ConversionReactionProblem()
        base = prob.objective()
        grad_theta, calls = nan_from_point(base.grad_theta, 201)
        problem = FlowProblem(
            model=prob.model(),
            objective=ObjectiveSpec(base.eval, grad_theta, base.grad_x),
            conditions=prob.conditions(),
            config=FlowConfig(lam=20.0),
        )
        init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
        result, traj = run_flow(problem, init, store_trajectory=True)
        assert result.reason is StopReason.NUMERICAL_FAILURE
        assert result.rhs_evals == len(calls) == sum(calls) == 201
        assert result.steps_accepted == len(traj) - 1 > 0
        assert result.jacobian_evals >= result.steps_accepted
        assert 0.0 < result.min_step <= result.max_step
        assert np.array_equal(result.final.pack(), traj[-1].pack())

    def test_reports_the_work_done_before_a_failure_inside_a_stack(self):
        # NGF: grad_theta is NaN at the 190th point of the plain-call run,
        # row 15 of the seventh Jacobian's FD stack (points 176-201). The
        # merged call at that Jacobian's base point meets it first and
        # raises, so the value is made again as a plain call and the
        # Jacobian as its own 26-point stack, which raises too and is made
        # again as plain calls up to the failing one: the run counts up to
        # it, as plain rhs calls would
        base = ngf_flow_problem()
        points = plain_points(base, ngf_start(), 190)
        grad_theta, calls = nan_at(base.objective.grad_theta, points[-1:])
        problem = with_gradient(base, grad_theta=grad_theta)
        result, traj = run_flow(problem, ngf_start(), store_trajectory=True)
        assert result.reason is StopReason.NUMERICAL_FAILURE
        assert calls[-18:] == [27, 1, 26] + [1] * 15
        # every point evaluated before the failing stack: the 175 counted,
        # the discarded rows and the merged call that failed
        assert sum(calls[:-16]) == 175 + result.discarded_evals + 27
        assert result.rhs_evals == 175 + 15 == 190
        assert result.steps_accepted == len(traj) - 1 > 0
        assert result.jacobian_evals >= result.steps_accepted
        assert 0.0 < result.min_step <= result.max_step
        assert np.array_equal(result.final.pack(), traj[-1].pack())

    def test_stacked_gradient_failure_counts_up_to_its_point(self, monkeypatch):
        # grad_theta is NaN from the 190th point of the plain-call run on
        # (row 15 of the seventh Jacobian's stack): with merged stacks,
        # with separate ones and with plain calls the run ends at that
        # point, with the same error, counts and final point
        base = ngf_flow_problem()
        points = plain_points(base, ngf_start(), 260)
        grad_theta, _ = nan_at(base.objective.grad_theta, points[189:])
        problem = with_gradient(base, grad_theta=grad_theta)
        runs = each_evaluation_mode(problem, ngf_start(), monkeypatch)
        merged, error = runs["merged"]
        assert merged.reason is StopReason.NUMERICAL_FAILURE
        assert merged.rhs_evals == error.stats.rhs_evals == 190
        assert merged.steps_accepted > 0
        assert str(error) == "non-finite derivative in parameter block"
        assert_same_failure(runs)


def ngf_start():
    rng = np.random.default_rng(8)
    theta = rng.uniform(*NgfErkProblem.theta_box, 6)
    states = rng.uniform(*NgfErkProblem.state_box, (10, 2))
    return FlowState(theta=theta, states=list(states))


def run_flow_integration(problem, init):
    """The integration run_flow makes, with its exception left to propagate."""
    cfg = problem.config
    return integrator.integrate_adaptive(
        partial(flow.rhs, problem),
        init.pack(),
        cfg.r_max,
        rel_tol=cfg.integrator_rel_tol,
        abs_tol=cfg.integrator_abs_tol,
        rhs_fd=partial(flow.rhs_fd, problem),
    )


def ngf_flow_problem():
    return NgfErkProblem().with_generated_data(0).flow_problem(FlowConfig(lam=20.0))


def with_gradient(problem, **gradients):
    """problem with the given objective gradients swapped in."""
    objective = dataclasses.replace(problem.objective, **gradients)
    return dataclasses.replace(problem, objective=objective)


def plain_points(problem, init, count):
    """The first count points that run_flow's integration from init
    evaluates with plain rhs calls, packed, in order; they are distinct."""
    points = []

    def record(y):
        points.append(y.copy())
        return rhs(problem, y)

    cfg = problem.config
    integrator.integrate_adaptive(
        record,
        init.pack(),
        cfg.r_max,
        rel_tol=cfg.integrator_rel_tol,
        abs_tol=cfg.integrator_abs_tol,
        budget=count,
    )
    assert len({y.tobytes() for y in points[:count]}) == count
    return points[:count]


def packed_rows(theta, states):
    """The packed points of a gradient call at one point or a stack, one
    row each."""
    theta = np.atleast_2d(theta)
    return np.concatenate([theta, np.reshape(states, (len(theta), -1))], axis=1)


def nan_at(grad, points):
    """grad at one point or a stack, NaN at every one of the packed points
    (bit for bit), and the list of the points of each call."""
    bad = {y.tobytes() for y in points}
    calls = []

    def wrapped(theta, states):
        rows = packed_rows(theta, states)
        calls.append(len(rows))
        g = np.array(grad(theta, states), dtype=float)
        g.reshape(len(rows), -1)[[y.tobytes() in bad for y in rows]] = np.nan
        return g

    return wrapped, calls


def raising_at(grad, point, message):
    """grad at one point or a stack, raising FloatingPointError(message) at
    a call that meets the packed point (bit for bit)."""
    key = point.tobytes()

    def wrapped(theta, states):
        if key in [y.tobytes() for y in packed_rows(theta, states)]:
            raise FloatingPointError(message)
        return grad(theta, states)

    return wrapped


MERGED_RHS_FD = flow.rhs_fd
INTEGRATE = integrator.integrate_adaptive


def separate_rhs_fd(problem, y, value=False):
    """flow.rhs_fd refusing a base point's merged stack (its n FD points
    and itself), so each base value is a plain call and each FD Jacobian a
    stack call of its own."""
    if value:
        raise RuntimeError("merged stack refused")
    return MERGED_RHS_FD(problem, y)


def plain_integration(*args, rhs_fd=None, **kwargs):
    """integrate_adaptive with every evaluation a plain rhs call."""
    return INTEGRATE(*args, **kwargs)


EVALUATION_MODES = {
    "merged": None,
    "separate": (flow, "rhs_fd", separate_rhs_fd),
    "plain": (integrator, "integrate_adaptive", plain_integration),
}


def each_evaluation_mode(problem, init, monkeypatch):
    """Per evaluation mode, run_flow's result from init and the exception
    its integration raises (run_flow_integration)."""
    runs = {}
    for mode, patch in EVALUATION_MODES.items():
        with monkeypatch.context() as mp:
            if patch is not None:
                mp.setattr(*patch)
            result = run_flow(problem, init)
            with pytest.raises(Exception) as info:
                run_flow_integration(problem, init)
        runs[mode] = (result, info.value)
    return runs


def assert_same_failure(runs):
    """Every mode ends alike: the same run, and an error of the same type,
    message and counts (discarded rows apart)."""
    merged, error = runs["merged"]
    plain, plain_error = runs["plain"]
    assert plain.discarded_evals == plain_error.stats.discarded_evals == 0
    for result, other in runs.values():
        assert_same_run(merged, result)
        assert type(other) is type(error)
        assert str(other) == str(error)
        assert dataclasses.replace(other.stats, discarded_evals=0) == (
            dataclasses.replace(error.stats, discarded_evals=0)
        )


def assert_same_run(a, b):
    counts = (
        "reason",
        "rhs_evals",
        "steps_accepted",
        "steps_rejected",
        "jacobian_evals",
    )
    assert [getattr(a, k) for k in counts] == [getattr(b, k) for k in counts]
    assert np.array_equal(a.final.pack(), b.final.pack())
    assert a.final.r == b.final.r
    assert (a.min_step, a.max_step) == (b.min_step, b.max_step)


def test_state_columns_share_their_model_part_from_two_on(monkeypatch):
    # the conversion reaction (one state column) keeps plain rhs calls; NGF
    # evaluates each FD Jacobian as one stack
    seen = []
    integrate = integrator.integrate_adaptive

    def capture(*args, rhs_fd=None, **kwargs):
        seen.append(rhs_fd)
        return integrate(*args, rhs_fd=rhs_fd, **kwargs)

    monkeypatch.setattr(integrator, "integrate_adaptive", capture)
    cr_init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
    run_flow(cr_flow_problem(20.0, max_rhs_evals=10), cr_init)
    ngf = NgfErkProblem().with_generated_data(0)
    run_flow(ngf.flow_problem(FlowConfig(lam=20.0, max_rhs_evals=10)), ngf_start())
    assert seen[0] is None
    assert seen[1].func is flow.rhs_fd


class TestSharedColumnFailureParity:
    """A failure inside an FD Jacobian evaluated as one stack ends the run at
    the same counted rhs call, with the same error, as one plain rhs call
    per column."""

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("nan", FlowNumericalError, "non-finite Jacobian in condition block(s) [4]"),
            ("raise", FloatingPointError, "jac_x beyond the limit"),
        ],
    )
    def test_jacobian_fault_beyond_one_state_step(
        self, monkeypatch, fault, error, message
    ):
        # condition 4's state Jacobian turns NaN, or its kernel raises, once
        # the second state entry passes half its FD step: only that state
        # column's point reaches it
        prob = NgfErkProblem().with_generated_data(0)
        base = prob.flow_problem(FlowConfig(lam=20.0))
        init = ngf_start()
        i, k = 4, 1
        x0 = init.states[i][k]
        limit = x0 + 0.5 * integrator._SQRT_EPS * (1.0 + abs(x0))
        jac_x_batch = base.model.jac_x_batch

        def faulty(theta, x_mat, u_mat):
            out = jac_x_batch(theta, x_mat, u_mat)
            beyond = (u_mat[:, 0] == prob.inputs[i]) & (x_mat[:, k] > limit)
            if beyond.any() and fault == "raise":
                raise FloatingPointError(message)
            out[beyond] = np.nan
            return out

        model = dataclasses.replace(base.model, jac_x_batch=faulty)
        problem = dataclasses.replace(base, model=model)
        column = 6 + 2 * i + k
        runs = each_evaluation_mode(problem, init, monkeypatch)
        merged, merged_error = runs["merged"]
        assert type(merged_error) is error
        assert str(merged_error) == message
        stats = merged_error.stats
        assert (stats.rhs_evals, stats.jacobian_evals) == (1 + column + 1, 0)
        assert merged.reason is StopReason.NUMERICAL_FAILURE
        assert merged.rhs_evals == 1 + column + 1
        assert_same_failure(runs)

    def test_grad_x_raising_at_each_call_of_the_first_two_jacobians(self, monkeypatch):
        # grad_x raises at the k-th point of the plain-call run, for every
        # point of the first two Jacobians' steps. A merged call that meets
        # it is made again as separate calls, and a stack that meets it as
        # plain calls, so in every mode the run counts up to the k-th point
        # and ends with the same error
        base = ngf_flow_problem()
        init = ngf_start()
        n = 26
        jacobians = set()
        for k, point in enumerate(plain_points(base, init, 2 * (n + 3) + 1), 1):
            grad_x = raising_at(base.objective.grad_x, point, f"grad_x point {k}")
            problem = with_gradient(base, grad_x=grad_x)
            runs = each_evaluation_mode(problem, init, monkeypatch)
            merged, error = runs["merged"]
            assert merged.reason is StopReason.NUMERICAL_FAILURE
            assert merged.rhs_evals == error.stats.rhs_evals == k
            assert str(error) == f"grad_x point {k}"
            assert_same_failure(runs)
            jacobians.add(merged.jacobian_evals)
        assert jacobians == {0, 1, 2}


def per_condition_ngf_problem():
    """NGF with a per-condition-only model: the stack's rows are filled in
    row by row."""
    prob = NgfErkProblem().with_generated_data(0)
    built_in = prob.flow_problem(FlowConfig(lam=20.0))
    return dataclasses.replace(built_in, model=per_condition_model(built_in.model))


STACK_PROBLEMS = {
    "conversion_reaction": lambda: cr_flow_problem(20.0),
    "ngf": lambda: NgfErkProblem().with_generated_data(0).flow_problem(
        FlowConfig(lam=20.0)
    ),
    "ngf_per_condition_model": per_condition_ngf_problem,
}


def draw_base_point(data, n):
    """A base point of moderate coordinates, 0.0 and -0.0 among them, with
    up to three redrawn from any float, inf and NaN included, so that its
    FD stack can fail at any row."""
    y = data.draw(arrays(float, n, elements=st.floats(-4.0, 4.0)), label="y")
    for _ in range(data.draw(st.integers(0, 3), label="redrawn")):
        y[data.draw(st.integers(0, n - 1))] = data.draw(st.floats())
    return y


def per_point_values(problem, ys):
    """The per-point rhs values at the rows of ys, or None when a row fails."""
    values = []
    for y in ys:
        try:
            values.append(rhs(problem, y))
        except (FlowNumericalError, FloatingPointError):
            return None
    return values


@pytest.mark.parametrize("name", sorted(STACK_PROBLEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_derivative_equals_per_point_rhs(name, data):
    # batched equals a batch of one: row q of a drawn point's FD stack,
    # plain or merged with the point itself, has the bits of rhs at row q
    # alone, and the call raises a numerical failure iff some row fails
    # alone (the integrator then finds the row with plain calls). The
    # conversion reaction's one condition has no shared row in the plain
    # stack: every one of its points owns it
    problem = STACK_PROBLEMS[name]()
    n = problem.model.n_theta + len(problem.conditions) * problem.model.n_x
    y = draw_base_point(data, n)
    value = data.draw(st.booleans(), label="value")
    with np.errstate(all="ignore"):
        ys = integrator._fd_stack(y, value)
        values = per_point_values(problem, ys)
        if values is not None:
            got = flow.rhs_fd(problem, y, value)
            assert got.shape == ys.shape
            for q, want in enumerate(values):
                assert got[q].tobytes() == want.tobytes(), q
        else:
            with pytest.raises(flow._NUMERICAL_FAILURES):
                flow.rhs_fd(problem, y, value)


@pytest.mark.parametrize(
    "make", [ConversionReactionProblem, lambda: NgfErkProblem().with_generated_data(0)]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_objective_gradients_equal_per_point(make, data):
    # each gradient on a stack of points equals the same callable at each
    # point alone, bit for bit
    prob = make()
    model = prob.model()
    m = len(prob.conditions())
    objective = prob.objective()
    p = data.draw(st.integers(1, 30), label="p")
    value = st.floats(-1e6, 1e6)
    thetas = data.draw(arrays(float, (p, model.n_theta), elements=value))
    states = data.draw(arrays(float, (p, m, model.n_x), elements=value))
    g_theta = objective.grad_theta(thetas, states)
    g_x = objective.grad_x(thetas, states)
    assert g_theta.shape == thetas.shape and g_x.shape == states.shape
    for q in range(p):
        want_theta = objective.grad_theta(thetas[q], states[q])
        want_x = objective.grad_x(thetas[q], states[q])
        assert want_theta.shape == thetas[q].shape and want_x.shape == states[q].shape
        assert g_theta[q].tobytes() == want_theta.tobytes()
        assert g_x[q].tobytes() == want_x.tobytes()


def recording_kernels(problem):
    """problem with every batched kernel call's inputs appended to the
    returned list, as (name, theta, x_mat, u_mat)."""
    calls = []

    def recorded(name):
        kernel = getattr(problem.model, name)

        def call(theta, x_mat, u_mat):
            calls.append((name, np.array(theta), np.array(x_mat), np.array(u_mat)))
            return kernel(theta, x_mat, u_mat)

        return call

    names = ("f_batch", "jac_x_batch", "jac_theta_batch")
    model = dataclasses.replace(problem.model, **{k: recorded(k) for k in names})
    return dataclasses.replace(problem, model=model), calls


class TestDistinctRowPlan:
    """The FD stack of a point evaluates each distinct condition row once,
    in one call per kernel, by the problem's fixed plan: the base point's
    rows are shared by every point that has them, and each perturbed row is
    its own."""

    def setup_method(self):
        prob = NgfErkProblem().with_generated_data(0)
        problem = prob.flow_problem(FlowConfig(lam=20.0))
        self.problem, self.calls = recording_kernels(problem)

    def rows_per_kernel(self, ys):
        """(kernel, rows) of the rhs_fd call on the FD stack ys, whose calls
        are left in self.calls; each row of its value has the bits of rhs
        alone."""
        n = ys.shape[1]
        value = len(ys) > n
        # coordinate j of the base point is unperturbed in row j + 1
        y = ys[(np.arange(n) + 1) % len(ys), np.arange(n)]
        assert integrator._fd_stack(y, value).tobytes() == ys.tobytes()
        self.calls.clear()
        got = flow.rhs_fd(self.problem, y, value)
        stack_calls = list(self.calls)
        for q, row in enumerate(ys):
            assert got[q].tobytes() == rhs(self.problem, row).tobytes(), q
        self.calls[:] = stack_calls
        return sorted((name, len(x_mat)) for name, _, x_mat, _ in stack_calls)

    def test_signed_zero_base_coordinate_keeps_its_sign_in_the_shared_row(self):
        # condition 3's first state is -0.0 at the base point: its shared
        # row, the parameter columns' rows of condition 3 and the row of
        # its second state's column keep the sign bit; only its own state
        # column's point steps it
        y = ngf_start().pack()
        j = 6 + 2 * 3
        y[j] = -0.0
        for value in (False, True):
            ys = integrator._fd_stack(y, value)
            assert self.rows_per_kernel(ys) == [
                ("f_batch", 90),
                ("jac_theta_batch", 90),
                ("jac_x_batch", 90),
            ]
            for _, _, x_mat, _ in self.calls:
                signs = np.signbit(x_mat[:, 0]).tolist()
                assert signs[:10] == [i == 3 for i in range(10)]
                assert signs[10:70] == [i == 3 for i in range(10)] * 6
                assert signs[70:] == [k == j + 1 for k in range(6, 26)]

    def test_merged_value_row_owns_no_kernel_row(self):
        # the base point appended to its FD stack takes the shared rows:
        # the kernels see the plain stack's rows, bit for bit
        y = ngf_start().pack()
        n = y.size
        self.rows_per_kernel(integrator._fd_stack(y))
        plain = list(self.calls)
        self.rows_per_kernel(integrator._fd_stack(y, value=True))
        assert len(self.calls) == len(plain) == 3
        for got, want in zip(self.calls, plain):
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.tobytes() == b.tobytes()
        *_, row = self.problem.fd_plans[n + 1]
        assert row[n].tolist() == list(range(10))

    def test_problem_builds_its_plans_once(self, monkeypatch):
        # both stack shapes are planned on the first stacked call; later
        # calls at other points reuse the plans, and a new problem plans
        # its own
        built = []
        build = flow._fd_plan

        def counted(problem, p):
            built.append(p)
            return build(problem, p)

        monkeypatch.setattr(flow, "_fd_plan", counted)
        problem = ngf_flow_problem()
        rng = np.random.default_rng(4)
        for _ in range(3):
            y = ngf_start().pack() + rng.uniform(-0.1, 0.1, 26)
            for value in (False, True):
                flow.rhs_fd(problem, y, value)
            assert built == [26, 27]
        flow.rhs_fd(dataclasses.replace(problem), y)
        assert built == [26, 27, 26, 27]

    def test_fd_stack_is_one_ninety_row_call_per_kernel_in_plan_order(self):
        # the 10 reference rows, then the 10 rows of each parameter column,
        # then the one perturbed row of each state column, in stack order.
        # The integrator's merged stack puts the base point last: the
        # reference still resolves to it, and its row owns no kernel row
        y = ngf_start().pack()
        n = y.size
        steps = integrator._SQRT_EPS * (1.0 + np.abs(y))
        fd = y + np.diag(steps)
        merged = np.vstack([fd, y])
        assert np.array_equal(integrator._fd_stack(y), fd)
        assert np.array_equal(integrator._fd_stack(y, value=True), merged)
        theta, states = y[:6], y[6:].reshape(10, 2)
        u = self.problem.u_matrix
        want_theta = [theta] * 10
        want_x = list(states)
        want_u = list(u)
        for j in range(6):
            want_theta += [fd[j, :6]] * 10
            want_x += list(states)
            want_u += list(u)
        for j in range(6, n):
            i = (j - 6) // 2
            want_theta.append(theta)
            want_x.append(fd[j, 6:].reshape(10, 2)[i])
            want_u.append(u[i])
        for ys in (fd, merged):
            assert self.rows_per_kernel(ys) == [
                ("f_batch", 90),
                ("jac_theta_batch", 90),
                ("jac_x_batch", 90),
            ]
            for _, theta_rows, x_mat, u_mat in self.calls:
                assert theta_rows.tobytes() == np.array(want_theta).tobytes()
                assert x_mat.tobytes() == np.array(want_x).tobytes()
                assert u_mat.tobytes() == np.array(want_u).tobytes()
