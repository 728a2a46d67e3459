"""Optimiser-flow tests: right-hand side, stopping, retraction, descent."""

import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssflow import bench, flow, integrator, numerics
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
    reduced_objective,
)

from replaced_forms import (
    asarray_total_gradient,
    matmul_stage_step,
    shared_terms_ngf_kernels,
    view_per_use_pinv_sensitivity,
    zeros_like_ngf_grad_x,
)

NO_U = np.zeros(0)


def fd_stack(y):
    """The FD stack of y, as integrate_adaptive hands it to its rhs_fd."""
    return integrator._fd_stack(y, integrator._SQRT_EPS * (1.0 + np.abs(y)))


def cr_flow_problem(lam, **cfg_overrides):
    prob = ConversionReactionProblem()
    return prob.flow_problem(FlowConfig(lam=lam, **cfg_overrides))


def cr_optimum():
    """Newton iteration on the reduced 2-D objective from the prior mean."""
    from ssflow import numerics

    prob = ConversionReactionProblem()
    theta = np.array([3.9, 1.5])
    for _ in range(50):
        g = reduced_objective(theta, prob)[1]
        h = numerics.finite_diff_jacobian(
            lambda t: reduced_objective(t, prob)[1], theta
        )
        theta = theta - np.linalg.solve(h, g)
        if np.abs(g).max() < 1e-14:
            break
    return theta


def derivative(problem, state):
    """The packed flow rhs at state, unpacked into its blocks."""
    dy = rhs(problem, state.pack())
    model = problem.model
    return FlowState.unpack(dy, model.n_theta, model.n_x, len(problem.u_matrix))


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


def run_and_replay(problem, init, monkeypatch):
    """run_flow's result from init, and a function that makes its
    integrate_adaptive call again with another abs_tol and returns the
    integration's end."""
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return INTEGRATE(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(integrator, "integrate_adaptive", capture)
        result = run_flow(problem, init)
    ((args, kwargs),) = calls

    def replay(abs_tol):
        return INTEGRATE(*args, **dict(kwargs, abs_tol=abs_tol, observer=None))

    return result, replay


def run_end(result):
    """A RunResult's end: its final point's bits, r and counters."""
    return (
        result.final.pack().tobytes(),
        result.final.r,
        result.converged,
        result.rhs_evals,
        result.discarded_evals,
        result.steps_accepted,
        result.steps_rejected,
        result.jacobian_evals,
        result.min_step,
        result.max_step,
    )


def integration_end(r, y, stats, outcome):
    """integrate_adaptive's end in the terms of run_end."""
    return (
        y.tobytes(),
        r,
        outcome is integrator.IntegrationOutcome.STOP_CONDITION,
        stats.rhs_evals,
        stats.discarded_evals,
        stats.steps_accepted,
        stats.steps_rejected,
        stats.jacobian_evals,
        stats.min_step,
        stats.max_step,
    )


@pytest.mark.parametrize("lam", [0.0, 20.0])
@pytest.mark.parametrize("name", ["conversion_reaction", "ngf"])
def test_error_test_covers_the_parameter_block_only_when_lambda_is_positive(
    name, lam, monkeypatch
):
    # a run is, bit for bit, integrate_adaptive with the config's scalar
    # abs_tol at lam = 0 (criterion 4's tangent flow) and with abs_tol = inf
    # on every state entry at lam > 0; the other error test gives another run
    if name == "ngf":
        problem, init = ngf_flow_problem_with(lam, max_rhs_evals=3000), ngf_start()
    else:
        problem = cr_flow_problem(lam)
        theta = np.array([3.0, 2.0])
        x = problem.model.analytic_steady_state(theta, NO_U)
        init = FlowState(theta=theta, states=[x])
    n_theta, n = problem.model.n_theta, init.pack().size
    scalar = problem.config.integrator_abs_tol
    per_entry = np.concatenate([np.full(n_theta, scalar), np.full(n - n_theta, np.inf)])
    tested, other = (scalar, per_entry) if lam == 0 else (per_entry, scalar)
    result, replay = run_and_replay(problem, init, monkeypatch)
    assert run_end(result) == integration_end(*replay(tested))
    assert run_end(result) != integration_end(*replay(other))


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
            u_matrix=prob.u_matrix,
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


def ngf_parts():
    prob = NgfErkProblem().with_generated_data(0)
    return prob.model(), prob.objective()


class TestInputMatrix:
    @pytest.mark.parametrize(
        "u_matrix, match",
        [
            (np.zeros((0, 1)), r"shape \(m, 1\), m >= 1, got \(0, 1\)$"),
            (np.zeros((10, 2)), r"shape \(m, 1\), m >= 1, got \(10, 2\)$"),
            (np.zeros(10), r"shape \(m, 1\), m >= 1, got \(10,\)$"),
            (np.array([[0.5]] * 9 + [[np.nan]]), "entries must be finite"),
            (np.array([[0.5]] * 9 + [[np.inf]]), "entries must be finite"),
            (np.array([[-np.inf]] + [[0.5]] * 9), "entries must be finite"),
            ([["dose"]] * 10, "could not convert string to float"),
        ],
        ids=["no-rows", "two-columns", "1-D", "nan", "inf", "-inf", "string"],
    )
    def test_rejects(self, u_matrix, match):
        model, objective = ngf_parts()
        with pytest.raises(ValueError, match=f"^u_matrix.*{match}"):
            FlowProblem(model, objective, u_matrix, FlowConfig(lam=20.0))

    def test_stores_a_read_only_float_copy(self):
        model, objective = ngf_parts()
        u_matrix = np.arange(10)[:, None]
        problem = FlowProblem(model, objective, u_matrix, FlowConfig(lam=20.0))
        assert problem.u_matrix.dtype == float and problem.u_matrix.shape == (10, 1)
        assert np.array_equal(problem.u_matrix, u_matrix)
        assert not problem.u_matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            problem.u_matrix[0, 0] = 1.0
        # the caller's array is left as it was
        assert u_matrix.flags.writeable

    @pytest.mark.parametrize(
        "bundle",
        [ConversionReactionProblem(), NgfErkProblem().with_generated_data(0)],
        ids=["cr", "ngf"],
    )
    def test_a_bundle_problem_takes_the_bundle_inputs(self, bundle):
        problem = bundle.flow_problem(FlowConfig(lam=20.0))
        assert problem.u_matrix.shape == bundle.u_matrix.shape
        assert problem.u_matrix.tobytes() == bundle.u_matrix.tobytes()
        assert not problem.u_matrix.flags.writeable


def lapack_only_pinv_sensitivity(jac_x, jac_theta):
    """sensitivity.pinv_sensitivity without its closed forms for 1x1 and 2x2
    state Jacobians: every system goes to LAPACK, with the same per-matrix
    fallback."""
    try:
        return -np.linalg.solve(jac_x, jac_theta)
    except np.linalg.LinAlgError:
        if jac_x.ndim == 2:
            return -(numerics.pinv(jac_x) @ jac_theta)
        return np.stack(
            [lapack_only_pinv_sensitivity(a, b) for a, b in zip(jac_x, jac_theta)]
        )


def run_bits(result):
    """Every field of a RunResult but wall_time, floats as their bytes."""
    fields = [
        getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("final", "wall_time")
    ]
    return (
        result.final.pack().tobytes(),
        np.float64(result.final.r).tobytes(),
        [np.float64(v).tobytes() if isinstance(v, float) else v for v in fields],
    )


@pytest.mark.parametrize("lam", [2.0, 20.0])
def test_conversion_reaction_runs_bit_identical_to_lapack_sensitivities(
    lam, monkeypatch
):
    # the closed-form 1x1 sensitivities leave every bit of a run as LAPACK
    # makes it: final state, objective, residual and every counter
    problem = cr_flow_problem(lam)
    starts = bench.sample_starts(
        bench.default_config("conversion_reaction", n_starts=4, seed=3)
    )
    closed_form = [run_bits(run_flow(problem, init)) for init in starts]
    monkeypatch.setattr(flow, "pinv_sensitivity", lapack_only_pinv_sensitivity)
    lapack = [run_bits(run_flow(problem, init)) for init in starts]
    assert closed_form == lapack


def test_ngf_runs_agree_with_lapack_sensitivities():
    # the closed-form 2x2 sensitivities have other bits than LAPACK's, but
    # at criterion 6's lambda and tolerances every run ends the same way:
    # same stop reason, final theta within 1e-6, reduced objective within
    # 1e-9
    config = bench.default_config(
        "ngf_erk",
        n_starts=8,
        seed=3,
        integrator_rel_tol=1e-4,
        integrator_abs_tol=1e-6,
    )
    prob = bench._build_problem(config)
    problem = prob.flow_problem(bench._flow_config(config, 20.0))
    starts = bench.sample_starts(config, prob)
    closed_form = [run_flow(problem, init) for init in starts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "pinv_sensitivity", lapack_only_pinv_sensitivity)
        lapack = [run_flow(problem, init) for init in starts]
    for k, (a, b) in enumerate(zip(closed_form, lapack)):
        assert a.reason is b.reason, k
        assert np.abs(a.final.theta - b.final.theta).max() <= 1e-6, k
        j_a = reduced_objective(a.final.theta, prob)[0]
        j_b = reduced_objective(b.final.theta, prob)[0]
        assert abs(j_a - j_b) <= 1e-9, k


def test_a_failing_run_reports_no_floating_point_warning():
    # criterion 6's start 80 (NGF data seed 0, lambda 20, tolerances 1e-4 /
    # 1e-6) reaches a stage point with theta past 308: 10**theta overflows
    # in the kernel and the run fails on the non-finite value, which carries
    # the cause, with no RuntimeWarning on the way
    config = bench.default_config(
        "ngf_erk", integrator_rel_tol=1e-4, integrator_abs_tol=1e-6
    )
    prob = bench._build_problem(config)
    problem = prob.flow_problem(bench._flow_config(config, 20.0))
    start = bench.sample_starts(config, prob)[80]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_flow(problem, start)
    assert result.reason is StopReason.NUMERICAL_FAILURE
    assert result.rhs_evals == 36


def broadcast_pull_back(s_hat, d_theta):
    """The pull-back as one broadcast matmul over points and conditions, at
    a point as at a stack: the reference flow._pull_back must match."""
    return (s_hat @ d_theta[..., None, :, None])[..., 0]


def wide_floats(rng, shape):
    """Floats of either sign with magnitudes from 1e-5 to 1e5, about one
    in ten a zero of either sign."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    return np.where(rng.random(shape) < 0.1, 0.0 * values, values)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(1, 1, 2), (10, 2, 6)])
    | st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(1, 10)),
    p=st.integers(1, 28),
    seed=st.integers(0, 2**32 - 1),
)
def test_pull_back_has_the_broadcast_bits_at_points_and_stack_rows(shape, p, seed):
    # shapes (m, n_x, n_theta): the conversion reaction's and NGF's, then
    # any; p points stacked as an FD stack stacks them
    rng = np.random.default_rng(seed)
    s_hat = wide_floats(rng, (p,) + shape)
    d_theta = wide_floats(rng, (p, shape[-1]))
    stack = flow._pull_back(s_hat, d_theta)
    assert stack.shape == (p,) + shape[:2]
    assert stack.tobytes() == broadcast_pull_back(s_hat, d_theta).tobytes()
    for q in range(p):
        point = flow._pull_back(s_hat[q], d_theta[q])
        assert point.shape == shape[:2]
        assert point.tobytes() == broadcast_pull_back(s_hat[q], d_theta[q]).tobytes()
        assert point.tobytes() == stack[q].tobytes()


def isfinite_all(a):
    return np.isfinite(a).all()


def slice_assigned_cr_kernel(xi=1.0):
    """The conversion reaction's fused kernel with its Jacobian columns
    assigned by slice from numpy temporaries, as it was written before its
    x-dependent columns were written into views."""

    def f_jac_batch(theta, x_mat, u_mat):
        theta = np.asarray(theta)
        k = theta.T[..., None] if theta.ndim == 2 else theta
        total = k[0] + k[1]
        x = x_mat[:, 0]
        jac = np.empty((x_mat.shape[0], 1, 3))
        jac[:, :, 0] = -total
        jac[:, 0, 1] = -x
        jac[:, 0, 2] = xi - x
        return k[1] * xi - total * x_mat, jac

    return f_jac_batch


def python_float_cr_objective(objective):
    """The conversion reaction's objective with its weight and observed
    state as Python floats, as it was written before they became 0-d
    arrays."""
    prob = ConversionReactionProblem()
    w, x_bar = prob.weight, prob.x_bar

    def evaluate(theta, states):
        x = states[0][0]
        return 0.5 * w * (x - x_bar) ** 2 + 0.5 * float(
            np.sum((theta - np.asarray(prob.theta_bar)) ** 2)
        )

    def grad_x(theta, states):
        return w * (np.asarray(states, dtype=float) - x_bar)

    return dataclasses.replace(objective, eval=evaluate, grad_x=grad_x)


class MethodReduction:
    """A numpy ufunc whose reduce goes through the ndarray method wrapper
    (a.sum, a.max) it stands for."""

    def __init__(self, ufunc, method):
        self.ufunc, self.method = ufunc, method

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def reduce(self, a, axis=None):
        return getattr(a, self.method)(axis=axis)


class PerCallNumpy:
    """numpy as integrator.py sees it, with the per-call forms its step
    replaced: reductions through the ndarray methods, and the plain FD rows
    gathered in a list that per_call_fd_jacobian turns into one array."""

    add = MethodReduction(np.add, "sum")
    maximum = MethodReduction(np.maximum, "max")

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape):
        return [None] * shape[0]


def twice_built_fd_stack(y, steps):
    """integrator._fd_stack building its own step vector, whatever it is
    given, as before the integrator built one per base point."""
    n = y.size
    ys = np.empty((n + 1, n))
    ys[:] = y
    ys.flat[:: n + 1] = y + integrator._SQRT_EPS * (1.0 + np.abs(y))
    return ys


def per_call_fd_jacobian(values, f0, steps):
    # the plain rows arrive as a list (PerCallNumpy.empty), the stacked
    # rows as an array; np.array on them is the list gather
    jac = np.subtract(np.array(list(values)).T, f0[:, None], order="C")
    jac /= steps
    return jac


def per_call_err_norm(err, sc):
    with np.errstate(invalid="ignore", over="ignore"):
        return float((np.abs(err) / sc).max())


def method_stop_check(problem, y, dy):
    squares = np.add.reduceat(dy * dy, problem.block_starts)
    return np.sqrt(squares).max() < problem.config.tol


@pytest.mark.parametrize(
    "make_problem, n_starts",
    [
        (lambda: cr_flow_problem(2.0), 4),
        (lambda: cr_flow_problem(20.0), 4),
        # criterion 6's lambda and integrator tolerances
        (
            lambda: ngf_flow_problem_with(integrator_rel_tol=1e-4, integrator_abs_tol=1e-6),
            2,
        ),
    ],
    ids=["cr-lam2", "cr-lam20", "ngf-criterion6"],
)
def test_runs_bit_identical_to_the_per_call_numpy_forms(
    make_problem, n_starts, monkeypatch
):
    # the count-based finiteness test, the 1-D pull-back at a point, the
    # cached stage identity, the ufunc reductions, the step vector built
    # once per Jacobian, the plain FD rows filled into one array, the
    # conversion reaction's column views and its objective's 0-d constants
    # leave every bit of a run as the forms they replace make it: final
    # state, objective, residual and every counter
    problem = make_problem()
    name = problem.model.name
    starts = bench.sample_starts(bench.default_config(name, n_starts=n_starts, seed=3))
    lean = [run_bits(run_flow(problem, init)) for init in starts]
    identity = integrator._identity(len(starts[0].pack()))
    assert not identity.flags.writeable
    assert np.array_equal(identity, np.eye(len(identity)))
    if name == "conversion_reaction":
        kernel = slice_assigned_cr_kernel()
        model = dataclasses.replace(problem.model, f_jac_batch=kernel)
        objective = python_float_cr_objective(problem.objective)
        problem = dataclasses.replace(problem, model=model, objective=objective)
    monkeypatch.setattr(flow, "_pull_back", broadcast_pull_back)
    monkeypatch.setattr(numerics, "all_finite", isfinite_all)
    monkeypatch.setattr(integrator, "all_finite", isfinite_all)
    monkeypatch.setattr(integrator, "_identity", np.eye)
    monkeypatch.setattr(integrator, "np", PerCallNumpy())
    monkeypatch.setattr(integrator, "_fd_stack", twice_built_fd_stack)
    monkeypatch.setattr(integrator, "_fd_jacobian", per_call_fd_jacobian)
    monkeypatch.setattr(integrator, "_err_norm", per_call_err_norm)
    monkeypatch.setattr(flow, "stop_check", method_stop_check)
    per_call = [run_bits(run_flow(problem, init)) for init in starts]
    assert lean == per_call


@pytest.mark.parametrize(
    "make_problem, n_starts",
    [
        (lambda: cr_flow_problem(2.0), 4),
        (lambda: cr_flow_problem(20.0), 4),
        # criterion 6's lambda and integrator tolerances
        (
            lambda: ngf_flow_problem_with(integrator_rel_tol=1e-4, integrator_abs_tol=1e-6),
            3,
        ),
    ],
    ids=["cr-lam2", "cr-lam20", "ngf-criterion6"],
)
def test_runs_bit_identical_to_the_forms_the_hot_path_replaced(
    make_problem, n_starts, monkeypatch
):
    # the step's ndarray.dot stage products, positional LAPACK flags and
    # 0-d h, |y| made once per accepted point, the 0-d lam, the kernels'
    # 0-d rates and positional outs, the NGF state gradient without
    # zeros_like, the adjugate's shared views and the total gradient without
    # asarray leave every bit of a run as the forms they replace make it:
    # final point, r, objective, residual and every counter
    problem = make_problem()
    name = problem.model.name
    starts = bench.sample_starts(bench.default_config(name, n_starts=n_starts, seed=5))
    lean = [run_bits(run_flow(problem, init)) for init in starts]
    if name == "conversion_reaction":
        model = dataclasses.replace(problem.model, f_jac_batch=slice_assigned_cr_kernel())
        objective = problem.objective
    else:
        f_batch, f_jac_batch = shared_terms_ngf_kernels()
        model = dataclasses.replace(problem.model, f_batch=f_batch, f_jac_batch=f_jac_batch)
        data = NgfErkProblem().with_generated_data(0).data
        objective = dataclasses.replace(problem.objective, grad_x=zeros_like_ngf_grad_x(data))
    problem = dataclasses.replace(problem, model=model, objective=objective)
    monkeypatch.setattr(FlowProblem, "lam", property(lambda self: self.config.lam))
    assert type(problem.lam) is float
    monkeypatch.setattr(flow, "pinv_sensitivity", view_per_use_pinv_sensitivity)
    monkeypatch.setattr(flow, "total_gradient", asarray_total_gradient)
    monkeypatch.setattr(integrator, "step", matmul_stage_step)
    replaced = [run_bits(run_flow(problem, init)) for init in starts]
    assert lean == replaced


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


@pytest.mark.parametrize("kernel", ["f_jac_batch", "jac_x_batch", "jac_theta_batch"])
def test_non_finite_jacobian_rows_are_named_at_a_point_and_on_a_stack(kernel):
    # every Jacobian row of dose 4 holds a NaN, injected through the fused
    # kernel or through a batched form it is composed from: a point names
    # its condition row, and the FD stack the kernel rows of the 90-row plan
    # that belong to dose 4 (shared row 4, row 4 of each parameter column's
    # ten, and the rows of its two state columns)
    prob = NgfErkProblem().with_generated_data(0)
    base = prob.flow_problem(FlowConfig(lam=20.0))
    original = getattr(base.model, kernel)

    def faulty(theta, x_mat, u_mat):
        out = original(theta, x_mat, u_mat)
        jac = out[1] if kernel == "f_jac_batch" else out.copy()
        jac[u_mat[:, 0] == prob.inputs[4], -1, -1] = np.nan
        return (out[0], jac) if kernel == "f_jac_batch" else jac

    problem = dataclasses.replace(
        base, model=dataclasses.replace(base.model, **{kernel: faulty})
    )
    y = ngf_start().pack()
    with pytest.raises(FlowNumericalError) as info:
        rhs(problem, y)
    assert str(info.value) == "non-finite Jacobian in condition block(s) [4]"
    with pytest.raises(FlowNumericalError) as info:
        flow.rhs(problem, fd_stack(y))
    assert str(info.value) == (
        "non-finite Jacobian in condition block(s) "
        "[4, 14, 24, 34, 44, 54, 64, 78, 79]"
    )


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
            u_matrix=prob.u_matrix,
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
        # NGF: grad_theta is NaN at the 208th point of the plain-call run,
        # row 15 of the seventh Jacobian's FD stack (points 194-219: the
        # initial point, then 32 points per step, its 26 FD rows, five
        # stages and its new point). The stack call at that Jacobian's base point
        # meets it first and raises, so the value is made again as a plain
        # call and the Jacobian's rows as plain calls up to the failing one:
        # the run counts up to it, as plain rhs calls would
        base = ngf_flow_problem()
        points = plain_points(base, ngf_start(), 208)
        grad_theta, calls = nan_at(base.objective.grad_theta, points[-1:])
        problem = with_gradient(base, grad_theta=grad_theta)
        result, traj = run_flow(problem, ngf_start(), store_trajectory=True)
        assert result.reason is StopReason.NUMERICAL_FAILURE
        assert calls[-17:] == [27, 1] + [1] * 15
        # every point evaluated before the failing row: the 193 counted,
        # the discarded rows and the stack call that failed
        assert sum(calls[:-15]) == 193 + result.discarded_evals + 27
        assert result.rhs_evals == 193 + 15 == 208
        assert result.steps_accepted == len(traj) - 1 > 0
        assert result.jacobian_evals >= result.steps_accepted
        assert 0.0 < result.min_step <= result.max_step
        assert np.array_equal(result.final.pack(), traj[-1].pack())

    def test_stacked_gradient_failure_counts_up_to_its_point(self, monkeypatch):
        # grad_theta is NaN from the 208th point of the plain-call run on
        # (row 15 of the seventh Jacobian's stack): with FD stacks and with
        # plain calls the run ends at that point, with the same error,
        # counts and final point
        base = ngf_flow_problem()
        points = plain_points(base, ngf_start(), 260)
        grad_theta, _ = nan_at(base.objective.grad_theta, points[207:])
        problem = with_gradient(base, grad_theta=grad_theta)
        runs = each_evaluation_mode(problem, ngf_start(), monkeypatch)
        merged, error = runs["merged"]
        assert merged.reason is StopReason.NUMERICAL_FAILURE
        assert merged.rhs_evals == error.stats.rhs_evals == 208
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
    rel_tol, abs_tol = flow._error_tolerances(problem)
    return integrator.integrate_adaptive(
        partial(flow.rhs, problem),
        init.pack(),
        problem.config.r_max,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        rhs_fd=partial(flow.rhs, problem),
    )


def ngf_flow_problem_with(lam=20.0, **cfg_overrides):
    config = FlowConfig(lam=lam, **cfg_overrides)
    return NgfErkProblem().with_generated_data(0).flow_problem(config)


def ngf_flow_problem():
    return ngf_flow_problem_with()


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

    rel_tol, abs_tol = flow._error_tolerances(problem)
    integrator.integrate_adaptive(
        record,
        init.pack(),
        problem.config.r_max,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
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


INTEGRATE = integrator.integrate_adaptive


def plain_integration(*args, rhs_fd=None, **kwargs):
    """integrate_adaptive with every evaluation a plain rhs call."""
    return INTEGRATE(*args, **kwargs)


EVALUATION_MODES = {
    "merged": None,
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
    # evaluates each FD Jacobian as one stack, by the same rhs
    seen = []
    integrate = integrator.integrate_adaptive

    def capture(rhs, *args, rhs_fd=None, **kwargs):
        seen.append((rhs, rhs_fd))
        return integrate(rhs, *args, rhs_fd=rhs_fd, **kwargs)

    monkeypatch.setattr(integrator, "integrate_adaptive", capture)
    cr_init = FlowState(theta=np.array([5.0, 3.0]), states=[np.array([0.9])])
    run_flow(cr_flow_problem(20.0, max_rhs_evals=10), cr_init)
    ngf = NgfErkProblem().with_generated_data(0)
    run_flow(ngf.flow_problem(FlowConfig(lam=20.0, max_rhs_evals=10)), ngf_start())
    assert seen[0][0].func is flow.rhs and seen[0][1] is None
    assert seen[1][0].func is flow.rhs and seen[1][1] is seen[1][0]


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

    @pytest.mark.parametrize(
        "column, fault, error, message",
        [
            (1, "nan", FlowNumericalError, "non-finite Jacobian in condition block(s) [4]"),
            (7, "nan", FlowNumericalError, "non-finite Jacobian in condition block(s) [4]"),
            (None, "raise", FloatingPointError, "f_jac_batch beyond the limit"),
        ],
    )
    def test_fused_kernel_fault_beyond_one_state_step(
        self, monkeypatch, column, fault, error, message
    ):
        # as above, with the fault injected through the fused kernel
        # itself: condition 4's Jacobian turns NaN in its state block
        # (column 1) or its parameter block (column 7), or the kernel raises
        prob = NgfErkProblem().with_generated_data(0)
        base = prob.flow_problem(FlowConfig(lam=20.0))
        init = ngf_start()
        i, k = 4, 1
        x0 = init.states[i][k]
        limit = x0 + 0.5 * integrator._SQRT_EPS * (1.0 + abs(x0))
        f_jac_batch = base.model.f_jac_batch

        def faulty(theta, x_mat, u_mat):
            f_mat, jac = f_jac_batch(theta, x_mat, u_mat)
            beyond = (u_mat[:, 0] == prob.inputs[i]) & (x_mat[:, k] > limit)
            if beyond.any() and fault == "raise":
                raise FloatingPointError(message)
            jac[beyond, 0, column] = np.nan
            return f_mat, jac

        model = dataclasses.replace(base.model, f_jac_batch=faulty)
        problem = dataclasses.replace(base, model=model)
        state_column = 6 + 2 * i + k
        runs = each_evaluation_mode(problem, init, monkeypatch)
        merged, merged_error = runs["merged"]
        assert type(merged_error) is error
        assert str(merged_error) == message
        stats = merged_error.stats
        assert (stats.rhs_evals, stats.jacobian_evals) == (1 + state_column + 1, 0)
        assert merged.reason is StopReason.NUMERICAL_FAILURE
        assert merged.rhs_evals == 1 + state_column + 1
        assert_same_failure(runs)

    def test_grad_x_raising_at_each_call_of_the_first_two_jacobians(self, monkeypatch):
        # grad_x raises at the k-th point of the plain-call run, for every
        # point of the first two Jacobians' steps. A stack call that meets
        # it is made again as plain calls, so in both modes the run counts
        # up to the k-th point and ends with the same error
        base = ngf_flow_problem()
        init = ngf_start()
        n = 26
        jacobians = set()
        for k, point in enumerate(plain_points(base, init, 2 * (n + 6) + 1), 1):
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
    # batched equals a batch of one: row q of a drawn point's FD stack (its
    # n FD points, then the point itself) has the bits of rhs at row q
    # alone, and the call raises a numerical failure iff some row fails
    # alone (the integrator then finds the row with plain calls)
    problem = STACK_PROBLEMS[name]()
    n = problem.model.n_theta + len(problem.u_matrix) * problem.model.n_x
    y = draw_base_point(data, n)
    with np.errstate(all="ignore"):
        ys = fd_stack(y)
        values = per_point_values(problem, ys)
        if values is not None:
            got = flow.rhs(problem, ys)
            assert got.shape == ys.shape
            for q, want in enumerate(values):
                assert got[q].tobytes() == want.tobytes(), q
        else:
            with pytest.raises(flow._NUMERICAL_FAILURES):
                flow.rhs(problem, ys)


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
    m = len(prob.u_matrix)
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
    """problem with every kernel call's inputs appended to the returned
    list, as (name, theta, x_mat, u_mat): the built-in model's own fused
    kernel and the three batched forms, which the flow must not call."""
    calls = []

    def recorded(name):
        kernel = getattr(problem.model, name)

        def call(theta, x_mat, u_mat):
            calls.append((name, np.array(theta), np.array(x_mat), np.array(u_mat)))
            return kernel(theta, x_mat, u_mat)

        return call

    names = ("f_batch", "jac_x_batch", "jac_theta_batch", "f_jac_batch")
    model = dataclasses.replace(problem.model, **{k: recorded(k) for k in names})
    return dataclasses.replace(problem, model=model), calls


class TestDistinctRowPlan:
    """The FD stack of a point evaluates each distinct condition row once,
    in one fused kernel call, by the problem's fixed plan: the base point's
    rows are shared by every point that has them, and each perturbed row is
    its own."""

    def setup_method(self):
        prob = NgfErkProblem().with_generated_data(0)
        problem = prob.flow_problem(FlowConfig(lam=20.0))
        self.problem, self.calls = recording_kernels(problem)

    def rows_per_kernel(self, ys):
        """(kernel, rows) of the rhs call on the FD stack ys, whose calls
        are left in self.calls; each row of its value has the bits of rhs
        alone."""
        # the base point is the stack's last row
        assert fd_stack(ys[-1]).tobytes() == ys.tobytes()
        self.calls.clear()
        got = flow.rhs(self.problem, ys)
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
        ys = fd_stack(y)
        assert self.rows_per_kernel(ys) == [("f_jac_batch", 90)]
        for _, _, x_mat, _ in self.calls:
            signs = np.signbit(x_mat[:, 0]).tolist()
            assert signs[:10] == [i == 3 for i in range(10)]
            assert signs[10:70] == [i == 3 for i in range(10)] * 6
            assert signs[70:] == [k == j + 1 for k in range(6, 26)]

    def test_merged_value_row_owns_no_kernel_row(self):
        # the base point, last in its FD stack, owns no kernel row: its m
        # rows are the shared ones, the first m kernel rows, which take
        # their theta and states from it. Every point's conditions without
        # a step resolve to them too
        y = ngf_start().pack()
        n = y.size
        assert self.rows_per_kernel(fd_stack(y)) == [("f_jac_batch", 90)]
        theta_rows, x_rows, _, row = self.problem.fd_plan
        assert theta_rows[:10].tolist() == [n] * 10
        assert x_rows[:10].tolist() == [n * 10 + i for i in range(10)]
        assert row[n].tolist() == list(range(10))
        assert row.shape == (n + 1, 10)
        for j in range(6, n):
            own = (j - 6) // 2
            shared = [i for i in range(10) if i != own]
            assert row[j, shared].tolist() == shared
            assert row[j, own] >= 10

    def test_problem_builds_its_plan_once(self, monkeypatch):
        # the one stack shape is planned on the first stacked call; later
        # calls at other points reuse the plan, and a new problem plans its
        # own
        built = []
        build = flow._fd_plan

        def counted(problem):
            built.append(problem)
            return build(problem)

        monkeypatch.setattr(flow, "_fd_plan", counted)
        problem = ngf_flow_problem()
        rng = np.random.default_rng(4)
        for _ in range(3):
            y = ngf_start().pack() + rng.uniform(-0.1, 0.1, 26)
            flow.rhs(problem, fd_stack(y))
            assert built == [problem]
            assert built[0] is problem
        other = dataclasses.replace(problem)
        flow.rhs(other, fd_stack(y))
        assert len(built) == 2
        assert built[1] is other

    def test_fd_stack_is_one_ninety_row_call_per_kernel_in_plan_order(self):
        # the 10 reference rows, then the 10 rows of each parameter column,
        # then the one perturbed row of each state column, in stack order.
        # The FD stack puts the base point last: the reference rows are
        # its, and its row owns no kernel row
        y = ngf_start().pack()
        n = y.size
        steps = integrator._SQRT_EPS * (1.0 + np.abs(y))
        fd = y + np.diag(steps)
        ys = np.vstack([fd, y])
        assert np.array_equal(fd_stack(y), ys)
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
        assert self.rows_per_kernel(ys) == [("f_jac_batch", 90)]
        for _, theta_rows, x_mat, u_mat in self.calls:
            assert theta_rows.tobytes() == np.array(want_theta).tobytes()
            assert x_mat.tobytes() == np.array(want_x).tobytes()
            assert u_mat.tobytes() == np.array(want_u).tobytes()
