"""The simulation-based optimiser: a retraction-stabilised gradient flow.

The parameter block follows the negative total objective gradient along the
steady-state manifold; each condition's state block follows the tangent
direction given by the pseudoinverse sensitivity plus a retraction term
lam * f that makes the manifold attractive.
"""

import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import integrator, numerics
from .core import FlowConfig, FlowState, RunResult, StopReason
from .sensitivity import pinv_sensitivity, total_gradient


class FlowNumericalError(RuntimeError):
    """Non-finite quantity while assembling the flow right-hand side."""


@dataclass(frozen=True)
class FlowProblem:
    model: object
    objective: object
    conditions: list
    config: FlowConfig

    def __post_init__(self):
        if len(self.conditions) < 1:
            raise ValueError("at least one condition is required")

    @cached_property
    def u_matrix(self):
        return np.stack([c.u for c in self.conditions])


def _assemble(problem, theta, states):
    """Per-condition sensitivities and the flow derivative blocks.

    The m state Jacobians are stacked and handed to the sensitivity kernel
    in one batched call; the block structure of the concatenated constraint
    system is never assembled explicitly. Returns (d_theta, d_states) with
    d_states as an (m, n_x) array.
    """
    model = problem.model
    objective = problem.objective
    x_mat = np.asarray(states, dtype=float)
    u_mat = problem.u_matrix
    a = np.asarray(model.jac_x_batch(theta, x_mat, u_mat), dtype=float)
    b = np.asarray(model.jac_theta_batch(theta, x_mat, u_mat), dtype=float)
    f_mat = np.asarray(model.f_batch(theta, x_mat, u_mat), dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        ok = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
        bad = np.flatnonzero(~ok).tolist()
        raise FlowNumericalError(f"non-finite Jacobian in condition block(s) {bad}")
    s_hat = pinv_sensitivity(a, b)
    d_theta = -total_gradient(
        objective.grad_theta(theta, states), s_hat, objective.grad_x(theta, states)
    )
    if not np.isfinite(d_theta).all():
        raise FlowNumericalError("non-finite derivative in parameter block")

    d_states = s_hat @ d_theta + problem.config.lam * f_mat
    if not np.isfinite(d_states).all():
        bad = np.flatnonzero(~np.isfinite(d_states).all(axis=1)).tolist()
        raise FlowNumericalError(f"non-finite derivative in state block(s) {bad}")
    return d_theta, d_states


def rhs(problem, r, y):
    """Flow derivative at the packed state y = (theta, x^1..x^m), as one
    packed vector; the flow is autonomous, so r is unused."""
    n_theta = problem.model.n_theta
    states = y[n_theta:].reshape(len(problem.conditions), problem.model.n_x)
    d_theta, d_states = _assemble(problem, y[:n_theta], states)
    dy = np.empty(y.size)
    dy[:n_theta] = d_theta
    dy[n_theta:] = d_states.ravel()
    return dy


def stop_check(problem, y, dy):
    """True iff every block of the packed derivative dy (the parameter block
    and each condition's state block) has Euclidean norm below the
    configured tol."""
    n_theta = problem.model.n_theta
    n_x = problem.model.n_x
    norms = [np.linalg.norm(dy[:n_theta])]
    norms.extend(
        np.linalg.norm(dy[n_theta + i * n_x : n_theta + (i + 1) * n_x])
        for i in range(len(problem.conditions))
    )
    return max(norms) < problem.config.tol


def manifold_residual(problem, state):
    """Max over conditions of the inf-norm of f(theta, x_i, u_i)."""
    x_mat = np.asarray(state.states, dtype=float)
    f_mat = problem.model.f_batch(state.theta, x_mat, problem.u_matrix)
    return float(np.abs(np.asarray(f_mat, dtype=float)).max())


def run_flow(problem, init, store_trajectory=False):
    """Integrate the optimiser flow from init until the stopping criterion,
    the pseudo-time horizon, or the evaluation budget.

    Returns a RunResult; with store_trajectory=True, returns
    (RunResult, trajectory) where the trajectory holds the FlowState at the
    initial point and every accepted step.
    """
    cfg = problem.config
    n_theta = problem.model.n_theta
    n_x = problem.model.n_x
    m = len(problem.conditions)
    if init.theta.size != n_theta or len(init.states) != m:
        raise ValueError("initial state dimensions do not match the problem")
    if not init.is_finite():
        raise ValueError("initial state must be finite")

    trajectory = []
    last = {"r": 0.0, "y": init.pack()}

    def observer(r, yvec, dyvec):
        last["r"] = r
        last["y"] = yvec.copy()
        if store_trajectory:
            trajectory.append(FlowState.unpack(yvec, n_theta, n_x, m, r=r))

    t0 = time.perf_counter()
    try:
        r_end, y_end, stats, outcome = integrator.integrate_adaptive(
            partial(rhs, problem),
            init.pack(),
            cfg.r_max,
            rel_tol=cfg.integrator_rel_tol,
            abs_tol=cfg.integrator_abs_tol,
            stop=partial(stop_check, problem),
            budget=cfg.max_rhs_evals,
            observer=observer,
        )
        reason = {
            integrator.IntegrationOutcome.STOP_CONDITION: StopReason.TOLERANCE_MET,
            integrator.IntegrationOutcome.HORIZON: StopReason.HORIZON_REACHED,
            integrator.IntegrationOutcome.BUDGET_EXHAUSTED: StopReason.EVAL_BUDGET_EXHAUSTED,
            integrator.IntegrationOutcome.STEP_UNDERFLOW: StopReason.NUMERICAL_FAILURE,
        }[outcome]
    except (FlowNumericalError, numerics.NumericalFailure, FloatingPointError) as exc:
        # the integrator attaches the counters of the work it did
        stats = exc.stats
        r_end, y_end = last["r"], last["y"]
        reason = StopReason.NUMERICAL_FAILURE
    wall = time.perf_counter() - t0

    final = FlowState.unpack(y_end, n_theta, n_x, m, r=r_end)
    try:
        objective = float(problem.objective.eval(final.theta, final.states))
        residual = manifold_residual(problem, final)
    except (ValueError, FloatingPointError):
        objective = float("nan")
        residual = float("nan")
    result = RunResult(
        final=final,
        objective=objective,
        manifold_residual=residual,
        converged=reason is StopReason.TOLERANCE_MET,
        reason=reason,
        rhs_evals=stats.rhs_evals,
        steps_accepted=stats.steps_accepted,
        steps_rejected=stats.steps_rejected,
        wall_time=wall,
        jacobian_evals=stats.jacobian_evals,
        min_step=stats.min_step,
        max_step=stats.max_step,
    )
    if store_trajectory:
        return result, trajectory
    return result
