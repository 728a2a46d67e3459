"""The simulation-based optimiser: a retraction-stabilised gradient flow.

The parameter block follows the negative total objective gradient along the
steady-state manifold; each condition's state block follows the tangent
direction given by the pseudoinverse sensitivity plus a retraction term
lam * f that makes the manifold attractive.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import integrator, numerics
from .core import FlowConfig, FlowState, RunResult, StopReason


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

    The m state Jacobians are stacked and pseudo-inverted in one batched
    call; the block structure of the concatenated constraint system is never
    assembled explicitly. Returns (d_theta, d_states) with d_states as an
    (m, n_x) array.
    """
    model = problem.model
    objective = problem.objective
    lam = problem.config.lam
    conditions = problem.conditions
    m = len(conditions)

    x_mat = np.asarray(states, dtype=float)
    if model.jac_x_batch is not None:
        u_mat = problem.u_matrix
        a = np.asarray(model.jac_x_batch(theta, x_mat, u_mat), dtype=float)
        b = np.asarray(model.jac_theta_batch(theta, x_mat, u_mat), dtype=float)
        f_mat = np.asarray(model.f_batch(theta, x_mat, u_mat), dtype=float)
    else:
        a = np.stack(
            [
                np.asarray(model.jac_x(theta, x, c.u), dtype=float)
                for x, c in zip(states, conditions)
            ]
        )
        b = np.stack(
            [
                np.asarray(model.jac_theta(theta, x, c.u), dtype=float)
                for x, c in zip(states, conditions)
            ]
        )
        f_mat = np.stack(
            [
                np.asarray(model.f(theta, x, c.u), dtype=float)
                for x, c in zip(states, conditions)
            ]
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        bad = [
            i
            for i in range(m)
            if not (np.isfinite(a[i]).all() and np.isfinite(b[i]).all())
        ]
        raise FlowNumericalError(f"non-finite Jacobian in condition block(s) {bad}")
    # solve where the state Jacobians are invertible (the generic case, on
    # and off manifold); the pseudoinverse is the fallback at exact
    # singularity, where it truncates instead of blowing up
    try:
        s_hat = -np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        rcond = model.n_x * np.finfo(float).eps
        try:
            s_hat = -np.matmul(np.linalg.pinv(a, rcond=rcond), b)
        except np.linalg.LinAlgError as exc:
            raise numerics.NumericalFailure(f"batched SVD failed: {exc}") from exc

    grad = np.asarray(objective.grad_theta(theta, states), dtype=float).copy()
    grads_x = np.asarray(objective.grad_x(theta, states), dtype=float)
    grad += np.einsum("ixt,ix->t", s_hat, grads_x)
    d_theta = -grad
    if not np.isfinite(d_theta).all():
        raise FlowNumericalError("non-finite derivative in parameter block")

    d_states = s_hat @ d_theta + lam * f_mat
    if not np.isfinite(d_states).all():
        bad = [i for i in range(m) if not np.isfinite(d_states[i]).all()]
        raise FlowNumericalError(f"non-finite derivative in state block(s) {bad}")
    return d_theta, d_states


def rhs(problem, state):
    """Flow derivative d(FlowState)/dr, returned as a FlowState of derivatives."""
    d_theta, d_states = _assemble(problem, state.theta, state.states)
    return FlowState(theta=d_theta, states=d_states, r=state.r)


def stop_check(derivative, tol):
    """True iff the largest block derivative norm (Euclidean) is below tol."""
    norms = [np.linalg.norm(derivative.theta)]
    norms.extend(np.linalg.norm(dx) for dx in derivative.states)
    return max(norms) < tol


def manifold_residual(problem, state):
    """Max over conditions of the inf-norm of f(theta, x_i, u_i)."""
    model = problem.model
    return max(
        float(
            np.abs(np.asarray(model.f(state.theta, x, c.u), dtype=float)).max()
        )
        for x, c in zip(state.states, problem.conditions)
    )


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

    n_y = n_theta + m * n_x

    def rhs_flat(r, yvec):
        theta = yvec[:n_theta]
        states = yvec[n_theta:].reshape(m, n_x)
        d_theta, d_states = _assemble(problem, theta, states)
        dy = np.empty(n_y)
        dy[:n_theta] = d_theta
        dy[n_theta:] = d_states.ravel()
        return dy

    def stop_flat(yvec, dyvec):
        norms = [np.linalg.norm(dyvec[:n_theta])]
        norms.extend(
            np.linalg.norm(dyvec[n_theta + i * n_x : n_theta + (i + 1) * n_x])
            for i in range(m)
        )
        return max(norms) < cfg.tol

    trajectory = []
    last = {"r": 0.0, "y": init.pack()}

    def observer(r, yvec, dyvec):
        last["r"] = r
        last["y"] = yvec.copy()
        if store_trajectory:
            trajectory.append(FlowState.unpack(yvec, n_theta, n_x, m, r=r))

    t0 = time.perf_counter()
    stats = integrator.IntegratorStats()
    try:
        r_end, y_end, stats, outcome = integrator.integrate_adaptive(
            rhs_flat,
            init.pack(),
            cfg.r_max,
            rel_tol=cfg.integrator_rel_tol,
            abs_tol=cfg.integrator_abs_tol,
            stop=stop_flat,
            budget=cfg.max_rhs_evals,
            observer=observer,
        )
        reason = {
            integrator.IntegrationOutcome.STOP_CONDITION: StopReason.TOLERANCE_MET,
            integrator.IntegrationOutcome.HORIZON: StopReason.HORIZON_REACHED,
            integrator.IntegrationOutcome.BUDGET_EXHAUSTED: StopReason.EVAL_BUDGET_EXHAUSTED,
            integrator.IntegrationOutcome.STEP_UNDERFLOW: StopReason.NUMERICAL_FAILURE,
        }[outcome]
    except (FlowNumericalError, numerics.NumericalFailure, FloatingPointError):
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
