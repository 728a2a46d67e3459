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


def _kernel_rows(model, theta, x_mat, u_mat):
    """(jac_x, jac_theta, f) at the condition rows (x_mat, u_mat), one
    batched call per kernel; theta is one vector or one per row.

    Each output row depends on its own input row only (the ModelSpec
    contract), so the rows of several points may share one call.
    """
    return (
        np.asarray(model.jac_x_batch(theta, x_mat, u_mat), dtype=float),
        np.asarray(model.jac_theta_batch(theta, x_mat, u_mat), dtype=float),
        np.asarray(model.f_batch(theta, x_mat, u_mat), dtype=float),
    )


def _assemble(problem, theta, states, rows=None):
    """The flow derivative blocks at one point.

    rows is the point's model part, (jac_x, jac_theta, f, s_hat) per
    condition row with s_hat the pinv sensitivity, from _fd_columns, which
    has checked that every Jacobian row in it is finite. When not given, it
    is evaluated here, and the Jacobian rows are checked before the solve.
    On it runs the per-point assembly: the objective's gradients pulled
    back through the stacked sensitivities, the retraction term and the
    finiteness checks of both derivative blocks. The block structure of the
    concatenated constraint system is never assembled explicitly. Returns
    (d_theta, d_states) with d_states as an (m, n_x) array.
    """
    objective = problem.objective
    if rows is None:
        x_mat = np.asarray(states, dtype=float)
        a, b, f_mat = _kernel_rows(problem.model, theta, x_mat, problem.u_matrix)
        _check_jacobian_rows(a, b)
        s_hat = pinv_sensitivity(a, b)
    else:
        a, b, f_mat, s_hat = rows
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


def _check_jacobian_rows(a, b):
    """Raise FlowNumericalError naming the rows of the Jacobian stacks
    (jac_x, jac_theta) that hold a non-finite entry."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        ok = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
        bad = np.flatnonzero(~ok).tolist()
        raise FlowNumericalError(f"non-finite Jacobian in condition block(s) {bad}")


def rhs(problem, y, rows=None):
    """Flow derivative at the packed state y = (theta, x^1..x^m), as one
    packed vector; the flow is autonomous, so it takes no pseudo-time.
    rows, if given, is the model part at y (see _assemble)."""
    n_theta = problem.model.n_theta
    states = y[n_theta:].reshape(len(problem.conditions), problem.model.n_x)
    d_theta, d_states = _assemble(problem, y[:n_theta], states, rows)
    dy = np.empty(y.size)
    dy[:n_theta] = d_theta
    dy[n_theta:] = d_states.ravel()
    return dy


def _fd_columns(problem, y, steps):
    """The per-column rhs arguments of the forward-difference Jacobian at y
    (see integrator._fd_jacobian): the model part of every column's
    perturbed point, or None when the columns are to make plain calls.

    Column j perturbs y[j] to y[j] + steps[j]. A state column of condition i
    moves only row i, so it takes the m base rows with its own perturbed
    row swapped in; a parameter column moves theta, so it takes all m rows
    at its own perturbed theta. One batched call per kernel, with one theta
    per row, and one stacked sensitivity solve over the m base rows, the
    m*n_x single-perturbed rows and the n_theta*m parameter-column rows
    serve every column.

    The Jacobian rows of the whole stack are checked here, once: if any is
    non-finite, or the shared evaluation raises a numerical failure, the
    result is None, and the plain rhs calls report the failure at their
    own column, as without sharing.
    """
    n_theta = problem.model.n_theta
    n_x = problem.model.n_x
    m = len(problem.conditions)
    theta = y[:n_theta]
    x_mat = y[n_theta:].reshape(m, n_x)
    u_mat = problem.u_matrix
    cols = np.arange(m * n_x)
    x_pert = np.repeat(x_mat, n_x, axis=0)
    x_pert[cols, cols % n_x] += steps[n_theta:]
    params = np.arange(n_theta)
    theta_pert = np.tile(theta, (n_theta, 1))
    theta_pert[params, params] += steps[:n_theta]
    at_base = m + m * n_x  # the rows at the base theta
    thetas = np.concatenate(
        [np.tile(theta, (at_base, 1)), np.repeat(theta_pert, m, axis=0)]
    )
    try:
        a, b, f_mat = _kernel_rows(
            problem.model,
            thetas,
            np.concatenate([x_mat, x_pert, np.tile(x_mat, (n_theta, 1))]),
            np.concatenate(
                [u_mat, np.repeat(u_mat, n_x, axis=0), np.tile(u_mat, (n_theta, 1))]
            ),
        )
        _check_jacobian_rows(a, b)
        s_hat = pinv_sensitivity(a, b)
    except (FlowNumericalError, numerics.NumericalFailure, FloatingPointError):
        # run_flow reports these with the counts of the work done: the plain
        # rhs calls raise them at their own column instead
        return None
    # parameter column j: rows at_base + j*m .. at_base + (j+1)*m - 1; state
    # column c: the base rows, with row c // n_x from perturbed row c
    idx = np.empty((n_theta + m * n_x, m), dtype=int)
    idx[:n_theta] = at_base + np.arange(n_theta * m).reshape(n_theta, m)
    idx[n_theta:] = np.arange(m)
    idx[n_theta + cols, cols // n_x] = m + cols
    return list(zip(a[idx], b[idx], f_mat[idx], s_hat[idx]))


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
    for i, x in enumerate(init.states):
        if x.size != n_x:
            raise ValueError(
                f"initial state block {i} has {x.size} entries; "
                f"the model has n_x = {n_x}"
            )
    if not init.is_finite():
        raise ValueError("initial state must be finite")

    trajectory = []
    last = {"r": 0.0, "y": init.pack()}

    def observer(r, yvec, dyvec):
        last["r"] = r
        last["y"] = yvec.copy()
        if store_trajectory:
            trajectory.append(FlowState.unpack(yvec, n_theta, n_x, m, r=r))

    # every Jacobian column shares one model evaluation from two state
    # columns on; with one, sharing saves too little: on the conversion
    # reaction's 3-column Jacobian it measured 10-50 % slower than plain
    # rhs calls (in-process timing on a 2-core x86_64 machine)
    columns = partial(_fd_columns, problem) if m * n_x >= 2 else None
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
            columns=columns,
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
