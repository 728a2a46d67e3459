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


# the failures run_flow reports as a numerical failure of the run
_NUMERICAL_FAILURES = (
    FlowNumericalError,
    numerics.NumericalFailure,
    FloatingPointError,
)


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

    @cached_property
    def block_starts(self):
        """Where the parameter block and each state block start in the
        packed state."""
        n_theta = self.model.n_theta
        states = n_theta + self.model.n_x * np.arange(len(self.conditions))
        return np.concatenate([[0], states])


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


def _assemble(problem, theta, states):
    """The flow derivative blocks at one point or at a stack of points;
    every evaluation of the flow derivative is one call.

    One point: theta (n_theta,) and states (m, n_x); returns d_theta
    (n_theta,) and d_states (m, n_x). A stack of p points: theta
    (p, n_theta) and states (p, m, n_x); returns (p, n_theta) and
    (p, m, n_x) arrays whose row q has the bits of point q alone.

    The model part is the one branch. A point makes one batched call per
    kernel over its m condition rows, checks the Jacobian rows for
    finiteness and solves for the pinv sensitivities; a stack gets all of
    it from _stack_model_part, one call per kernel and one stacked solve.
    Then, at a point or a stack alike: one call of each objective gradient,
    the gradients pulled back through the sensitivities, the retraction term
    lam * f, and one finiteness pass that covers both derivative blocks. The
    block structure of the concatenated constraint system is never
    assembled explicitly.

    A failure raises FlowNumericalError, or whatever a kernel, the solve or
    an objective gradient raises. At a stack it fails the whole call: the
    integrator then makes the stack's points again as plain calls, which
    meet the failure where it is (integrator module docstring).
    """
    if np.ndim(theta) == 1:
        a, b, f_mat = _kernel_rows(problem.model, theta, states, problem.u_matrix)
        _check_jacobian_rows(a, b)
        s_hat = pinv_sensitivity(a, b)
    else:
        s_hat, f_mat = _stack_model_part(problem, theta, states)
    objective = problem.objective
    d_theta = -total_gradient(
        objective.grad_theta(theta, states), s_hat, objective.grad_x(theta, states)
    )
    lam = problem.config.lam
    d_states = (s_hat @ d_theta[..., None, :, None])[..., 0] + lam * f_mat
    # a non-finite entry of d_theta makes every entry of its point's d_states
    # non-finite (0 * inf and inf - inf are NaN), so one pass checks both
    if not np.isfinite(d_states).all():
        raise _first_failing_point(d_theta, d_states)
    return d_theta, d_states


def _first_failing_point(d_theta, d_states):
    """The error of the first point with a non-finite derivative block, as
    that point alone raises it."""
    finite_theta = np.isfinite(d_theta).all(axis=-1).reshape(-1)
    finite_rows = np.isfinite(d_states).all(axis=-1).reshape(len(finite_theta), -1)
    q = int(np.flatnonzero(~(finite_theta & finite_rows.all(axis=1)))[0])
    if finite_theta[q]:
        bad = np.flatnonzero(~finite_rows[q]).tolist()
        return FlowNumericalError(f"non-finite derivative in state block(s) {bad}")
    return FlowNumericalError("non-finite derivative in parameter block")


def _stack_model_part(problem, thetas, states):
    """The model part of every point of a stack: the pinv sensitivities
    (p, m, n_x, n_theta) and vector field values (p, m, n_x).

    Row (q, i) is condition i at point q. The reference point takes
    coordinate j from point (j + 1) mod p; on the finite-difference stack of
    a point y that is y itself. So it is on the integrator's merged stack,
    the n FD points followed by y: the reference is its base row, which
    owns no row. A row with the bits of the reference point's row of its
    condition is evaluated once for every point that has it, every other
    row on its own, all of them in one batched call per kernel (one theta
    per row) and one stacked solve. On the finite-difference stack, merged
    or not, that is m + m*n_x + n_theta*m rows: one reference row per
    condition, the perturbed row of each state column, and all m rows of
    each parameter column. Raises on a failing kernel or solve, or a
    non-finite Jacobian row; the error names kernel rows, not a point.

    The plan comes from one mask, own: the rows whose bit patterns differ
    from the reference row of their condition (so 0.0 and -0.0 are
    different rows). The kernels see the shared rows (the conditions some
    point does not own) in condition order, then the own rows in stack
    order; their parameters fill one preallocated array and their inputs
    are one gather from u_matrix. Gathering the outputs by row gives each
    point its rows back. Gathers along one axis are takes, the cheapest
    form of the same copy.
    """
    p, m, n_x = states.shape
    n_theta = thetas.shape[1]
    x_flat = states.reshape(p, m * n_x)
    cols = np.arange(n_theta + m * n_x)
    ref = (cols + 1) % p
    ref_theta = thetas[ref[:n_theta], cols[:n_theta]]
    ref_x = x_flat[ref[n_theta:], cols[: m * n_x]]
    own = (x_flat.view(np.int64) != ref_x.view(np.int64)).reshape(p, m, n_x).any(axis=2)
    own |= (thetas.view(np.int64) != ref_theta.view(np.int64)).any(axis=1)[:, None]
    own_q, own_i = np.nonzero(own)
    shared = np.flatnonzero(np.bincount(own_i, minlength=m) < p)
    n_shared = shared.size
    n_rows = n_shared + own_q.size
    row = np.empty((p, m), dtype=np.intp)
    row[:, shared] = np.arange(n_shared)
    row[own] = np.arange(n_shared, n_rows)
    theta_rows = np.empty((n_rows, n_theta))
    theta_rows[:n_shared] = ref_theta
    theta_rows[n_shared:] = thetas.take(own_q, axis=0)
    x_rows = [ref_x.reshape(m, n_x).take(shared, axis=0), states[own_q, own_i]]
    a, b, f_mat = _kernel_rows(
        problem.model,
        theta_rows,
        np.concatenate(x_rows),
        problem.u_matrix.take(np.concatenate([shared, own_i]), axis=0),
    )
    _check_jacobian_rows(a, b)
    return pinv_sensitivity(a, b).take(row, axis=0), f_mat.take(row, axis=0)


def _check_jacobian_rows(a, b):
    """Raise FlowNumericalError naming the rows of the Jacobian stacks
    (jac_x, jac_theta) that hold a non-finite entry."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        ok = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
        bad = np.flatnonzero(~ok).tolist()
        raise FlowNumericalError(f"non-finite Jacobian in condition block(s) {bad}")


def rhs(problem, y):
    """Flow derivative at the packed state y = (theta, x^1..x^m), as one
    packed vector; the flow is autonomous, so it takes no pseudo-time."""
    n_theta = problem.model.n_theta
    states = y[n_theta:].reshape(len(problem.conditions), problem.model.n_x)
    d_theta, d_states = _assemble(problem, y[:n_theta], states)
    return np.concatenate([d_theta, d_states.ravel()])


def rhs_stack(problem, ys):
    """Flow derivative at every row of the stack ys (p, n_theta + m*n_x) in
    one _assemble call, as a (p, n) array whose row q has the bits of
    rhs(problem, ys[q]). Any failing row fails the whole call; the
    integrator makes the rows again as plain rhs calls to find it."""
    ys = np.asarray(ys, dtype=float)
    p = len(ys)
    n_theta = problem.model.n_theta
    states = ys[:, n_theta:].reshape(p, len(problem.conditions), problem.model.n_x)
    d_theta, d_states = _assemble(problem, ys[:, :n_theta], states)
    return np.concatenate([d_theta, d_states.reshape(p, -1)], axis=1)


def stop_check(problem, y, dy):
    """True iff every block of the packed derivative dy (the parameter block
    and each condition's state block) has Euclidean norm below the
    configured tol."""
    squares = np.add.reduceat(dy * dy, problem.block_starts)
    return np.sqrt(squares).max() < problem.config.tol


def manifold_residual(problem, state):
    """Max over conditions of the inf-norm of f(theta, x_i, u_i)."""
    f_mat = problem.model.f_batch(state.theta, state.states, problem.u_matrix)
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
    if init.theta.shape != (n_theta,) or init.states.shape != (m, n_x):
        raise ValueError(
            f"initial state has theta {init.theta.shape} and states "
            f"{init.states.shape}; the problem has n_theta = {n_theta}, "
            f"m = {m} conditions and n_x = {n_x}"
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

    # one state column keeps plain calls, so perfbench's traced cr_methods
    # run still makes one _assemble call per rhs evaluation
    stacked = partial(rhs_stack, problem) if m * n_x >= 2 else None
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
            rhs_stack=stacked,
        )
        reason = {
            integrator.IntegrationOutcome.STOP_CONDITION: StopReason.TOLERANCE_MET,
            integrator.IntegrationOutcome.HORIZON: StopReason.HORIZON_REACHED,
            integrator.IntegrationOutcome.BUDGET_EXHAUSTED: StopReason.EVAL_BUDGET_EXHAUSTED,
            integrator.IntegrationOutcome.STEP_UNDERFLOW: StopReason.NUMERICAL_FAILURE,
        }[outcome]
    except _NUMERICAL_FAILURES as exc:
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
        discarded_evals=stats.discarded_evals,
        min_step=stats.min_step,
        max_step=stats.max_step,
    )
    if store_trajectory:
        return result, trajectory
    return result
