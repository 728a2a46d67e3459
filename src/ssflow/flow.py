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
# the stop reason of each way an integration ends
_STOP_REASONS = {
    integrator.IntegrationOutcome.STOP_CONDITION: StopReason.TOLERANCE_MET,
    integrator.IntegrationOutcome.HORIZON: StopReason.HORIZON_REACHED,
    integrator.IntegrationOutcome.BUDGET_EXHAUSTED: StopReason.EVAL_BUDGET_EXHAUSTED,
    integrator.IntegrationOutcome.STEP_UNDERFLOW: StopReason.NUMERICAL_FAILURE,
}


@dataclass(frozen=True)
class FlowProblem:
    """A model, an objective, the (m, n_u) input matrix, one row u_i for each
    of the m >= 1 experimental conditions, and a FlowConfig; the observed
    data are the objective's. u_matrix is kept as a read-only float copy;
    anything but a finite 2-D array of model.n_u columns is a ValueError."""

    model: object
    objective: object
    u_matrix: np.ndarray
    config: FlowConfig

    def __post_init__(self):
        try:
            u_matrix = np.array(self.u_matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"u_matrix: {exc}") from None
        n_u = self.model.n_u
        if u_matrix.ndim != 2 or len(u_matrix) < 1 or u_matrix.shape[1] != n_u:
            raise ValueError(
                f"u_matrix must have shape (m, {n_u}), m >= 1, got {u_matrix.shape}"
            )
        if not np.isfinite(u_matrix).all():
            raise ValueError("u_matrix entries must be finite")
        u_matrix.flags.writeable = False
        object.__setattr__(self, "u_matrix", u_matrix)

    @cached_property
    def block_starts(self):
        """Where the parameter block and each state block start in the
        packed state."""
        n_theta = self.model.n_theta
        states = n_theta + self.model.n_x * np.arange(len(self.u_matrix))
        return np.concatenate([[0], states])

    @cached_property
    def lam(self):
        """The retraction factor config.lam as a 0-d array, a cheaper ufunc
        operand than a Python float."""
        return np.array(self.config.lam, dtype=float)

    @cached_property
    def fd_plan(self):
        """The kernel-row plan of the FD stack of a point (_fd_plan). Built
        once; every stacked evaluation of the problem reuses it."""
        return _fd_plan(self)


def _assemble(problem, theta, states):
    """The flow derivative blocks at one point or at the FD stack of one;
    every evaluation of the flow derivative is one call.

    One point: theta (n_theta,) and states (m, n_x); returns d_theta
    (n_theta,) and d_states (m, n_x). The FD stack of a point, as the
    integrator builds it (its n forward-difference points, then the point
    as row n): theta (n + 1, n_theta) and states (n + 1, m, n_x); returns
    (n + 1, n_theta) and (n + 1, m, n_x) arrays whose row q has the bits of
    point q alone. Any other stack is wrong: the model part follows the
    problem's fixed FD plan.

    The model part is the one branch. A point makes one call of the fused
    kernel (ModelSpec.f_jac_batch) over its m condition rows, which gives f
    and the whole Jacobian; _sensitivities checks the Jacobian rows for
    finiteness and solves for the pinv sensitivities. A stack gets all of
    it from _stack_model_part, one fused call and one stacked solve. Then,
    at a point or a stack alike: one call of each objective gradient,
    the gradients pulled back through the sensitivities, the retraction term
    lam * f, and one finiteness pass that covers both derivative blocks. The
    block structure of the concatenated constraint system is never
    assembled explicitly.

    A failure raises FlowNumericalError, or whatever a kernel, the solve or
    an objective gradient raises. At a stack it fails the whole call: the
    integrator then makes the point's value, and its n forward-difference
    rows if a step needs them, again as plain calls, which meet the failure
    where it is (integrator module docstring).
    """
    if theta.ndim == 1:
        model = problem.model
        f_mat, jac = model.f_jac_batch(theta, states, problem.u_matrix)
        s_hat = _sensitivities(jac, model.n_x)
    else:
        s_hat, f_mat = _stack_model_part(problem, theta, states)
    objective = problem.objective
    d_theta = -total_gradient(
        objective.grad_theta(theta, states), s_hat, objective.grad_x(theta, states)
    )
    d_states = _pull_back(s_hat, d_theta) + problem.lam * f_mat
    # a non-finite entry of d_theta makes every entry of its point's d_states
    # non-finite (0 * inf and inf - inf are NaN), so one pass checks both
    if not numerics.all_finite(d_states):
        raise _first_failing_point(d_theta, d_states)
    return d_theta, d_states


def _pull_back(s_hat, d_theta):
    """The sensitivities applied to the parameter derivative, S_i d_theta
    per condition: (m, n_x) at a point, (p, m, n_x) at a stack.

    Each is its own matrix-vector product, one BLAS call per condition (and
    point), so row q of a stack has point q's bits. A point's d_theta stays
    1-D, which makes the same calls without broadcast axes. One product
    over all m * n_x rows would be cheaper, but its bits differ for some
    shapes (n_x = 1 or n_theta >= 8, with m >= 2, on OpenBLAS)."""
    if d_theta.ndim == 1:
        return s_hat @ d_theta
    return (s_hat @ d_theta[:, None, :, None])[..., 0]


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


def _fd_plan(problem):
    """The kernel-row plan of the FD stack of a point y, as the integrator
    builds it (y's n forward-difference points, then y as row n): per
    kernel row, the stack row of its theta and the stack row * m +
    condition of its state, the kernel rows' inputs gathered from u_matrix,
    and the (n + 1, m) kernel row of each condition of each point.

    Each parameter column's point owns all m condition rows, each state
    column's point the row of its condition, and every other row is y's
    own, shared: its theta is row n's and condition i's state is row n's
    (stack row n * m + i). The kernels see the shared rows first, in
    condition order, then the own rows in stack order.
    """
    n_theta, n_x = problem.model.n_theta, problem.model.n_x
    m = len(problem.u_matrix)
    n = n_theta + m * n_x
    conditions = np.arange(m)
    own_q = np.concatenate(
        [np.repeat(np.arange(n_theta), m), n_theta + np.arange(m * n_x)]
    )
    own_i = np.concatenate([np.tile(conditions, n_theta), np.repeat(conditions, n_x)])
    row = np.tile(conditions, (n + 1, 1))
    row[own_q, own_i] = np.arange(m, m + own_q.size)
    return (
        np.concatenate([np.full(m, n), own_q]),
        np.concatenate([n * m + conditions, own_q * m + own_i]),
        problem.u_matrix.take(np.concatenate([conditions, own_i]), axis=0),
        row,
    )


def _stack_model_part(problem, thetas, states):
    """The model part of every point of an FD stack: the pinv sensitivities
    (n + 1, m, n_x, n_theta) and vector field values (n + 1, m, n_x).

    Row (q, i) is condition i at point q. The kernel rows come from the
    problem's plan (_fd_plan): on the FD stack of a point y, the m rows of
    y, shared, the m rows of each parameter column and the one perturbed
    row of each state column, all of them in one fused kernel call (one
    theta per row) and one stacked solve. A call only gathers the theta and
    x rows; the inputs and the row map are the plan's. Raises on a failing
    kernel or solve, or a non-finite Jacobian row; the error names kernel
    rows, not a point.
    """
    p, m, n_x = states.shape
    theta_rows, x_rows, u_rows, row = problem.fd_plan
    f_mat, jac = problem.model.f_jac_batch(
        thetas.take(theta_rows, axis=0),
        states.reshape(p * m, n_x).take(x_rows, axis=0),
        u_rows,
    )
    return _sensitivities(jac, n_x).take(row, axis=0), f_mat.take(row, axis=0)


def _sensitivities(jac, n_x):
    """The pinv sensitivities of the kernel rows' Jacobians
    jac = [jac_x | jac_theta]; raises FlowNumericalError naming the rows
    that hold a non-finite entry."""
    if not numerics.all_finite(jac):
        bad = np.flatnonzero(~np.isfinite(jac).all(axis=(1, 2))).tolist()
        raise FlowNumericalError(f"non-finite Jacobian in condition block(s) {bad}")
    return pinv_sensitivity(jac[..., :n_x], jac[..., n_x:])


def rhs(problem, y):
    """Flow derivative at the packed state y = (theta, x^1..x^m), as one
    packed vector, or at every row of y, the FD stack the integrator builds
    for a packed point (its n forward-difference points, then the point as
    row n), in one _assemble call, as an (n + 1, n) array whose row q has
    the bits of rhs(problem, y[q]). The flow is autonomous, so it takes no
    pseudo-time. Any failing row of a stack fails the whole call; the
    integrator then finds it with calls at single points."""
    n_theta = problem.model.n_theta
    lead = y.shape[:-1]
    states = y[..., n_theta:].reshape(lead + (len(problem.u_matrix), problem.model.n_x))
    d_theta, d_states = _assemble(problem, y[..., :n_theta], states)
    return np.concatenate([d_theta, d_states.reshape(lead + (-1,))], axis=-1)


def stop_check(problem, y, dy):
    """True iff every block of the packed derivative dy (the parameter block
    and each condition's state block) has Euclidean norm below the
    configured tol."""
    squares = np.add.reduceat(dy * dy, problem.block_starts)
    return np.maximum.reduce(np.sqrt(squares)) < problem.config.tol


def manifold_residual(problem, state):
    """Max over conditions of the inf-norm of f(theta, x_i, u_i)."""
    f_mat = problem.model.f_batch(state.theta, state.states, problem.u_matrix)
    return float(np.abs(np.asarray(f_mat, dtype=float)).max())


def _error_tolerances(problem):
    """(rel_tol, abs_tol) of the integrator's local error test on the packed
    state, abs_tol per entry. When lam > 0 every state entry's is inf, so the
    test covers the parameter block only (FlowConfig says why); at lam = 0
    nothing damps the state errors, and every entry is tested."""
    cfg = problem.config
    n_theta = problem.model.n_theta
    state_tol = np.inf if cfg.lam > 0 else cfg.integrator_abs_tol
    abs_tol = np.full(n_theta + len(problem.u_matrix) * problem.model.n_x, state_tol)
    abs_tol[:n_theta] = cfg.integrator_abs_tol
    return cfg.integrator_rel_tol, abs_tol


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
    m = len(problem.u_matrix)
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

    flow_rhs = partial(rhs, problem)
    rel_tol, abs_tol = _error_tolerances(problem)
    t0 = time.perf_counter()
    try:
        r_end, y_end, stats, outcome = integrator.integrate_adaptive(
            flow_rhs,
            init.pack(),
            cfg.r_max,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            stop=partial(stop_check, problem),
            budget=cfg.max_rhs_evals,
            observer=observer,
            # one state column keeps plain calls, so perfbench's traced
            # cr_methods run still makes one _assemble call per rhs evaluation
            rhs_fd=flow_rhs if m * n_x >= 2 else None,
        )
        reason = _STOP_REASONS[outcome]
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
        wall_time=wall,
        # the integrator counters, which RunResult names as IntegratorStats does
        **vars(stats),
    )
    if store_trajectory:
        return result, trajectory
    return result
