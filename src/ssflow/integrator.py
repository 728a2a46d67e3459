"""Adaptive linearly implicit integration of autonomous ODEs dy/dr = rhs(y).

The scheme is the modified Rosenbrock triple (order 2 with a third-order
error companion, L-stable; Shampine & Reichelt 1997), which handles the
stiffness a large retraction factor induces without Newton iterations per
step. The optimiser flow does not depend on r, so the triple's
time-derivative term is zero and left out (append a clock state y' = 1 to
integrate a non-autonomous system). The rhs Jacobian is approximated by
forward differences. Each step factorises its stage matrix once with LAPACK
getrf and runs its three stage solves with getrs, called directly.

Given rhs_fd, which evaluates the FD stack of one point (_fd_stack: its n
forward-difference points, optionally the point itself last) in one call,
every point that may become the next step's base (the initial point, the new
point of a step that keeps its L-stable solution, the extrapolated point of
one that does not) is evaluated in one call together with its n
forward-difference points, and the stack's last row is the value. The other
n rows become that point's Jacobian if the next step starts there, so each
such point costs one derivative call instead of two. The stacks are always
FD stacks, so the rows they share follow one fixed pattern per problem.

One rule covers failures: a stack call that raises is made again as plain
rhs calls, one per row in stack order. So a failing row fails the run where
plain calls meet it, with their count and their error; a stack's own
exception decides neither.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


class StageSolveFailure(RuntimeError):
    """The stage linear system could not be factorised; the step is rejected."""


class IntegrationOutcome(enum.Enum):
    STOP_CONDITION = "StopCondition"
    HORIZON = "Horizon"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    STEP_UNDERFLOW = "StepUnderflow"


@dataclass
class IntegratorStats:
    steps_accepted: int = 0
    steps_rejected: int = 0
    rhs_evals: int = 0
    jacobian_evals: int = 0
    discarded_evals: int = 0
    min_step: float = field(default=math.inf)
    max_step: float = 0.0


def step(rhs, y, h, jac, f0, rhs_new=None):
    """One step of the scheme from y, with f0 = rhs(y); returns (y_new,
    error_estimate, f_new) with f_new = rhs(y_new), reusable by the caller.

    rhs_new, if given, makes f_new in place of rhs: integrate_adaptive
    passes the call that also evaluates y_new's forward-difference points
    when y_new will be the next step's base."""
    if h <= 0:
        raise ValueError("step size must be positive")
    w = np.eye(y.size) - (h * _D) * jac
    # a singular stage matrix (info > 0) is caught by the finiteness check
    # on k1 below
    lu, piv, info = dgetrf(w, overwrite_a=True)
    if info < 0:
        raise StageSolveFailure(f"illegal value in argument {-info} of getrf")
    if not np.isfinite(lu).all():
        raise StageSolveFailure("non-finite stage factorisation")
    # f0 belongs to the caller and is read again below: not overwritten
    k1 = dgetrs(lu, piv, f0)[0]
    if not np.isfinite(k1).all():
        raise StageSolveFailure("singular or ill-conditioned stage system")
    f1 = rhs(y + 0.5 * h * k1)
    k2 = dgetrs(lu, piv, f1 - k1, overwrite_b=True)[0] + k1
    y_new = y + h * k2
    f_new = (rhs if rhs_new is None else rhs_new)(y_new)
    k3 = dgetrs(
        lu, piv, f_new - _E32 * (k2 - f1) - 2.0 * (k1 - f0), overwrite_b=True
    )[0]
    err = (h / 6.0) * (k1 - 2.0 * k2 + k3)
    return y_new, err, f_new


def _fd_stack(y, value=False):
    """The stack of y's n forward-difference points, row j being y with its
    entry j stepped by _SQRT_EPS * (1 + |y[j]|); with value=True, y itself
    follows as row n."""
    n = y.size
    ys = np.empty((n + value, n))
    ys[:] = y
    ys.flat[:: n + 1] = y + _SQRT_EPS * (1.0 + np.abs(y))
    return ys


def _fd_jacobian(values, y, f0):
    """Forward-difference Jacobian at y, with f0 = rhs(y), from values, the
    rhs values at the rows of _fd_stack(y) as rows: column j is
    (values[j] - f0) / steps[j]. The differences go straight into the
    C-ordered Jacobian; values is only read, never written.
    """
    jac = np.subtract(values.T, f0[:, None], order="C")
    jac /= _SQRT_EPS * (1.0 + np.abs(y))
    return jac


def _initial_step(y, f0, r_max, rel_tol, abs_tol):
    sc = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.linalg.norm(y / sc)) / math.sqrt(y.size)
    d1 = float(np.linalg.norm(f0 / sc)) / math.sqrt(y.size)
    if d0 > 1e-5 and d1 > 1e-5:
        h0 = 0.01 * d0 / d1
    else:
        h0 = 1e-6 * max(1.0, r_max)
    return min(h0, r_max)


def integrate_adaptive(
    rhs,
    y0,
    r_max,
    rel_tol=1e-6,
    abs_tol=1e-8,
    stop=None,
    budget=100_000,
    observer=None,
    rhs_fd=None,
):
    """Integrate the autonomous system dy/dr = rhs(y) from r = 0 to r_max
    with adaptive steps.

    The stop callback, if given, receives (y, dy/dr) after every accepted
    step (and once at the initial point) and terminates the integration by
    returning True. The observer, if given, is called with (r, y, dy/dr) at
    the initial point and after every accepted step. budget bounds the rhs
    evaluations, Jacobian differencing included, but is not a cap: it is
    checked before each step, and a step of n variables makes up to n + 3
    (Jacobian, two stages, extrapolation), so a run can end n + 2 past it.

    rhs_fd, if given, evaluates the FD stack of a point in one call:
    rhs_fd(y, value) returns rhs at every row of _fd_stack(y, value) as
    rows, row q with the bits of rhs at row q. It sees no other stack, so
    it may plan its evaluation once for both shapes (n and n + 1 rows).
    Each point that may be the next step's base is evaluated in one
    rhs_fd(y, True) call together with its n FD points (see the module
    docstring): the initial point, a step's new point when
    h * ||jac||_inf > 1 (the step keeps its L-stable solution; the test
    needs only h and the Jacobian, so it is made before the step), and the
    extrapolated point otherwise. The counting is that of one plain call
    for the value and one stack call per Jacobian: the value counts 1 when
    it is made, and the n rows add n to rhs_evals when a step takes its
    Jacobian from them, after the budget check, where the Jacobian's own
    call would count. Rows that no step takes (a rejected step's new point,
    the run's last point) count in discarded_evals instead (rows count there
    from their call until a step takes them), so rhs_evals + discarded_evals
    is the number of points evaluated, stack calls that raised apart.

    Failures follow the one rule of the module docstring. A merged call
    that raises is made again as one plain rhs call for the value, and the
    next Jacobian's rows, if a step needs them, as one rhs_fd(y, False)
    call of their own, made again as n plain calls if it raises too. A
    stack call adds its rows to rhs_evals when it returns; a plain call
    counts before it is made, so the call that raises is counted.

    Returns (final r, final y, IntegratorStats, IntegrationOutcome). An
    exception raised on the way (by rhs, stop or observer, or on a non-finite
    rhs value) propagates with the IntegratorStats of the work done so far
    attached as its ``stats`` attribute.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    if y.size == 0:
        raise ValueError("initial state must not be empty")
    n = y.size
    stats = IntegratorStats()
    # the FD rows made with the last base_value call, or None. Every accepted
    # step ends with one for its new point, so when a step needs a Jacobian
    # they are y's
    ahead = None

    def counted_rhs(y):
        # counted before the call, so a call that raises is counted too
        stats.rhs_evals += 1
        return rhs(y)

    def fd_values(y):
        # rhs at every row of _fd_stack(y), as rows: one rhs_fd call, or
        # plain calls in stack order when there is none or it raises
        if rhs_fd is not None:
            try:
                values = rhs_fd(y, False)
            except Exception:
                pass
            else:
                stats.rhs_evals += n
                return values
        return np.array([counted_rhs(row) for row in _fd_stack(y)])

    def base_value(y):
        # rhs(y) for a point that may be the next step's base: the last row
        # of one call on y's FD stack and y, whose other rows wait in ahead
        nonlocal ahead
        ahead = None
        if rhs_fd is None:
            return counted_rhs(y)
        try:
            values = rhs_fd(y, True)
        except Exception:
            # whatever failed, the separate calls raise it again where they
            # reach the failing row, if the run gets there
            return counted_rhs(y)
        stats.rhs_evals += 1
        stats.discarded_evals += n
        ahead = values[:-1]
        return values[-1]

    try:
        r = 0.0
        f0 = base_value(y)
        if not np.all(np.isfinite(f0)):
            raise FloatingPointError("non-finite right-hand side at the initial point")
        if observer is not None:
            observer(r, y, f0)
        if stop is not None and stop(y, f0):
            return r, y, stats, IntegrationOutcome.STOP_CONDITION
        if r >= r_max:
            return r, y, stats, IntegrationOutcome.HORIZON

        h = _initial_step(y, f0, r_max, rel_tol, abs_tol)
        jac = None
        while True:
            if r >= r_max:
                return r, y, stats, IntegrationOutcome.HORIZON
            if stats.rhs_evals >= budget:
                return r, y, stats, IntegrationOutcome.BUDGET_EXHAUSTED
            h = min(h, r_max - r)
            if h < 1e-14 * max(1.0, abs(r)):
                return r, y, stats, IntegrationOutcome.STEP_UNDERFLOW
            if jac is None:
                if ahead is None:
                    values = fd_values(y)
                else:
                    # y's FD rows, made ahead with its value: counted now
                    # that a Jacobian takes them
                    values, ahead = ahead, None
                    stats.discarded_evals -= n
                    stats.rhs_evals += n
                jac = _fd_jacobian(values, y, f0)
                stats.jacobian_evals += 1
                jac_norm = float(np.abs(jac).sum(axis=1).max())
            # in the nonstiff regime an accepted step advances the
            # third-order companion (local extrapolation) so the global
            # error tracks the tolerance linearly; when the step resolves
            # stiff modes it keeps the L-stable second-order solution, whose
            # value is then the next base
            extrapolate = h * jac_norm <= 1.0
            try:
                y_new, err, f_new = step(
                    counted_rhs, y, h, jac, f0, None if extrapolate else base_value
                )
            except StageSolveFailure:
                stats.steps_rejected += 1
                h *= FAC_MIN
                continue
            sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            with np.errstate(invalid="ignore", over="ignore"):
                err_norm = float(np.max(np.abs(err) / sc))
            if not np.isfinite(err_norm) or err_norm > 1.0:
                stats.steps_rejected += 1
                if np.isfinite(err_norm) and err_norm > 0.0:
                    h *= max(min(SAFETY * err_norm ** (-1.0 / 3.0), 1.0), FAC_MIN)
                else:
                    h *= FAC_MIN
                continue
            r += h
            if extrapolate:
                y = y_new + err
                f0 = base_value(y)
                if not np.all(np.isfinite(f0)):
                    raise FloatingPointError("non-finite right-hand side after a step")
            else:
                y = y_new
                f0 = f_new
            jac = None
            stats.steps_accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            if observer is not None:
                observer(r, y, f0)
            if stop is not None and stop(y, f0):
                return r, y, stats, IntegrationOutcome.STOP_CONDITION
            if err_norm > 0.0:
                fac = min(max(SAFETY * err_norm ** (-1.0 / 3.0), FAC_MIN), FAC_MAX)
            else:
                fac = FAC_MAX
            h *= fac
    except Exception as exc:
        exc.stats = stats
        raise
