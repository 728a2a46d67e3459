"""Adaptive linearly implicit integration of autonomous ODEs dy/dr = rhs(y).

The scheme is RODAS4, the stiffly accurate fourth-order Rosenbrock pair of
Hairer & Wanner (Solving Ordinary Differential Equations II, Sec. VI.4;
their code rodas.f, METH = 1): six stages, five of them new rhs
evaluations, a fourth-order solution and an embedded third-order one whose
difference, the last stage, is the local error estimate. A step advances
the fourth-order solution. Both solutions are stiffly accurate, so both are
L-stable and an estimate at a point off a stiff component's slow manifold
carries no part of that offset. At moderate stiffness the estimate can
still understate a step's error: on the Prothero-Robinson problem
y' = -1000 (y - cos t) the largest error along a run stays below rel_tol
for rel_tol >= 1e-4 but reaches about 6 rel_tol at rel_tol = 1e-6.

The step size follows Gustafsson's predictive controller (K. Gustafsson,
ACM TOMS 20 (1994) 496-517; Hairer & Wanner II, Sec. IV.8, the default
step strategy of their RADAU5): after an accepted step the classical factor
SAFETY * err ** (-1/4) is capped by a factor extrapolated from the last two
accepted steps' sizes and errors, so a run whose error constant grows step
after step shrinks the step ahead of the error instead of one rejection
behind it. On acceptance criterion 6's NGF flow (100 starts, lambda 20,
tolerances 1e-4 / 1e-6) the classical factor alone took 8246 accepted and
1758 rejected steps (272,792 rhs evaluations), the predictive controller
8371 and 561 (270,807), with the same 84 starts converged.

The scheme handles the stiffness a large retraction factor induces without
Newton iterations per step. The optimiser flow does not depend on r, so the
scheme's time-derivative terms are zero and left out (append a clock state
y' = 1 to integrate a non-autonomous system). The rhs Jacobian is
approximated by forward differences. Each step factorises its stage matrix
once with LAPACK getrf and runs its six stage solves with getrs, called
directly.

Every accepted step's new point is the next step's base. Given rhs_fd,
which evaluates the FD stack of one point in one call, every base point
(the initial point and each accepted step's new point) is evaluated in one
call, made once the step is accepted. The FD stack has one shape
(_fd_stack): the point's n forward-difference points, then the point itself
as row n. Its last row is the value; the other n rows become the point's
Jacobian when the next step starts there, so each base point costs one
derivative call instead of two. Every stack has this shape, so the rows it
shares follow one fixed pattern per problem.

One rule covers failures: a stack call that raises is made again as plain
rhs calls, the value at once and the n forward-difference rows, in stack
order, only if a step needs the point's Jacobian. So a failing row fails the
run where plain calls meet it, with their count and their error; a stack's
own exception decides neither.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .numerics import all_finite

# the RODAS4 coefficients (Hairer & Wanner, rodas.f, METH = 1): the stage
# matrix is I / (h * _GAMMA) - J; stage i + 2 is evaluated at
# y + _A[i] @ k[:5], and its solve's right-hand side adds (_C[i] @ k[:5]) / h
# to the stage value. The last row of _A is the embedded third-order
# solution, the sixth stage's point; the fourth-order solution adds k[5] to it
_GAMMA = 0.25
_A = np.array(
    [
        [1.544, 0.0, 0.0, 0.0, 0.0],
        [0.9466785280815826, 0.2557011698983284, 0.0, 0.0, 0.0],
        [3.314825187068521, 2.896124015972201, 0.9986419139977817, 0.0, 0.0],
        [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 0.0],
        [1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 1.0],
    ]
)
_C = np.array(
    [
        [-5.6688, 0.0, 0.0, 0.0, 0.0],
        [-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0],
        [-0.1073529058151375, -9.594562251023355, -20.47028614809616, 0.0, 0.0],
        [7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160, 0.0],
        [8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136, -6.058818238834054],
    ]
)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0
# the smallest step, relative to max(1, |r|), before a run ends with
# StepUnderflow
H_MIN = 1e-14


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


@lru_cache(maxsize=8)
def _identity(n):
    """np.eye(n), built once per size and read-only: each step's stage
    matrix is made from it as a new array."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def step(rhs, y, h, jac, f0):
    """One step of the scheme from y, with f0 = rhs(y) and jac the rhs
    Jacobian at y; returns (y_new, error_estimate), y_new the fourth-order
    solution and the estimate its difference from the embedded third-order
    one.

    W = I / (h * gamma) - jac is factorised once, and the six stages are
    solves with it: k1 = W^-1 f0 and, for i = 2..6,
    k_i = W^-1 (f(y + sum_j a_ij k_j) + sum_j c_ij k_j / h). The sixth
    stage's point is the embedded solution, and y_new adds k6 to it, so k6
    is the estimate. A step makes five rhs calls; f0 is the caller's, and
    the new point's value is made by the caller once the step is accepted."""
    if h <= 0:
        raise ValueError("step size must be positive")
    w = _identity(y.size) / (h * _GAMMA) - jac
    # a singular stage matrix (info > 0) is caught by the finiteness check
    # on k[0] below
    lu, piv, info = dgetrf(w, overwrite_a=True)
    if info < 0:
        raise StageSolveFailure(f"illegal value in argument {-info} of getrf")
    if not all_finite(lu):
        raise StageSolveFailure("non-finite stage factorisation")
    # the stages k[0..5]; the rows not yet solved are zero, so each stage
    # combination is one product over the rows before it
    k = np.zeros((6, y.size))
    # f0 belongs to the caller: not overwritten
    k[0] = dgetrs(lu, piv, f0)[0]
    if not all_finite(k[0]):
        raise StageSolveFailure("singular or ill-conditioned stage system")
    for i in range(5):
        z = y + _A[i] @ k[:5]
        k[i + 1] = dgetrs(lu, piv, rhs(z) + (_C[i] @ k[:5]) / h, overwrite_b=True)[0]
    # z is the embedded solution
    return z + k[5], k[5]


def _fd_stack(y, steps=None):
    """The FD stack of y: its n forward-difference points, row j being y
    with its entry j stepped by steps[j], by default _SQRT_EPS * (1 + |y[j]|),
    then y itself as row n."""
    n = y.size
    ys = np.empty((n + 1, n))
    ys[:] = y
    ys.flat[:: n + 1] = y + (_SQRT_EPS * (1.0 + np.abs(y)) if steps is None else steps)
    return ys


def _fd_jacobian(values, f0, steps):
    """Forward-difference Jacobian at y from f0 = rhs(y), the steps of
    _fd_stack(y, steps) and values, rhs at its first n rows: column j is
    (values[j] - f0) / steps[j], in a new C-ordered array; values is only read."""
    jac = np.subtract(values.T, f0[:, None], order="C")
    jac /= steps
    return jac


def _err_norm(err, sc):
    """max |err| / sc; NaN or inf rejects the step."""
    return float(np.maximum.reduce(np.abs(err) / sc))


def _initial_step(y, f0, r_max, rel_tol, abs_tol):
    """The first step: 0.01 * d0 / d1 from the RMS norms of y and f0 over
    the tested entries (those with a finite abs_tol), floored at the
    smallest step the loop takes at r = 0, so every run tries a step."""
    sc = abs_tol + rel_tol * np.abs(y)
    tested = np.count_nonzero(np.broadcast_to(abs_tol, y.shape) < math.inf)
    root = math.sqrt(max(tested, 1))
    d0 = float(np.linalg.norm(y / sc)) / root
    d1 = float(np.linalg.norm(f0 / sc)) / root
    if d0 > 1e-5 and d1 > 1e-5:
        h0 = 0.01 * d0 / d1
    else:
        h0 = 1e-6 * max(1.0, r_max)
    # one entry can swamp the estimate: h0 far below the floor, or 0 or NaN
    # when a norm overflows
    if not h0 >= H_MIN:
        h0 = H_MIN
    return min(h0, r_max)


# a point past the float range fails the finiteness checks, which carry the
# cause; the overflow or invalid operation on the way there is not reported
@np.errstate(over="ignore", invalid="ignore")
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
    checked before each step, and a step of n variables makes up to n + 6
    (Jacobian, five stages, new point), so a run can end n + 5 past it.

    A step is accepted when max |err| / sc <= 1 with the scale
    sc = abs_tol + rel_tol * max(|y|, |y_new|). abs_tol is a scalar or one
    value per entry; an entry with abs_tol = inf is left out of the error
    test (and of the initial step's estimate), as DAE codes leave out
    algebraic variables, but a NaN or inf error there still gives a NaN
    norm and rejects the step.

    A rejected step's size is scaled by SAFETY * err_norm ** (-1/4), the
    exponent of a third-order estimate, within [FAC_MIN, 1] (by FAC_MIN for
    a non-finite error norm or a failed stage solve). An accepted step's is
    scaled by Gustafsson's predictive controller (see the module
    docstring): the classical factor SAFETY * err_norm ** (-1/4), and from
    the second accepted step on the smaller of it and the predictive factor
    SAFETY * (h / h_acc) * (err_acc / err_norm ** 2) ** (1/4), each within
    [FAC_MIN, FAC_MAX]. h_acc and err_acc are the size and error norm
    (floored at 1e-2) of the accepted step before, which a rejection leaves
    as they are. An error norm of 0 scales the step by FAC_MAX.

    rhs_fd, if given, evaluates the FD stack of a point in one call:
    rhs_fd(y) returns rhs at every row of _fd_stack(y) (y's n FD points,
    then y as row n) as rows, row q with the bits of rhs at row q. It sees
    no other stack, so it may plan its evaluation once. rhs_fd is called
    only for a base point (see the module docstring): the initial point and
    each accepted step's new point, after the error test accepts the step.
    The counting is that of one plain call for the value and one stack call
    per Jacobian: the value counts 1 when it is made, and the n rows add n
    to rhs_evals when a step takes its Jacobian from them, after the budget
    check, where the Jacobian's own call would count. The rows of the run's
    last point, which no step takes, count in discarded_evals instead (rows
    count there from their call until a step takes them), so rhs_evals +
    discarded_evals is the number of points evaluated, stack calls that
    raised apart.

    Failures follow the one rule of the module docstring. A stack call that
    raises is made again as one plain rhs call for the value and, if a step
    needs the point's Jacobian, n plain calls for its rows. A plain call
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

    def base_value(y):
        # rhs(y) for a base point: the last row of one call on y's FD
        # stack, whose other rows wait in ahead
        nonlocal ahead
        ahead = None
        if rhs_fd is None:
            return counted_rhs(y)
        try:
            values = rhs_fd(y)
        except Exception:
            # whatever failed, plain calls raise it again where they reach
            # the failing row, if the run gets there
            return counted_rhs(y)
        stats.rhs_evals += 1
        stats.discarded_evals += n
        ahead = values[:-1]
        return values[-1]

    try:
        r = 0.0
        f0 = base_value(y)
        if not all_finite(f0):
            raise FloatingPointError("non-finite right-hand side at the initial point")
        if observer is not None:
            observer(r, y, f0)
        if stop is not None and stop(y, f0):
            return r, y, stats, IntegrationOutcome.STOP_CONDITION
        if r >= r_max:
            return r, y, stats, IntegrationOutcome.HORIZON

        h = _initial_step(y, f0, r_max, rel_tol, abs_tol)
        jac = None
        # the last accepted step's size and error norm (floored at 1e-2),
        # for the predictive factor; a rejection leaves them
        h_acc = err_acc = None
        while True:
            if r >= r_max:
                return r, y, stats, IntegrationOutcome.HORIZON
            if stats.rhs_evals >= budget:
                return r, y, stats, IntegrationOutcome.BUDGET_EXHAUSTED
            h = min(h, r_max - r)
            if h < H_MIN * max(1.0, abs(r)):
                return r, y, stats, IntegrationOutcome.STEP_UNDERFLOW
            if jac is None:
                steps = _SQRT_EPS * (1.0 + np.abs(y))
                if ahead is None:
                    # y's stack call raised, or there is no rhs_fd: its n
                    # FD rows as plain calls, in stack order
                    values = np.empty((n, n))
                    for j, row in enumerate(_fd_stack(y, steps)[:n]):
                        values[j] = counted_rhs(row)
                else:
                    # y's FD rows, made ahead with its value: counted now
                    # that a Jacobian takes them
                    values, ahead = ahead, None
                    stats.discarded_evals -= n
                    stats.rhs_evals += n
                jac = _fd_jacobian(values, f0, steps)
                stats.jacobian_evals += 1
            try:
                y_new, err = step(counted_rhs, y, h, jac, f0)
            except StageSolveFailure:
                stats.steps_rejected += 1
                h *= FAC_MIN
                continue
            sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = _err_norm(err, sc)
            if not math.isfinite(err_norm) or err_norm > 1.0:
                stats.steps_rejected += 1
                if math.isfinite(err_norm) and err_norm > 0.0:
                    h *= max(min(SAFETY * err_norm ** -0.25, 1.0), FAC_MIN)
                else:
                    h *= FAC_MIN
                continue
            r += h
            y = y_new
            f0 = base_value(y)
            if not all_finite(f0):
                raise FloatingPointError("non-finite right-hand side after a step")
            jac = None
            stats.steps_accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            if observer is not None:
                observer(r, y, f0)
            if stop is not None and stop(y, f0):
                return r, y, stats, IntegrationOutcome.STOP_CONDITION
            if err_norm > 0.0:
                fac = min(max(SAFETY * err_norm ** -0.25, FAC_MIN), FAC_MAX)
                # Gustafsson's predictive factor, from the second accepted
                # step on; fac <= FAC_MAX already, so it needs only its lower
                # clip. Below about 1e-162 err_norm**2 underflows to 0, where
                # the factor is unbounded and fac is FAC_MAX anyway
                if h_acc is not None and err_norm**2 > 0.0:
                    pred = SAFETY * (h / h_acc) * (err_acc / err_norm**2) ** 0.25
                    fac = min(fac, max(pred, FAC_MIN))
            else:
                fac = FAC_MAX
            h_acc, err_acc = h, max(err_norm, 1e-2)
            h *= fac
    except Exception as exc:
        exc.stats = stats
        raise
