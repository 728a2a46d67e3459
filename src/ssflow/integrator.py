"""Adaptive linearly implicit integration of autonomous ODEs dy/dr = rhs(y).

The scheme is a stiffly accurate Rosenbrock pair in the modified form of
Hairer & Wanner (Solving Ordinary Differential Equations II, Sec. VI.4),
given as a coefficient table (Scheme) that the one step function runs:
a solution and an embedded one of an order less whose difference, the last
stage, is the local error estimate. A step advances the higher-order
solution. Both solutions are stiffly accurate, so both are L-stable and an
estimate at a point off a stiff component's slow manifold carries no part
of that offset. Two tables are given:

- RODAS4, the default (their code rodas.f, METH = 1): six stages, five of
  them new rhs evaluations, order 4(3). At moderate stiffness its estimate
  can understate a step's error: on the Prothero-Robinson problem
  y' = -1000 (y - cos t) the largest error along a run stays below rel_tol
  for rel_tol >= 1e-4 but reaches about 6 rel_tol at rel_tol = 1e-6.
- RODAS3, Rodas3 of Sandu et al. (Atmos. Environ. 31 (1997) 3459-3472;
  KPP's ros_Method 4): four stages, order 3(2). Its second stage's point
  is y itself, whose value is f0, so a step makes two new rhs evaluations.
  On Prothero-Robinson its error stays within rel_tol for rel_tol <= 1e-4
  and for rel_tol >= 3.2e-3, but reaches 1.2 rel_tol at 3.2e-4 and 2.6 at
  1e-3.

The step size follows Gustafsson's predictive controller (K. Gustafsson,
ACM TOMS 20 (1994) 496-517; Hairer & Wanner II, Sec. IV.8, the default
step strategy of their RADAU5): after an accepted step the classical factor
SAFETY * err ** (-1/q) (q = 4 under RODAS4, 3 under RODAS3: the order of
the estimate) is capped by a factor extrapolated from the last two
accepted steps' sizes and errors, so a run whose error constant grows step
after step shrinks the step ahead of the error instead of one rejection
behind it. On acceptance criterion 6's NGF flow (100 starts, lambda 20,
tolerances 1e-4 / 1e-6, RODAS4) the classical factor alone took 8246
accepted and 1758 rejected steps (272,792 rhs evaluations), the predictive
controller 8371 and 561 (270,807), with the same 84 starts converged.

The scheme handles the stiffness a large retraction factor induces without
Newton iterations per step. The optimiser flow does not depend on r, so the
scheme's time-derivative terms are zero and left out (append a clock state
y' = 1 to integrate a non-autonomous system). The rhs Jacobian is
approximated by forward differences. Each step factorises its stage matrix
once with LAPACK getrf and runs its stage solves with getrs, called
directly.

Every accepted step's new point is the next step's base, whose FD steps
_SQRT_EPS * (1 + |y|) and FD stack (_fd_stack: its n forward-difference
points, then the point as row n) the loop builds once. Given rhs_fd, which
evaluates the stack it is handed in one call, every base point (the
initial point and each accepted step's new point) is evaluated in one
call, made once the step is accepted. The last row is the value; the
other n rows, over the same steps, become the point's Jacobian when the
next step starts there, so each base point costs one derivative call
instead of two. Every stack has this shape, so the rows it shares follow
one fixed pattern per problem.

One rule covers failures, by where the failing point lies. A stage point
is a trial: when its rhs call raises one of the caller's recoverable
types, the step is rejected and shrunk by FAC_MIN, as after a failed stage
solve, which is what CVODE does when its rhs reports a recoverable error
(Hindmarsh et al., ACM TOMS 31 (2005) 363-396). The run still ends at
H_MIN or at the budget, so a rhs that fails at every stage point ends it in
StepUnderflow. A base point belongs to a step already accepted, so a
failure there, of its value or of its FD rows, ends the run, as does any
failure of a type the caller did not list. A stack call that raises is made
again as plain rhs calls, the value at once and the n forward-difference
rows, in stack order, only if a step needs the point's Jacobian. So a
failing row fails the run where plain calls meet it, with their count and
their error; a stack's own exception decides neither.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .numerics import all_finite

# the RODAS4 coefficients (Hairer & Wanner, rodas.f, METH = 1), in Scheme's
# form: the last row of _A is the embedded third-order solution, the sixth
# stage's point; the fourth-order solution adds k[5] to it
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


@dataclass(frozen=True, eq=False)
class Scheme:
    """A stiffly accurate Rosenbrock pair of s stages in the modified form
    of rodas.f. The stage matrix is W = I / (h * gamma) - J. Stage 1 solves
    W k_1 = f0; stage i + 2 (i = 0..s - 2) is evaluated at
    z = y + a[i] @ k[:s - 1], and its solve's right-hand side adds
    (c[i] @ k[:s - 1]) / h to the value there, which is f0 itself where
    reuses_f0[i] (its row of a is zero, so z is y). The last stage's point
    is the embedded solution; the solution adds k_s to it, so k_s is the
    estimate. exponent is 1 / q, q the order of the estimate (the embedded
    solution's order plus one); the step-size controller raises the error
    norm to it. a and c are (s - 1, s - 1), lower triangular, read-only."""

    name: str
    gamma: float
    a: np.ndarray
    c: np.ndarray
    reuses_f0: tuple
    exponent: float

    def __post_init__(self):
        for name in ("a", "c"):
            rows = np.array(getattr(self, name), dtype=float)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        # the number of stages, s, and each stage i + 2's coefficient rows,
        # a's as None where it reuses f0: attributes, read once per step
        object.__setattr__(self, "size", len(self.a) + 1)
        stages = tuple(
            (None if reuse else a, c) for a, c, reuse in zip(self.a, self.c, self.reuses_f0)
        )
        object.__setattr__(self, "stages", stages)


RODAS4 = Scheme("rodas4", _GAMMA, _A, _C, (False,) * 5, 0.25)
# Rodas3 (Sandu et al. 1997; KPP's ros_Method 4): its solution weights
# M = (2, 0, 1, 1) are stage 4's point plus k_4, and its error weights
# E = (0, 0, 0, 1) are k_4
RODAS3 = Scheme(
    "rodas3",
    0.5,
    [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, 1.0]],
    [[4.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, -1.0, -8.0 / 3.0]],
    (True, False, False),
    1.0 / 3.0,
)


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
    # the rejected steps whose stage rhs call raised a recoverable type
    stage_failures: int = 0


@lru_cache(maxsize=8)
def _identity(n):
    """np.eye(n), built once per size and read-only: each step's stage
    matrix is made from it as a new array."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def step(rhs, y, h, jac, f0, scheme=RODAS4):
    """One step of scheme from y, with f0 = rhs(y) and jac the rhs Jacobian
    at y; returns (y_new, error_estimate), y_new the higher-order solution
    and the estimate its difference from the embedded one.

    W = I / (h * gamma) - jac is factorised once, and the s stages are
    solves with it: k1 = W^-1 f0 and, for i = 2..s,
    k_i = W^-1 (f(y + sum_j a_ij k_j) + sum_j c_ij k_j / h), with f0 for a
    stage that reuses it. The last stage's point is the embedded solution,
    and y_new adds k_s to it, so k_s is the estimate. A step makes one rhs
    call per stage that does not reuse f0 (five under RODAS4, two under
    RODAS3); f0 is the caller's, and the new point's value is made by the
    caller once the step is accepted.

    Each stage combination is the product of a coefficient row with the
    stage array through ndarray.dot, one BLAS dgemv as with the @ operator
    but at about half its per-call cost. The LAPACK flags are passed
    positionally, which skips f2py's keyword parsing, and h divides as a
    0-d array, a cheaper ufunc operand than a Python float."""
    if h <= 0:
        raise ValueError("step size must be positive")
    n = y.size
    w = _identity(n) / (h * scheme.gamma) - jac
    # overwrite_a = 1; a singular stage matrix (info > 0) is caught by the
    # finiteness check on k[0] below
    lu, piv, info = dgetrf(w, 1)
    if info < 0:
        raise StageSolveFailure(f"illegal value in argument {-info} of getrf")
    if not all_finite(lu):
        raise StageSolveFailure("non-finite stage factorisation")
    # the stages k[0..s - 1]; the rows not yet solved are zero, so each stage
    # combination is one product over the rows before the last
    k = np.zeros((scheme.size, n))
    lead = k[:-1]
    # f0 belongs to the caller: getrs solves a copy of it (overwrite_b = 0)
    k[0] = dgetrs(lu, piv, f0)[0]
    if not all_finite(k[0]):
        raise StageSolveFailure("singular or ill-conditioned stage system")
    h = np.array(h)
    for i, (a, c) in enumerate(scheme.stages, 1):
        if a is None:
            value = f0
        else:
            z = y + a.dot(lead)
            value = rhs(z)
        # trans = 0, overwrite_b = 1
        k[i] = dgetrs(lu, piv, value + c.dot(lead) / h, 0, 1)[0]
    # z is the embedded solution
    return z + k[-1], k[-1]


def _fd_stack(y, steps):
    """The FD stack of y: its n forward-difference points, row j being y
    with its entry j stepped by steps[j], then y itself as row n."""
    n = y.size
    ys = np.empty((n + 1, n))
    ys[:] = y
    ys.flat[:: n + 1] = y + steps
    return ys


def _fd_jacobian(values, f0, steps):
    """Forward-difference Jacobian at y from f0 = rhs(y), values, rhs at the
    first n rows of y's FD stack _fd_stack(y, steps), and those steps: column
    j is (values[j] - f0) / steps[j], in a new C-ordered array; values is only read."""
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


# the overflow, invalid operation or division by zero on the way to a
# non-finite value is not reported: past the float range the finiteness
# checks fail with the cause, and a zero error scale's inf or NaN takes
# the initial step's fallback or fails the error test
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    recoverable=(),
    scheme=RODAS4,
):
    """Integrate the autonomous system dy/dr = rhs(y) from r = 0 to r_max
    with adaptive steps of scheme (RODAS4 unless given: see the module
    docstring).

    The stop callback, if given, receives (y, dy/dr) after every accepted
    step (and once at the initial point) and terminates the integration by
    returning True. The observer, if given, is called with (r, y, dy/dr) at
    the initial point and after every accepted step. budget bounds the rhs
    evaluations, Jacobian differencing included, but is not a cap: it is
    checked before each step, and a step of n variables makes up to n + 6
    under RODAS4 (Jacobian, five stages, new point) and n + 3 under RODAS3
    (two stages), so a run can end n + 5 (n + 2) past it.

    The run is two nested loops: an outer one with one pass per base point
    (evaluate and check its value, count the step that reached it, call
    observer and stop) around an inner one of trial steps from that point,
    where a failed stage solve, a recoverable failure of a stage call and a
    failed error test share one rejection and the first step that passes
    the error test is accepted.

    A step is accepted when max |err| / sc <= 1 with the scale
    sc = abs_tol + rel_tol * max(|y|, |y_new|). abs_tol is a scalar or one
    value per entry; an entry with abs_tol = inf is left out of the error
    test (and of the initial step's estimate), as DAE codes leave out
    algebraic variables, but a NaN or inf error there still gives a NaN
    norm and rejects the step.

    With e = scheme.exponent (1/4 under RODAS4, whose estimate is of order
    4, and 1/3 under RODAS3), a rejected step's size is scaled by
    SAFETY * err_norm ** (-e) within [FAC_MIN, 1] (by FAC_MIN for a
    non-finite error norm, a failed stage solve or a recoverable stage
    failure). An accepted step's is scaled by Gustafsson's predictive
    controller (see the module docstring): the classical factor
    SAFETY * err_norm ** (-e), and from the second accepted step on the
    smaller of it and the predictive factor
    SAFETY * (h / h_acc) * (err_acc / err_norm ** 2) ** e, each within
    [FAC_MIN, FAC_MAX]. h_acc and err_acc are the size and error norm
    (floored at 1e-2) of the accepted step before, which a rejection leaves
    as they are. An error norm of 0 scales the step by FAC_MAX.

    rhs_fd, if given, evaluates y's FD stack ys = _fd_stack(y, steps), which
    the loop builds once with the steps its Jacobian divides by, in one
    call: rhs_fd(ys) returns rhs at every row of ys as rows, row q with the
    bits of rhs at ys[q], and only reads ys. It is handed no other stack
    shape, so it may plan its evaluation once. rhs_fd is called only for a
    base point (see the module docstring): the initial point and each
    accepted step's new point, after the error test accepts the step.
    The counting is that of one plain call for the value and one stack call
    per Jacobian: the value counts 1 when it is made, and the n rows add n
    to rhs_evals when a step takes its Jacobian from them, after the budget
    check, where the Jacobian's own call would count. The rows of the run's
    last point, which no step takes, count in discarded_evals instead (rows
    count there from their call until a step takes them), so rhs_evals +
    discarded_evals is the number of points evaluated, stack calls that
    raised apart.

    Failures follow the one rule of the module docstring. recoverable is a
    tuple of exception types: a stage call of step that raises one of them
    rejects the step like a failed stage solve (h shrinks by FAC_MIN) and
    adds 1 to stage_failures, a subset of steps_rejected. A failure at a
    base point, its value or its FD rows, ends the run whatever its type.
    A plain call counts before it is made, so the call that raises is
    counted.

    Returns (final r, final y, IntegratorStats, IntegrationOutcome). An
    exception raised on the way (by rhs, stop or observer, or on a non-finite
    rhs value), a recoverable one at a stage point apart, propagates with
    the IntegratorStats of the work done so far attached as its ``stats``
    attribute.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    if y.size == 0:
        raise ValueError("initial state must not be empty")
    n = y.size
    stats = IntegratorStats()
    exponent = scheme.exponent

    def counted_rhs(y):
        # counted before the call, so a call that raises is counted too
        stats.rhs_evals += 1
        return rhs(y)

    try:
        r = 0.0
        # |y|, made once per base point for its FD steps and the error
        # scales of the steps from it
        abs_y = np.abs(y)
        # the last accepted step's size and error norm (floored at 1e-2),
        # for the predictive factor; a rejection leaves them, and h_acc is
        # None only on the initial point's pass
        h_acc = err_acc = None
        while True:
            # y's FD steps and stack, made once for every use of them
            steps = _SQRT_EPS * (1.0 + abs_y)
            ys = _fd_stack(y, steps)
            # y's value: the last row of one call on ys, whose other rows
            # wait in ahead until a step takes y's Jacobian
            ahead = None
            if rhs_fd is None:
                f0 = counted_rhs(y)
            else:
                try:
                    values = rhs_fd(ys)
                except Exception:
                    # whatever failed, plain calls raise it again where they
                    # reach the failing row, if the run gets there
                    f0 = counted_rhs(y)
                else:
                    stats.rhs_evals += 1
                    stats.discarded_evals += n
                    ahead, f0 = values[:-1], values[-1]
            if not all_finite(f0):
                where = "at the initial point" if h_acc is None else "after a step"
                raise FloatingPointError(f"non-finite right-hand side {where}")
            if h_acc is not None:
                # the step to y counts once y's value has passed the check
                stats.steps_accepted += 1
                stats.min_step = min(stats.min_step, h_acc)
                stats.max_step = max(stats.max_step, h_acc)
            if observer is not None:
                observer(r, y, f0)
            if stop is not None and stop(y, f0):
                return r, y, stats, IntegrationOutcome.STOP_CONDITION
            if h_acc is None:
                h = _initial_step(y, f0, r_max, rel_tol, abs_tol)
            jac = None
            while True:
                if r >= r_max:
                    return r, y, stats, IntegrationOutcome.HORIZON
                if stats.rhs_evals >= budget:
                    return r, y, stats, IntegrationOutcome.BUDGET_EXHAUSTED
                h = min(h, r_max - r)
                if h < H_MIN * max(1.0, abs(r)):
                    return r, y, stats, IntegrationOutcome.STEP_UNDERFLOW
                if jac is None:
                    if ahead is None:
                        # y's stack call raised, or there is no rhs_fd: its n
                        # FD rows as plain calls, in stack order
                        values = np.empty((n, n))
                        for j, row in enumerate(ys[:n]):
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
                    y_new, err = step(counted_rhs, y, h, jac, f0, scheme)
                except StageSolveFailure:
                    err_norm = math.nan
                except recoverable:
                    stats.stage_failures += 1
                    err_norm = math.nan
                else:
                    abs_new = np.abs(y_new)
                    sc = abs_tol + rel_tol * np.maximum(abs_y, abs_new)
                    err_norm = _err_norm(err, sc)
                    if err_norm <= 1.0:
                        break
                # a failed stage solve, stage call or error test; NaN fails
                # the test
                stats.steps_rejected += 1
                if math.isfinite(err_norm):
                    h *= max(min(SAFETY * err_norm**-exponent, 1.0), FAC_MIN)
                else:
                    h *= FAC_MIN
            r += h
            y, abs_y = y_new, abs_new
            if err_norm > 0.0:
                fac = min(max(SAFETY * err_norm**-exponent, FAC_MIN), FAC_MAX)
                # Gustafsson's predictive factor, from the second accepted
                # step on; fac <= FAC_MAX already, so it needs only its lower
                # clip. Below about 1e-162 err_norm**2 underflows to 0, where
                # the factor is unbounded and fac is FAC_MAX anyway
                if h_acc is not None and err_norm**2 > 0.0:
                    pred = SAFETY * (h / h_acc) * (err_acc / err_norm**2) ** exponent
                    fac = min(fac, max(pred, FAC_MIN))
            else:
                fac = FAC_MAX
            h_acc, err_acc = h, max(err_norm, 1e-2)
            h *= fac
    except Exception as exc:
        exc.stats = stats
        raise
