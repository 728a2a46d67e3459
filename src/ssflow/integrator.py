"""Adaptive linearly implicit ODE integration.

The scheme is the modified Rosenbrock triple (order 2 with a third-order
error companion, L-stable), which handles the stiffness a large retraction
factor induces without Newton iterations per step. The right-hand-side
Jacobian is approximated internally by forward differences. Each step
factorises its stage matrix once with LAPACK getrf and runs its three stage
solves with getrs, the routines behind scipy's lu_factor and lu_solve,
called directly to skip their per-call wrapper overhead.
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
    min_step: float = field(default=math.inf)
    max_step: float = 0.0


def step(rhs, r, y, h, jac, f0=None, dfdr=None):
    """One step of the linearly implicit scheme.

    Returns (y_new, error_estimate, f_new) where f_new is the right-hand
    side evaluated at y_new (reusable by the caller). f0 and dfdr may be
    supplied to avoid recomputation; dfdr defaults to zero (autonomous).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    n = y.size
    if f0 is None:
        f0 = rhs(r, y)
    if dfdr is None:
        dfdr = np.zeros(n)
    w = np.eye(n) - (h * _D) * jac
    # a singular stage matrix (info > 0) is caught by the finiteness check
    # on k1 below
    lu, piv, info = dgetrf(w, overwrite_a=True)
    if info < 0:
        raise StageSolveFailure(f"illegal value in argument {-info} of getrf")
    if not np.isfinite(lu).all():
        raise StageSolveFailure("non-finite stage factorisation")
    hd_t = (h * _D) * dfdr
    k1 = dgetrs(lu, piv, f0 + hd_t, overwrite_b=True)[0]
    if not np.isfinite(k1).all():
        raise StageSolveFailure("singular or ill-conditioned stage system")
    f1 = rhs(r + 0.5 * h, y + 0.5 * h * k1)
    k2 = dgetrs(lu, piv, f1 - k1, overwrite_b=True)[0] + k1
    y_new = y + h * k2
    f_new = rhs(r + h, y_new)
    k3 = dgetrs(
        lu,
        piv,
        f_new - _E32 * (k2 - f1) - 2.0 * (k1 - f0) + hd_t,
        overwrite_b=True,
    )[0]
    err = (h / 6.0) * (k1 - 2.0 * k2 + k3)
    return y_new, err, f_new


def _fd_jacobian(rhs, r, y, f0, stats):
    n = y.size
    jac = np.empty((n, n))
    steps = _SQRT_EPS * (1.0 + np.abs(y))
    # one perturbed copy of y, each column's entry restored after its call
    yp = y.copy()
    for j in range(n):
        d = steps[j]
        yp[j] = y[j] + d
        # counted before the call, so a call that raises is counted too
        stats.rhs_evals += 1
        jac[:, j] = (rhs(r, yp) - f0) / d
        yp[j] = y[j]
    stats.jacobian_evals += 1
    return jac


def _initial_step(y, f0, r_max, rel_tol, abs_tol):
    sc = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.linalg.norm(y / sc)) / math.sqrt(max(y.size, 1))
    d1 = float(np.linalg.norm(f0 / sc)) / math.sqrt(max(y.size, 1))
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
    autonomous=True,
    observer=None,
):
    """Integrate dy/dr = rhs(r, y) from r = 0 to r_max with adaptive steps.

    The stop callback, if given, receives (y, dy/dr) after every accepted
    step (and once at the initial point) and terminates the integration by
    returning True. The observer, if given, is called with (r, y, dy/dr) at
    the initial point and after every accepted step. budget caps the total
    number of rhs evaluations, Jacobian differencing included.

    Returns (final r, final y, IntegratorStats, IntegrationOutcome). An
    exception raised on the way (by rhs, stop or observer, or on a non-finite
    rhs value) propagates with the IntegratorStats of the work done so far
    attached as its ``stats`` attribute.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    if y.size == 0:
        raise ValueError("initial state must not be empty")
    stats = IntegratorStats()

    def counted_rhs(r, y):
        stats.rhs_evals += 1
        return rhs(r, y)

    try:
        r = 0.0
        f0 = counted_rhs(r, y)
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
        dfdr = None
        while True:
            if r >= r_max:
                return r, y, stats, IntegrationOutcome.HORIZON
            if stats.rhs_evals >= budget:
                return r, y, stats, IntegrationOutcome.BUDGET_EXHAUSTED
            h = min(h, r_max - r)
            if h < 1e-14 * max(1.0, abs(r)):
                return r, y, stats, IntegrationOutcome.STEP_UNDERFLOW
            if jac is None:
                # _fd_jacobian counts its own rhs calls
                jac = _fd_jacobian(rhs, r, y, f0, stats)
                if autonomous:
                    dfdr = np.zeros(y.size)
                else:
                    d = _SQRT_EPS * (1.0 + abs(r))
                    dfdr = (counted_rhs(r + d, y) - f0) / d
            try:
                y_new, err, f_new = step(counted_rhs, r, y, h, jac, f0=f0, dfdr=dfdr)
            except StageSolveFailure:
                stats.steps_rejected += 1
                h *= FAC_MIN
                continue
            sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            with np.errstate(invalid="ignore", over="ignore"):
                err_norm = float(np.max(np.abs(err) / sc)) if err.size else 0.0
            if not np.isfinite(err_norm) or err_norm > 1.0:
                stats.steps_rejected += 1
                if np.isfinite(err_norm) and err_norm > 0.0:
                    h *= max(min(SAFETY * err_norm ** (-1.0 / 3.0), 1.0), FAC_MIN)
                else:
                    h *= FAC_MIN
                continue
            # accepted; in the nonstiff regime advance the third-order
            # companion (local extrapolation) so the global error tracks the
            # tolerance linearly, but keep the L-stable second-order solution
            # when the step resolves stiff modes
            r += h
            if h * float(np.abs(jac).sum(axis=1).max()) <= 1.0:
                y = y_new + err
                f0 = counted_rhs(r, y)
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
