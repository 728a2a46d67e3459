"""Reference optimisers for the method comparison.

quasi_newton_unconstrained is a BFGS iteration with Armijo backtracking for
the analytically reduced problems; augmented_lagrangian_constrained solves
the equality-constrained formulation of a problem bundle (its model(),
objective() and conditions()) with a multiplier/penalty outer loop around
the same BFGS inner solver. Both report why they stopped as a StopReason.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import StopReason

ARMIJO_C = 1e-4
MAX_HALVINGS = 50
RHO_INIT = 10.0
RHO_GROWTH = 10.0
VIOLATION_SHRINK = 4.0


@dataclass
class BaselineResult:
    theta: np.ndarray
    objective: float
    constraint_violation: float
    iterations: int
    reason: StopReason
    wall_time: float
    n_evals: int = 0
    outer_iterations: int = 0


def quasi_newton_unconstrained(fun_grad, theta0, tol=1e-6, max_iter=1000):
    """BFGS with backtracking line search (Armijo c = 1e-4, halving).

    fun_grad maps theta to (value, gradient). Stops with ToleranceMet when
    the gradient inf-norm drops below tol, NumericalFailure on a non-finite
    gradient, LineSearchFailure when no step descends (after a steepest
    descent retry) and IterationLimit after max_iter iterations.
    """
    t0 = time.perf_counter()
    x = np.asarray(theta0, dtype=float).copy()
    n = x.size
    n_evals = 0

    def fg(z):
        nonlocal n_evals
        n_evals += 1
        v, g = fun_grad(z)
        return float(v), np.asarray(g, dtype=float)

    def backtrack(p, slope, alpha=1.0):
        for _ in range(MAX_HALVINGS):
            f_try, g_try = fg(x + alpha * p)
            if np.isfinite(f_try) and f_try <= f + ARMIJO_C * alpha * slope:
                return alpha, f_try, g_try
            alpha *= 0.5
        return None, None, None

    f, g = fg(x)
    h_inv = np.eye(n)
    first_update = True
    reason = StopReason.ITERATION_LIMIT
    k = 0
    while k < max_iter:
        if not np.all(np.isfinite(g)):
            reason = StopReason.NUMERICAL_FAILURE
            break
        if np.abs(g).max() < tol:
            reason = StopReason.TOLERANCE_MET
            break
        p = -h_inv @ g
        slope = float(p @ g)
        if not np.isfinite(slope) or slope >= 0:
            h_inv = np.eye(n)
            first_update = True
            p = -g
            slope = float(p @ g)
        # before any curvature is known the direction is raw steepest
        # descent; start the search at a gradient-scaled step
        alpha0 = min(1.0, 1.0 / (1.0 + float(np.abs(g).sum()))) if first_update else 1.0
        alpha, f_new, g_new = backtrack(p, slope, alpha0)
        if alpha is None and not first_update:
            # stale curvature; retry once along steepest descent
            h_inv = np.eye(n)
            first_update = True
            p = -g
            slope = float(p @ g)
            alpha, f_new, g_new = backtrack(p, slope)
        if alpha is None:
            reason = StopReason.LINE_SEARCH_FAILURE
            break
        s = alpha * p
        y = g_new - g
        x = x + s
        f, g = f_new, g_new
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            if first_update:
                # scale the initial inverse Hessian to the observed curvature
                h_inv = (sy / float(y @ y)) * np.eye(n)
                first_update = False
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv = (
                h_inv
                - rho * (np.outer(s, hy) + np.outer(hy, s))
                + rho * (1.0 + rho * float(y @ hy)) * np.outer(s, s)
            )
        k += 1
    return BaselineResult(
        theta=x,
        objective=f,
        constraint_violation=0.0,
        iterations=k,
        reason=reason,
        wall_time=time.perf_counter() - t0,
        n_evals=n_evals,
    )


def augmented_lagrangian_constrained(bundle, init, tol=1e-6, max_outer=20):
    """Equality-constrained solver over a bundle's full (theta, states) vector.

    Outer loop: multiplier update mu += rho * f; penalty rho starts at 10
    and grows tenfold whenever the constraint violation fails to shrink by
    a factor of 4. Inner loop: BFGS on the augmented Lagrangian. ToleranceMet
    when the violation and the inner gradient are both below tol, else OuterLimit.
    """
    t0 = time.perf_counter()
    model = bundle.model()
    objective = bundle.objective()
    u_mat = np.stack([c.u for c in bundle.conditions()])
    n_theta = model.n_theta
    n_x = model.n_x
    m = len(u_mat)

    def unpack(z):
        return z[:n_theta], z[n_theta:].reshape(m, n_x)

    def constraints(z):
        theta, x_mat = unpack(z)
        return np.asarray(model.f_batch(theta, x_mat, u_mat), dtype=float).ravel()

    def make_auglag(mu, rho):
        def fun_grad(z):
            # extreme iterates can overflow the model rates; the resulting
            # non-finite value is rejected by the line search, so silence
            # the intermediate warnings
            with np.errstate(all="ignore"):
                return _eval(z)

        def _eval(z):
            theta, x_mat = unpack(z)
            f_mat, jac = model.f_jac_batch(theta, x_mat, u_mat)
            cvec = f_mat.ravel()
            if not np.all(np.isfinite(cvec)):
                return float("inf"), np.full(z.size, np.nan)
            value = (
                float(objective.eval(theta, x_mat))
                + float(mu @ cvec)
                + 0.5 * rho * float(cvec @ cvec)
            )
            w = (mu + rho * cvec).reshape(m, n_x)
            jx, jt = jac[..., :n_x], jac[..., n_x:]
            g_theta = np.array(objective.grad_theta(theta, x_mat), dtype=float)
            g_x = np.array(objective.grad_x(theta, x_mat), dtype=float)
            # condition by condition, so g_theta keeps its summation order
            for i in range(m):
                g_theta += jt[i].T @ w[i]
                g_x[i] += jx[i].T @ w[i]
            return value, np.concatenate([g_theta, g_x.ravel()])

        return fun_grad

    z = init.pack()
    mu = np.zeros(m * n_x)
    rho = RHO_INIT
    prev_violation = np.inf
    total_iters = 0
    total_evals = 0
    n_outer = 0
    reason = StopReason.OUTER_LIMIT
    for _ in range(max_outer):
        n_outer += 1
        inner = quasi_newton_unconstrained(
            make_auglag(mu, rho), z, tol=tol, max_iter=300
        )
        z = inner.theta
        total_iters += inner.iterations
        total_evals += inner.n_evals
        cvec = constraints(z)
        violation = float(np.abs(cvec).max()) if np.all(np.isfinite(cvec)) else np.inf
        if violation < tol and inner.reason is StopReason.TOLERANCE_MET:
            reason = StopReason.TOLERANCE_MET
            break
        mu = mu + rho * cvec
        if not (violation < prev_violation / VIOLATION_SHRINK):
            rho *= RHO_GROWTH
        prev_violation = violation

    theta, states = unpack(z)
    cvec = constraints(z)
    violation = float(np.abs(cvec).max()) if np.all(np.isfinite(cvec)) else np.inf
    return BaselineResult(
        theta=theta,
        objective=float(objective.eval(theta, states)),
        constraint_violation=violation,
        iterations=total_iters,
        reason=reason,
        wall_time=time.perf_counter() - t0,
        n_evals=total_evals,
        outer_iterations=n_outer,
    )
