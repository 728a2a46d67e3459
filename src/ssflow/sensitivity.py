"""Steady-state parameter sensitivities and the objective gradient along the manifold.

Two singularity rules hold today, one per use:

- ``sensitivity_exact`` factorises with ``numerics.solve`` and raises
  ``SingularMatrixError`` when a pivot is at or below 1e-14 * ||A||_inf;
  the reduced objectives then report +inf.
- ``pinv_sensitivity``, the one kernel behind the flow's right-hand side,
  ``sensitivity_hat`` and ``manifold_gradient``, solves, and truncates with
  the pseudoinverse only at exact singularity (when LAPACK reports a zero
  pivot).

Unifying the two is ROADMAP item 5; it changes results near singular points.
"""

import numpy as np

from . import numerics


def sensitivity_exact(model, theta, x, u):
    """Steady-state sensitivity S solving (d f/d x) S = -(d f/d theta).

    Intended for on-manifold points where the state Jacobian is invertible;
    raises SingularMatrixError otherwise (use sensitivity_hat then).
    """
    a = np.asarray(model.jac_x(theta, x, u), dtype=float)
    b = np.asarray(model.jac_theta(theta, x, u), dtype=float)
    return numerics.solve(a, -b)


def pinv_sensitivity(jac_x, jac_theta):
    """Pseudoinverse sensitivity S_hat = -(d f/d x)^+ (d f/d theta) of one
    Jacobian pair or of a stack ``(m, n_x, n_x)``, ``(m, n_x, n_theta)``.

    Solves where every state Jacobian is invertible (the generic case, on
    and off manifold); at exact singularity the whole stack takes the
    truncated pseudoinverse instead of blowing up.
    """
    try:
        return -np.linalg.solve(jac_x, jac_theta)
    except np.linalg.LinAlgError:
        return -(numerics.pinv(jac_x) @ jac_theta)


def total_gradient(grad_theta, s_hat, grads_x):
    """Explicit parameter gradient plus every condition's state gradient
    pulled back through its sensitivity: g + sum_i S_i^T (d J/d x_i)."""
    return np.asarray(grad_theta, dtype=float) + np.einsum(
        "ixt,ix->t", s_hat, np.asarray(grads_x, dtype=float)
    )


def sensitivity_hat(model, theta, x, u):
    """Pseudoinverse sensitivity at one condition, valid off-manifold by
    construction.

    Coincides with sensitivity_exact wherever the state Jacobian is
    invertible.
    """
    a = np.asarray(model.jac_x(theta, x, u), dtype=float)
    b = np.asarray(model.jac_theta(theta, x, u), dtype=float)
    return pinv_sensitivity(a, b)


def manifold_gradient(model, objective, theta, states, conditions):
    """Total objective gradient d J/d theta along the steady-state manifold.

    Chain rule: explicit parameter gradient plus, per condition, the state
    gradient pulled back through the pseudoinverse sensitivity.
    """
    x_mat = np.asarray(states, dtype=float)
    u_mat = np.stack([c.u for c in conditions])
    s_hat = pinv_sensitivity(
        np.asarray(model.jac_x_batch(theta, x_mat, u_mat), dtype=float),
        np.asarray(model.jac_theta_batch(theta, x_mat, u_mat), dtype=float),
    )
    return total_gradient(
        objective.grad_theta(theta, states), s_hat, objective.grad_x(theta, states)
    )
