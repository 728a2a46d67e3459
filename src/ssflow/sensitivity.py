"""Steady-state parameter sensitivities and the objective gradient along the manifold.

Two singularity rules hold today, one per use:

- ``numerics.solve`` raises ``SingularMatrixError`` when a pivot is at or
  below 1e-14 * ||A||_inf; ``sensitivity_exact`` and the per-dose solves of
  ``models.reduced_objective_ngf`` use it, and the latter then reports +inf.
- ``pinv_sensitivity``, the one kernel behind the flow's right-hand side,
  ``sensitivity_hat`` and ``manifold_gradient``, solves, and truncates with
  the pseudoinverse only at exact singularity (when LAPACK reports a zero
  pivot). In a stack the rule holds per matrix: each matrix gets the bits
  it would get alone, so a stack may hold the rows of several flow points.

``pinv_sensitivity`` solves 1x1 state Jacobians (one state per condition, as
in the conversion reaction) in closed form, without LAPACK's per-call cost,
and with the bits of numpy's OpenBLAS LAPACK: its triangular solve divides
by the pivot for one right-hand side and multiplies by the pivot's
reciprocal for several, so ``-solve(a, b)`` is ``-(b / a)`` or
``b * (1 / a)`` negated, and moving the negation onto the pivot or the
reciprocal is exact. An exact zero is the one case LAPACK treats apart, and
it keeps LAPACK's path, so the singularity rule is unchanged. Unlike LAPACK,
the closed form may emit a numpy RuntimeWarning when a ratio overflows; the
flow's finiteness check then fails the point as before. It sets no
np.errstate, which would cost about a third of what it saves per call.
Larger state Jacobians stay on LAPACK: at n_x = 2 a closed form is slower
on small stacks (ROADMAP item 3).

Unifying the two rules is ROADMAP item 3; it changes results near singular
points.
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

    Solves where the state Jacobian is invertible (the generic case, on and
    off manifold); an exactly singular one takes the truncated pseudoinverse
    instead of blowing up. In a stack this is decided per matrix, and every
    matrix equals the result for it alone, bit for bit.

    When every state Jacobian is 1x1 and none is exactly zero, the result is
    jac_theta / -jac_x for one parameter and jac_theta * (-1 / jac_x) for
    several, with the bits of ``-np.linalg.solve`` (module docstring; a NaN
    result may differ in its sign bit). Any zero sends the whole call down
    the LAPACK path and its per-matrix fallback.
    """
    if jac_x.shape[-2:] == (1, 1) and jac_x.all():
        if jac_theta.shape[-1] == 1:
            return jac_theta / -jac_x
        return jac_theta * (-1.0 / jac_x)
    try:
        return -np.linalg.solve(jac_x, jac_theta)
    except np.linalg.LinAlgError:
        if jac_x.ndim == 2:
            return -(numerics.pinv(jac_x) @ jac_theta)
        # the stacked solve raises for the whole stack: redo it per matrix
        return np.stack([pinv_sensitivity(a, b) for a, b in zip(jac_x, jac_theta)])


def total_gradient(grad_theta, s_hat, grads_x):
    """Explicit parameter gradient plus every condition's state gradient
    pulled back through its sensitivity: g + sum_i S_i^T (d J/d x_i), at
    one point or at each point of a stack (a leading axis on every
    argument), each point with the bits it gets alone."""
    return np.asarray(grad_theta, dtype=float) + np.einsum(
        "...ixt,...ix->...t", s_hat, np.asarray(grads_x, dtype=float)
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
    _, jac = model.f_jac_batch(theta, x_mat, u_mat)
    s_hat = pinv_sensitivity(jac[..., : model.n_x], jac[..., model.n_x :])
    return total_gradient(
        objective.grad_theta(theta, states), s_hat, objective.grad_x(theta, states)
    )
