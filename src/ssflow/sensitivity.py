"""Steady-state parameter sensitivities and the objective gradient along the manifold.

``pinv_sensitivity`` is the one kernel behind every sensitivity the package
optimises with: the flow's right-hand side, ``sensitivity_hat`` and
``manifold_gradient``, hence also ``models.reduced_objective``, the reduced
baseline's objective. It solves, and truncates with the pseudoinverse only
at exact singularity, by one rule for every state dimension n_x:

- a state Jacobian is exactly singular when its computed det is exactly
  zero (either sign) for n_x <= 2, and when LAPACK's LU meets a zero pivot
  for n_x >= 3; NaN is no zero;
- a call that meets one is redone matrix by matrix through the same
  function, and a lone singular matrix A takes ``-(numerics.pinv(A) @ B)``.

So each matrix of a stack gets the bits it would get alone, and a stack may
hold the rows of several flow points. No singular matrix reaches a
division, so none warns.

Each size keeps its solver. 1x1 state Jacobians (one state per condition,
as in the conversion reaction) are solved in closed form, without LAPACK's
per-call cost, and with the bits of numpy's OpenBLAS LAPACK: its triangular
solve divides by the pivot for one right-hand side and multiplies by the
pivot's reciprocal for several, so ``-solve(a, b)`` is ``-(b / a)`` or
``b * (1 / a)`` negated, and moving the negation onto the pivot or the
reciprocal is exact. 2x2 state Jacobians (NGF) are solved by the adjugate,
in elementwise ufuncs only (no matmul, einsum or LAPACK), so their bits
depend on no BLAS kernel; Cramer's rule is forward stable on 2x2 systems
(Higham, Accuracy and Stability of Numerical Algorithms, 1.10.1). For
n_x <= 2 no call reaches ``np.linalg.solve``, singular or not. State
Jacobians of three or more states go to LAPACK.

Unlike LAPACK, the closed forms may overflow in a product or ratio; the
flow's finiteness check then fails the point. They set no np.errstate,
which would cost about a third of what they save per call; the flow's is
the one on ``integrator.integrate_adaptive``, a decorator around the whole
integration, and ``models.reduced_objective`` sets its own.

A second rule survives only in ``sensitivity_exact``, which only tests
call: ``numerics.solve`` raises ``SingularMatrixError`` when a pivot is at
or below 1e-14 * ||A||_inf. Replacing both rules with one pivot threshold
is ROADMAP item 3; it changes results near singular points.
"""

import numpy as np

from . import numerics


def _jacobian_blocks(model, theta, x, u):
    """d f/d x and d f/d theta at one condition: the blocks of the fused
    kernel's Jacobian, called on a batch of one."""
    x_mat = np.asarray(x, dtype=float)[None]
    _, jac = model.f_jac_batch(theta, x_mat, np.asarray(u, dtype=float)[None])
    return jac[0, :, : model.n_x], jac[0, :, model.n_x :]


def sensitivity_exact(model, theta, x, u):
    """Steady-state sensitivity S solving (d f/d x) S = -(d f/d theta), the
    Jacobians from one call of the fused kernel on a batch of one.

    Intended for on-manifold points where the state Jacobian is invertible;
    raises SingularMatrixError otherwise (use sensitivity_hat then).
    """
    a, b = _jacobian_blocks(model, theta, x, u)
    return numerics.solve(a, -b)


def pinv_sensitivity(jac_x, jac_theta):
    """Pseudoinverse sensitivity S_hat = -(d f/d x)^+ (d f/d theta) of one
    Jacobian pair or of a stack ``(..., n_x, n_x)``, ``(..., n_x, n_theta)``.

    Solves where the state Jacobian is invertible (the generic case, on and
    off manifold), each size by its own solver: 1x1 and 2x2 in closed form,
    larger by LAPACK. One rule for every n_x (module docstring): a call
    that meets an exactly singular state Jacobian is redone matrix by
    matrix, and a lone singular one takes ``-(numerics.pinv(A) @ B)``, so
    every matrix of a stack gets the bits of its own call.
    """
    n_x = jac_x.shape[-1]
    # count_nonzero takes -0.0 for a zero and NaN for none
    if n_x == 1:
        # the bits of LAPACK's triangular solve (module docstring)
        if np.count_nonzero(jac_x) == jac_x.size:
            if jac_theta.shape[-1] == 1:
                return jac_theta / -jac_x
            return jac_theta * (-1.0 / jac_x)
    elif n_x == 2:
        # A = [[a, b], [c, d]] by the adjugate, with det = a d - b c:
        #   S[0] = (b B[1] - d B[0]) / det
        #   S[1] = (a B[1] - c B[0]) / (b c - a d)
        # each product, difference and quotient rounded once (b c - a d is
        # -det exactly); prod holds (a d, b c) and det (det, -det), row by row
        row0 = jac_x[..., 0, :, None]
        row1_reversed = jac_x[..., 1, ::-1, None]
        prod = row0 * row1_reversed
        det = prod - prod[..., ::-1, :]
        if np.count_nonzero(det) == det.size:
            s = row0[..., ::-1, :] * jac_theta[..., 1:, :]
            s -= row1_reversed * jac_theta[..., :1, :]
            s /= det
            return s
    else:
        try:
            return -np.linalg.solve(jac_x, jac_theta)
        except np.linalg.LinAlgError:
            pass
    # some matrix is exactly singular: redo the call matrix by matrix
    if jac_x.ndim == 2:
        return -(numerics.pinv(jac_x) @ jac_theta)
    return np.stack([pinv_sensitivity(a, b) for a, b in zip(jac_x, jac_theta)])


def total_gradient(grad_theta, s_hat, grads_x):
    """Explicit parameter gradient plus every condition's state gradient
    pulled back through its sensitivity: g + sum_i S_i^T (d J/d x_i), at
    one point or at each point of a stack (a leading axis on every
    argument), each point with the bits it gets alone."""
    return grad_theta + np.einsum("...ixt,...ix->...t", s_hat, grads_x)


def sensitivity_hat(model, theta, x, u):
    """Pseudoinverse sensitivity at one condition, valid off-manifold by
    construction, the Jacobians from one call of the fused kernel on a
    batch of one.

    Coincides with sensitivity_exact wherever the state Jacobian is
    invertible.
    """
    return pinv_sensitivity(*_jacobian_blocks(model, theta, x, u))


def manifold_gradient(model, objective, theta, states, u_matrix):
    """Total objective gradient d J/d theta along the steady-state manifold
    at the states (m, n_x) of the conditions with inputs u_matrix (m, n_u).

    Chain rule: explicit parameter gradient plus, per condition, the state
    gradient pulled back through the pseudoinverse sensitivity.
    """
    x_mat = np.asarray(states, dtype=float)
    _, jac = model.f_jac_batch(theta, x_mat, u_matrix)
    s_hat = pinv_sensitivity(jac[..., : model.n_x], jac[..., model.n_x :])
    return total_gradient(
        objective.grad_theta(theta, states), s_hat, objective.grad_x(theta, states)
    )
