"""Steady-state parameter sensitivities and the objective gradient along the manifold.

``pinv_sensitivity`` is the one kernel behind every sensitivity the package
optimises with: the flow's right-hand side, ``sensitivity_hat`` and
``manifold_gradient``, hence also ``models.reduced_objective``, the reduced
baseline's objective. It solves, and truncates with the pseudoinverse only
at exact singularity. In a stack the rule holds per matrix: each matrix
gets the bits it would get alone, so a stack may hold the rows of several
flow points.

A second rule survives only in ``sensitivity_exact``, which only tests
call: ``numerics.solve`` raises ``SingularMatrixError`` when a pivot is at
or below 1e-14 * ||A||_inf.

``pinv_sensitivity`` solves 1x1 state Jacobians (one state per condition, as
in the conversion reaction) in closed form, without LAPACK's per-call cost,
and with the bits of numpy's OpenBLAS LAPACK: its triangular solve divides
by the pivot for one right-hand side and multiplies by the pivot's
reciprocal for several, so ``-solve(a, b)`` is ``-(b / a)`` or
``b * (1 / a)`` negated, and moving the negation onto the pivot or the
reciprocal is exact. An exact zero is the one case LAPACK treats apart, and
it keeps LAPACK's path, so the singularity rule is unchanged.

2x2 state Jacobians (NGF) are solved by the adjugate, in elementwise ufuncs
only (no matmul, einsum or LAPACK), so their bits depend on no BLAS kernel;
Cramer's rule is forward stable on 2x2 systems (Higham, Accuracy and
Stability of Numerical Algorithms, 1.10.1). The singularity rule is decided
per matrix on the computed det = a d - b c: a matrix whose det is exactly
zero (either sign) takes ``numerics.pinv`` alone, and every other matrix
the closed form; a NaN det is no zero and gives NaN. No singular matrix
reaches a division, so none warns. State Jacobians of three or more states
stay on LAPACK, with its zero-pivot rule.

Unlike LAPACK, the closed forms may emit a numpy RuntimeWarning when a
product or ratio overflows; the flow's finiteness check then fails the
point as before. They set no np.errstate, which would cost about a third of
what they save per call.

Replacing both rules with one pivot threshold is ROADMAP item 3; it changes
results near singular points.
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
    Jacobian pair or of a stack ``(m, n_x, n_x)``, ``(m, n_x, n_theta)``.

    Solves where the state Jacobian is invertible (the generic case, on and
    off manifold); an exactly singular one takes the truncated pseudoinverse
    instead of blowing up. In a stack this is decided per matrix, and every
    matrix equals the result for it alone, bit for bit.

    When every state Jacobian is 1x1 and none is exactly zero, the result is
    jac_theta / -jac_x for one parameter and jac_theta * (-1 / jac_x) for
    several, with the bits of ``-np.linalg.solve`` (module docstring; a NaN
    result may differ in its sign bit). Any zero sends the whole call down
    the LAPACK path and its per-matrix fallback. 2x2 state Jacobians take
    the closed form of ``_adjugate_2x2``, with its per-matrix det rule, and
    larger ones LAPACK.
    """
    # count_nonzero takes -0.0 for a zero and NaN for none, like
    # jac_x.all(), at a third of its cost on one element
    if jac_x.shape[-2:] == (1, 1) and np.count_nonzero(jac_x) == jac_x.size:
        if jac_theta.shape[-1] == 1:
            return jac_theta / -jac_x
        return jac_theta * (-1.0 / jac_x)
    if jac_x.shape[-1] == 2:
        return _adjugate_2x2(jac_x, jac_theta)
    try:
        return -np.linalg.solve(jac_x, jac_theta)
    except np.linalg.LinAlgError:
        if jac_x.ndim == 2:
            return _pinv_solve(jac_x, jac_theta)
        # the stacked solve raises for the whole stack: redo it per matrix
        return np.stack([pinv_sensitivity(a, b) for a, b in zip(jac_x, jac_theta)])


def _pinv_solve(jac_x, jac_theta):
    """The truncated pseudoinverse sensitivity of one exactly singular
    state Jacobian."""
    return -(numerics.pinv(jac_x) @ jac_theta)


def _adjugate_2x2(jac_x, jac_theta):
    """-A^-1 B for 2x2 state Jacobians A = [[a, b], [c, d]] by the adjugate,
    elementwise and matrix by matrix: with det = a d - b c,

        S[0] = (b B[1] - d B[0]) / det
        S[1] = (a B[1] - c B[0]) / (b c - a d)

    each product, difference and quotient rounded once (b c - a d is -det
    exactly). A matrix whose det is exactly zero takes the truncated
    pseudoinverse alone; a NaN det is no zero and gives NaN."""
    # (a d, b c) and (det, -det), row by row
    prod = jac_x[..., 0, :, None] * jac_x[..., 1, ::-1, None]
    det = prod - prod[..., ::-1, :]
    if np.count_nonzero(det) < det.size:
        return _singular_rows_apart(jac_x, jac_theta, det[..., 0, 0] == 0)
    s = jac_x[..., 0, ::-1, None] * jac_theta[..., 1:, :]
    s -= jac_x[..., 1, ::-1, None] * jac_theta[..., :1, :]
    s /= det
    return s


def _singular_rows_apart(jac_x, jac_theta, singular):
    """_adjugate_2x2 of a pair or stack holding exactly singular state
    Jacobians (the mask singular): the others take the closed form, each
    singular one the pseudoinverse on its own. No singular row reaches a
    division, so none warns."""
    if jac_x.ndim == 2:
        return _pinv_solve(jac_x, jac_theta)
    out = np.empty(jac_theta.shape)
    regular = ~singular
    out[regular] = _adjugate_2x2(jac_x[regular], jac_theta[regular])
    for k in zip(*np.nonzero(singular)):
        out[k] = _pinv_solve(jac_x[k], jac_theta[k])
    return out


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
    construction, the Jacobians from one call of the fused kernel on a
    batch of one.

    Coincides with sensitivity_exact wherever the state Jacobian is
    invertible.
    """
    return pinv_sensitivity(*_jacobian_blocks(model, theta, x, u))


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
