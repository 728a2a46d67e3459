"""The hot path's earlier forms, kept as bit references.

Each function computes what its namesake in ``src/ssflow`` computes, the way
it was written before the flow's per-call numpy overhead was cut: the RODAS4
stage loop through the ``@`` operator with keyword LAPACK flags and a Python
float h, the NGF kernel through its ``shared_terms`` and ``vector_field``
helpers with numpy scalar rates, the NGF state gradient through
``zeros_like``, the 2x2 adjugate with a view per use and the total gradient
with ``asarray`` wrappers. The pseudoinverse sensitivity is kept as it was
before its solve became the one shared with ``sensitivity_exact``: each
size's solver inline, ``np.linalg.solve`` called directly for three or more
states. The tests assert that the current forms give the same bits.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from ssflow import integrator, numerics
from ssflow.numerics import all_finite
from ssflow.sensitivity import pinv_sensitivity

_LN10 = math.log(10.0)


def matmul_stage_step(rhs, y, h, jac, f0):
    """integrator.step with the stage combinations as ``_A[i] @ k[:5]`` and
    ``_C[i] @ k[:5]``, keyword LAPACK flags and a Python float h."""
    if h <= 0:
        raise ValueError("step size must be positive")
    w = integrator._identity(y.size) / (h * integrator._GAMMA) - jac
    lu, piv, info = dgetrf(w, overwrite_a=True)
    if info < 0:
        raise integrator.StageSolveFailure(f"illegal value in argument {-info} of getrf")
    if not all_finite(lu):
        raise integrator.StageSolveFailure("non-finite stage factorisation")
    k = np.zeros((6, y.size))
    k[0] = dgetrs(lu, piv, f0)[0]
    if not all_finite(k[0]):
        raise integrator.StageSolveFailure("singular or ill-conditioned stage system")
    a, c = integrator._A, integrator._C
    for i in range(5):
        z = y + a[i] @ k[:5]
        k[i + 1] = dgetrs(lu, piv, rhs(z) + (c[i] @ k[:5]) / h, overwrite_b=True)[0]
    return z + k[5], k[5]


def shared_terms_ngf_kernels():
    """The NGF model's (f_batch, f_jac_batch) through shared_terms and
    vector_field, with p[k] a numpy scalar at one theta."""

    def shared_terms(p, x_mat, u_mat):
        x1 = x_mat[:, 0]
        return p[0] * u_mat[:, 0], p[4] - x1, p[5] - x_mat[:, 1], x1 + p[2]

    def vector_field(p, x_mat, terms):
        pu, free1, free2, drive = terms
        out = np.empty_like(x_mat)
        out[:, 0] = pu * free1 - p[1] * x_mat[:, 0]
        out[:, 1] = drive * free2 - p[3] * x_mat[:, 1]
        return out

    def f_batch(theta, x_mat, u_mat):
        p = np.power(10.0, theta).T
        return vector_field(p, x_mat, shared_terms(p, x_mat, u_mat))

    def f_jac_batch(theta, x_mat, u_mat):
        p = np.power(10.0, theta).T
        terms = shared_terms(p, x_mat, u_mat)
        pu, free1, free2, drive = terms
        x1 = x_mat[:, 0]
        x2 = x_mat[:, 1]
        jac = np.zeros((x_mat.shape[0], 2, 8))
        row0, row1 = jac[:, 0], jac[:, 1]
        entry = row0[:, 0]
        np.negative(np.add(pu, p[1], entry), entry)
        row1[:, 0] = free2
        entry = row1[:, 1]
        np.negative(np.add(drive, p[3], entry), entry)
        activation = _LN10 * p[0] * u_mat[:, 0]
        np.multiply(activation, free1, row0[:, 2])
        np.multiply(-_LN10 * p[1], x1, row0[:, 3])
        np.multiply(activation, p[4], row0[:, 6])
        np.multiply(_LN10 * p[2], free2, row1[:, 4])
        np.multiply(-_LN10 * p[3], x2, row1[:, 5])
        np.multiply(_LN10 * p[5], drive, row1[:, 7])
        return vector_field(p, x_mat, terms), jac

    return f_batch, f_jac_batch


def zeros_like_ngf_grad_x(data):
    """The NGF objective's state gradient, zeros_like and a slice assignment."""
    data = np.asarray(data, dtype=float)

    def grad_x(theta, states):
        x = np.asarray(states, dtype=float)
        out = np.zeros_like(x)
        out[..., 1] = x[..., 1] - data
        return out

    return grad_x


def view_per_use_pinv_sensitivity(jac_x, jac_theta):
    """pinv_sensitivity with the 2x2 adjugate taking a new view of jac_x at
    each use; other sizes, and singular 2x2 stacks, go to the current one."""
    if jac_x.shape[-1] == 2:
        prod = jac_x[..., 0, :, None] * jac_x[..., 1, ::-1, None]
        det = prod - prod[..., ::-1, :]
        if np.count_nonzero(det) == det.size:
            s = jac_x[..., 0, ::-1, None] * jac_theta[..., 1:, :]
            s -= jac_x[..., 1, ::-1, None] * jac_theta[..., :1, :]
            s /= det
            return s
    return pinv_sensitivity(jac_x, jac_theta)


def inline_solve_pinv_sensitivity(jac_x, jac_theta):
    """pinv_sensitivity with each size's solver inline and the fallback
    after the if chain, recursing into itself."""
    n_x = jac_x.shape[-1]
    # count_nonzero takes -0.0 for a zero and NaN for none
    if n_x == 1:
        if np.count_nonzero(jac_x) == jac_x.size:
            if jac_theta.shape[-1] == 1:
                return jac_theta / -jac_x
            return jac_theta * (-1.0 / jac_x)
    elif n_x == 2:
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
    if jac_x.ndim == 2:
        return -(numerics.pinv(jac_x) @ jac_theta)
    return np.stack(
        [inline_solve_pinv_sensitivity(a, b) for a, b in zip(jac_x, jac_theta)]
    )


def asarray_total_gradient(grad_theta, s_hat, grads_x):
    """sensitivity.total_gradient converting both gradients with asarray."""
    return np.asarray(grad_theta, dtype=float) + np.einsum(
        "...ixt,...ix->...t", s_hat, np.asarray(grads_x, dtype=float)
    )
