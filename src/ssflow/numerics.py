"""Dense linear-algebra kernels and the one finiteness test.

Thin, explicit wrappers around numpy's LAPACK: the truncated pseudoinverse
and the one solve, whose exact-singularity rule is the package's (the
``sensitivity`` module docstring states it), and ``all_finite``, the
finiteness test of the flow's and the integrator's hot paths.
"""

import numpy as np

_EPS = np.finfo(float).eps


class NumericalFailure(RuntimeError):
    """A dense factorisation failed to converge or produced non-finite output."""


class SingularMatrixError(RuntimeError):
    """A matrix to solve with is exactly singular (``sensitivity`` module
    docstring)."""


def all_finite(a):
    """True iff every entry of a is finite.

    The decision of ``np.isfinite(a).all()`` for every float array, NaN,
    +-inf, 0-d and empty arrays included, from a count instead of
    ``ndarray.all()``, whose Python-level reduction wrapper costs more than
    the test itself on a few entries.
    """
    finite = np.isfinite(a)
    return np.count_nonzero(finite) == finite.size


def pinv(m):
    """Moore-Penrose pseudoinverse via SVD, of one matrix or of a stack
    ``(..., rows, cols)``.

    Per matrix, singular values at or below max(rows, cols) * sigma_max * eps
    are truncated to zero.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise ValueError("pinv expects a matrix or a stack of matrices")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if s.shape[-1] == 0:
        return np.zeros(m.shape[:-2] + (m.shape[-1], m.shape[-2]))
    cutoff = max(m.shape[-2:]) * s[..., :1] * _EPS
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (np.swapaxes(vt, -1, -2) * inv_s[..., None, :]) @ np.swapaxes(u, -1, -2)


def solve(a, b):
    """Solve A X = B by LAPACK's partial-pivot LU (gesv), for one matrix or
    a stack ``(..., n, n)``.

    Raises ValueError unless A is square, and SingularMatrixError when the
    LU meets an exactly zero pivot in any matrix; no nearly singular matrix
    is refused.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("solve expects a square matrix A or a stack of them")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"exactly singular matrix: {exc}") from exc


def finite_diff_jacobian(fn, x, h=1e-6):
    """Central-difference Jacobian of fn at x, one column per coordinate.

    The step for coordinate j is h * (1 + |x_j|).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        hj = h * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += hj
        xm = x.copy()
        xm[j] -= hj
        fp = np.atleast_1d(np.asarray(fn(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(xm), dtype=float))
        col = (fp - fm) / (2.0 * hj)
        if not np.all(np.isfinite(col)):
            raise NumericalFailure(
                f"non-finite function value while differencing coordinate {j}"
            )
        cols.append(col)
    if not cols:
        f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
        return np.zeros((f0.size, 0))
    return np.stack(cols, axis=1)
