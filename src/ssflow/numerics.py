"""Dense linear-algebra kernels.

Thin, explicit wrappers around LAPACK (via numpy/scipy) with the
truncation and singularity policies used throughout the package.
"""

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

_EPS = np.finfo(float).eps


class NumericalFailure(RuntimeError):
    """A dense factorisation failed to converge or produced non-finite output."""


class SingularMatrixError(RuntimeError):
    """Partial-pivot factorisation hit a pivot below the singularity threshold."""


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
    """Solve A X = B by partial-pivot LU.

    Raises SingularMatrixError when the smallest pivot is at or below
    1e-14 * ||A||_inf; callers fall back to pinv in that case.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("solve expects a square matrix A")
    with warnings.catch_warnings():
        # exact singularity is detected via the pivot check below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, check_finite=False)
    norm_a = np.abs(a).sum(axis=1).max() if a.size else 0.0
    pivots = np.abs(np.diag(lu))
    if pivots.size and pivots.min() <= 1e-14 * norm_a:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold for ||A||_inf = {norm_a:.3e}"
        )
    return lu_solve((lu, piv), b, check_finite=False)


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
