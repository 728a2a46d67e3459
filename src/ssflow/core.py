"""Shared domain types: models, objectives, conditions, flow state and results."""

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numerics


def _stacked(single):
    """Batched form of a per-condition kernel: one call per condition row,
    stacked along a leading axis; a 2-D theta gives each row its own."""

    def batch(theta, x_mat, u_mat):
        thetas = theta if np.ndim(theta) == 2 else itertools.repeat(theta)
        return np.stack(
            [
                np.asarray(single(t, x, u), dtype=float)
                for t, x, u in zip(thetas, x_mat, u_mat)
            ]
        )

    batch.stacks = single
    return batch


@dataclass(frozen=True)
class ModelSpec:
    """A steady-state-constrained dynamical model.

    ``f(theta, x, u)`` is the vector field; ``jac_x`` and ``jac_theta`` are its
    analytic Jacobians with respect to the state and the parameters. Models
    used as benchmarks additionally carry an analytic steady-state map.

    The batched forms take theta, X (m, n_x) and U (m, n_u) over m
    condition rows and return (m, n_x) / (m, n_x, n_x) / (m, n_x, n_theta);
    every consumer calls these. theta is either one parameter vector
    (n_theta,) for every row or one per row, (m, n_theta). A batched form
    left out is filled by stacking the per-condition calls.

    Contract: the batched forms are row-separable. Row i of the output
    depends only on row i of X and U and on theta (row i of theta when it
    has one per row), and has the bits that row gets when evaluated as a
    batch of one at its own theta. The flow relies on this to evaluate the
    distinct rows of a stack of points in one call per kernel: every point
    of its finite-difference Jacobian, the parameter columns' points at
    their perturbed theta. ``validate_model`` checks the per-row theta
    form.
    """

    n_x: int
    n_theta: int
    n_u: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    jac_theta: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    analytic_steady_state: Optional[
        Callable[[np.ndarray, np.ndarray], np.ndarray]
    ] = None
    name: str = ""
    f_batch: Optional[Callable] = None
    jac_x_batch: Optional[Callable] = None
    jac_theta_batch: Optional[Callable] = None

    def __post_init__(self):
        if self.n_x < 1 or self.n_theta < 1 or self.n_u < 0:
            raise ValueError("dimensions must be positive (n_u may be zero)")
        for name in ("f", "jac_x", "jac_theta"):
            single = getattr(self, name)
            batch = getattr(self, name + "_batch")
            # a stacked form copied over by dataclasses.replace is rebuilt
            # when the per-condition form it stacks was replaced
            if batch is None or getattr(batch, "stacks", single) is not single:
                object.__setattr__(self, name + "_batch", _stacked(single))


@dataclass(frozen=True)
class Condition:
    """One experiment: an input vector and the observed steady-state data."""

    u: np.ndarray
    data: np.ndarray
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        object.__setattr__(
            self, "data", np.atleast_1d(np.asarray(self.data, dtype=float))
        )
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"condition {self.id!r}: data entries must be finite")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Objective over parameters and per-condition state blocks.

    ``eval`` is the value at one point: theta ``(n_theta,)`` and states
    ``(m, n_x)``, one row per condition. ``grad_theta`` is the explicit
    parameter gradient holding the states fixed, and ``grad_x`` the state
    gradient, one row per condition. Both take one point, or a stack of p
    points with a leading point axis, thetas ``(p, n_theta)`` and states
    ``(p, m, n_x)``, and return the shape of their theta and states. Row q
    of a stack must have the bits of point q alone, the rule ModelSpec's
    batched kernels follow for one theta per row: the flow calls each
    gradient once for all the points of its finite-difference Jacobian.
    """

    eval: Callable[[np.ndarray, np.ndarray], float]
    grad_theta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class FlowState:
    """Concatenated optimisation state (theta, x^1..x^m) at pseudo-time r;
    states is one ``(m, n_x)`` array, one row per condition."""

    theta: np.ndarray
    states: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.states = np.asarray(self.states, dtype=float)

    def is_finite(self):
        return bool(
            np.all(np.isfinite(self.theta))
            and np.isfinite(self.states).all()
            and np.isfinite(self.r)
        )

    def pack(self):
        """Flatten to a single vector (theta first, then the state blocks)."""
        return np.concatenate([self.theta, self.states.ravel()])

    @classmethod
    def unpack(cls, vec, n_theta, n_x, m, r=0.0):
        vec = np.array(vec, dtype=float)
        if vec.size != n_theta + m * n_x:
            raise ValueError("vector length does not match (n_theta, n_x, m)")
        return cls(theta=vec[:n_theta], states=vec[n_theta:].reshape(m, n_x), r=r)

    def copy(self):
        return FlowState(self.theta.copy(), self.states.copy(), self.r)


@dataclass(frozen=True)
class FlowConfig:
    """Retraction factor, stopping tolerance and integration limits.
    max_rhs_evals is checked before each integrator step, so a run can end
    up to n + 2 rhs evaluations past it (n: the packed state size). The
    FD points the integrator evaluates ahead, in one call with a step's
    base point, count only once a Jacobian takes them; the ones no Jacobian
    takes are not rhs evaluations here (RunResult.discarded_evals)."""

    lam: float
    tol: float = 1e-6
    r_max: float = 1e4
    max_rhs_evals: int = 100_000
    integrator_rel_tol: float = 1e-6
    integrator_abs_tol: float = 1e-8

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.lam >= 0:
            raise ValueError("retraction factor must be >= 0")
        if not (self.tol > 0 and self.r_max > 0):
            raise ValueError("tol and r_max must be strictly positive")
        if not (self.integrator_rel_tol > 0 and self.integrator_abs_tol > 0):
            raise ValueError("integrator tolerances must be strictly positive")
        if not self.max_rhs_evals >= 1:
            raise ValueError("max_rhs_evals must be >= 1")


class StopReason(enum.Enum):
    TOLERANCE_MET = "ToleranceMet"
    HORIZON_REACHED = "HorizonReached"
    EVAL_BUDGET_EXHAUSTED = "EvalBudgetExhausted"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class RunResult:
    """Outcome of one optimiser-flow run.

    The integrator counters: ``rhs_evals`` includes the Jacobian
    differencing, ``jacobian_evals`` counts the finite-difference Jacobians,
    ``discarded_evals`` counts the FD points evaluated ahead with a base
    point that no Jacobian took (a rejected step's new point, the run's last
    point), so ``rhs_evals + discarded_evals`` points were evaluated, and
    ``min_step``/``max_step`` span the accepted steps (inf and 0.0 when no
    step was accepted).
    """

    final: FlowState
    objective: float
    manifold_residual: float
    converged: bool
    reason: StopReason
    rhs_evals: int
    steps_accepted: int
    steps_rejected: int
    wall_time: float
    jacobian_evals: int = 0
    discarded_evals: int = 0
    min_step: float = math.inf
    max_step: float = 0.0

    def __post_init__(self):
        if self.converged and self.reason is not StopReason.TOLERANCE_MET:
            raise ValueError("converged runs must report ToleranceMet")


# the default threshold of ValidationReport.ok, and the relative error up to
# which validate_model accepts a row of a batched kernel with one theta per row
_THRESHOLD = 1e-6
# the sampled points validate_model stacks for the per-row theta check
_PER_ROW_SAMPLES = 5


@dataclass
class ValidationReport:
    """Jacobian consistency check against central finite differences."""

    max_rel_err_jac_x: float
    max_rel_err_jac_theta: float
    n_samples: int
    failures: list = field(default_factory=list)

    def ok(self, threshold=_THRESHOLD):
        return (
            not self.failures
            and self.max_rel_err_jac_x < threshold
            and self.max_rel_err_jac_theta < threshold
        )


def validate_model(model, n_samples=100, seed=0):
    """Compare the model's analytic Jacobians with central finite differences.

    Points are sampled uniformly (theta in [-1, 1], x in [0, 1], u in [0, 2]);
    the reported errors are the maxima over samples and matrix entries of
    |analytic - fd| / (1 + |fd|). Non-finite model output at a sample is
    recorded as a failure together with the offending point.

    The first few samples also check the batched kernels with one theta per
    row (the ModelSpec contract): each kernel is called once on their
    stack, and a call that raises, or a row whose relative error against
    the per-condition kernel exceeds the default threshold of
    ValidationReport.ok, is recorded as a failure naming the kernel.
    n_samples must be at least 1: a report over no sample checks nothing.
    """
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    max_err_x = 0.0
    max_err_theta = 0.0
    failures = []
    points = []
    for k in range(n_samples):
        theta = rng.uniform(-1.0, 1.0, model.n_theta)
        x = rng.uniform(0.0, 1.0, model.n_x)
        u = rng.uniform(0.0, 2.0, model.n_u)
        if k < _PER_ROW_SAMPLES:
            points.append((theta, x, u))
        fval = np.asarray(model.f(theta, x, u), dtype=float)
        if not np.all(np.isfinite(fval)):
            failures.append((k, theta, x, u, "non-finite f"))
            continue
        try:
            fd_x = numerics.finite_diff_jacobian(
                lambda xx: model.f(theta, xx, u), x
            )
            fd_theta = numerics.finite_diff_jacobian(
                lambda tt: model.f(tt, x, u), theta
            )
        except numerics.NumericalFailure as exc:
            failures.append((k, theta, x, u, str(exc)))
            continue
        jx = np.asarray(model.jac_x(theta, x, u), dtype=float)
        jt = np.asarray(model.jac_theta(theta, x, u), dtype=float)
        err_x = np.abs(jx - fd_x) / (1.0 + np.abs(fd_x))
        err_theta = np.abs(jt - fd_theta) / (1.0 + np.abs(fd_theta))
        max_err_x = max(max_err_x, float(err_x.max()))
        max_err_theta = max(max_err_theta, float(err_theta.max()))
    if points:
        failures.extend(_theta_per_row_failures(model, points))
    return ValidationReport(
        max_rel_err_jac_x=max_err_x,
        max_rel_err_jac_theta=max_err_theta,
        n_samples=n_samples,
        failures=failures,
    )


def _theta_per_row_failures(model, points):
    """validate_model's failure entries for the batched kernels called once
    on the stack of points (theta, x, u), with one theta per row."""
    thetas, x_mat, u_mat = (np.stack(column) for column in zip(*points))
    stack = (list(range(len(points))), thetas, x_mat, u_mat)
    failures = []
    for name in ("f", "jac_x", "jac_theta"):
        kernel = name + "_batch"
        single = getattr(model, name)
        want = np.stack([np.asarray(single(*point), dtype=float) for point in points])
        try:
            got = np.asarray(getattr(model, kernel)(thetas, x_mat, u_mat), dtype=float)
        except Exception as exc:
            failures.append(stack + (f"{kernel} with one theta per row raises {exc!r}",))
            continue
        if got.shape != want.shape:
            message = (
                f"{kernel} with one theta per row returns shape {got.shape}, "
                f"not {want.shape}"
            )
            failures.append(stack + (message,))
            continue
        # |got - want| <= t (1 + |want|): the relative error of the report
        close = np.isclose(got, want, rtol=_THRESHOLD, atol=_THRESHOLD, equal_nan=True)
        for i in np.flatnonzero(~close.reshape(len(points), -1).all(axis=1)):
            with np.errstate(invalid="ignore"):
                err = float((np.abs(got[i] - want[i]) / (1.0 + np.abs(want[i]))).max())
            message = (
                f"{kernel} with one theta per row: row {i} differs from {name} "
                f"by a relative error of {err:.3e}"
            )
            failures.append((int(i),) + points[i] + (message,))
    return failures
