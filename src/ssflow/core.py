"""Shared domain types: models, objectives, conditions, flow state and results."""

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numerics


def _is_a(value, kind):
    """isinstance(value, kind) for a numbers ABC, a bool excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _as_float(name, value):
    """A real number as a float, else as it is; too large for one, a ValueError."""
    try:
        return float(value) if _is_a(value, numbers.Real) else value
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


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


def _composed(parts):
    """The fused kernel of the batched forms (f_batch, jac_x_batch,
    jac_theta_batch): one call of each, the Jacobians joined by one
    concatenate."""
    f_batch, jac_x_batch, jac_theta_batch = parts

    def f_jac_batch(theta, x_mat, u_mat):
        jac_x = np.asarray(jac_x_batch(theta, x_mat, u_mat), dtype=float)
        jac_theta = np.asarray(jac_theta_batch(theta, x_mat, u_mat), dtype=float)
        return (
            np.asarray(f_batch(theta, x_mat, u_mat), dtype=float),
            np.concatenate([jac_x, jac_theta], axis=-1),
        )

    f_jac_batch.fuses = parts
    return f_jac_batch


def _held(kernel, parts):
    """A fused kernel given without the batched forms it agrees with, held
    together with parts; its outputs are made float arrays."""

    def f_jac_batch(theta, x_mat, u_mat):
        f_mat, jac = kernel(theta, x_mat, u_mat)
        return np.asarray(f_mat, dtype=float), np.asarray(jac, dtype=float)

    f_jac_batch.fuses = parts
    return f_jac_batch


@dataclass(frozen=True)
class ModelSpec:
    """A steady-state-constrained dynamical model.

    ``f(theta, x, u)`` is the vector field; ``jac_x`` and ``jac_theta`` are its
    analytic Jacobians with respect to the state and the parameters. Models
    used as benchmarks additionally carry an analytic steady-state map.

    The batched forms take theta, X (m, n_x) and U (m, n_u) over m
    condition rows and return (m, n_x) / (m, n_x, n_x) / (m, n_x, n_theta).
    theta is either one parameter vector (n_theta,) for every row or one per
    row, (m, n_theta). A batched form left out is filled by stacking the
    per-condition calls.

    ``f_jac_batch`` is the fused kernel every derivative consumer calls: it
    returns f (m, n_x) and the whole Jacobian ``[d f/d x | d f/d theta]``
    (m, n_x, n_x + n_theta) as float arrays, from one call. Left out, it is
    composed from the three batched forms, one call each. A fused kernel
    holds the batched forms it agrees with (its ``fuses`` tuple): when
    dataclasses.replace swaps any of them, the kernel is composed again
    from the new ones, so a replaced kernel is never ignored. A fused
    kernel given on its own is held with the batched forms it was given
    with.

    Contract: every batched form, the fused one too, is row-separable. Row
    i of the output depends only on row i of X and U and on theta (row i of
    theta when it has one per row), and has the bits that row gets when
    evaluated as a batch of one at its own theta. The flow relies on this
    to evaluate the finite-difference stack of a point in one fused call:
    the point's own rows once, the rows of each parameter column at its
    perturbed theta and the one perturbed row of each state column, in a
    fixed order planned once per problem. ``validate_model`` checks the
    per-row theta form of f_batch and f_jac_batch, the two kernels the flow
    calls. The per-condition kernels are inputs, stacked into the batched
    forms left out, and the built-in models make them views of a batch of
    one; no consumer in the package calls them.
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
    f_jac_batch: Optional[Callable] = None

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
        parts = (self.f_batch, self.jac_x_batch, self.jac_theta_batch)
        fused = self.f_jac_batch
        if fused is not None and not hasattr(fused, "fuses"):
            fused = _held(fused, parts)
        elif fused is None or fused.fuses != parts:
            fused = _composed(parts)
        object.__setattr__(self, "f_jac_batch", fused)


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
    gradient once for a point's finite-difference stack, its n perturbed
    points and, when it also needs the point's value, the point itself.
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
    up to n + 5 rhs evaluations past it (n: the packed state size). The
    FD points the integrator evaluates ahead, in one call with a step's
    base point, count only once a Jacobian takes them; the ones no Jacobian
    takes, the run's last point's, are not rhs evaluations here
    (RunResult.discarded_evals).

    integrator_rel_tol and integrator_abs_tol bound the local error of the
    parameter block when lam > 0, and of every entry when lam = 0. The
    retraction damps the state blocks' errors at rate lam, so, as DAE codes
    leave algebraic variables out of the error test (DASPK's info(16), IDA's
    IDASetSuppressAlg), the flow tests the state blocks only for a
    non-finite error (flow._error_tolerances)."""

    lam: float
    tol: float = 1e-6
    r_max: float = 1e4
    max_rhs_evals: int = 100_000
    integrator_rel_tol: float = 1e-6
    integrator_abs_tol: float = 1e-8

    def __post_init__(self):
        for name in ("lam", "tol", "r_max", "integrator_rel_tol", "integrator_abs_tol"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        # written so that NaN fails every check
        if not self.lam >= 0:
            raise ValueError("retraction factor must be >= 0")
        if not (self.tol > 0 and self.r_max > 0):
            raise ValueError("tol and r_max must be strictly positive")
        if not (self.integrator_rel_tol > 0 and self.integrator_abs_tol > 0):
            raise ValueError("integrator tolerances must be strictly positive")
        if not (_is_a(self.max_rhs_evals, numbers.Integral) and self.max_rhs_evals >= 1):
            raise ValueError(
                f"max_rhs_evals must be an integer >= 1, got {self.max_rhs_evals!r}"
            )


class StopReason(enum.Enum):
    TOLERANCE_MET = "ToleranceMet"
    HORIZON_REACHED = "HorizonReached"
    EVAL_BUDGET_EXHAUSTED = "EvalBudgetExhausted"
    NUMERICAL_FAILURE = "NumericalFailure"
    ITERATION_LIMIT = "IterationLimit"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    OUTER_LIMIT = "OuterLimit"


@dataclass
class RunResult:
    """Outcome of one optimiser-flow run.

    The integrator counters: ``rhs_evals`` includes the Jacobian
    differencing, ``jacobian_evals`` counts the finite-difference Jacobians,
    ``discarded_evals`` counts the FD points evaluated ahead with a base
    point that no Jacobian took (only the run's last point's: a base point
    is evaluated once its step is accepted), so ``rhs_evals +
    discarded_evals`` points were evaluated, and
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
# which validate_model accepts a row of a kernel with one theta per row
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
    """Compare the fused kernel's Jacobian with central finite differences
    of f_batch.

    Points are sampled uniformly (theta in [-1, 1], x in [0, 1], u in [0, 2]),
    and f_batch and f_jac_batch are called at each as a batch of one. The
    reported errors are the maxima over samples and matrix entries of
    |analytic - fd| / (1 + |fd|), analytic a block of the fused Jacobian and
    fd the differences of f_batch on a batch of one. Non-finite f at a
    sample is recorded as a failure together with the offending point.

    The first few samples also check both kernels with one theta per row
    (the ModelSpec contract): each is called once on their stack, and each
    row of its blocks is compared with the batch of one, the f blocks of
    both kernels with f_batch's. A call that raises or returns a wrong
    shape, on a batch of one or on the stack, and a row whose relative
    error exceeds the default threshold of ValidationReport.ok, are recorded
    as failures naming the kernel. No per-condition kernel is called
    directly: they are ModelSpec's inputs, stacked into the batched forms a
    model leaves out, and views of a batch of one, and the flow does not
    call them either.
    n_samples must be at least 1: a report over no sample checks nothing.
    """
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    max_err_x = 0.0
    max_err_theta = 0.0
    failures = []
    per_row = []
    for k in range(n_samples):
        theta = rng.uniform(-1.0, 1.0, model.n_theta)
        x = rng.uniform(0.0, 1.0, model.n_x)
        u = rng.uniform(0.0, 2.0, model.n_u)
        point = (k, theta, x, u)
        x_one, u_one = x[None], u[None]
        one, messages = _blocks(model, theta, x_one, u_one, "on a batch of one")
        if messages:
            failures.extend(point + (message,) for message in messages)
            continue
        # the reference blocks: f_batch's f and the fused kernel's Jacobian
        want = {**one["f_jac_batch"], **one["f_batch"]}
        if k < _PER_ROW_SAMPLES:
            per_row.append((point, want))
        if not np.all(np.isfinite(want["f"])):
            failures.append(point + ("non-finite f",))
            continue
        try:
            fd_x = numerics.finite_diff_jacobian(
                lambda xx: model.f_batch(theta, xx[None], u_one)[0], x
            )
            fd_theta = numerics.finite_diff_jacobian(
                lambda tt: model.f_batch(tt, x_one, u_one)[0], theta
            )
        except numerics.NumericalFailure as exc:
            failures.append(point + (str(exc),))
            continue
        err_x = np.abs(want["jac_x"][0] - fd_x) / (1.0 + np.abs(fd_x))
        err_theta = np.abs(want["jac_theta"][0] - fd_theta) / (1.0 + np.abs(fd_theta))
        max_err_x = max(max_err_x, float(err_x.max()))
        max_err_theta = max(max_err_theta, float(err_theta.max()))
    if per_row:
        failures.extend(_theta_per_row_failures(model, per_row))
    return ValidationReport(
        max_rel_err_jac_x=max_err_x,
        max_rel_err_jac_theta=max_err_theta,
        n_samples=n_samples,
        failures=failures,
    )


def _blocks(model, theta, x_mat, u_mat, context):
    """The output blocks of f_batch and f_jac_batch at (theta, x_mat, u_mat)
    as float arrays, by kernel and block name (f, and the fused Jacobian's
    jac_x and jac_theta); and the failure messages of the kernels whose
    call, made in context, raises or returns the wrong shapes."""
    n_x = model.n_x
    f_shape, jac_shape = (len(x_mat), n_x), (len(x_mat), n_x, n_x + model.n_theta)
    blocks, messages = {}, []
    for kernel, want in (("f_batch", [f_shape]), ("f_jac_batch", [f_shape, jac_shape])):
        try:
            out = getattr(model, kernel)(theta, x_mat, u_mat)
            arrays = [np.asarray(a, float) for a in (out if len(want) == 2 else [out])]
        except Exception as exc:
            messages.append(f"{kernel} {context} raises {exc!r}")
            continue
        shapes = [a.shape for a in arrays]
        if shapes != want:
            messages.append(f"{kernel} {context} returns shapes {shapes}, not {want}")
            continue
        blocks[kernel] = {"f": arrays[0]}
        if len(arrays) == 2:
            jac = arrays[1]
            blocks[kernel].update(jac_x=jac[..., :n_x], jac_theta=jac[..., n_x:])
    return blocks, messages


def _theta_per_row_failures(model, per_row):
    """validate_model's failure entries for f_batch and f_jac_batch called
    once on the stack of sampled points, with one theta per row, against
    the blocks each point wants: those of its batch of one."""
    points, wants = zip(*per_row)
    thetas, x_mat, u_mat = (np.stack(column) for column in list(zip(*points))[1:])
    stack = ([point[0] for point in points], thetas, x_mat, u_mat)
    want = {name: np.concatenate([w[name] for w in wants]) for name in wants[0]}
    got, messages = _blocks(model, thetas, x_mat, u_mat, "with one theta per row")
    failures = [stack + (message,) for message in messages]
    for kernel, blocks in got.items():
        for name, block in blocks.items():
            ref = want[name]
            # |block - ref| <= t (1 + |ref|): the relative error of the report
            close = np.isclose(block, ref, rtol=_THRESHOLD, atol=_THRESHOLD, equal_nan=True)
            for i in np.flatnonzero(~close.reshape(len(points), -1).all(axis=1)):
                with np.errstate(invalid="ignore"):
                    err = float((np.abs(block[i] - ref[i]) / (1.0 + np.abs(ref[i]))).max())
                message = (
                    f"{kernel} with one theta per row: row {i} differs from the "
                    f"batch of one in {name} by a relative error of {err:.3e}"
                )
                failures.append(points[i] + (message,))
    return failures
