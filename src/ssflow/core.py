"""Shared domain types: models, objectives, conditions, flow state and results."""

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import numerics


def _stacked(single):
    """Batched form of a per-condition kernel: one call per condition,
    stacked along a leading axis."""

    def batch(theta, x_mat, u_mat):
        return np.stack(
            [np.asarray(single(theta, x, u), dtype=float) for x, u in zip(x_mat, u_mat)]
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
    conditions and return (m, n_x) / (m, n_x, n_x) / (m, n_x, n_theta);
    every consumer calls these. A batched form left out is filled by
    stacking the per-condition calls.
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

    ``grad_theta`` is the explicit parameter gradient holding the states
    fixed; ``grad_x`` returns the state-block gradients, either as an
    ``(m, n_x)`` array with one row per condition or as a sequence of m
    per-condition arrays.
    """

    eval: Callable[[np.ndarray, Sequence[np.ndarray]], float]
    grad_theta: Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray]
    grad_x: Callable[[np.ndarray, Sequence[np.ndarray]], Sequence[np.ndarray]]


@dataclass
class FlowState:
    """Concatenated optimisation state (theta, x^1..x^m) at pseudo-time r."""

    theta: np.ndarray
    states: list
    r: float = 0.0

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.states = [np.atleast_1d(np.asarray(x, dtype=float)) for x in self.states]

    def is_finite(self):
        return bool(
            np.all(np.isfinite(self.theta))
            and all(np.all(np.isfinite(x)) for x in self.states)
            and np.isfinite(self.r)
        )

    def pack(self):
        """Flatten to a single vector (theta first, then the state blocks)."""
        return np.concatenate([self.theta] + list(self.states))

    @classmethod
    def unpack(cls, vec, n_theta, n_x, m, r=0.0):
        vec = np.asarray(vec, dtype=float)
        if vec.size != n_theta + m * n_x:
            raise ValueError("vector length does not match (n_theta, n_x, m)")
        theta = vec[:n_theta].copy()
        states = [
            vec[n_theta + i * n_x : n_theta + (i + 1) * n_x].copy() for i in range(m)
        ]
        return cls(theta=theta, states=states, r=r)

    def copy(self):
        return FlowState(self.theta.copy(), [x.copy() for x in self.states], self.r)


@dataclass(frozen=True)
class FlowConfig:
    """Retraction factor, stopping tolerance and integration limits."""

    lam: float
    tol: float = 1e-6
    r_max: float = 1e4
    max_rhs_evals: int = 100_000
    integrator_rel_tol: float = 1e-6
    integrator_abs_tol: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("retraction factor must be >= 0")
        if self.tol <= 0 or self.r_max <= 0:
            raise ValueError("tol and r_max must be strictly positive")
        if self.integrator_rel_tol <= 0 or self.integrator_abs_tol <= 0:
            raise ValueError("integrator tolerances must be strictly positive")
        if self.max_rhs_evals < 1:
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
    and ``min_step``/``max_step`` span the accepted steps (inf and 0.0 when
    no step was accepted).
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
    min_step: float = math.inf
    max_step: float = 0.0

    def __post_init__(self):
        if self.converged and self.reason is not StopReason.TOLERANCE_MET:
            raise ValueError("converged runs must report ToleranceMet")


@dataclass
class ValidationReport:
    """Jacobian consistency check against central finite differences."""

    max_rel_err_jac_x: float
    max_rel_err_jac_theta: float
    n_samples: int
    failures: list = field(default_factory=list)

    def ok(self, threshold=1e-6):
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
    """
    rng = np.random.default_rng(seed)
    max_err_x = 0.0
    max_err_theta = 0.0
    failures = []
    for k in range(n_samples):
        theta = rng.uniform(-1.0, 1.0, model.n_theta)
        x = rng.uniform(0.0, 1.0, model.n_x)
        u = rng.uniform(0.0, 2.0, model.n_u)
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
    return ValidationReport(
        max_rel_err_jac_x=max_err_x,
        max_rel_err_jac_theta=max_err_theta,
        n_samples=n_samples,
        failures=failures,
    )
