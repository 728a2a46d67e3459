"""Benchmark problems: a conversion reaction and NGF-induced Erk activation.

Both come as ModelSpec/ObjectiveSpec bundles with analytic steady states,
analytically reduced unconstrained objectives, and (for the Erk problem)
seeded synthetic data generation.
"""

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from . import numerics
from .core import Condition, FlowConfig, ModelSpec, ObjectiveSpec
from .flow import FlowProblem
from .sensitivity import sensitivity_exact  # noqa: F401  (perfbench traces it here)

_LN10 = math.log(10.0)


def _model_spec(f_batch, f_jac_batch, **fields):
    """ModelSpec written once in batched form: f_batch and the fused
    kernel. jac_x_batch and jac_theta_batch are the blocks of the fused
    kernel's Jacobian, and each per-condition kernel evaluates the batch of
    one."""
    n_x = fields["n_x"]

    def jac_x_batch(theta, x_mat, u_mat):
        return f_jac_batch(theta, x_mat, u_mat)[1][..., :n_x]

    def jac_theta_batch(theta, x_mat, u_mat):
        return f_jac_batch(theta, x_mat, u_mat)[1][..., n_x:]

    def one(batch):
        def single(theta, x, u):
            x_mat = np.asarray(x, dtype=float)[None]
            return batch(theta, x_mat, np.asarray(u, dtype=float)[None])[0]

        return single

    f_jac_batch.fuses = (f_batch, jac_x_batch, jac_theta_batch)
    return ModelSpec(
        f=one(f_batch),
        jac_x=one(jac_x_batch),
        jac_theta=one(jac_theta_batch),
        f_batch=f_batch,
        jac_x_batch=jac_x_batch,
        jac_theta_batch=jac_theta_batch,
        f_jac_batch=f_jac_batch,
        **fields,
    )


# --------------------------------------------------------------------------
# Example 1: conversion reaction A <-> B
# --------------------------------------------------------------------------

def conversion_reaction_model(xi=1.0):
    """dx/dt = theta_2 * xi - (theta_1 + theta_2) * x, steady state
    x_s = theta_2 * xi / (theta_1 + theta_2)."""

    def steady_state(theta, u):
        return np.array([theta[1] * xi / (theta[0] + theta[1])])

    def rates(theta):
        # theta[k] as a scalar, or as a (rows, 1) column for one theta per row
        theta = np.asarray(theta)
        return theta.T[..., None] if theta.ndim == 2 else theta

    def vector_field(k, total, x_mat):
        # total = k[0] + k[1], which the Jacobian shares
        return k[1] * xi - total * x_mat

    def f_batch(theta, x_mat, u_mat):
        k = rates(theta)
        return vector_field(k, k[0] + k[1], x_mat)

    def f_jac_batch(theta, x_mat, u_mat):
        k = rates(theta)
        total = k[0] + k[1]
        x = x_mat[:, 0]
        jac = np.empty((x_mat.shape[0], 1, 3))
        jac[:, :, 0] = -total
        jac[:, 0, 1] = -x
        jac[:, 0, 2] = xi - x
        return vector_field(k, total, x_mat), jac

    return _model_spec(
        f_batch,
        f_jac_batch,
        n_x=1,
        n_theta=2,
        n_u=0,
        analytic_steady_state=steady_state,
        name="conversion_reaction",
    )


@dataclass(frozen=True)
class ConversionReactionProblem:
    """Weighted least squares fit of one observed steady state with a
    Gaussian prior on both rate parameters."""

    xi: float = 1.0
    x_bar: float = 0.2
    theta_bar: tuple = (3.9, 1.5)
    weight: float = 10.0
    # multistart sampling boxes of the benchmark protocol
    theta_box: ClassVar[tuple] = (0.1, 8.0)
    state_box: ClassVar[tuple] = (0.0, 1.0)

    def __post_init__(self):
        if not self.xi > 0:
            raise ValueError("total concentration xi must be positive")

    def model(self):
        return conversion_reaction_model(self.xi)

    def conditions(self):
        return [Condition(u=np.zeros(0), data=np.array([self.x_bar]), id="steady")]

    def objective(self):
        x_bar = self.x_bar
        theta_bar = np.asarray(self.theta_bar, dtype=float)
        w = self.weight

        def evaluate(theta, states):
            x = states[0][0]
            return 0.5 * w * (x - x_bar) ** 2 + 0.5 * float(
                np.sum((theta - theta_bar) ** 2)
            )

        # at one point, or at each point of a stack (ObjectiveSpec)
        def grad_theta(theta, states):
            return theta - theta_bar

        def grad_x(theta, states):
            return w * (np.asarray(states, dtype=float) - x_bar)

        return ObjectiveSpec(eval=evaluate, grad_theta=grad_theta, grad_x=grad_x)

    def flow_problem(self, config: FlowConfig):
        return FlowProblem(
            model=self.model(),
            objective=self.objective(),
            conditions=self.conditions(),
            config=config,
        )

    def reduced_objective(self, theta):
        """(value, gradient) through the analytic steady state."""
        return reduced_objective_cr(theta, self)


def reduced_objective_cr(theta, problem: ConversionReactionProblem):
    """Unconstrained objective through the analytic steady state; returns
    (value, gradient)."""
    theta = np.asarray(theta, dtype=float)
    theta_bar = np.asarray(problem.theta_bar, dtype=float)
    total = theta[0] + theta[1]
    x_s = theta[1] * problem.xi / total
    res = x_s - problem.x_bar
    # closed-form steady-state sensitivities
    s = np.array([-x_s / total, (problem.xi - x_s) / total])
    value = 0.5 * problem.weight * res**2 + 0.5 * float(
        np.sum((theta - theta_bar) ** 2)
    )
    grad = problem.weight * res * s + (theta - theta_bar)
    return value, grad


# --------------------------------------------------------------------------
# Example 2: NGF-induced Erk activation
# --------------------------------------------------------------------------

def ngf_erk_model():
    """Two-state dose-response model; parameters are base-10 exponents of
    the effective rates."""

    def steady_state(theta, u):
        p = np.power(10.0, theta)
        x1 = p[0] * p[4] * u[0] / (p[0] * u[0] + p[1])
        x2 = p[5] * (x1 + p[2]) / (x1 + p[2] + p[3])
        return np.array([x1, x2])

    # p = 10**theta is transposed: p[k] is a scalar for one theta, and holds
    # the value of every row for one theta per row
    def shared_terms(p, x_mat, u_mat):
        # the sub-expressions f and its Jacobian share: p0 u, p4 - x1,
        # p5 - x2 and x1 + p2
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
        # d f / d x
        jac[:, 0, 0] = -(pu + p[1])
        jac[:, 1, 0] = free2
        jac[:, 1, 1] = -(drive + p[3])
        # d f / d theta, with d p_k / d theta_k = ln(10) p_k
        activation = _LN10 * p[0] * u_mat[:, 0]
        jac[:, 0, 2] = activation * free1
        jac[:, 0, 3] = -_LN10 * p[1] * x1
        jac[:, 0, 6] = activation * p[4]
        jac[:, 1, 4] = _LN10 * p[2] * free2
        jac[:, 1, 5] = -_LN10 * p[3] * x2
        jac[:, 1, 7] = _LN10 * p[5] * drive
        return vector_field(p, x_mat, terms), jac

    return _model_spec(
        f_batch,
        f_jac_batch,
        n_x=2,
        n_theta=6,
        n_u=1,
        analytic_steady_state=steady_state,
        name="ngf_erk",
    )


DEFAULT_NGF_INPUTS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)


@dataclass(frozen=True)
class NgfErkProblem:
    """Least squares fit of stationary Erk activity across ten NGF doses.

    ``data`` holds the observed second state per dose; ``theta_true`` is
    used only for synthetic data generation.
    """

    inputs: tuple = DEFAULT_NGF_INPUTS
    data: Optional[tuple] = None
    noise_var: float = 0.01
    theta_true: tuple = (0.0,) * 6
    data_seed: Optional[int] = None
    # multistart sampling boxes of the benchmark protocol
    theta_box: ClassVar[tuple] = (-3.0, 1.0)
    state_box: ClassVar[tuple] = (0.0, 3.0)

    def __post_init__(self):
        if len(self.inputs) != 10:
            raise ValueError("the dose-response protocol uses 10 inputs")
        if not 0 <= self.noise_var < math.inf:
            raise ValueError("noise variance must be non-negative and finite")
        if self.data is not None and len(self.data) != len(self.inputs):
            raise ValueError("one datum per input is required")

    def model(self):
        return ngf_erk_model()

    def with_generated_data(self, seed):
        return replace(
            self, data=tuple(generate_data(self, seed)), data_seed=seed
        )

    def conditions(self):
        if self.data is None:
            raise ValueError("data not set; call with_generated_data or supply data")
        conds = []
        for i, (u, d) in enumerate(zip(self.inputs, self.data)):
            conds.append(Condition(u=np.array([u]), data=np.array([d]), id=f"dose{i}"))
        return conds

    def objective(self):
        if self.data is None:
            raise ValueError("data not set; call with_generated_data or supply data")
        data = np.asarray(self.data, dtype=float)

        def evaluate(theta, states):
            res = np.asarray(states, dtype=float)[:, 1] - data
            return 0.5 * float(np.sum(res**2))

        # at one point, or at each point of a stack (ObjectiveSpec)
        def grad_theta(theta, states):
            return np.zeros(np.shape(theta))

        def grad_x(theta, states):
            x = np.asarray(states, dtype=float)
            out = np.zeros_like(x)
            out[..., 1] = x[..., 1] - data
            return out

        return ObjectiveSpec(eval=evaluate, grad_theta=grad_theta, grad_x=grad_x)

    def flow_problem(self, config: FlowConfig):
        return FlowProblem(
            model=self.model(),
            objective=self.objective(),
            conditions=self.conditions(),
            config=config,
        )

    def reduced_objective(self, theta):
        """(value, gradient) through the analytic steady state."""
        return reduced_objective_ngf(theta, self)


def generate_data(problem: NgfErkProblem, seed):
    """Synthetic stationary Erk measurements: analytic steady state at
    theta_true plus Gaussian noise.

    The generator is numpy's PCG64 (default_rng), fixed so a seed
    reproduces the same data on any platform.
    """
    model = ngf_erk_model()
    theta = np.asarray(problem.theta_true, dtype=float)
    truth = np.array(
        [
            model.analytic_steady_state(theta, np.array([u]))[1]
            for u in problem.inputs
        ]
    )
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(problem.noise_var), len(problem.inputs))
    return truth + noise


def reduced_objective_ngf(theta, problem: NgfErkProblem):
    """Unconstrained objective through the analytic steady state; returns
    (value, gradient). The gradient is assembled from the exact steady-state
    sensitivities, one fused kernel call and one solve per dose."""
    if problem.data is None:
        raise ValueError("data not set; call with_generated_data or supply data")
    model = ngf_erk_model()
    theta = np.asarray(theta, dtype=float)
    data = np.asarray(problem.data, dtype=float)
    u_mat = np.asarray(problem.inputs, dtype=float)[:, None]
    value = 0.0
    grad = np.zeros(6)
    # extreme theta (e.g. during a line search) can overflow 10**theta;
    # report +inf so callers treat the point as unacceptable
    with np.errstate(all="ignore"):
        x_mat = np.array([model.analytic_steady_state(theta, u) for u in u_mat])
        if not np.all(np.isfinite(x_mat)):
            return float("inf"), np.zeros(6)
        _, jac = model.f_jac_batch(theta, x_mat, u_mat)
        for i, d in enumerate(data):
            try:
                s = numerics.solve(jac[i, :, :2], -jac[i, :, 2:])
            except (numerics.SingularMatrixError, numerics.NumericalFailure):
                return float("inf"), np.zeros(6)
            res = x_mat[i, 1] - d
            value += 0.5 * res**2
            grad += res * s[1]
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        return float("inf"), np.zeros(6)
    return value, grad
