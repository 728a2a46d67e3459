"""Benchmark problems: a conversion reaction and NGF-induced Erk activation.

Both come as ModelSpec/ObjectiveSpec bundles with analytic steady states
and (for the Erk problem) seeded synthetic data generation. Both bundles'
unconstrained objective, reduced through the analytic steady states, is the
one ``reduced_objective``: it differentiates the manifold with the
sensitivity kernel of the flow's parameter derivative.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from .core import FlowConfig, ModelSpec, ObjectiveSpec, _integer, _real, _reals
from .flow import FlowProblem
from .sensitivity import manifold_gradient
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


class _Bundle:
    """A problem bundle's two optimisation views, built from its model(),
    objective() and u_matrix, its (m, n_u) input rows, one per condition.

    A bundle builds u_matrix once, read-only, kept in the frozen dataclass's
    ``__dict__``, so it pickles with the bundle; its data fields are read by
    objective() only. model() and objective() are built on each call: their
    closures do not pickle, and bundles are pickled to pool workers.
    """

    def flow_problem(self, config: FlowConfig):
        return FlowProblem(
            model=self.model(),
            objective=self.objective(),
            u_matrix=self.u_matrix,
            config=config,
        )

    def reduced_objective(self, theta):
        """(value, gradient) through the analytic steady state."""
        return reduced_objective(theta, self)


def reduced_objective(theta, problem):
    """Unconstrained objective of a bundle through its analytic steady
    states; returns (value, gradient).

    The gradient is sensitivity.manifold_gradient, the kernel of the flow's
    parameter derivative, so it has the bits of -flow._assemble's parameter
    block at the steady states. Extreme theta (e.g. during a line search)
    can overflow a steady state, the value or the gradient: the result is
    then (+inf, zeros), so callers treat the point as unacceptable.

    The model and objective are built on each call, the input matrix once
    per bundle (_Bundle).
    """
    model, objective, u_matrix = problem.model(), problem.objective(), problem.u_matrix
    theta = np.asarray(theta, dtype=float)
    with np.errstate(all="ignore"):
        states = np.array([model.analytic_steady_state(theta, u) for u in u_matrix])
        if np.isfinite(states).all():
            value = objective.eval(theta, states)
            grad = manifold_gradient(model, objective, theta, states, u_matrix)
            if np.isfinite(value) and np.isfinite(grad).all():
                return value, grad
    return float("inf"), np.zeros(model.n_theta)


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
        jac = np.empty((x_mat.shape[0], 1, 3))
        jac[..., 0] = -total
        np.negative(x_mat, out=jac[..., 1])
        np.subtract(xi, x_mat, out=jac[..., 2])
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
class ConversionReactionProblem(_Bundle):
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
        for name in ("xi", "x_bar", "weight"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        object.__setattr__(self, "theta_bar", _reals("theta_bar", self.theta_bar, 2))
        if not self.xi > 0:
            raise ValueError("total concentration xi must be positive")
        if not self.weight >= 0:
            raise ValueError("weight must be non-negative and finite")

    def model(self):
        return conversion_reaction_model(self.xi)

    @cached_property
    def u_matrix(self):
        """One condition, the observed steady state, with no inputs."""
        u_matrix = np.zeros((1, 0))
        u_matrix.flags.writeable = False
        return u_matrix

    def objective(self):
        # 0-d arrays: no Python float to convert on each gradient call
        x_bar, w = np.array(self.x_bar, dtype=float), np.array(self.weight, dtype=float)
        theta_bar = np.asarray(self.theta_bar, dtype=float)

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
        # each entry is computed into its column, with the operand order of
        # jac[:, i, j] = <expression>; out is given positionally, which costs
        # a ufunc call on a few rows about 0.4 us less than out=
        row0, row1 = jac[:, 0], jac[:, 1]
        # d f / d x
        entry = row0[:, 0]
        np.negative(np.add(pu, p[1], entry), entry)
        row1[:, 0] = free2
        entry = row1[:, 1]
        np.negative(np.add(drive, p[3], entry), entry)
        # d f / d theta, with d p_k / d theta_k = ln(10) p_k
        activation = _LN10 * p[0] * u_mat[:, 0]
        np.multiply(activation, free1, row0[:, 2])
        np.multiply(-_LN10 * p[1], x1, row0[:, 3])
        np.multiply(activation, p[4], row0[:, 6])
        np.multiply(_LN10 * p[2], free2, row1[:, 4])
        np.multiply(-_LN10 * p[3], x2, row1[:, 5])
        np.multiply(_LN10 * p[5], drive, row1[:, 7])
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
class NgfErkProblem(_Bundle):
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
        # the dose-response protocol: ten doses, one datum per dose
        object.__setattr__(self, "inputs", _reals("inputs", self.inputs, 10))
        if not all(u >= 0 for u in self.inputs):
            raise ValueError(f"inputs must be doses >= 0, got {self.inputs}")
        if self.data is not None:
            object.__setattr__(self, "data", _reals("data", self.data, 10))
        object.__setattr__(self, "theta_true", _reals("theta_true", self.theta_true, 6))
        # generate_data's seed, which numpy's generators take only >= 0
        if self.data_seed is not None:
            object.__setattr__(self, "data_seed", _integer("data_seed", self.data_seed, 0))
        object.__setattr__(self, "noise_var", _real("noise_var", self.noise_var))
        if not self.noise_var >= 0:
            raise ValueError("noise variance must be non-negative and finite")

    def model(self):
        return ngf_erk_model()

    def with_generated_data(self, seed):
        return replace(
            self, data=tuple(generate_data(self, seed)), data_seed=seed
        )

    @cached_property
    def u_matrix(self):
        """One condition per dose: the (10, 1) column of inputs."""
        u_matrix = np.array(self.inputs)[:, None]
        u_matrix.flags.writeable = False
        return u_matrix

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


# perfbench's reference optimum reads the reduced objective under these
# names; they can go when the benchmark next changes
reduced_objective_cr = reduced_objective_ngf = reduced_objective
