"""Adaptive stiff integrator tests: accuracy, order, stiffness, termination."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from ssflow import flow, integrator
from ssflow.core import Condition, FlowConfig, FlowState, ObjectiveSpec
from ssflow.integrator import (
    IntegrationOutcome,
    _fd_jacobian,
    integrate_adaptive,
    step,
)
from ssflow.models import NgfErkProblem, conversion_reaction_model


def decay(y):
    return -y


def coupled(y):
    # a nonlinear rhs with every entry coupled to its neighbour
    return -y**3 + 0.6 * np.roll(y, 1) - 0.5 * y


def reference_step(rhs, y, h, jac, f0):
    """The step's stage arithmetic with scipy's lu_factor/lu_solve wrappers."""
    d = integrator._D
    lu_piv = lu_factor(np.eye(y.size) - (h * d) * jac, check_finite=False)
    k1 = lu_solve(lu_piv, f0, check_finite=False)
    f1 = rhs(y + 0.5 * h * k1)
    k2 = lu_solve(lu_piv, f1 - k1, check_finite=False) + k1
    y_new = y + h * k2
    f_new = rhs(y_new)
    k3 = lu_solve(
        lu_piv,
        f_new - integrator._E32 * (k2 - f1) - 2.0 * (k1 - f0),
        check_finite=False,
    )
    return y_new, (h / 6.0) * (k1 - 2.0 * k2 + k3), f_new


def reference_fd_jacobian(rhs, y, f0):
    """Forward differences with a fresh copy of y per column."""
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        d = integrator._SQRT_EPS * (1.0 + abs(y[j]))
        yp = y.copy()
        yp[j] += d
        jac[:, j] = (rhs(yp) - f0) / d
    return jac


class TestStep:
    def test_zero_rhs_is_exact(self):
        y = np.array([1.0, -2.0])
        y_new, err, f_new = step(
            lambda z: np.zeros(2), y, 0.5, np.zeros((2, 2)), np.zeros(2)
        )
        assert np.array_equal(y_new, y)
        assert np.all(err == 0.0)
        assert np.all(f_new == 0.0)

    def test_tiny_step_error_below_abs_tol(self):
        y = np.array([1.0])
        _, err, _ = step(decay, y, 1e-12, np.array([[-1.0]]), decay(y))
        assert np.abs(err).max() < 1e-8

    def test_error_estimate_order_three(self):
        # the embedded companion is third order: halving h should shrink the
        # estimate by about 2^3 on a smooth nonlinear problem
        def rhs(y):
            return np.array([-y[0] ** 2])

        y = np.array([1.0])
        jac = np.array([[-2.0]])
        _, e1, _ = step(rhs, y, 0.1, jac, rhs(y))
        _, e2, _ = step(rhs, y, 0.05, jac, rhs(y))
        ratio = np.abs(e1).max() / np.abs(e2).max()
        assert 6.0 < ratio < 10.0

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            step(decay, np.ones(1), 0.0, np.zeros((1, 1)), -np.ones(1))

    def test_singular_stage_system_raises(self):
        # W = I - h*d*J becomes exactly singular for J = I/(h*d)
        h = 0.5
        d = 1.0 / (2.0 + math.sqrt(2.0))
        jac = np.eye(1) / (h * d)
        with pytest.raises(integrator.StageSolveFailure):
            step(decay, np.ones(1), h, jac, -np.ones(1))

    @pytest.mark.parametrize("n", [1, 3, 26])
    def test_bit_identical_to_lu_factor_reference(self, n):
        rng = np.random.default_rng(n)
        for trial in range(5):
            y = rng.uniform(-2.0, 2.0, n)
            # diagonally dominant with a negative diagonal: W is well
            # conditioned for every step size
            jac = rng.uniform(-0.5, 0.5, (n, n)) / n - np.diag(rng.uniform(1.0, 5.0, n))
            h = 10.0 ** rng.uniform(-3.0, 1.0)
            f0 = coupled(y)
            f0_before = f0.copy()
            got = step(coupled, y, h, jac, f0)
            want = reference_step(coupled, y, h, jac, f0)
            for a, b in zip(got, want):
                assert a.shape == b.shape == (n,)
                assert np.array_equal(a, b)
            # the first stage solve must not overwrite the caller's f0
            assert np.array_equal(f0, f0_before)

    def test_nan_in_jacobian_raises(self):
        jac = -np.eye(3)
        jac[1, 2] = np.nan
        with pytest.raises(integrator.StageSolveFailure, match="factorisation"):
            step(decay, np.ones(3), 0.1, jac, -np.ones(3))


class TestFdJacobian:
    @pytest.mark.parametrize(
        "rhs", [coupled, lambda z: z], ids=["nonlinear", "returns_its_input"]
    )
    def test_bit_identical_to_copy_per_column_reference(self, rhs):
        rng = np.random.default_rng(7)
        y = rng.uniform(-3.0, 3.0, 26)
        f0 = rhs(y).copy()
        got = _fd_jacobian(rhs, y, f0)
        assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))

    @pytest.mark.parametrize(
        "rhs", [coupled, lambda z: z], ids=["nonlinear", "returns_its_input"]
    )
    def test_stacked_bit_identical_to_copy_per_column_reference(self, rhs):
        # one call on the stack of perturbed points; the Jacobian is
        # C-ordered like the per-column one, so reductions over it keep
        # their bits, and the values the stack returns are only read
        rng = np.random.default_rng(7)
        y = rng.uniform(-3.0, 3.0, 26)
        f0 = rhs(y).copy()
        stacks = []
        values = []

        def rhs_stack(ys):
            stacks.append(ys.copy())
            values.append(np.array([rhs(row) for row in ys]))
            return values[-1]

        got = _fd_jacobian(rhs, y, f0, rhs_stack)
        assert len(stacks) == 1
        assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))
        assert got.flags.c_contiguous
        assert np.array_equal(values[0], [rhs(row) for row in stacks[0]])

    def test_leaves_y_unchanged(self):
        y = np.array([1.5, -0.25, 1e8, 0.0])
        before = y.copy()
        _fd_jacobian(coupled, y, coupled(y))
        assert np.array_equal(y, before)

    def test_counts_n_rhs_evals_and_one_jacobian(self):
        # integrate_adaptive counts the Jacobian's n rhs calls one by one,
        # and the Jacobian itself once it is complete: stop the run at the
        # last differencing call (call 1 + n) and at the first stage call
        # after it (call n + 2)
        class Stop(Exception):
            pass

        n = 5
        for k, jacobians in ((1 + n, 0), (n + 2, 1)):
            calls = []

            def rhs(y):
                calls.append(y.copy())
                if len(calls) == k:
                    raise Stop
                return coupled(y)

            with pytest.raises(Stop) as info:
                integrate_adaptive(rhs, np.ones(n), 1e3)
            stats = info.value.stats
            assert (stats.rhs_evals, stats.jacobian_evals) == (k, jacobians)


def counting_kernels(model):
    """model with every batched kernel call appended to the returned list."""
    calls = []

    def counted(name):
        kernel = getattr(model, name)

        def call(theta, x_mat, u_mat):
            calls.append((name, len(x_mat)))
            return kernel(theta, x_mat, u_mat)

        return call

    names = ("f_batch", "jac_x_batch", "jac_theta_batch")
    return dataclasses.replace(model, **{k: counted(k) for k in names}), calls


def counting_gradients(objective):
    """objective with every gradient call appended to the returned list, as
    (name, points): a stack's points, or 1 for one point."""
    calls = []

    def counted(name):
        form = getattr(objective, name)

        def call(theta, states):
            calls.append((name, len(theta) if np.ndim(theta) == 2 else 1))
            return form(theta, states)

        return call

    names = ("grad_theta", "grad_x")
    return dataclasses.replace(objective, **{k: counted(k) for k in names}), calls


class TestSharedColumns:
    """The flow's FD Jacobian as one stacked derivative call: one model
    evaluation and one stacked call of each objective gradient shared by
    all columns, the same Jacobian bit for bit."""

    def test_ngf_bit_identical_to_copy_per_column_reference(self):
        prob = NgfErkProblem().with_generated_data(0)
        base = prob.flow_problem(FlowConfig(lam=20.0))
        model, calls = counting_kernels(base.model)
        objective, gradient_calls = counting_gradients(base.objective)
        problem = dataclasses.replace(base, model=model, objective=objective)
        rhs = partial(flow.rhs, problem)
        stack = partial(flow.rhs_stack, problem)
        rng = np.random.default_rng(11)
        for _ in range(12):
            y = np.concatenate(
                [rng.uniform(*prob.theta_box, 6), rng.uniform(*prob.state_box, 20)]
            )
            f0 = rhs(y)
            calls.clear()
            gradient_calls.clear()
            got = _fd_jacobian(rhs, y, f0, stack)
            # one call per kernel over the 10 base rows, the 20 perturbed
            # state rows and the 6 x 10 parameter-column rows, and no other
            assert sorted(calls) == [
                ("f_batch", 90),
                ("jac_theta_batch", 90),
                ("jac_x_batch", 90),
            ]
            # one call of each gradient over the 26 points, and no
            # single-point gradient call
            assert sorted(gradient_calls) == [
                ("grad_theta", 26),
                ("grad_x", 26),
            ]
            assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))

    def test_ngf_run_makes_one_stacked_evaluation_per_jacobian(self):
        prob = NgfErkProblem().with_generated_data(0)
        base = prob.flow_problem(FlowConfig(lam=20.0, max_rhs_evals=300))
        model, calls = counting_kernels(base.model)
        objective, gradient_calls = counting_gradients(base.objective)
        problem = dataclasses.replace(base, model=model, objective=objective)
        rng = np.random.default_rng(5)
        init = FlowState(
            theta=rng.uniform(*prob.theta_box, 6),
            states=list(rng.uniform(*prob.state_box, (10, 2))),
        )
        result = flow.run_flow(problem, init)
        assert result.jacobian_evals > 5
        # exactly one 90-row call per kernel and one stacked call of each
        # objective gradient per Jacobian; every other evaluation is a
        # single point
        for name in ("f_batch", "jac_x_batch", "jac_theta_batch"):
            assert calls.count((name, 90)) == result.jacobian_evals
        assert {rows for _, rows in calls} == {10, 90}
        for name in ("grad_theta", "grad_x"):
            assert gradient_calls.count((name, 26)) == result.jacobian_evals
        single = result.rhs_evals - 26 * result.jacobian_evals
        assert gradient_calls.count(("grad_x", 1)) == single
        assert len(gradient_calls) == 2 * (single + result.jacobian_evals)

    def test_exactly_singular_rows_bit_identical(self):
        # two conversion-reaction conditions at theta = (0, 0): every state
        # Jacobian in the shared stack is exactly zero and takes the
        # truncated pseudoinverse; the objective's gradients take a point or
        # a stack
        cond = Condition(u=np.zeros(0), data=np.array([0.2]))
        objective = ObjectiveSpec(
            eval=lambda theta, states: 0.0,
            grad_theta=lambda theta, states: theta - 1.0,
            grad_x=lambda theta, states: states - 0.2,
        )
        problem = flow.FlowProblem(
            conversion_reaction_model(),
            objective,
            [cond, cond],
            FlowConfig(lam=20.0),
        )
        rhs = partial(flow.rhs, problem)
        y = np.array([0.0, 0.0, 0.3, 0.7])
        f0 = rhs(y)
        got = _fd_jacobian(rhs, y, f0, partial(flow.rhs_stack, problem))
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))

    def test_stack_goes_through_the_counting(self):
        # the stack call adds n to rhs_evals, so the budget still sees n
        # evaluations per Jacobian; its rows are the perturbed points. No
        # stack means plain calls
        n = 4
        y0 = np.ones(n)
        for stacked in (True, False):
            seen = []
            stacks = []

            def rhs(y):
                seen.append(y.copy())
                return coupled(y)

            def rhs_stack(ys):
                stacks.append(ys.copy())
                return np.array([coupled(y) for y in ys])

            _, _, stats, outcome = integrate_adaptive(
                rhs, y0, 1e3, budget=2, rhs_stack=rhs_stack if stacked else None
            )
            assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
            assert stats.rhs_evals == len(seen) + n * len(stacks) >= 1 + n + 2
            steps = integrator._SQRT_EPS * (1.0 + np.abs(y0))
            points = y0 + np.diag(steps)
            if stacked:
                assert len(stacks) == stats.jacobian_evals == 1
                assert np.array_equal(stacks[0], points)
                assert len(seen) == stats.rhs_evals - n
            else:
                assert stacks == []
                assert np.array_equal(np.array(seen[1 : 1 + n]), points)

    def test_failing_stack_counts_up_to_its_failing_point(self):
        # a stack that names its failing row counts the rows up to and
        # including it, as plain calls that stop there would; one that
        # names none counts all n
        class Stop(Exception):
            pass

        n = 5
        for point in (None, 0, 2, n - 1):

            def rhs_stack(ys):
                exc = Stop()
                if point is not None:
                    exc.point = point
                raise exc

            with pytest.raises(Stop) as info:
                integrate_adaptive(coupled, np.ones(n), 1e3, rhs_stack=rhs_stack)
            stats = info.value.stats
            counted = n if point is None else point + 1
            assert (stats.rhs_evals, stats.jacobian_evals) == (1 + counted, 0)


class TestIntegrateAdaptive:
    def test_linear_decay_accuracy(self):
        rel_tol = 1e-6
        r, y, stats, outcome = integrate_adaptive(
            decay, np.array([1.0]), 1.0, rel_tol=rel_tol, abs_tol=1e-10
        )
        assert outcome is IntegrationOutcome.HORIZON
        assert r == 1.0
        assert abs(y[0] - math.exp(-1.0)) < 10.0 * rel_tol

    def test_stiff_problem_step_count(self):
        # dy/dt = -1000 (y - cos t): explicit Euler needs h < 2/1000 for
        # stability, i.e. at least 5000 steps over r_max = 10; the implicit
        # scheme is accuracy-limited instead and needs far fewer. The
        # autonomous form appends the clock t, with t' = 1
        def rhs(z):
            return np.array([-1000.0 * (z[0] - math.cos(z[1])), 1.0])

        r, z, stats, outcome = integrate_adaptive(
            rhs,
            np.array([0.0, 0.0]),
            10.0,
            rel_tol=1e-3,
            abs_tol=1e-6,
        )
        assert outcome is IntegrationOutcome.HORIZON
        assert stats.steps_accepted < 1000
        assert abs(z[1] - r) < 1e-12 * r
        # reference: the exact solution of the linear ODE
        a = 1000.0
        exact = (a**2 * math.cos(r) + a * math.sin(r)) / (a**2 + 1) - (
            a**2 / (a**2 + 1)
        ) * math.exp(-a * r)
        assert abs(z[0] - exact) < 1e-3

    def test_constant_solution(self):
        y0 = np.array([3.0, -1.0])
        r, y, stats, outcome = integrate_adaptive(
            lambda z: np.zeros(2), y0, 100.0
        )
        assert outcome is IntegrationOutcome.HORIZON
        assert np.array_equal(y, y0)
        assert stats.max_step > 1.0

    def test_tolerance_scaling_slope(self):
        # global error at r=1 for dy/dr = -y should scale with rel_tol:
        # log-log slope within [0.7, 1.3]
        errors = []
        tols = [1e-4, 1e-6, 1e-8]
        for rel_tol in tols:
            _, y, _, _ = integrate_adaptive(
                decay, np.array([1.0]), 1.0, rel_tol=rel_tol, abs_tol=rel_tol * 1e-2
            )
            errors.append(abs(y[0] - math.exp(-1.0)))
        slope = np.polyfit(np.log10(tols), np.log10(errors), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_stop_condition(self):
        r, y, stats, outcome = integrate_adaptive(
            decay,
            np.array([1.0]),
            1e3,
            stop=lambda y, dy: np.abs(dy).max() < 1e-4,
        )
        assert outcome is IntegrationOutcome.STOP_CONDITION
        assert np.abs(y).max() < 1.1e-4

    def test_stop_checked_at_initial_point(self):
        r, y, stats, outcome = integrate_adaptive(
            decay, np.array([0.0]), 1.0, stop=lambda y, dy: True
        )
        assert outcome is IntegrationOutcome.STOP_CONDITION
        assert r == 0.0
        assert stats.steps_accepted == 0

    def test_budget_exhausted(self):
        # the budget is checked before each step, and a step makes up to
        # n + 3 rhs calls: a run ends at most n + 2 calls past it
        for n in (1, 3, 26):
            y0 = np.linspace(1.0, 2.0, n)
            overshoots = set()
            for budget in range(1, 4 * n + 40):
                r, y, stats, outcome = integrate_adaptive(
                    coupled, y0, 1e6, budget=budget
                )
                assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
                assert budget <= stats.rhs_evals <= budget + n + 2
                overshoots.add(stats.rhs_evals - budget)
            assert max(overshoots) == n + 2

    def test_determinism(self):
        def rhs(y):
            return np.array([-y[0] ** 3 - 0.1 * y[0]])

        runs = []
        for _ in range(2):
            traj = []
            integrate_adaptive(
                rhs,
                np.array([2.0]),
                5.0,
                observer=lambda r, y, dy: traj.append((r, y[0])),
            )
            runs.append(traj)
        assert runs[0] == runs[1]

    def test_observer_sees_initial_point_and_accepted_steps(self):
        seen = []
        _, _, stats, _ = integrate_adaptive(
            decay,
            np.array([1.0]),
            1.0,
            observer=lambda r, y, dy: seen.append(r),
        )
        assert seen[0] == 0.0
        assert len(seen) == stats.steps_accepted + 1
        assert seen == sorted(seen)

    def test_empty_initial_state_raises(self):
        calls = []

        def rhs(y):
            calls.append(y)
            return -y

        with pytest.raises(ValueError, match="empty"):
            integrate_adaptive(rhs, np.zeros(0), 1.0)
        assert calls == []

    def test_non_finite_initial_rhs_raises(self):
        with pytest.raises(FloatingPointError):
            integrate_adaptive(
                lambda y: np.array([np.nan]), np.array([1.0]), 1.0
            )

    def test_counts_every_call_made_when_rhs_raises(self):
        # the k-th rhs call raises, wherever it falls: the initial point, the
        # Jacobian differencing, a stage, or the extrapolated state
        class Stop(Exception):
            pass

        for k in range(1, 40):
            calls = []
            accepted = []

            def rhs(y):
                calls.append(y.copy())
                if len(calls) == k:
                    raise Stop
                return coupled(y)

            with pytest.raises(Stop) as info:
                integrate_adaptive(
                    rhs,
                    np.array([1.0, -0.5, 0.25]),
                    1e3,
                    observer=lambda r, y, dy: accepted.append(r),
                )
            stats = info.value.stats
            assert stats.rhs_evals == len(calls) == k
            assert stats.steps_accepted == max(len(accepted) - 1, 0)
            assert stats.jacobian_evals >= stats.steps_accepted

    def test_non_finite_initial_rhs_carries_its_count(self):
        with pytest.raises(FloatingPointError) as info:
            integrate_adaptive(lambda y: y * np.nan, np.array([1.0, 2.0]), 1.0)
        assert info.value.stats.rhs_evals == 1
        assert info.value.stats.steps_accepted == 0
