"""Adaptive stiff integrator tests: accuracy, order, stiffness, termination."""

import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lu_factor, lu_solve

from ssflow import flow, integrator
from ssflow.core import FlowConfig, FlowState, ObjectiveSpec
from ssflow.integrator import (
    IntegrationOutcome,
    _fd_jacobian,
    integrate_adaptive,
    step,
)
from ssflow.models import NgfErkProblem, conversion_reaction_model

from replaced_forms import matmul_stage_step


def decay(y):
    return -y


def coupled(y):
    # a nonlinear rhs with every entry coupled to its neighbour
    return -y**3 + 0.6 * np.roll(y, 1) - 0.5 * y


def reference_step(rhs, y, h, jac, f0):
    """The step's stage arithmetic with scipy's lu_factor/lu_solve wrappers."""
    a, c = integrator._A, integrator._C
    lu_piv = lu_factor(np.eye(y.size) / (h * integrator._GAMMA) - jac, check_finite=False)
    k = np.zeros((6, y.size))
    k[0] = lu_solve(lu_piv, f0, check_finite=False)
    for i in range(5):
        z = y + a[i] @ k[:5]
        k[i + 1] = lu_solve(lu_piv, rhs(z) + (c[i] @ k[:5]) / h, check_finite=False)
    return z + k[5], k[5]


def fd_steps(y):
    """The forward-difference steps of y, as integrate_adaptive makes them."""
    return integrator._SQRT_EPS * (1.0 + np.abs(y))


def fd_stack(y):
    """The FD stack of y, as integrate_adaptive hands it to rhs_fd."""
    return integrator._fd_stack(y, fd_steps(y))


def reference_fd_jacobian(rhs, y, f0):
    """Forward differences with a fresh copy of y per column."""
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        d = integrator._SQRT_EPS * (1.0 + abs(y[j]))
        yp = y.copy()
        yp[j] += d
        jac[:, j] = (rhs(yp) - f0) / d
    return jac


def riccati(y):
    # nonlinear and coupled, with the exact solution y(r) = y(0) / (1 + y0(0) r)
    return np.array([-y[0] ** 2, -y[0] * y[1]])


def riccati_jacobian(y):
    return np.array([[-2.0 * y[0], 0.0], [-y[1], -y[0]]])


def stability_function(jac):
    """R(h J) of the scheme at h = 1, applied to the first unit vector: one
    step of the linear system y' = jac y with the exact Jacobian."""
    y = np.zeros(len(jac))
    y[0] = 1.0
    y_new, _ = step(lambda z: jac @ z, y, 1.0, jac, jac @ y)
    return y_new


class TestStep:
    def test_zero_rhs_is_exact(self):
        # every stage is a solve of a zero right-hand side
        y = np.array([1.0, -2.0])
        calls = []

        def zero(z):
            calls.append(z.copy())
            return np.zeros(2)

        y_new, err = step(zero, y, 0.5, np.zeros((2, 2)), np.zeros(2))
        assert np.array_equal(y_new, y)
        assert np.all(err == 0.0)
        # the five rhs calls of stages 2-6, all at y
        assert len(calls) == 5
        assert all(np.array_equal(z, y) for z in calls)

    def test_tiny_step_error_below_abs_tol(self):
        y = np.array([1.0])
        _, err = step(decay, y, 1e-12, np.array([[-1.0]]), decay(y))
        assert np.abs(err).max() < 1e-8

    def test_global_order_four(self):
        # fixed steps over [0, 1] with the exact Jacobian: the global error
        # of the fourth-order solution falls as h^4
        def global_error(steps):
            y = np.array([1.0, 2.0])
            h = 1.0 / steps
            for _ in range(steps):
                y, _ = step(riccati, y, h, riccati_jacobian(y), riccati(y))
            return np.abs(y - np.array([0.5, 1.0])).max()

        errors = [global_error(steps) for steps in (8, 16, 32, 64)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.diff(errors) < 0.0)
        assert orders[-1] >= 3.8

    def test_error_estimate_falls_as_h_to_the_fourth(self):
        # the embedded solution is third order, so the estimate of one step
        # from the same point is O(h^4)
        y = np.array([1.0, 2.0])
        estimates = [
            np.abs(step(riccati, y, h, riccati_jacobian(y), riccati(y))[1]).max()
            for h in (0.02, 0.01, 0.005)
        ]
        orders = np.log2(np.array(estimates[:-1]) / np.array(estimates[1:]))
        assert np.all(np.abs(orders - 4.0) < 0.2)

    def test_l_stable(self):
        # R(z) -> 0 as z -> -inf (the solution is stiffly accurate, so only
        # rounding keeps it from 0), and |R(z)| <= 1 on the negative real
        # axis and on the imaginary axis, the latter through a 2 x 2
        # rotation block whose eigenvalues are +-i w
        assert abs(stability_function(np.array([[-1e8]]))[0]) < 1e-4
        for z in -np.logspace(-3.0, 8.0, 45):
            assert abs(stability_function(np.array([[z]]))[0]) <= 1.0
        for w in np.logspace(-3.0, 8.0, 45):
            rotation = np.array([[0.0, -w], [w, 0.0]])
            assert np.linalg.norm(stability_function(rotation)) <= 1.0

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            step(decay, np.ones(1), 0.0, np.zeros((1, 1)), -np.ones(1))

    def test_singular_stage_system_raises(self):
        # W = I / (h * gamma) - J is exactly singular for J = I / (h * gamma)
        h = 0.5
        jac = np.eye(1) / (h * integrator._GAMMA)
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
            calls = []

            def counted(z):
                calls.append(z.copy())
                return coupled(z)

            got = step(counted, y, h, jac, f0)
            want = reference_step(coupled, y, h, jac, f0)
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert a.shape == b.shape == (n,)
                assert np.array_equal(a, b)
            # five rhs calls, one per stage after the first
            assert len(calls) == 5
            # the first stage solve must not overwrite the caller's f0
            assert np.array_equal(f0, f0_before)

    @pytest.mark.parametrize("n", [1, 3, 26])
    def test_bit_identical_to_the_matmul_stage_loop(self, n):
        # ndarray.dot for the stage products, the LAPACK flags passed
        # positionally and a 0-d h leave every bit of both results as the @
        # stage loop with keyword flags makes them; every fifth system draws
        # magnitudes that overflow on the way, so NaN and inf entries must
        # have the same bits too
        rng = np.random.default_rng(200 + n)
        for trial in range(50):
            wide = trial % 5 == 0
            scale = rng.uniform(-8.0, 8.0, n) if wide else rng.uniform(-4.0, 1.0, n)
            y = rng.uniform(-2.0, 2.0, n) * 10.0**scale
            jac = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2.0, 2.0)
            if trial % 2:
                jac -= np.diag(rng.uniform(1.0, 1e4, n))
            h = 10.0 ** rng.uniform(-6.0, 0.0)
            f0 = coupled(y)
            f0_before = f0.copy()
            with np.errstate(all="ignore"):
                want = matmul_stage_step(coupled, y, h, jac, f0)
                got = step(coupled, y, h, jac, f0)
            for a, b in zip(got, want):
                assert a.shape == b.shape == (n,)
                assert a.tobytes() == b.tobytes()
            assert f0.tobytes() == f0_before.tobytes()

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
        # the rows of one plain rhs call per FD point, as integrate_adaptive
        # makes them without a stacked rhs
        rng = np.random.default_rng(7)
        y = rng.uniform(-3.0, 3.0, 26)
        f0 = rhs(y).copy()
        values = np.array([rhs(row) for row in fd_stack(y)[:-1]])
        got = _fd_jacobian(values, f0, fd_steps(y))
        assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))

    @pytest.mark.parametrize(
        "rhs", [coupled, lambda z: z], ids=["nonlinear", "returns_its_input"]
    )
    def test_stacked_bit_identical_to_copy_per_column_reference(self, rhs):
        # one call on the FD stack (the perturbed points, then y); the
        # Jacobian is C-ordered like the per-column one, so reductions over
        # it keep their bits, and the values the stack returns are only read
        rng = np.random.default_rng(7)
        y = rng.uniform(-3.0, 3.0, 26)
        f0 = rhs(y).copy()
        stacks = []
        values = []

        def rhs_fd(ys):
            stacks.append(ys)
            values.append(np.array([rhs(row) for row in ys]))
            return values[-1]

        got = _fd_jacobian(rhs_fd(fd_stack(y))[:-1], f0, fd_steps(y))
        assert len(stacks) == 1
        assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))
        assert got.flags.c_contiguous
        assert np.array_equal(values[0], [rhs(row) for row in stacks[0]])

    def test_leaves_y_unchanged(self):
        y = np.array([1.5, -0.25, 1e8, 0.0])
        before = y.copy()
        values = np.array([coupled(row) for row in fd_stack(y)[:-1]])
        _fd_jacobian(values, coupled(y), fd_steps(y))
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


def bounded_coupled(y):
    # bounded, with every entry coupled to its neighbour and of the order
    # of y near 0: from any y the initial step is far above underflow
    return 0.5 * np.tanh(y) - 0.25 * np.tanh(np.roll(y, 1))


class StopAtJacobian(Exception):
    """Raised with the run's first Jacobian as it is made."""


@settings(max_examples=200, deadline=None)
@given(
    y=st.integers(1, 8).flatmap(
        lambda n: arrays(
            float,
            n,
            elements=st.sampled_from([-0.0, 0.0, 1e300, -1e300])
            | st.floats(-1e300, 1e300),
        )
    )
)
def test_plain_row_jacobian_has_the_reference_bits_and_counts_n(y):
    # without rhs_fd the n FD rows are n plain rhs calls, filled into one
    # array: stopped as its Jacobian is made, a run has made 1 + n counted
    # calls (the value at y, then the rows), and the Jacobian has the
    # copy-per-column reference's bits, signed zeros and |y| up to 1e300
    # included
    fd_jacobian = integrator._fd_jacobian

    def stop_at_jacobian(*args):
        raise StopAtJacobian(fd_jacobian(*args))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator, "_fd_jacobian", stop_at_jacobian)
        with pytest.raises(StopAtJacobian) as info:
            integrate_adaptive(bounded_coupled, y, 1e3)
    (jac,) = info.value.args
    want = reference_fd_jacobian(bounded_coupled, y, bounded_coupled(y))
    assert jac.tobytes() == want.tobytes()
    assert (info.value.stats.rhs_evals, info.value.stats.jacobian_evals) == (1 + y.size, 0)


def counting_kernels(model):
    """model with every kernel call appended to the returned list, as
    (name, rows): the model's own fused kernel and the three batched
    forms."""
    calls = []

    def counted(name):
        kernel = getattr(model, name)

        def call(theta, x_mat, u_mat):
            calls.append((name, len(x_mat)))
            return kernel(theta, x_mat, u_mat)

        return call

    names = ("f_batch", "jac_x_batch", "jac_theta_batch", "f_jac_batch")
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
        rng = np.random.default_rng(11)
        for _ in range(12):
            y = np.concatenate(
                [rng.uniform(*prob.theta_box, 6), rng.uniform(*prob.state_box, 20)]
            )
            f0 = rhs(y)
            calls.clear()
            gradient_calls.clear()
            values = rhs(fd_stack(y))
            got = _fd_jacobian(values[:-1], f0, fd_steps(y))
            # one fused kernel call over the 10 base rows, the 20 perturbed
            # state rows and the 6 x 10 parameter-column rows, and no other
            assert calls == [("f_jac_batch", 90)]
            # one call of each gradient over the 26 FD points and y, and no
            # single-point gradient call
            assert sorted(gradient_calls) == [
                ("grad_theta", 27),
                ("grad_x", 27),
            ]
            assert values[-1].tobytes() == f0.tobytes()
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
        # every base point is one merged call of its 26 FD points and
        # itself: one 90-row fused kernel call and one 27-point call of each
        # objective gradient. Every Jacobian takes its rows from one, and
        # each merged call no Jacobian takes leaves 26 discarded rows (the
        # run's last point at least); every other evaluation is a single
        # point, one 10-row fused call. The run's manifold residual is the
        # one f_batch call, and no separate Jacobian kernel is called
        n = 26
        assert result.discarded_evals > 0
        assert result.discarded_evals % n == 0
        merged = result.jacobian_evals + result.discarded_evals // n
        single = result.rhs_evals - n * result.jacobian_evals - merged
        assert calls.count(("f_jac_batch", 90)) == merged
        assert calls.count(("f_jac_batch", 10)) == single
        assert calls[-1] == ("f_batch", 10)
        assert len(calls) == merged + single + 1
        for name in ("grad_theta", "grad_x"):
            assert gradient_calls.count((name, n + 1)) == merged
        assert gradient_calls.count(("grad_x", 1)) == single
        assert len(gradient_calls) == 2 * (single + merged)

    def test_exactly_singular_rows_bit_identical(self):
        # two conversion-reaction conditions at theta = (0, 0): every state
        # Jacobian in the shared stack is exactly zero and takes the
        # truncated pseudoinverse; the objective's gradients take a point or
        # a stack
        objective = ObjectiveSpec(
            eval=lambda theta, states: 0.0,
            grad_theta=lambda theta, states: theta - 1.0,
            grad_x=lambda theta, states: states - 0.2,
        )
        problem = flow.FlowProblem(
            conversion_reaction_model(),
            objective,
            np.zeros((2, 0)),
            FlowConfig(lam=20.0),
        )
        rhs = partial(flow.rhs, problem)
        y = np.array([0.0, 0.0, 0.3, 0.7])
        f0 = rhs(y)
        got = _fd_jacobian(flow.rhs(problem, fd_stack(y))[:-1], f0, fd_steps(y))
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, reference_fd_jacobian(rhs, y, f0))

    def test_stack_goes_through_the_counting(self):
        # every base point is one stack of its n FD points and itself, last.
        # Its value counts 1 and its n rows count when a Jacobian takes
        # them, so the budget still sees n evaluations per Jacobian, and the
        # rows no Jacobian takes are discarded: rhs_evals + discarded_evals
        # is every point evaluated. No stack means plain calls, with the
        # same counts
        n = 4
        y0 = np.ones(n)
        runs = []
        for stacked in (True, False):
            seen = []
            stacks = []

            def rhs(y):
                seen.append(y.copy())
                return coupled(y)

            def rhs_fd(ys):
                stacks.append(ys.copy())
                return np.array([coupled(row) for row in ys])

            _, y, stats, outcome = integrate_adaptive(
                rhs, y0, 1e3, budget=2, rhs_fd=rhs_fd if stacked else None
            )
            runs.append((y.tobytes(), stats.rhs_evals, stats.steps_accepted))
            assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
            points = len(seen) + sum(len(ys) for ys in stacks)
            assert stats.rhs_evals + stats.discarded_evals == points
            assert stats.rhs_evals >= 1 + n + 2
            steps = integrator._SQRT_EPS * (1.0 + np.abs(y0))
            fd_points = y0 + np.diag(steps)
            if stacked:
                assert stats.jacobian_evals == 1 < len(stacks)
                assert np.array_equal(stacks[0], np.vstack([fd_points, y0]))
                for ys in stacks:
                    assert np.array_equal(ys, fd_stack(ys[-1]))
                assert stats.discarded_evals == n * (len(stacks) - 1)
                assert len(seen) == stats.rhs_evals - n - len(stacks)
            else:
                assert stacks == []
                assert stats.discarded_evals == 0
                assert np.array_equal(np.array(seen[1 : 1 + n]), fd_points)
        assert runs[0] == runs[1]

    def test_rhs_fd_is_handed_each_base_points_stack_of_its_jacobian_steps(
        self, monkeypatch
    ):
        # the loop builds each base point's FD steps and stack once: rhs_fd
        # is handed one stack per base point, in order, with the bits of
        # _fd_stack(y, steps), and the Jacobian from its rows divides by
        # the same steps
        prob = NgfErkProblem().with_generated_data(0)
        problem = prob.flow_problem(FlowConfig(lam=20.0))
        rng = np.random.default_rng(5)
        y0 = np.concatenate(
            [rng.uniform(*prob.theta_box, 6), rng.uniform(*prob.state_box, 20)]
        )
        stacks, points, jacobian_steps = [], [], []

        def rhs_fd(ys):
            stacks.append(ys.copy())
            return flow.rhs(problem, ys)

        def fd_jacobian(values, f0, steps):
            jacobian_steps.append(steps.copy())
            return _fd_jacobian(values, f0, steps)

        monkeypatch.setattr(integrator, "_fd_jacobian", fd_jacobian)
        _, _, stats, _ = integrate_adaptive(
            partial(flow.rhs, problem),
            y0,
            1e4,
            rel_tol=1e-4,
            abs_tol=1e-6,
            budget=400,
            observer=lambda r, y, dy: points.append(y.copy()),
            rhs_fd=rhs_fd,
        )
        assert len(stacks) == len(points) == stats.steps_accepted + 1 > 2
        for ys, y in zip(stacks, points):
            assert ys.tobytes() == fd_stack(y).tobytes()
        assert len(jacobian_steps) == stats.jacobian_evals >= len(points) - 1
        for steps, y in zip(jacobian_steps, points):
            assert steps.tobytes() == fd_steps(y).tobytes()

    def test_only_the_last_point_leaves_discarded_rows(self):
        # a base point's stack is made once its step is accepted, so a
        # rejected step evaluates none: a run that rejects steps and ends by
        # stop leaves only the n FD rows of its last point discarded
        checks = []

        def stop(y, dy):
            checks.append(None)
            return len(checks) > 1000

        y0 = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        _, _, stats, outcome = integrate_adaptive(
            van_der_pol, y0, 1e3, stop=stop, rhs_fd=van_der_pol_fd
        )
        assert outcome is IntegrationOutcome.STOP_CONDITION
        assert stats.steps_rejected > 0
        assert stats.discarded_evals == y0.size

    def test_raising_stack_runs_as_plain_calls(self):
        # every stack call raises, its exception naming a row: each one is
        # made again as plain calls, so the run equals the plain run in
        # bits and in every counter, whatever the stack's exception says.
        # No stack call is made again: each base point gets one
        class Refused(Exception):
            point = 0

        points = []

        def rhs_fd(ys):
            points.append(ys.tobytes())
            raise Refused

        runs = []
        for stack in (rhs_fd, None):
            r, y, stats, outcome = integrate_adaptive(
                coupled, np.ones(5), 3.0, rhs_fd=stack
            )
            runs.append((r, y.tobytes(), stats, outcome))
        assert runs[0] == runs[1]
        assert runs[0][2].steps_accepted > 1
        assert runs[0][2].discarded_evals == 0
        assert len(points) > runs[0][2].steps_accepted
        assert len(set(points)) == len(points)

    def test_failing_stack_counts_up_to_its_failing_point(self):
        # a plain rhs that raises at call k counts k, with a stack that
        # raises (and whose rows are then made as plain calls) as without
        # one: the failing row is met, counted and raised where plain calls
        # meet it. k runs over the first two Jacobians' rows and stages
        class Stop(Exception):
            pass

        def rhs_fd(ys):
            raise RuntimeError("stack refused")

        n = 5
        for k in range(1, 2 * (n + 6) + 1):
            for stack in (rhs_fd, None):
                calls = []

                def rhs(y):
                    calls.append(y.copy())
                    if len(calls) == k:
                        raise Stop(k)
                    return coupled(y)

                with pytest.raises(Stop) as info:
                    integrate_adaptive(rhs, np.ones(n), 1e3, rhs_fd=stack)
                assert info.value.args == (k,)
                assert info.value.stats.rhs_evals == k
                assert info.value.stats.discarded_evals == 0


class TestIntegrateAdaptive:
    def test_zero_error_scale_runs_without_warnings(self):
        # abs_tol = 0 where y starts at 0: the initial step's estimate and
        # the first error test divide by a zero scale. The inf or NaN takes
        # the initial step's fallback or fails the test, with no
        # RuntimeWarning, and the run ends as it does with warnings ignored
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r, y, stats, outcome = integrate_adaptive(
                lambda y: 1.0 - y, np.array([0.0]), 1.0, abs_tol=0.0
            )
        assert outcome is IntegrationOutcome.HORIZON
        assert r == 1.0
        assert (stats.steps_accepted, stats.steps_rejected, stats.rhs_evals) == (
            19,
            0,
            134,
        )
        assert stats.min_step == 1e-6
        assert y[0] == pytest.approx(0.63212054, abs=1e-8)

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

    @pytest.mark.parametrize("rel_tol", np.logspace(-6.0, -2.0, 9))
    def test_stiff_problem_error_along_the_run(self, rel_tol):
        # the Prothero-Robinson problem of test_stiff_problem_step_count:
        # the largest error at any accepted step, not only at the end point.
        # From rel_tol 1e-4 up the estimate holds and the error stays below
        # rel_tol. Below it the estimate can cross zero at moderate
        # stiffness, and the error is erratic: up to 5.9 rel_tol at these
        # tolerances, 9.8 at 1.8e-6 with the stage sums rounded otherwise
        a = 1000.0

        def rhs(z):
            return np.array([-a * (z[0] - math.cos(z[1])), 1.0])

        def exact(r):
            return (a**2 * math.cos(r) + a * math.sin(r)) / (a**2 + 1) - (
                a**2 / (a**2 + 1)
            ) * math.exp(-a * r)

        errors = []
        *_, outcome = integrate_adaptive(
            rhs,
            np.array([0.0, 0.0]),
            10.0,
            rel_tol=rel_tol,
            abs_tol=rel_tol / 1000,
            observer=lambda r, z, dz: errors.append(abs(z[0] - exact(r))),
        )
        assert outcome is IntegrationOutcome.HORIZON
        assert max(errors) <= (1.0 if rel_tol >= 1e-4 else 20.0) * rel_tol

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

    @pytest.mark.parametrize(
        "bad_err, y_new_inf",
        [(math.nan, False), (math.inf, False), (math.inf, True), (1e308, False)],
        ids=["nan", "inf", "inf-over-inf-scale", "overflowing"],
    )
    def test_non_finite_error_norm_rejects_with_fac_min_quietly(
        self, bad_err, y_new_inf, monkeypatch
    ):
        # an error estimate whose norm is NaN or inf (NaN itself, inf, inf
        # over an infinite scale, a finite one that overflows the scale)
        # rejects the step and shrinks h by FAC_MIN, with no RuntimeWarning
        real_step = integrator.step
        hs = []

        def first_step_bad(rhs, y, h, jac, f0):
            hs.append(h)
            y_new, err = real_step(rhs, y, h, jac, f0)
            if len(hs) == 1:
                err = np.full_like(err, bad_err)
                if y_new_inf:
                    y_new = np.full_like(y_new, np.inf)
            return y_new, err

        monkeypatch.setattr(integrator, "step", first_step_bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, stats, outcome = integrate_adaptive(coupled, np.ones(3), 1e3, budget=20)
        assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
        assert hs[1] == hs[0] * integrator.FAC_MIN
        assert stats.steps_rejected == 1
        assert stats.steps_accepted >= 1

    def test_a_failed_stage_solve_rejects_with_fac_min(self, monkeypatch):
        # the first trial's stage solve fails: the step is rejected, h
        # shrinks by FAC_MIN and the retry reuses the point's Jacobian
        real_step = integrator.step
        hs = []

        def first_step_fails(rhs, y, h, jac, f0):
            hs.append(h)
            if len(hs) == 1:
                raise integrator.StageSolveFailure("singular or ill-conditioned stage system")
            return real_step(rhs, y, h, jac, f0)

        monkeypatch.setattr(integrator, "step", first_step_fails)
        _, _, stats, outcome = integrate_adaptive(coupled, np.ones(3), 1.0)
        assert outcome is IntegrationOutcome.HORIZON
        assert hs[1] == hs[0] * integrator.FAC_MIN
        assert stats.steps_rejected == 1
        assert stats.steps_accepted >= 1
        assert stats.jacobian_evals == stats.steps_accepted
        # the initial value, n rows per Jacobian, five stages per step that
        # ran and each accepted point's value
        stages = 5 * (len(hs) - 1)
        assert stats.rhs_evals == 1 + 3 * stats.jacobian_evals + stages + stats.steps_accepted
        assert stats.rhs_evals == 163

    def test_budget_exhausted(self):
        # the budget is checked before each step, and a step makes up to
        # n + 6 rhs calls: a run ends at most n + 5 calls past it
        for n in (1, 3, 26):
            y0 = np.linspace(1.0, 2.0, n)
            overshoots = set()
            for budget in range(1, 4 * n + 40):
                r, y, stats, outcome = integrate_adaptive(
                    coupled, y0, 1e6, budget=budget
                )
                assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
                assert budget <= stats.rhs_evals <= budget + n + 5
                overshoots.add(stats.rhs_evals - budget)
            assert max(overshoots) == n + 5

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
        with pytest.raises(
            FloatingPointError, match="^non-finite right-hand side at the initial point$"
        ):
            integrate_adaptive(
                lambda y: np.array([np.nan]), np.array([1.0]), 1.0
            )

    def test_non_finite_rhs_after_a_step_raises_without_that_step(self, monkeypatch):
        # the second accepted step lands where rhs is NaN: the run raises,
        # and its stats count only the first accepted step
        real_step = integrator.step
        hs = []

        def second_step_to_ten(rhs, y, h, jac, f0):
            hs.append(h)
            if len(hs) == 2:
                return np.full_like(y, 10.0), np.zeros_like(y)
            return real_step(rhs, y, h, jac, f0)

        def rhs(y):
            return np.full_like(y, np.nan) if y[0] == 10.0 else coupled(y)

        monkeypatch.setattr(integrator, "step", second_step_to_ten)
        message = "^non-finite right-hand side after a step$"
        with pytest.raises(FloatingPointError, match=message) as info:
            integrate_adaptive(rhs, np.ones(3), 1e3)
        stats = info.value.stats
        assert len(hs) == 2
        assert hs[1] != hs[0]
        assert stats.steps_accepted == 1
        assert stats.steps_rejected == 0
        assert stats.min_step == stats.max_step == hs[0]

    def test_counts_every_call_made_when_rhs_raises(self):
        # the k-th rhs call raises, wherever it falls: the initial point, the
        # Jacobian differencing, a stage, or a step's new point
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


class Done(Exception):
    pass


def scripted_step_sizes(monkeypatch, err_of, trials):
    """The step sizes integrate_adaptive tries when integrator.step returns
    the error norm err_of(h, accepted) for a trial step h after `accepted`
    accepted ones (y_new = y, rel_tol 0 and abs_tol 1, so the error norm is
    |err|), up to `trials` trial steps; the last entry is the step size
    after the last trial. The first trial step is 1e6. Returns the step
    sizes and the number of accepted steps."""
    hs, accepted = [], []

    def scripted_step(rhs, y, h, jac, f0):
        hs.append(h)
        if len(hs) > trials:
            raise Done
        return y.copy(), np.array([err_of(h, len(accepted) - 1)])

    monkeypatch.setattr(integrator, "step", scripted_step)
    with pytest.raises(Done):
        integrate_adaptive(
            lambda y: np.zeros(1),
            np.zeros(1),
            1e12,
            rel_tol=0.0,
            abs_tol=1.0,
            observer=lambda r, y, dy: accepted.append(r),
        )
    assert hs[0] == 1e6
    return hs, len(accepted) - 1


def prescribed(errs):
    """err_of for scripted_step_sizes: the error norms errs, trial by trial."""
    errs = iter(errs)
    return lambda h, accepted: next(errs)


def classical(err_norm):
    return min(max(integrator.SAFETY * err_norm**-0.25, integrator.FAC_MIN), integrator.FAC_MAX)


def clipped(fac):
    return min(max(fac, integrator.FAC_MIN), integrator.FAC_MAX)


def reference_step_sizes(h, errs):
    """The step sizes of the controller for the error norms errs, from
    trial step h: a rejection scales h by SAFETY * err ** (-1/4) within
    [FAC_MIN, 1]; an accepted step by the classical factor, and from the
    second accepted step on by the smaller of it and Gustafsson's clipped
    predictive factor, SAFETY * (h / h_acc) * (err_acc / err ** 2) ** (1/4),
    with h_acc and err_acc (floored at 1e-2) the last accepted step's. An
    error norm of 0 gives FAC_MAX."""
    hs, h_acc = [h], None
    for err in errs:
        if err > 1.0:
            h *= max(min(integrator.SAFETY * err**-0.25, 1.0), integrator.FAC_MIN)
        else:
            fac = classical(err) if err > 0.0 else integrator.FAC_MAX
            if err > 0.0 and h_acc is not None:
                pred = integrator.SAFETY * (h / h_acc) * (err_acc / err**2) ** 0.25
                fac = min(fac, clipped(pred))
            h_acc, err_acc = h, max(err, 1e-2)
            h *= fac
        hs.append(h)
    return hs


class TestPredictiveController:
    """Gustafsson's predictive step-size controller (ACM TOMS 20 (1994)
    496-517; Hairer & Wanner II, Sec. IV.8), on scripted error norms."""

    def test_the_step_sizes_of_a_scripted_run(self, monkeypatch):
        # accepted steps whose error grows, falls, sits at 1 long enough for
        # the predictive factor to reach FAC_MIN, and falls below 1e-2
        errs = [0.5, 0.8, 0.2, 1e-4, 0.9] + [1.0] * 16 + [1e-3, 0.3]
        hs, _ = scripted_step_sizes(monkeypatch, prescribed(errs), len(errs))
        assert hs == reference_step_sizes(1e6, errs)
        # the first accepted step takes the classical factor
        assert hs[1] == hs[0] * classical(0.5)
        # a growing error: the predictive factor is the smaller
        pred = integrator.SAFETY * (hs[1] / hs[0]) * (0.5 / 0.8**2) ** 0.25
        assert pred < classical(0.8)
        assert hs[2] == hs[1] * pred
        # a falling error: the classical factor is the smaller
        assert hs[3] == hs[2] * classical(0.2)
        # at err 1 the predictive factor shrinks by SAFETY a step until it
        # is clipped at FAC_MIN
        factors = [b / a for a, b in zip(hs[5:21], hs[6:22])]
        assert factors[-1] == pytest.approx(integrator.FAC_MIN, rel=1e-15)
        assert all(a > b for a, b in zip(factors, factors[1:-1]))

    def test_a_zero_error_gives_fac_max(self, monkeypatch):
        errs = [0.5, 0.0, 0.0, 0.5]
        hs, _ = scripted_step_sizes(monkeypatch, prescribed(errs), len(errs))
        assert hs == reference_step_sizes(1e6, errs)
        assert hs[2] == hs[1] * integrator.FAC_MAX
        assert hs[3] == hs[2] * integrator.FAC_MAX

    def test_an_error_that_underflows_when_squared_takes_the_classical_factor(
        self, monkeypatch
    ):
        # err ** 2 is 0 below about 1e-162; the classical factor is FAC_MAX
        errs = [0.5, 1e-200, 0.5]
        hs, _ = scripted_step_sizes(monkeypatch, prescribed(errs), len(errs))
        assert hs[2] == hs[1] * integrator.FAC_MAX

    def test_a_rejection_leaves_the_last_accepted_step_alone(self, monkeypatch):
        errs = [0.5, 0.6, 3.0, 0.7]
        hs, _ = scripted_step_sizes(monkeypatch, prescribed(errs), len(errs))
        assert hs == reference_step_sizes(1e6, errs)
        assert hs[3] == hs[2] * max(integrator.SAFETY * 3.0**-0.25, integrator.FAC_MIN)
        # h_acc and err_acc are still those of the step accepted at 0.6
        pred = integrator.SAFETY * (hs[3] / hs[1]) * (0.6 / 0.7**2) ** 0.25
        assert hs[4] == hs[3] * min(classical(0.7), clipped(pred))

    def test_an_error_constant_growing_fourfold_takes_no_alternating_rejections(
        self, monkeypatch
    ):
        # err = C h^4 with C four times larger after each accepted step: the
        # step must shrink by 4 ** (-1/4) a step. The classical rule lags a
        # step behind and rejects every other trial; the predictive factor
        # learns the trend from two accepted steps
        def err_of(h, accepted):
            return 0.5 * 4.0**accepted * (h / 1e6) ** 4

        trials = 60
        _, accepted = scripted_step_sizes(monkeypatch, err_of, trials)
        assert trials - accepted <= 1
        # the classical rule alone on the same errors
        h, accepted_classical = 1e6, 0
        for _ in range(trials):
            err = err_of(h, accepted_classical)
            if err > 1.0:
                h *= max(min(integrator.SAFETY * err**-0.25, 1.0), integrator.FAC_MIN)
            else:
                accepted_classical += 1
                h *= classical(err)
        assert trials - accepted_classical >= trials // 3


def held_and_rotating(y):
    # entry 0 is constant, so its error is exactly 0 at every step; entries
    # 1-2 rotate fast, and their error grows with the step without bound
    return np.array([0.0, -100.0 * y[2], 100.0 * y[1]])


HELD_ONLY = np.array([1e-8, np.inf, np.inf])


class TestPerEntryTolerance:
    def test_entries_with_infinite_abs_tol_never_reject_a_step(self):
        y0 = np.array([1.0, 1.0, 0.0])
        # tested, the rotating entries hold the step down: thousands of steps
        *_, tested, _ = integrate_adaptive(held_and_rotating, y0, 10.0)
        assert tested.steps_accepted > 1000
        hs = []
        r, y, stats, outcome = integrate_adaptive(
            held_and_rotating,
            y0,
            10.0,
            abs_tol=HELD_ONLY,
            observer=lambda r, y, dy: hs.append(r),
        )
        assert outcome is IntegrationOutcome.HORIZON
        assert stats.steps_rejected == 0
        assert np.all(np.isfinite(y))
        # every step's error norm is 0, so each grows h by FAC_MAX until
        # the horizon cuts the last one
        steps = np.diff(hs)
        assert np.allclose(steps[1:-1] / steps[:-2], integrator.FAC_MAX, rtol=1e-12)

    @pytest.mark.parametrize("bad_err", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_in_an_untested_entry_still_rejects(
        self, bad_err, monkeypatch
    ):
        # |err| / inf is 0 for a finite error but NaN for a non-finite one:
        # the step is rejected and h shrinks by FAC_MIN, with no warning
        real_step = integrator.step
        hs = []

        def first_step_bad(rhs, y, h, jac, f0):
            hs.append(h)
            y_new, err = real_step(rhs, y, h, jac, f0)
            if len(hs) == 1:
                err[2] = bad_err
            return y_new, err

        monkeypatch.setattr(integrator, "step", first_step_bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, stats, _ = integrate_adaptive(
                held_and_rotating, np.array([1.0, 1.0, 0.0]), 10.0, abs_tol=HELD_ONLY
            )
        assert hs[1] == hs[0] * integrator.FAC_MIN
        assert stats.steps_rejected == 1
        assert stats.steps_accepted >= 1

    def test_initial_step_is_estimated_from_the_tested_entries(self):
        # the untested entries add nothing to either norm, and each norm is
        # an RMS over the tested entries: the same h0 as the tested block
        # on its own. The tested y's RMS over scale, 1.2e-5, passes the
        # 1e-5 threshold of the estimate; over all four entries it would not
        y = np.array([1.2e-13, -1.2e-13, 3e5, -7.0])
        f0 = np.array([-0.25, 1.0, 4e9, 1e-3])
        abs_tol = np.array([1e-8, 1e-8, np.inf, np.inf])
        h0 = integrator._initial_step(y, f0, 1e3, 1e-6, abs_tol)
        assert h0 == integrator._initial_step(y[:2], f0[:2], 1e3, 1e-6, 1e-8)
        assert h0 == pytest.approx(0.01 * 1.2e-5 / math.sqrt((0.25e8**2 + 1e16) / 2))


def tanh_coupled(y):
    return np.tanh(y) - 0.5 * np.roll(y, 1)


@pytest.mark.parametrize(
    "y0, estimate",
    [(np.array([0.0, 1e100]), 2e-104), (np.array([0.0, 1e300]), 0.0)],
    ids=["swamped", "overflowing"],
)
def test_a_start_whose_step_estimate_underflows_still_takes_steps(y0, estimate):
    # one entry swamps the initial step's estimate: 0.01 * d0 / d1 is about
    # 2e-104 (the zero entry's scale is abs_tol while its derivative is
    # 5e99), or 0 when the norm of f0 / sc overflows. The first step is
    # floored at the smallest step the loop takes at r = 0, so the run
    # tries steps instead of ending with StepUnderflow at r = 0
    sc = 1e-8 + 1e-6 * np.abs(y0)
    with np.errstate(over="ignore"):
        d0, d1 = np.linalg.norm(y0 / sc), np.linalg.norm(tanh_coupled(y0) / sc)
    assert 0.01 * d0 / d1 == pytest.approx(estimate, abs=1e-105)
    hs = []
    real_step = integrator.step

    def recorded(rhs, y, h, *args):
        hs.append(h)
        return real_step(rhs, y, h, *args)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(integrator, "step", recorded)
        r, _, stats, outcome = integrate_adaptive(tanh_coupled, y0, 1e3, budget=500)
    assert hs[0] == integrator.H_MIN
    assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
    assert stats.steps_accepted > 0 and r > 0.0


VDP_MU = np.array([1.0, 30.0, 1000.0])


def van_der_pol(y):
    # three uncoupled van der Pol oscillators (x, v) of stiffness 1 to 1000:
    # runs take nonstiff and stiff steps, and rejected ones
    x, v = y[0::2], y[1::2]
    out = np.empty_like(y)
    out[0::2] = v
    out[1::2] = VDP_MU * ((1.0 - x * x) * v - x)
    return out


def van_der_pol_fd(ys):
    return np.array([van_der_pol(row) for row in ys])


def draw_system(name, data):
    """(rhs, rhs_fd, y0, r_max, tolerances) of a drawn start."""
    if name == "van_der_pol":
        y0 = data.draw(arrays(float, 6, elements=st.floats(-2.0, 2.0)), label="y0")
        r_max = data.draw(st.floats(1e-3, 3e3), label="r_max")
        rel_tol = data.draw(st.sampled_from([1e-2, 1e-3]), label="rel_tol")
        tolerances = {"rel_tol": rel_tol, "abs_tol": 1e-2 * rel_tol}
        return van_der_pol, van_der_pol_fd, y0, r_max, tolerances
    prob = NgfErkProblem().with_generated_data(0)
    problem = prob.flow_problem(FlowConfig(lam=20.0))
    theta = data.draw(arrays(float, 6, elements=st.floats(*prob.theta_box)))
    states = data.draw(arrays(float, 20, elements=st.floats(*prob.state_box)))
    rhs = partial(flow.rhs, problem)
    return (
        rhs,
        rhs,
        np.concatenate([theta, states]),
        1e4,
        {"rel_tol": 1e-4, "abs_tol": 1e-6},
    )


def counted_run(rhs, y0, r_max, budget, tolerances, rhs_fd=None):
    """integrate_adaptive's end ((r, y bits, outcome), or the raised error's
    type and message), its IntegratorStats, and the number of points its
    rhs and rhs_fd evaluated."""
    points = [0]

    def counted_rhs(y):
        points[0] += 1
        return rhs(y)

    def counted_fd(ys):
        points[0] += len(ys)
        return rhs_fd(ys)

    try:
        r, y, stats, outcome = integrate_adaptive(
            counted_rhs,
            y0,
            r_max,
            budget=budget,
            rhs_fd=None if rhs_fd is None else counted_fd,
            **tolerances,
        )
        end = (r, y.tobytes(), outcome)
    except Exception as exc:
        stats = exc.stats
        end = (type(exc), str(exc))
    return end, stats, points[0]


@pytest.mark.parametrize("name", ["ngf", "van_der_pol"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_merged_run_equals_plain_calls_within_the_budget_bound(name, data):
    # with each base point's value and FD points in one stack call, a run
    # has the bits, counters and outcome of plain rhs calls; only the
    # discarded rows differ, and they are every point not counted. On
    # BudgetExhausted the run ends at most n + 5 evaluations past the budget
    rhs, rhs_fd, y0, r_max, tolerances = draw_system(name, data)
    budget = data.draw(st.integers(1, 400), label="budget")
    end, stats, points = counted_run(rhs, y0, r_max, budget, tolerances, rhs_fd)
    plain_end, plain_stats, plain_points = counted_run(
        rhs, y0, r_max, budget, tolerances
    )
    assert end == plain_end
    assert dataclasses.replace(stats, discarded_evals=0) == plain_stats
    assert plain_stats.discarded_evals == 0
    assert plain_stats.rhs_evals == plain_points
    assert stats.rhs_evals + stats.discarded_evals == points
    if end[-1] is IntegrationOutcome.BUDGET_EXHAUSTED:
        assert budget <= stats.rhs_evals <= budget + y0.size + 5
