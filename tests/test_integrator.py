"""Adaptive stiff integrator tests: accuracy, order, stiffness, termination."""

import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from ssflow import integrator
from ssflow.integrator import (
    IntegrationOutcome,
    IntegratorStats,
    _fd_jacobian,
    integrate_adaptive,
    step,
)


def decay(r, y):
    return -y


def coupled(r, y):
    # a nonlinear, non-autonomous rhs with every entry coupled to its neighbour
    return -y**3 + np.roll(y, 1) * np.cos(r) - 0.5 * y


def reference_step(rhs, r, y, h, jac, f0, dfdr):
    """The step's stage arithmetic with scipy's lu_factor/lu_solve wrappers."""
    d = integrator._D
    lu_piv = lu_factor(np.eye(y.size) - (h * d) * jac, check_finite=False)
    hd_t = (h * d) * dfdr
    k1 = lu_solve(lu_piv, f0 + hd_t, check_finite=False)
    f1 = rhs(r + 0.5 * h, y + 0.5 * h * k1)
    k2 = lu_solve(lu_piv, f1 - k1, check_finite=False) + k1
    y_new = y + h * k2
    f_new = rhs(r + h, y_new)
    k3 = lu_solve(
        lu_piv,
        f_new - integrator._E32 * (k2 - f1) - 2.0 * (k1 - f0) + hd_t,
        check_finite=False,
    )
    return y_new, (h / 6.0) * (k1 - 2.0 * k2 + k3), f_new


def reference_fd_jacobian(rhs, r, y, f0):
    """Forward differences with a fresh copy of y per column."""
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        d = integrator._SQRT_EPS * (1.0 + abs(y[j]))
        yp = y.copy()
        yp[j] += d
        jac[:, j] = (rhs(r, yp) - f0) / d
    return jac


class TestStep:
    def test_zero_rhs_is_exact(self):
        y = np.array([1.0, -2.0])
        y_new, err, f_new = step(
            lambda r, z: np.zeros(2), 0.0, y, 0.5, np.zeros((2, 2))
        )
        assert np.array_equal(y_new, y)
        assert np.all(err == 0.0)
        assert np.all(f_new == 0.0)

    def test_tiny_step_error_below_abs_tol(self):
        y = np.array([1.0])
        _, err, _ = step(decay, 0.0, y, 1e-12, np.array([[-1.0]]))
        assert np.abs(err).max() < 1e-8

    def test_error_estimate_order_three(self):
        # the embedded companion is third order: halving h should shrink the
        # estimate by about 2^3 on a smooth nonlinear problem
        def rhs(r, y):
            return np.array([-y[0] ** 2])

        y = np.array([1.0])
        jac = np.array([[-2.0]])
        _, e1, _ = step(rhs, 0.0, y, 0.1, jac)
        _, e2, _ = step(rhs, 0.0, y, 0.05, jac)
        ratio = np.abs(e1).max() / np.abs(e2).max()
        assert 6.0 < ratio < 10.0

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            step(decay, 0.0, np.ones(1), 0.0, np.zeros((1, 1)))

    def test_singular_stage_system_raises(self):
        # W = I - h*d*J becomes exactly singular for J = I/(h*d)
        h = 0.5
        d = 1.0 / (2.0 + math.sqrt(2.0))
        jac = np.eye(1) / (h * d)
        with pytest.raises(integrator.StageSolveFailure):
            step(decay, 0.0, np.ones(1), h, jac)

    @pytest.mark.parametrize("n", [1, 3, 26])
    def test_bit_identical_to_lu_factor_reference(self, n):
        rng = np.random.default_rng(n)
        for trial in range(5):
            y = rng.uniform(-2.0, 2.0, n)
            # diagonally dominant with a negative diagonal: W is well
            # conditioned for every step size
            jac = rng.uniform(-0.5, 0.5, (n, n)) / n - np.diag(rng.uniform(1.0, 5.0, n))
            h = 10.0 ** rng.uniform(-3.0, 1.0)
            r = rng.uniform(0.0, 2.0)
            f0 = coupled(r, y)
            dfdr = rng.normal(size=n) if trial % 2 else np.zeros(n)
            got = step(coupled, r, y, h, jac, f0=f0, dfdr=dfdr)
            want = reference_step(coupled, r, y, h, jac, f0, dfdr)
            for a, b in zip(got, want):
                assert a.shape == b.shape == (n,)
                assert np.array_equal(a, b)

    def test_nan_in_jacobian_raises(self):
        jac = -np.eye(3)
        jac[1, 2] = np.nan
        with pytest.raises(integrator.StageSolveFailure, match="factorisation"):
            step(decay, 0.0, np.ones(3), 0.1, jac)


class TestFdJacobian:
    @pytest.mark.parametrize(
        "rhs", [coupled, lambda r, z: z], ids=["nonlinear", "returns_its_input"]
    )
    def test_bit_identical_to_copy_per_column_reference(self, rhs):
        rng = np.random.default_rng(7)
        y = rng.uniform(-3.0, 3.0, 26)
        f0 = rhs(0.3, y).copy()
        got = _fd_jacobian(rhs, 0.3, y, f0, IntegratorStats())
        assert np.array_equal(got, reference_fd_jacobian(rhs, 0.3, y, f0))

    def test_leaves_y_unchanged(self):
        y = np.array([1.5, -0.25, 1e8, 0.0])
        before = y.copy()
        _fd_jacobian(coupled, 0.0, y, coupled(0.0, y), IntegratorStats())
        assert np.array_equal(y, before)

    def test_counts_n_rhs_evals_and_one_jacobian(self):
        stats = IntegratorStats(rhs_evals=4, jacobian_evals=2)
        y = np.ones(5)
        _fd_jacobian(coupled, 0.0, y, coupled(0.0, y), stats)
        assert (stats.rhs_evals, stats.jacobian_evals) == (9, 3)


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
        # dy/dr = -1000 (y - cos r): explicit Euler needs h < 2/1000 for
        # stability, i.e. at least 5000 steps over r_max = 10; the implicit
        # scheme is accuracy-limited instead and needs far fewer
        def rhs(r, y):
            return np.array([-1000.0 * (y[0] - math.cos(r))])

        r, y, stats, outcome = integrate_adaptive(
            rhs,
            np.array([0.0]),
            10.0,
            rel_tol=1e-3,
            abs_tol=1e-6,
            autonomous=False,
        )
        assert outcome is IntegrationOutcome.HORIZON
        assert stats.steps_accepted < 1000
        # reference: the exact solution of the linear ODE
        a = 1000.0
        exact = (a**2 * math.cos(r) + a * math.sin(r)) / (a**2 + 1) - (
            a**2 / (a**2 + 1)
        ) * math.exp(-a * r)
        assert abs(y[0] - exact) < 1e-3

    def test_constant_solution(self):
        y0 = np.array([3.0, -1.0])
        r, y, stats, outcome = integrate_adaptive(
            lambda r, z: np.zeros(2), y0, 100.0
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
        r, y, stats, outcome = integrate_adaptive(
            decay, np.array([1.0]), 1e6, budget=20
        )
        assert outcome is IntegrationOutcome.BUDGET_EXHAUSTED
        assert stats.rhs_evals >= 20

    def test_determinism(self):
        def rhs(r, y):
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

        def rhs(r, y):
            calls.append(r)
            return -y

        with pytest.raises(ValueError, match="empty"):
            integrate_adaptive(rhs, np.zeros(0), 1.0)
        assert calls == []

    def test_non_finite_initial_rhs_raises(self):
        with pytest.raises(FloatingPointError):
            integrate_adaptive(
                lambda r, y: np.array([np.nan]), np.array([1.0]), 1.0
            )

    def test_counts_every_call_made_when_rhs_raises(self):
        # the k-th rhs call raises, wherever it falls: the initial point, the
        # Jacobian differencing, a stage, or the extrapolated state
        class Stop(Exception):
            pass

        for k in range(1, 40):
            calls = []
            accepted = []

            def rhs(r, y):
                calls.append(r)
                if len(calls) == k:
                    raise Stop
                return coupled(r, y)

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
            integrate_adaptive(lambda r, y: y * np.nan, np.array([1.0, 2.0]), 1.0)
        assert info.value.stats.rhs_evals == 1
        assert info.value.stats.steps_accepted == 0
