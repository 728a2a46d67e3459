"""Reference optimiser tests: BFGS line-search solver and augmented Lagrangian."""

import numpy as np

from ssflow.baselines import (
    augmented_lagrangian_constrained,
    quasi_newton_unconstrained,
)
from ssflow.core import FlowConfig, FlowState, StopReason
from ssflow.flow import run_flow
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    reduced_objective_cr,
)

NO_U = np.zeros(0)


class TestQuasiNewtonUnconstrained:
    def test_quadratic_exact(self):
        a = np.array([1.0, -2.0, 3.0])

        def fg(x):
            return 0.5 * float((x - a) @ (x - a)), x - a

        result = quasi_newton_unconstrained(fg, np.array([5.0, 5.0, 5.0]))
        assert result.reason is StopReason.TOLERANCE_MET
        assert np.abs(result.theta - a).max() < 1e-8
        assert result.iterations <= a.size + 2

    def test_rosenbrock(self):
        def fg(x):
            v = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
            g = np.array(
                [
                    -2.0 * (1.0 - x[0])
                    - 400.0 * x[0] * (x[1] - x[0] ** 2),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )
            return v, g

        result = quasi_newton_unconstrained(fg, np.array([-1.2, 1.0]))
        assert result.reason is StopReason.TOLERANCE_MET
        assert np.abs(result.theta - 1.0).max() < 1e-6

    def test_reduced_conversion_reaction_matches_flow(self):
        prob = ConversionReactionProblem()
        result = quasi_newton_unconstrained(
            lambda t: reduced_objective_cr(t, prob), np.array([1.0, 1.0])
        )
        assert result.reason is StopReason.TOLERANCE_MET
        flow_problem = prob.flow_problem(FlowConfig(lam=20.0))
        theta0 = np.array([1.0, 1.0])
        x0 = flow_problem.model.analytic_steady_state(theta0, NO_U)
        flow_result = run_flow(flow_problem, FlowState(theta=theta0, states=[x0]))
        assert flow_result.converged
        assert np.linalg.norm(result.theta - flow_result.final.theta) < 1e-4

    def test_gradient_convergence_flag(self):
        result = quasi_newton_unconstrained(
            lambda x: (float(x @ x), 2.0 * x), np.array([1.0]), max_iter=0
        )
        assert result.reason is StopReason.ITERATION_LIMIT
        assert result.iterations == 0

    def test_non_finite_gradient_is_a_numerical_failure(self):
        result = quasi_newton_unconstrained(
            lambda x: (float(x @ x), np.full_like(x, np.nan)), np.array([1.0])
        )
        assert result.reason is StopReason.NUMERICAL_FAILURE
        assert result.iterations == 0

    def test_wrong_sign_gradient_is_a_line_search_failure(self):
        # the reported gradient has the wrong sign: every step along -g climbs
        result = quasi_newton_unconstrained(
            lambda x: (0.5 * float(x @ x), -x), np.array([5.0, -3.0])
        )
        assert result.reason is StopReason.LINE_SEARCH_FAILURE
        assert result.iterations == 0

    def test_reports_zero_violation(self):
        result = quasi_newton_unconstrained(
            lambda x: (float(x @ x), 2.0 * x), np.array([0.5])
        )
        assert result.constraint_violation == 0.0


class TestAugmentedLagrangianConstrained:
    def test_conversion_reaction_near_optimum(self):
        prob = ConversionReactionProblem()
        oracle = quasi_newton_unconstrained(
            lambda t: reduced_objective_cr(t, prob), np.array([3.9, 1.5])
        )
        theta0 = np.array([3.5, 1.7])
        x0 = prob.model().analytic_steady_state(theta0, NO_U)
        result = augmented_lagrangian_constrained(
            prob, FlowState(theta=theta0, states=[x0])
        )
        assert result.reason is StopReason.TOLERANCE_MET
        assert result.constraint_violation < 1e-6
        assert np.linalg.norm(result.theta - oracle.theta) < 1e-3

    def test_optimal_feasible_init_stays_put(self):
        # starting the multipliers at zero, the first inner pass drifts to a
        # penalty-biased point with violation ~ mu*/rho, so certification
        # needs a few outer multiplier updates; the iterate must stay at the
        # optimum throughout
        prob = ConversionReactionProblem()
        oracle = quasi_newton_unconstrained(
            lambda t: reduced_objective_cr(t, prob), np.array([3.9, 1.5])
        )
        x_star = prob.model().analytic_steady_state(oracle.theta, NO_U)
        result = augmented_lagrangian_constrained(
            prob, FlowState(theta=oracle.theta, states=[x_star])
        )
        assert result.reason is StopReason.TOLERANCE_MET
        assert result.outer_iterations <= 5
        assert np.linalg.norm(result.theta - oracle.theta) < 1e-3

    def test_converged_results_are_feasible(self):
        prob = ConversionReactionProblem()
        rng = np.random.default_rng(31)
        for _ in range(5):
            theta0 = rng.uniform(0.5, 6.0, 2)
            x0 = rng.uniform(0.0, 1.0, 1)
            result = augmented_lagrangian_constrained(
                prob, FlowState(theta=theta0, states=[x0])
            )
            assert result.reason in (StopReason.TOLERANCE_MET, StopReason.OUTER_LIMIT)
            if result.reason is StopReason.TOLERANCE_MET:
                assert result.constraint_violation < 1e-6

    def test_bad_init_reports_failure(self):
        # a sampled start on which the outer loop stalls without reaching
        # feasibility plus inner convergence; frozen from a bench run
        from ssflow.bench import default_config, sample_starts

        bundle = NgfErkProblem().with_generated_data(0)
        config = default_config("ngf_erk", n_starts=3, seed=0)
        start = sample_starts(config, bundle)[2]
        result = augmented_lagrangian_constrained(bundle, start)
        assert result.reason is StopReason.OUTER_LIMIT
        assert result.outer_iterations == 20
