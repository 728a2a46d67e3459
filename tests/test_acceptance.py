"""Acceptance gate: the nine end-to-end behaviour criteria.

Each test prints one PASS/FAIL line. The conversion-reaction optimum is
established by an independent brute-force oracle (dense grid over the
reduced objective, refined by Newton) rather than by the flow itself.
"""

import time

import numpy as np
import pytest

from ssflow import numerics
from ssflow.bench import default_config, emit, read_runs_csv, run_bench
from ssflow.core import FlowConfig, FlowState
from ssflow.flow import manifold_residual, run_flow
from ssflow.integrator import integrate_adaptive
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    conversion_reaction_model,
    ngf_erk_model,
    reduced_objective,
)
from ssflow.sensitivity import manifold_gradient, sensitivity_exact, sensitivity_hat

NO_U = np.zeros(0)

BENCH_SEED = 0
BENCH_STARTS = 100
# the comparison harness runs the flow at a cruder integrator tolerance
# than the library default; final objectives agree to well below the 1e-3
# classification threshold and the whole 300-run benchmark fits the time
# budget on one core
BENCH_KWARGS = dict(
    n_starts=BENCH_STARTS,
    seed=BENCH_SEED,
    lambdas=(20.0,),
    integrator_rel_tol=1e-4,
    integrator_abs_tol=1e-6,
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cr_oracle():
    """Brute-force optimum of the reduced conversion-reaction objective:
    dense 200x200 grid over [0.1, 8]^2 refined by Newton iteration."""
    prob = ConversionReactionProblem()
    grid = np.linspace(0.1, 8.0, 200)
    best, theta = np.inf, None
    for a in grid:
        for b in grid:
            v = reduced_objective(np.array([a, b]), prob)[0]
            if v < best:
                best, theta = v, np.array([a, b])
    for _ in range(50):
        g = reduced_objective(theta, prob)[1]
        h = numerics.finite_diff_jacobian(
            lambda t: reduced_objective(t, prob)[1], theta
        )
        theta = theta - np.linalg.solve(h, g)
        if np.abs(g).max() < 1e-14:
            break
    x_star = prob.model().analytic_steady_state(theta, NO_U)
    return prob, theta, x_star


@pytest.fixture(scope="module")
def ngf_bench():
    config = default_config("ngf_erk", **BENCH_KWARGS)
    t0 = time.perf_counter()
    summary, records = run_bench(config)
    elapsed = time.perf_counter() - t0
    return config, summary, records, elapsed


def test_criterion_1_oracle_optimum_conversion_reaction(cr_oracle):
    prob, theta_star, _ = cr_oracle
    rng = np.random.default_rng(12345)
    starts = [
        (rng.uniform(0.1, 8.0, 2), rng.uniform(0.0, 1.0, 1)) for _ in range(50)
    ]
    fractions = {}
    for lam in (2.0, 20.0):
        problem = prob.flow_problem(FlowConfig(lam=lam))
        n_ok = 0
        for theta0, x0 in starts:
            result = run_flow(problem, FlowState(theta=theta0, states=[x0]))
            if (
                result.converged
                and np.linalg.norm(result.final.theta - theta_star) <= 1e-4
                and result.manifold_residual < 1e-6
            ):
                n_ok += 1
        fractions[lam] = n_ok / 50.0
    ok = all(f >= 0.95 for f in fractions.values())
    report(1, ok, f"fraction reaching the oracle optimum per lambda: {fractions}")


def test_criterion_2_local_exponential_stability(cr_oracle):
    prob, theta_star, x_star = cr_oracle
    problem = prob.flow_problem(FlowConfig(lam=20.0))
    z_star = np.concatenate([theta_star, x_star])
    rng = np.random.default_rng(99)
    n_ok = 0
    min_decades = np.inf
    for _ in range(20):
        delta = rng.standard_normal(3)
        delta *= 0.1 / np.linalg.norm(delta)
        init = FlowState(theta=theta_star + delta[:2], states=[x_star + delta[2:]])
        _, traj = run_flow(problem, init, store_trajectory=True)
        dist = np.array([np.linalg.norm(s.pack() - z_star) for s in traj])
        decades = np.log10(dist[0] / max(dist[-1], 1e-300))
        min_decades = min(min_decades, decades)
        # monotone tail once past the boundary layer (first drop below
        # half the initial distance)
        tail = dist[int(np.argmax(dist <= 0.5 * dist[0])):]
        monotone = bool(np.all(np.diff(tail) <= 1e-12 + 1e-6 * tail[:-1]))
        if decades >= 2.0 and monotone:
            n_ok += 1
    report(
        2,
        n_ok == 20,
        f"{n_ok}/20 perturbed runs decay >= 2 decades with a monotone tail "
        f"(min decades {min_decades:.2f})",
    )


def test_criterion_3_two_phase_dynamics():
    prob = ConversionReactionProblem()
    init = FlowState(theta=np.array([3.9, 1.5]), states=[np.array([0.9])])
    fractions = {}
    for lam in (2.0, 20.0):
        problem = prob.flow_problem(FlowConfig(lam=lam))
        assert manifold_residual(problem, init) > 0.5
        result, traj = run_flow(problem, init, store_trajectory=True)
        assert result.converged
        r_drop = next(s.r for s in traj if manifold_residual(problem, s) < 1e-3)
        fractions[lam] = r_drop / result.final.r
    ok = fractions[20.0] < 0.1 and fractions[2.0] > fractions[20.0]
    report(3, ok, f"residual-collapse fraction of total pseudo-time: {fractions}")


def test_criterion_4_tangent_flow_manifold_invariance():
    prob = ConversionReactionProblem()
    problem = prob.flow_problem(FlowConfig(lam=0.0, integrator_rel_tol=1e-6))
    theta0 = np.array([3.0, 2.0])
    x0 = problem.model.analytic_steady_state(theta0, NO_U)
    result, traj = run_flow(
        problem, FlowState(theta=theta0, states=[x0]), store_trajectory=True
    )
    worst = max(manifold_residual(problem, s) for s in traj)
    ok = result.converged and worst < 1e-4
    report(4, ok, f"max residual along the lambda=0 trajectory: {worst:.2e}")


def test_criterion_5_sensitivity_equivalences():
    specs = [
        (conversion_reaction_model(), 0, (0.1, 8.0)),
        (ngf_erk_model(), 1, (-3.0, 1.0)),
    ]
    rng = np.random.default_rng(2024)
    worst_hat = 0.0
    worst_fd = 0.0
    for model, n_u, box in specs:
        for _ in range(1000):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            u = rng.uniform(0.1, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            s = sensitivity_exact(model, theta, x_s, u)
            s_hat = sensitivity_hat(model, theta, x_s, u)
            worst_hat = max(
                worst_hat,
                np.abs(s - s_hat).max() / (1.0 + np.abs(s).max()),
            )
        for _ in range(100):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            u = rng.uniform(0.1, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            s = sensitivity_exact(model, theta, x_s, u)
            fd = numerics.finite_diff_jacobian(
                lambda t: model.analytic_steady_state(t, u), theta
            )
            worst_fd = max(
                worst_fd, np.abs(s - fd).max() / (1.0 + np.abs(fd).max())
            )

    worst_grad = 0.0
    cr = ConversionReactionProblem()
    for _ in range(100):
        theta = rng.uniform(0.1, 8.0, 2)
        model = cr.model()
        x_s = model.analytic_steady_state(theta, NO_U)
        grad = manifold_gradient(
            model, cr.objective(), theta, [x_s], cr.u_matrix
        )
        fd = numerics.finite_diff_jacobian(
            lambda t: np.array([reduced_objective(t, cr)[0]]), theta
        )[0]
        worst_grad = max(worst_grad, np.abs(grad - fd).max() / (1.0 + np.abs(fd).max()))
    ngf = NgfErkProblem().with_generated_data(BENCH_SEED)
    model = ngf.model()
    u_matrix = ngf.u_matrix
    objective = ngf.objective()
    for _ in range(100):
        theta = rng.uniform(-2.0, 1.0, 6)
        states = [model.analytic_steady_state(theta, u) for u in u_matrix]
        grad = manifold_gradient(model, objective, theta, states, u_matrix)
        fd = numerics.finite_diff_jacobian(
            lambda t: np.array([reduced_objective(t, ngf)[0]]), theta
        )[0]
        worst_grad = max(worst_grad, np.abs(grad - fd).max() / (1.0 + np.abs(fd).max()))

    ok = worst_hat < 1e-10 and worst_fd < 1e-6 and worst_grad < 1e-6
    report(
        5,
        ok,
        f"pseudoinverse-vs-exact {worst_hat:.2e}, steady-state-map FD "
        f"{worst_fd:.2e}, manifold-gradient FD {worst_grad:.2e}",
    )


@pytest.mark.slow
def test_criterion_6_ngf_multistart_comparison(ngf_bench):
    config, summary, records, elapsed = ngf_bench
    methods = summary["methods"]
    flow = methods["flow_lambda_20"]
    unconstrained = methods["unconstrained"]
    constrained = methods["constrained"]
    flow_tpcs = flow["time_per_converged_start"]
    constrained_tpcs = constrained["time_per_converged_start"]
    # a baseline with zero converged starts has infinite time per converged
    # start for the purposes of the ordinal comparison
    constrained_tpcs = np.inf if constrained_tpcs is None else constrained_tpcs
    checks = {
        "flow fraction >= 0.70": flow["fraction_converged"] >= 0.70,
        "flow > constrained fraction": flow["fraction_converged"]
        > constrained["fraction_converged"],
        "unconstrained >= flow fraction": unconstrained["fraction_converged"]
        >= flow["fraction_converged"],
        "flow time/converged < constrained's": flow_tpcs is not None
        and flow_tpcs < constrained_tpcs,
        "runtime <= 5 min": elapsed <= 300.0,
    }
    detail = (
        f"fractions flow {flow['fraction_converged']:.2f} / unconstrained "
        f"{unconstrained['fraction_converged']:.2f} / constrained "
        f"{constrained['fraction_converged']:.2f}; flow {flow_tpcs:.2f}s per "
        f"converged start vs constrained {constrained_tpcs}; {elapsed:.0f}s total"
    )
    report(6, all(checks.values()), detail + f"; failed: "
           f"{[k for k, v in checks.items() if not v] or 'none'}")


def test_criterion_7_lambda_robustness():
    prob = ConversionReactionProblem()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        theta0 = rng.uniform(0.1, 8.0, 2)
        x0 = rng.uniform(0.0, 1.0, 1)
        endpoints = []
        for lam in (2.0, 20.0, 200.0):
            result = run_flow(
                prob.flow_problem(FlowConfig(lam=lam)),
                FlowState(theta=theta0, states=[x0]),
            )
            assert result.converged
            endpoints.append(result.final.theta)
        for a in endpoints:
            for b in endpoints:
                worst = max(worst, float(np.linalg.norm(a - b)))
    report(7, worst < 1e-4, f"max pairwise endpoint distance {worst:.2e}")


def test_criterion_8_integrator_order_and_stiffness():
    errors = []
    tols = [1e-4, 1e-6, 1e-8]
    for rel_tol in tols:
        _, y, _, _ = integrate_adaptive(
            lambda z: -z,
            np.array([1.0]),
            1.0,
            rel_tol=rel_tol,
            abs_tol=rel_tol * 1e-2,
        )
        errors.append(abs(y[0] - np.exp(-1.0)))
    slope = float(np.polyfit(np.log10(tols), np.log10(errors), 1)[0])

    prob = ConversionReactionProblem()
    init = FlowState(theta=np.array([3.9, 1.5]), states=[np.array([0.9])])
    steps = {}
    for lam in (2.0, 200.0):
        result = run_flow(prob.flow_problem(FlowConfig(lam=lam)), init)
        assert result.converged
        steps[lam] = result.steps_accepted
    ratio = steps[200.0] / steps[2.0]
    ok = 0.7 <= slope <= 1.3 and ratio < 20.0
    report(8, ok, f"tolerance slope {slope:.2f}, step ratio lam 200/2 = {ratio:.2f}")


@pytest.mark.slow
def test_criterion_9_benchmark_determinism(ngf_bench, tmp_path):
    # wall times are physical measurements and necessarily differ between
    # repetitions; every other field must be byte-identical
    config, summary, records, _ = ngf_bench
    runs_a, _ = emit(summary, records, str(tmp_path / "a"))
    summary_b, records_b = run_bench(
        default_config("ngf_erk", **BENCH_KWARGS)
    )
    runs_b, _ = emit(summary_b, records_b, str(tmp_path / "b"))

    def strip_wall_time(path):
        lines = open(path).read().splitlines()
        header = lines[0].split(",")
        keep = [i for i, name in enumerate(header) if name != "wall_time"]
        return [",".join(np.array(l.split(","))[keep]) for l in lines]

    a = strip_wall_time(runs_a)
    b = strip_wall_time(runs_b)
    n_diff = sum(1 for x, y in zip(a, b) if x != y)
    ok = len(a) == len(b) and n_diff == 0
    report(9, ok, f"{len(a)} csv lines, {n_diff} differ after removing wall times")
