"""Benchmark problem tests: steady states, data generation, reduced objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssflow import numerics
from ssflow.core import ModelSpec, validate_model
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    conversion_reaction_model,
    generate_data,
    ngf_erk_model,
    reduced_objective_cr,
    reduced_objective_ngf,
)
from ssflow.sensitivity import sensitivity_exact

NO_U = np.zeros(0)


def reduced_objective_ngf_per_dose(theta, problem, causes):
    """Reference: one steady state and one ``sensitivity_exact`` call per
    dose; ``causes`` counts how each evaluation ended."""
    model = ngf_erk_model()
    theta = np.asarray(theta, dtype=float)
    value = 0.0
    grad = np.zeros(6)
    with np.errstate(all="ignore"):
        for u_scalar, d in zip(problem.inputs, np.asarray(problem.data, dtype=float)):
            u = np.array([u_scalar])
            x_s = model.analytic_steady_state(theta, u)
            if not np.all(np.isfinite(x_s)):
                causes["state"] += 1
                return float("inf"), np.zeros(6)
            try:
                s = sensitivity_exact(model, theta, x_s, u)
            except (numerics.SingularMatrixError, numerics.NumericalFailure):
                causes["singular"] += 1
                return float("inf"), np.zeros(6)
            res = x_s[1] - d
            value += 0.5 * res**2
            grad += res * s[1]
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        causes["overflow"] += 1
        return float("inf"), np.zeros(6)
    causes["finite"] += 1
    return value, grad


class TestConversionReactionModel:
    def test_steady_state_at_prior_mean(self):
        model = conversion_reaction_model()
        x_s = model.analytic_steady_state(np.array([3.9, 1.5]), NO_U)
        assert abs(x_s[0] - 1.5 / 5.4) < 1e-14

    def test_no_forward_reaction(self):
        model = conversion_reaction_model(xi=1.0)
        x_s = model.analytic_steady_state(np.array([0.0, 2.0]), NO_U)
        assert x_s[0] == 1.0

    def test_equal_rates_half_conversion(self):
        model = conversion_reaction_model(xi=1.0)
        x_s = model.analytic_steady_state(np.array([1.7, 1.7]), NO_U)
        assert abs(x_s[0] - 0.5) < 1e-14

    def test_batch_matches_scalar(self):
        model = conversion_reaction_model()
        theta = np.array([2.5, 0.7])
        x_mat = np.array([[0.1], [0.6], [0.9]])
        u_mat = np.zeros((3, 0))
        f_b = model.f_batch(theta, x_mat, u_mat)
        jx_b = model.jac_x_batch(theta, x_mat, u_mat)
        jt_b = model.jac_theta_batch(theta, x_mat, u_mat)
        for i in range(3):
            assert np.allclose(f_b[i], model.f(theta, x_mat[i], NO_U))
            assert np.allclose(jx_b[i], model.jac_x(theta, x_mat[i], NO_U))
            assert np.allclose(jt_b[i], model.jac_theta(theta, x_mat[i], NO_U))

    def test_invalid_xi_rejected(self):
        with pytest.raises(ValueError):
            ConversionReactionProblem(xi=0.0)


class TestNgfErkModel:
    def test_steady_state_at_origin(self):
        model = ngf_erk_model()
        x_s = model.analytic_steady_state(np.zeros(6), np.array([1.0]))
        assert np.abs(x_s - np.array([0.5, 0.6])).max() < 1e-14

    def test_zero_dose_first_state_vanishes(self):
        model = ngf_erk_model()
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = rng.uniform(-3.0, 1.0, 6)
            x_s = model.analytic_steady_state(theta, np.array([0.0]))
            assert x_s[0] == 0.0

    def test_jac_x_lower_left_entry(self):
        model = ngf_erk_model()
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = rng.uniform(-2.0, 1.0, 6)
            x = rng.uniform(0.0, 3.0, 2)
            jx = model.jac_x(theta, x, np.array([1.0]))
            assert abs(jx[1, 0] - (10.0 ** theta[5] - x[1])) < 1e-12

    def test_batch_matches_scalar(self):
        model = ngf_erk_model()
        theta = np.array([-0.5, 0.2, -1.0, 0.3, -0.1, 0.4])
        x_mat = np.array([[0.1, 0.5], [1.2, 0.3], [2.0, 2.5]])
        u_mat = np.array([[0.0], [1.0], [50.0]])
        f_b = model.f_batch(theta, x_mat, u_mat)
        jx_b = model.jac_x_batch(theta, x_mat, u_mat)
        jt_b = model.jac_theta_batch(theta, x_mat, u_mat)
        for i in range(3):
            assert np.allclose(f_b[i], model.f(theta, x_mat[i], u_mat[i]))
            assert np.allclose(jx_b[i], model.jac_x(theta, x_mat[i], u_mat[i]))
            assert np.allclose(jt_b[i], model.jac_theta(theta, x_mat[i], u_mat[i]))

    def test_state_jacobian_stable_on_manifold(self):
        # both triangular Jacobians have strictly negative diagonals at any
        # analytic steady state, the stability premise of the method
        model = ngf_erk_model()
        cr = conversion_reaction_model()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            theta = rng.uniform(-3.0, 1.0, 6)
            u = rng.uniform(0.0, 100.0, 1)
            x_s = model.analytic_steady_state(theta, u)
            assert np.all(np.diag(model.jac_x(theta, x_s, u)) < 0.0)
            theta_cr = rng.uniform(0.1, 8.0, 2)
            x_cr = cr.analytic_steady_state(theta_cr, NO_U)
            assert cr.jac_x(theta_cr, x_cr, NO_U)[0, 0] < 0.0

    @pytest.mark.parametrize("make_model", [conversion_reaction_model, ngf_erk_model])
    def test_validate_model_passes(self, make_model):
        assert validate_model(make_model(), n_samples=100, seed=0).ok(1e-6)

    def test_long_run_simulation_reaches_steady_state(self):
        # integrating dx/dt = f itself must reproduce the analytic map
        from ssflow.integrator import integrate_adaptive

        model = ngf_erk_model()
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0, 6)
            u = rng.uniform(0.1, 10.0, 1)
            x0 = rng.uniform(0.0, 3.0, 2)
            _, x_end, _, _ = integrate_adaptive(
                lambda x: model.f(theta, x, u),
                x0,
                1e4,
                rel_tol=1e-9,
                abs_tol=1e-12,
                stop=lambda x, dx: np.abs(dx).max() < 1e-10,
            )
            x_s = model.analytic_steady_state(theta, u)
            assert np.abs(x_end - x_s).max() < 1e-6


def stacked_ngf_erk_model():
    """The NGF model with its per-condition kernels only: ModelSpec stacks
    them into the batched forms."""
    built_in = ngf_erk_model()
    return ModelSpec(
        n_x=2,
        n_theta=6,
        n_u=1,
        f=built_in.f,
        jac_x=built_in.jac_x,
        jac_theta=built_in.jac_theta,
        name="stacked_ngf_erk",
    )


@pytest.mark.parametrize(
    "make_model", [conversion_reaction_model, ngf_erk_model, stacked_ngf_erk_model]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_kernels_are_row_separable(make_model, data):
    # the ModelSpec contract the flow's shared FD columns rely on: row i of
    # a stack, from each batched form and each output of the fused kernel,
    # has the bits of row i evaluated as a batch of one at its own theta,
    # whether theta is one vector or one per row; theta up to 400
    # overflows NGF's 10**theta and reaches inf and NaN entries
    model = make_model()
    m = data.draw(st.integers(1, 12), label="m")
    per_row = data.draw(st.booleans(), label="theta per row")
    value = st.floats(-400.0, 400.0)
    theta_shape = (m, model.n_theta) if per_row else model.n_theta
    theta = data.draw(arrays(float, theta_shape, elements=value), label="theta")
    x_mat = data.draw(arrays(float, (m, model.n_x), elements=value), label="x")
    u_mat = data.draw(
        arrays(float, (m, model.n_u), elements=st.floats(0.0, 100.0)), label="u"
    )
    thetas = theta if per_row else [theta] * m
    kernels = (
        model.f_batch,
        model.jac_x_batch,
        model.jac_theta_batch,
        lambda *args: model.f_jac_batch(*args)[0],
        lambda *args: model.f_jac_batch(*args)[1],
    )
    for kernel in kernels:
        with np.errstate(all="ignore"):
            stacked = np.asarray(kernel(theta, x_mat, u_mat))
            ones = [
                kernel(thetas[i], x_mat[i : i + 1], u_mat[i : i + 1]) for i in range(m)
            ]
        assert stacked.shape[0] == m
        for i, one in enumerate(ones):
            assert one.shape == (1,) + stacked.shape[1:]
            assert one[0].tobytes() == stacked[i].tobytes()


def reference_kernels(name):
    """The built-in model's f_batch, jac_x_batch and jac_theta_batch written
    as three separate kernels, each with its own rates: the reference the
    fused kernel must match bit for bit."""
    if name == "conversion_reaction":

        def rates(theta):
            theta = np.asarray(theta)
            return theta.T[..., None] if theta.ndim == 2 else theta

        def f_batch(theta, x_mat, u_mat):
            k = rates(theta)
            return k[1] * 1.0 - (k[0] + k[1]) * x_mat

        def jac_x_batch(theta, x_mat, u_mat):
            k = rates(theta)
            out = np.empty((x_mat.shape[0], 1, 1))
            out[:, 0] = -(k[0] + k[1])
            return out

        def jac_theta_batch(theta, x_mat, u_mat):
            out = np.empty((x_mat.shape[0], 1, 2))
            out[:, 0, 0] = -x_mat[:, 0]
            out[:, 0, 1] = 1.0 - x_mat[:, 0]
            return out

        return f_batch, jac_x_batch, jac_theta_batch

    ln10 = np.log(10.0)

    def f_batch(theta, x_mat, u_mat):
        p = np.power(10.0, theta).T
        u, x1, x2 = u_mat[:, 0], x_mat[:, 0], x_mat[:, 1]
        out = np.empty_like(x_mat)
        out[:, 0] = p[0] * u * (p[4] - x1) - p[1] * x1
        out[:, 1] = (x1 + p[2]) * (p[5] - x2) - p[3] * x2
        return out

    def jac_x_batch(theta, x_mat, u_mat):
        p = np.power(10.0, theta).T
        out = np.zeros((x_mat.shape[0], 2, 2))
        out[:, 0, 0] = -(p[0] * u_mat[:, 0] + p[1])
        out[:, 1, 0] = p[5] - x_mat[:, 1]
        out[:, 1, 1] = -(x_mat[:, 0] + p[2] + p[3])
        return out

    def jac_theta_batch(theta, x_mat, u_mat):
        p = np.power(10.0, theta).T
        u, x1, x2 = u_mat[:, 0], x_mat[:, 0], x_mat[:, 1]
        out = np.zeros((x_mat.shape[0], 2, 6))
        activation = ln10 * p[0] * u
        out[:, 0, 0] = activation * (p[4] - x1)
        out[:, 0, 1] = -ln10 * p[1] * x1
        out[:, 0, 4] = activation * p[4]
        out[:, 1, 2] = ln10 * p[2] * (p[5] - x2)
        out[:, 1, 3] = -ln10 * p[3] * x2
        out[:, 1, 5] = ln10 * p[5] * (x1 + p[2])
        return out

    return f_batch, jac_x_batch, jac_theta_batch


@pytest.mark.parametrize(
    "name, make_model",
    [("conversion_reaction", conversion_reaction_model), ("ngf_erk", ngf_erk_model)],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_kernel_equals_three_separate_kernels(name, make_model, data):
    # on a stack with one theta per row, f_jac_batch gives f and the two
    # Jacobian blocks with the bits of three separate kernels, and so do
    # the model's batched forms. Entries may be -0.0, and NGF's 10**theta
    # overflows above theta = 308 (inf and NaN entries)
    model = make_model()
    m = data.draw(st.integers(1, 12), label="m")
    value = st.floats(-400.0, 400.0) | st.sampled_from([-0.0, 0.0, 309.0, 400.0])
    theta = data.draw(arrays(float, (m, model.n_theta), elements=value), label="theta")
    x_mat = data.draw(arrays(float, (m, model.n_x), elements=value), label="x")
    u_mat = data.draw(
        arrays(float, (m, model.n_u), elements=st.floats(0.0, 100.0)), label="u"
    )
    with np.errstate(all="ignore"):
        want = [k(theta, x_mat, u_mat) for k in reference_kernels(name)]
        f_mat, jac = model.f_jac_batch(theta, x_mat, u_mat)
        batched = [
            k(theta, x_mat, u_mat)
            for k in (model.f_batch, model.jac_x_batch, model.jac_theta_batch)
        ]
    assert jac.shape == (m, model.n_x, model.n_x + model.n_theta)
    fused = [f_mat, jac[..., : model.n_x], jac[..., model.n_x :]]
    for got, other, ref in zip(fused, batched, want):
        assert got.shape == other.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert other.tobytes() == ref.tobytes()


def reference_fused_kernel(name):
    """The built-in model's fused kernel with every expression computed
    where it is used: f and the Jacobian share no sub-expression (the CR
    rate sum; NGF's p0 u, p4 - x1, p5 - x2 and x1 + p2). The model's kernel
    must match it bit for bit."""
    if name == "conversion_reaction":

        def rates(theta):
            theta = np.asarray(theta)
            return theta.T[..., None] if theta.ndim == 2 else theta

        def f_jac_batch(theta, x_mat, u_mat):
            k = rates(theta)
            x = x_mat[:, 0]
            jac = np.empty((x_mat.shape[0], 1, 3))
            jac[:, :, 0] = -(k[0] + k[1])
            jac[:, 0, 1] = -x
            jac[:, 0, 2] = 1.0 - x
            return k[1] * 1.0 - (k[0] + k[1]) * x_mat, jac

        return f_jac_batch

    ln10 = np.log(10.0)

    def vector_field(p, x_mat, u_mat):
        u, x1, x2 = u_mat[:, 0], x_mat[:, 0], x_mat[:, 1]
        out = np.empty_like(x_mat)
        out[:, 0] = p[0] * u * (p[4] - x1) - p[1] * x1
        out[:, 1] = (x1 + p[2]) * (p[5] - x2) - p[3] * x2
        return out

    def f_jac_batch(theta, x_mat, u_mat):
        p = np.power(10.0, theta).T
        u, x1, x2 = u_mat[:, 0], x_mat[:, 0], x_mat[:, 1]
        jac = np.zeros((x_mat.shape[0], 2, 8))
        jac[:, 0, 0] = -(p[0] * u + p[1])
        jac[:, 1, 0] = p[5] - x2
        jac[:, 1, 1] = -(x1 + p[2] + p[3])
        activation = ln10 * p[0] * u
        jac[:, 0, 2] = activation * (p[4] - x1)
        jac[:, 0, 3] = -ln10 * p[1] * x1
        jac[:, 0, 6] = activation * p[4]
        jac[:, 1, 4] = ln10 * p[2] * (p[5] - x2)
        jac[:, 1, 5] = -ln10 * p[3] * x2
        jac[:, 1, 7] = ln10 * p[5] * (x1 + p[2])
        return vector_field(p, x_mat, u_mat), jac

    return f_jac_batch


@pytest.mark.parametrize(
    "name, make_model",
    [("conversion_reaction", conversion_reaction_model), ("ngf_erk", ngf_erk_model)],
)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fused_kernel_keeps_the_bits_of_its_unshared_form(name, make_model, data):
    # computing the shared sub-expressions once moves no bit of f, of the
    # Jacobian or of f_batch, at one theta and at one theta per row; entries
    # may be -0.0, subnormal, huge or (NGF's 10**theta above 308) inf and NaN
    model = make_model()
    m = data.draw(st.integers(1, 12), label="m")
    per_row = data.draw(st.booleans(), label="theta per row")
    value = st.floats(-400.0, 400.0) | st.sampled_from(
        [-0.0, 0.0, 5e-324, -1e-310, 309.0, 1e300]
    )
    theta_shape = (m, model.n_theta) if per_row else (model.n_theta,)
    theta = data.draw(arrays(float, theta_shape, elements=value), label="theta")
    x_mat = data.draw(arrays(float, (m, model.n_x), elements=value), label="x")
    u_mat = data.draw(
        arrays(float, (m, model.n_u), elements=st.floats(0.0, 100.0)), label="u"
    )
    with np.errstate(all="ignore"):
        want_f, want_jac = reference_fused_kernel(name)(theta, x_mat, u_mat)
        f_mat, jac = model.f_jac_batch(theta, x_mat, u_mat)
        f_only = model.f_batch(theta, x_mat, u_mat)
    assert f_mat.shape == f_only.shape == want_f.shape
    assert jac.shape == want_jac.shape
    assert f_mat.tobytes() == want_f.tobytes()
    assert f_only.tobytes() == want_f.tobytes()
    assert jac.tobytes() == want_jac.tobytes()


class TestNgfErkProblem:
    def test_requires_ten_inputs(self):
        with pytest.raises(ValueError):
            NgfErkProblem(inputs=(0.0, 1.0))

    @pytest.mark.parametrize("noise_var", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_noise(self, noise_var):
        with pytest.raises(ValueError, match="noise variance"):
            NgfErkProblem(noise_var=noise_var)

    def test_rejects_infinite_noise(self):
        # infinite noise would make infinite data
        with pytest.raises(ValueError, match="noise variance"):
            NgfErkProblem(noise_var=float("inf"))

    def test_conditions_require_data(self):
        with pytest.raises(ValueError, match="data not set"):
            NgfErkProblem().conditions()

    def test_default_inputs(self):
        assert NgfErkProblem().inputs == (
            0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
        )


class TestGenerateData:
    def test_zero_noise_is_exact(self):
        prob = NgfErkProblem(noise_var=0.0)
        model = ngf_erk_model()
        data = generate_data(prob, seed=0)
        truth = [
            model.analytic_steady_state(np.zeros(6), np.array([u]))[1]
            for u in prob.inputs
        ]
        assert np.abs(np.asarray(data) - np.asarray(truth)).max() < 1e-15

    def test_same_seed_identical(self):
        prob = NgfErkProblem()
        a = generate_data(prob, seed=123)
        b = generate_data(prob, seed=123)
        assert np.array_equal(a, b)

    def test_noise_mean(self):
        # mean of (data - truth) over many regenerations: sd of the mean is
        # 0.1/sqrt(10*n); allow 3 sigma
        prob = NgfErkProblem()
        truth = np.asarray(generate_data(NgfErkProblem(noise_var=0.0), 0))
        n = 10_000
        total = 0.0
        for seed in range(n):
            total += float(np.sum(np.asarray(generate_data(prob, seed)) - truth))
        mean = total / (10 * n)
        assert abs(mean) < 3.0 * 0.1 / np.sqrt(10 * n)


class TestReducedObjectiveCr:
    def test_value_at_prior_mean(self):
        prob = ConversionReactionProblem()
        value, _ = reduced_objective_cr(np.array([3.9, 1.5]), prob)
        x_s = 1.5 / 5.4
        assert abs(value - 0.5 * 10.0 * (x_s - 0.2) ** 2) < 1e-14

    def test_consistent_data_optimum_at_prior_mean(self):
        theta_bar = np.array([3.9, 1.5])
        x_bar = 1.5 / 5.4
        prob = ConversionReactionProblem(x_bar=x_bar)
        value, grad = reduced_objective_cr(theta_bar, prob)
        assert abs(value) < 1e-14
        assert np.abs(grad).max() < 1e-14

    def test_non_negative(self):
        prob = ConversionReactionProblem()
        rng = np.random.default_rng(6)
        for _ in range(100):
            theta = rng.uniform(0.1, 8.0, 2)
            assert reduced_objective_cr(theta, prob)[0] >= 0.0

    def test_gradient_matches_finite_differences(self):
        prob = ConversionReactionProblem()
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(0.1, 8.0, 2)
            _, grad = reduced_objective_cr(theta, prob)
            fd = numerics.finite_diff_jacobian(
                lambda t: np.array([reduced_objective_cr(t, prob)[0]]), theta
            )[0]
            assert np.abs(grad - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())


class TestReducedObjectiveNgf:
    def test_zero_at_truth_with_zero_noise(self):
        prob = NgfErkProblem(noise_var=0.0).with_generated_data(0)
        value, grad = reduced_objective_ngf(np.zeros(6), prob)
        assert value < 1e-20
        assert np.abs(grad).max() < 1e-10

    def test_gradient_matches_finite_differences(self):
        prob = NgfErkProblem().with_generated_data(0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = rng.uniform(-3.0, 1.0, 6)
            _, grad = reduced_objective_ngf(theta, prob)
            fd = numerics.finite_diff_jacobian(
                lambda t: np.array([reduced_objective_ngf(t, prob)[0]]), theta
            )[0]
            assert np.abs(grad - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())

    def test_non_negative(self):
        prob = NgfErkProblem().with_generated_data(0)
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = rng.uniform(-3.0, 1.0, 6)
            assert reduced_objective_ngf(theta, prob)[0] >= 0.0

    def test_overflowing_theta_reports_inf(self):
        prob = NgfErkProblem().with_generated_data(0)
        value, grad = reduced_objective_ngf(np.full(6, 400.0), prob)
        assert value == float("inf")
        assert np.all(grad == 0.0)

    def test_bit_identical_to_per_dose_reference(self):
        # the sampling box, the wide box and the overflow box together
        # reach every way an evaluation ends
        prob = NgfErkProblem().with_generated_data(0)
        rng = np.random.default_rng(10)
        causes = dict.fromkeys(("finite", "state", "singular", "overflow"), 0)
        for half_width in (None, 20.0, 400.0):
            for _ in range(1000):
                if half_width is None:
                    theta = rng.uniform(-3.0, 1.0, 6)
                else:
                    theta = rng.uniform(-half_width, half_width, 6)
                value, grad = reduced_objective_ngf(theta, prob)
                ref_value, ref_grad = reduced_objective_ngf_per_dose(theta, prob, causes)
                assert value == ref_value
                assert np.array_equal(grad, ref_grad)
        assert min(causes.values()) > 0, causes


class TestObjectiveGradX:
    """Both built-in objectives return the state gradients as one (m, n_x)
    array, equal row by row to the per-condition gradients."""

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_conversion_reaction(self, as_list):
        prob = ConversionReactionProblem()
        states = np.array([[0.37]])
        theta = np.array([3.9, 1.5])
        got = prob.objective().grad_x(theta, list(states) if as_list else states)
        assert isinstance(got, np.ndarray) and got.shape == (1, 1)
        assert np.array_equal(got[0], np.array([prob.weight * (0.37 - prob.x_bar)]))

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_ngf_erk(self, as_list):
        prob = NgfErkProblem().with_generated_data(0)
        states = np.random.default_rng(10).uniform(0.0, 2.0, (10, 2))
        got = prob.objective().grad_x(np.zeros(6), list(states) if as_list else states)
        assert isinstance(got, np.ndarray) and got.shape == (10, 2)
        for i, (x, d) in enumerate(zip(states, prob.data)):
            assert np.array_equal(got[i], np.array([0.0, x[1] - d]))
