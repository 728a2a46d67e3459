"""Domain type tests: model validation, flow state packing, config checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssflow import numerics
from ssflow.bench import BenchConfig
from ssflow.core import (
    FlowConfig,
    FlowState,
    ModelSpec,
    RunResult,
    StopReason,
    validate_model,
)
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    conversion_reaction_model,
    ngf_erk_model,
)

NAN = float("nan")
INF = float("inf")


def linear_decay_model():
    return ModelSpec(
        n_x=2,
        n_theta=1,
        n_u=0,
        f=lambda theta, x, u: -x,
        jac_x=lambda theta, x, u: -np.eye(2),
        jac_theta=lambda theta, x, u: np.zeros((2, 1)),
        name="linear_decay",
    )


def rate_decay_model(**batched):
    """dx/dt = -theta_1 x with two states; batched forms as given."""
    return ModelSpec(
        n_x=2,
        n_theta=1,
        n_u=0,
        f=lambda theta, x, u: -theta[0] * x,
        jac_x=lambda theta, x, u: -theta[0] * np.eye(2),
        jac_theta=lambda theta, x, u: -x[:, None],
        name="rate_decay",
        **batched,
    )


def transposed_model():
    """The conversion reaction with its parameter Jacobian's columns swapped,
    written per condition."""
    base = conversion_reaction_model()
    return ModelSpec(
        n_x=1,
        n_theta=2,
        n_u=0,
        f=base.f,
        jac_x=base.jac_x,
        # wrong on purpose: the parameter Jacobian with swapped columns
        jac_theta=lambda theta, x, u: base.jac_theta(theta, x, u)[:, ::-1],
        name="wrong",
    )


def non_finite_model():
    return ModelSpec(
        n_x=1,
        n_theta=1,
        n_u=0,
        f=lambda theta, x, u: np.array([np.nan]),
        jac_x=lambda theta, x, u: np.zeros((1, 1)),
        jac_theta=lambda theta, x, u: np.zeros((1, 1)),
        name="bad",
    )


def per_condition_validation(model, n_samples, seed):
    """Reference: validate_model's finite-difference check as written
    against the per-condition kernels f, jac_x and jac_theta. Returns the
    two maxima and the failure entries."""
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
            fd_x = numerics.finite_diff_jacobian(lambda xx: model.f(theta, xx, u), x)
            fd_theta = numerics.finite_diff_jacobian(lambda tt: model.f(tt, x, u), theta)
        except numerics.NumericalFailure as exc:
            failures.append((k, theta, x, u, str(exc)))
            continue
        jx = np.asarray(model.jac_x(theta, x, u), dtype=float)
        jt = np.asarray(model.jac_theta(theta, x, u), dtype=float)
        err_x = np.abs(jx - fd_x) / (1.0 + np.abs(fd_x))
        err_theta = np.abs(jt - fd_theta) / (1.0 + np.abs(fd_theta))
        max_err_x = max(max_err_x, float(err_x.max()))
        max_err_theta = max(max_err_theta, float(err_theta.max()))
    return max_err_x, max_err_theta, failures


def same_failures(got, want):
    """Failure entries (k, theta, x, u, message) equal field by field, the
    point's arrays bit for bit."""
    return len(got) == len(want) and all(
        (a[0], a[-1]) == (b[0], b[-1])
        and all(np.array_equal(p, q) for p, q in zip(a[1:4], b[1:4]))
        for a, b in zip(got, want)
    )


class TestValidateModel:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "make",
        [
            conversion_reaction_model,
            ngf_erk_model,
            linear_decay_model,
            rate_decay_model,
            transposed_model,
            non_finite_model,
        ],
    )
    def test_matches_the_per_condition_check(self, make, seed):
        # the finite-difference check through f_batch and f_jac_batch on a
        # batch of one reproduces the per-condition check's maxima and its
        # non-finite and finite-difference failures exactly
        model = make()
        report = validate_model(model, n_samples=40, seed=seed)
        max_x, max_theta, failures = per_condition_validation(model, 40, seed)
        assert report.max_rel_err_jac_x == max_x
        assert report.max_rel_err_jac_theta == max_theta
        own = [f for f in report.failures if "with one theta per row" not in f[-1]]
        assert same_failures(own, failures)

    def test_conversion_reaction_jacobians(self):
        report = validate_model(conversion_reaction_model(), n_samples=100, seed=0)
        assert report.ok(1e-6)
        assert report.max_rel_err_jac_x < 1e-6
        assert report.max_rel_err_jac_theta < 1e-6

    def test_ngf_erk_jacobians(self):
        report = validate_model(ngf_erk_model(), n_samples=100, seed=0)
        assert report.ok(1e-6)

    def test_transposed_jacobian_flagged(self):
        report = validate_model(transposed_model(), n_samples=50, seed=1)
        assert report.max_rel_err_jac_theta > 1e-2

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        # a report over no sample would pass having checked nothing
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            validate_model(linear_decay_model(), n_samples=n_samples)

    def test_linear_model_exact(self):
        report = validate_model(linear_decay_model(), n_samples=20, seed=2)
        assert report.max_rel_err_jac_x < 1e-9
        assert report.max_rel_err_jac_theta < 1e-12

    def test_non_finite_model_recorded_as_failure(self):
        report = validate_model(non_finite_model(), n_samples=3, seed=0)
        assert len(report.failures) == 3
        assert not report.ok()

    def test_batched_kernels_with_one_theta_per_row(self):
        # the per-condition kernels stacked by ModelSpec pass; a batched
        # jac_x that reads theta[0] as a scalar gives every row the first
        # row's rate, which the fused kernel composed from it shows in its
        # jac_x block on every row but the first
        assert validate_model(rate_decay_model(), n_samples=20, seed=3).ok()

        def jac_x_batch(theta, x_mat, u_mat):
            return np.stack([-theta[0] * np.eye(2)] * len(x_mat))

        report = validate_model(
            rate_decay_model(jac_x_batch=jac_x_batch), n_samples=20, seed=3
        )
        assert report.max_rel_err_jac_x < 1e-6
        assert not report.ok()
        assert [failure[0] for failure in report.failures] == [1, 2, 3, 4]
        for failure in report.failures:
            assert failure[-1].startswith("f_jac_batch with one theta per row: row ")
            assert "differs from the batch of one in jac_x" in failure[-1]

    def test_batched_f_that_needs_one_theta_raises_with_one_theta_per_row(self):
        # a batched f that needs one theta passes on a batch of one and
        # raises on the stack, as does the fused kernel composed from it
        def f_batch(theta, x_mat, u_mat):
            return -np.asarray(theta).item() * x_mat

        report = validate_model(rate_decay_model(f_batch=f_batch), n_samples=20, seed=3)
        assert (report.max_rel_err_jac_x, report.max_rel_err_jac_theta) < (1e-6, 1e-6)
        assert not report.ok()
        assert len(report.failures) == 2
        for kernel, failure in zip(("f_batch", "f_jac_batch"), report.failures):
            assert failure[0] == [0, 1, 2, 3, 4]
            assert failure[-1].startswith(
                f"{kernel} with one theta per row raises ValueError"
            )

    def test_fused_kernel_with_one_theta_per_row(self):
        # a fused kernel given with the model is checked like f_batch: one
        # wrong in one entry of the parameter block fails the finite
        # differences, one whose f block is not f_batch's fails on every
        # row, and one without the parameter block fails its shape at every
        # sample
        def fused(theta, x_mat, u_mat):
            k = np.asarray(theta).reshape(-1, 1, 1)
            jac_x = np.broadcast_to(-k * np.eye(2), (len(x_mat), 2, 2))
            jac_theta = -x_mat[:, :, None]
            return -k[:, 0] * x_mat, np.concatenate([jac_x, jac_theta], axis=-1)

        def wrong_entry(theta, x_mat, u_mat):
            f_mat, jac = fused(theta, x_mat, u_mat)
            jac[:, 1, 2] += 1.0
            return f_mat, jac

        def no_parameter_block(theta, x_mat, u_mat):
            f_mat, jac = fused(theta, x_mat, u_mat)
            return f_mat, jac[..., :2]

        def doubled_f(theta, x_mat, u_mat):
            f_mat, jac = fused(theta, x_mat, u_mat)
            return 2.0 * f_mat, jac

        assert validate_model(rate_decay_model(f_jac_batch=fused), seed=3).ok()
        report = validate_model(rate_decay_model(f_jac_batch=wrong_entry), seed=3)
        assert report.max_rel_err_jac_x < 1e-6
        assert report.max_rel_err_jac_theta > 0.1
        assert not report.ok()
        # the fused f block is held to f_batch's
        report = validate_model(rate_decay_model(f_jac_batch=doubled_f), seed=3)
        assert [failure[0] for failure in report.failures] == [0, 1, 2, 3, 4]
        for failure in report.failures:
            assert failure[-1].startswith("f_jac_batch with one theta per row: row ")
            assert "differs from the batch of one in f by" in failure[-1]
        model = rate_decay_model(f_jac_batch=no_parameter_block)
        report = validate_model(model, n_samples=10, seed=3)
        assert [failure[0] for failure in report.failures] == list(range(10))
        assert {failure[-1] for failure in report.failures} == {
            "f_jac_batch on a batch of one returns shapes [(1, 2), (1, 2, 2)], "
            "not [(1, 2), (1, 2, 3)]"
        }
        assert not report.ok()


class TestModelSpecBatchedForms:
    def test_missing_batched_forms_stack_the_per_condition_calls(self):
        model = linear_decay_model()
        x_mat = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
        u_mat = np.zeros((3, 0))
        theta = np.array([0.7])
        assert np.array_equal(model.f_batch(theta, x_mat, u_mat), -x_mat)
        assert np.array_equal(
            model.jac_x_batch(theta, x_mat, u_mat), np.stack([-np.eye(2)] * 3)
        )
        assert model.jac_theta_batch(theta, x_mat, u_mat).shape == (3, 2, 1)

    def test_given_batched_form_is_kept(self):
        def f_batch(theta, x_mat, u_mat):
            return -x_mat

        model = dataclasses.replace(linear_decay_model(), f_batch=f_batch)
        assert model.f_batch is f_batch

    def test_fused_kernel_is_composed_from_the_batched_forms(self):
        # left out, the fused kernel is f_batch with jac_x_batch and
        # jac_theta_batch joined into one Jacobian
        model = rate_decay_model()
        theta = np.array([[0.5], [2.0]])
        x_mat = np.array([[1.0, -2.0], [3.0, 0.25]])
        u_mat = np.zeros((2, 0))
        f_mat, jac = model.f_jac_batch(theta, x_mat, u_mat)
        assert np.array_equal(f_mat, model.f_batch(theta, x_mat, u_mat))
        assert np.array_equal(jac[..., :2], model.jac_x_batch(theta, x_mat, u_mat))
        assert np.array_equal(jac[..., 2:], model.jac_theta_batch(theta, x_mat, u_mat))

    @pytest.mark.parametrize("make", [conversion_reaction_model, ngf_erk_model])
    @pytest.mark.parametrize("name", ["f_batch", "jac_x_batch", "jac_theta_batch", "f"])
    def test_replaced_kernel_reaches_the_fused_kernel(self, make, name):
        # swapping a batched form (or the per-condition form it stacks) by
        # dataclasses.replace composes the fused kernel again from the new
        # forms; a copy that swaps nothing keeps the built-in fused kernel
        model = make()
        assert dataclasses.replace(model).f_jac_batch is model.f_jac_batch
        rng = np.random.default_rng(2)
        theta = rng.uniform(-1.0, 1.0, model.n_theta)
        x_mat = rng.uniform(0.0, 1.0, (3, model.n_x))
        u_mat = rng.uniform(0.0, 2.0, (3, model.n_u))
        if name == "f":
            replaced = dataclasses.replace(
                model, f=lambda theta, x, u: 2.0 * model.f(theta, x, u), f_batch=None
            )
        else:
            kernel = getattr(model, name)
            replaced = dataclasses.replace(
                model, **{name: lambda *args: 2.0 * kernel(*args)}
            )
        f_mat, jac = replaced.f_jac_batch(theta, x_mat, u_mat)
        want_f, want_jac = model.f_jac_batch(theta, x_mat, u_mat)
        n_x = model.n_x
        doubled = {
            "f": name in ("f", "f_batch"),
            "jac_x": name == "jac_x_batch",
            "jac_theta": name == "jac_theta_batch",
        }
        blocks = {
            "f": (f_mat, want_f),
            "jac_x": (jac[..., :n_x], want_jac[..., :n_x]),
            "jac_theta": (jac[..., n_x:], want_jac[..., n_x:]),
        }
        for block, (got, want) in blocks.items():
            assert np.array_equal(got, 2.0 * want if doubled[block] else want), block

    def test_given_fused_kernel_is_called_until_a_batched_form_is_replaced(self):
        # a fused kernel given on its own is held with the model's batched
        # forms: a copy keeps calling it, and a copy that swaps one of them
        # composes the fused kernel from the new forms
        calls = []

        def fused(theta, x_mat, u_mat):
            calls.append(len(x_mat))
            return -x_mat, np.zeros((len(x_mat), 2, 3))

        model = rate_decay_model(f_jac_batch=fused)
        x_mat = np.ones((4, 2))
        f_mat, jac = model.f_jac_batch(np.array([1.0]), x_mat, np.zeros((4, 0)))
        assert calls == [4] and jac.shape == (4, 2, 3)
        copy = dataclasses.replace(model, name="copy")
        copy.f_jac_batch(np.array([1.0]), x_mat, np.zeros((4, 0)))
        assert calls == [4, 4]
        replaced = dataclasses.replace(
            model, f_batch=lambda theta, x_mat, u_mat: 3.0 * x_mat
        )
        f_mat, _ = replaced.f_jac_batch(np.array([1.0]), x_mat, np.zeros((4, 0)))
        assert calls == [4, 4]
        assert np.array_equal(f_mat, 3.0 * x_mat)

    def test_replaced_per_condition_form_restacks(self):
        model = dataclasses.replace(linear_decay_model(), f=lambda theta, x, u: 2.0 * x)
        x_mat = np.array([[1.0, 2.0]])
        assert np.array_equal(model.f_batch(np.zeros(1), x_mat, np.zeros((1, 0))), 2.0 * x_mat)


class TestAnalyticSteadyStates:
    @pytest.mark.parametrize(
        "model,n_u", [(conversion_reaction_model(), 0), (ngf_erk_model(), 1)]
    )
    def test_steady_state_zeroes_vector_field(self, model, n_u):
        rng = np.random.default_rng(11)
        for _ in range(200):
            theta = rng.uniform(-1.0, 1.0, model.n_theta)
            u = rng.uniform(0.0, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            assert np.abs(model.f(theta, x_s, u)).max() < 1e-12


class TestFlowState:
    def test_pack_unpack_round_trip(self):
        state = FlowState(
            theta=np.array([1.0, 2.0]),
            states=[np.array([0.1]), np.array([0.2])],
            r=3.5,
        )
        vec = state.pack()
        back = FlowState.unpack(vec, n_theta=2, n_x=1, m=2, r=3.5)
        assert np.array_equal(back.theta, state.theta)
        assert all(np.array_equal(a, b) for a, b in zip(back.states, state.states))
        assert back.r == 3.5

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pack_unpack_round_trip_keeps_every_bit(self, data):
        # any floats, NaN, +-inf and -0.0 included, come back bit for bit,
        # and the unpacked state does not share memory with the vector
        n_theta = data.draw(st.integers(1, 6), label="n_theta")
        m = data.draw(st.integers(1, 10), label="m")
        n_x = data.draw(st.integers(1, 3), label="n_x")
        theta = data.draw(arrays(float, n_theta), label="theta")
        states = data.draw(arrays(float, (m, n_x)), label="states")
        r = data.draw(st.floats(), label="r")
        vec = FlowState(theta=theta, states=states, r=r).pack()
        assert vec.shape == (n_theta + m * n_x,)
        back = FlowState.unpack(vec, n_theta, n_x, m, r=r)
        assert back.theta.shape == theta.shape
        assert back.states.shape == states.shape
        assert back.theta.tobytes() == theta.tobytes()
        assert back.states.tobytes() == states.tobytes()
        assert back.r is r
        assert not np.shares_memory(back.theta, vec)
        assert not np.shares_memory(back.states, vec)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FlowState.unpack(np.zeros(5), n_theta=2, n_x=1, m=2)

    def test_is_finite(self):
        good = FlowState(theta=np.zeros(1), states=[np.zeros(1)])
        bad = FlowState(theta=np.array([np.nan]), states=[np.zeros(1)])
        assert good.is_finite()
        assert not bad.is_finite()


class TestFlowConfig:
    def test_defaults(self):
        cfg = FlowConfig(lam=20.0)
        assert cfg.tol == 1e-6
        assert cfg.r_max == 1e4
        assert cfg.max_rhs_evals == 100_000
        assert cfg.integrator_rel_tol == 1e-2
        assert cfg.integrator_abs_tol == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"lam": 2.0, "tol": 0.0},
            {"lam": 2.0, "r_max": -1.0},
            {"lam": 2.0, "integrator_rel_tol": 0.0},
            {"lam": 2.0, "max_rhs_evals": 0},
            # NaN fails every check
            {"lam": NAN},
            {"lam": 2.0, "tol": NAN},
            {"lam": 2.0, "r_max": NAN},
            {"lam": 2.0, "integrator_rel_tol": NAN},
            {"lam": 2.0, "integrator_abs_tol": NAN},
            {"lam": 2.0, "max_rhs_evals": NAN},
            {"lam": 2.0, "max_rhs_evals": 2.5},
            {"lam": 2.0, "max_rhs_evals": True},
            # an integer too large for a float names its field
            {"lam": 10**400},
            {"lam": 2.0, "tol": 10**400},
            {"lam": 2.0, "r_max": 10**400},
            {"lam": 2.0, "integrator_rel_tol": 10**400},
            {"lam": 2.0, "integrator_abs_tol": 10**400},
            # so is infinity
            {"lam": INF},
            {"lam": 2.0, "tol": INF},
            {"lam": 2.0, "r_max": INF},
            {"lam": 2.0, "integrator_rel_tol": INF},
            {"lam": 2.0, "integrator_abs_tol": INF},
            # and so is anything but a number
            {"lam": True},
            {"lam": 2.0, "r_max": "1e4"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)

    def test_numbers_become_floats(self):
        cfg = FlowConfig(lam=20, tol=1, r_max=10**4, integrator_abs_tol=1)
        assert [type(v) for v in (cfg.lam, cfg.tol, cfg.r_max)] == [float] * 3
        with pytest.raises(ValueError, match="^integrator_abs_tol is too large"):
            FlowConfig(lam=2.0, integrator_abs_tol=10**400)

    def test_lambda_zero_allowed(self):
        assert FlowConfig(lam=0.0).lam == 0.0


class TestRunResult:
    def test_converged_requires_tolerance_met(self):
        state = FlowState(theta=np.zeros(1), states=[np.zeros(1)])
        with pytest.raises(ValueError):
            RunResult(
                final=state,
                objective=0.0,
                manifold_residual=0.0,
                converged=True,
                reason=StopReason.HORIZON_REACHED,
                rhs_evals=0,
                steps_accepted=0,
                steps_rejected=0,
                wall_time=0.0,
            )


def flow_config(**fields):
    return FlowConfig(**{"lam": 2.0, **fields})


def bench_config(**fields):
    return BenchConfig(**{"problem": "ngf_erk", **fields})


def validation(**fields):
    return validate_model(linear_decay_model(), **fields)


def model_spec(**fields):
    return dataclasses.replace(conversion_reaction_model(), **fields)


# every number field of the config types and ModelSpec's dimensions, and
# validate_model's n_samples and seed, as (build, field, entries):
# build(**{field: value}) makes the object, and entries is how many numbers
# a tuple field is given, None for one number
REAL_FIELDS = [
    (flow_config, "lam", None),
    (flow_config, "tol", None),
    (flow_config, "r_max", None),
    (flow_config, "integrator_rel_tol", None),
    (flow_config, "integrator_abs_tol", None),
    (bench_config, "lambdas", 1),
    (bench_config, "theta_box", 2),
    (bench_config, "state_box", 2),
    (bench_config, "tol", None),
    (bench_config, "r_max", None),
    (bench_config, "integrator_rel_tol", None),
    (bench_config, "integrator_abs_tol", None),
    (bench_config, "noise_var", None),
    (bench_config, "theta_true", 6),
    (bench_config, "classification_tol", None),
    (ConversionReactionProblem, "xi", None),
    (ConversionReactionProblem, "x_bar", None),
    (ConversionReactionProblem, "weight", None),
    (ConversionReactionProblem, "theta_bar", 2),
    (NgfErkProblem, "inputs", 10),
    (NgfErkProblem, "data", 10),
    (NgfErkProblem, "noise_var", None),
    (NgfErkProblem, "theta_true", 6),
]
INTEGER_FIELDS = [
    (flow_config, "max_rhs_evals", None),
    (bench_config, "n_starts", None),
    (bench_config, "seed", None),
    (bench_config, "max_rhs_evals", None),
    (NgfErkProblem, "data_seed", None),
    (validation, "n_samples", None),
    (validation, "seed", None),
    (model_spec, "n_x", None),
    (model_spec, "n_theta", None),
    (model_spec, "n_u", None),
]
# an integer too large for a float is a real number's failure; an integer
# field refuses a float even when it holds an integer
NOT_A_REAL = {"True": True, "'1'": "1", "nan": NAN, "inf": INF, "-inf": -INF, "huge": 10**400}
NOT_AN_INTEGER = {**NOT_A_REAL, "huge": 1.0}


def field_value(value, entries):
    """The field value: the number itself, or a tuple of entries of it."""
    return value if entries is None else (value,) * entries


def field_id(case):
    build, field, _ = case
    return f"{build.__name__}-{field}"


class TestOneNumberRule:
    """Every number a config or problem takes is a real number that is not
    a bool (stored as a finite float) or an integer that is not a bool;
    anything else raises ValueError naming the field."""

    @pytest.mark.parametrize(
        "case, value",
        [
            pytest.param(case, value, id=f"{field_id(case)}-{label}")
            for cases, values in ((REAL_FIELDS, NOT_A_REAL), (INTEGER_FIELDS, NOT_AN_INTEGER))
            for case in cases
            for label, value in values.items()
        ],
    )
    def test_anything_else_names_its_field(self, case, value):
        build, field, entries = case
        with pytest.raises(ValueError, match=f"^{field} (must|is too large)"):
            build(**{field: field_value(value, entries)})

    @pytest.mark.parametrize(
        "case", [case for case in REAL_FIELDS if case[2] is not None], ids=field_id
    )
    def test_a_tuple_field_takes_only_its_count_of_numbers(self, case):
        build, field, entries = case
        count = "" if field == "lambdas" else f"{entries} "
        with pytest.raises(ValueError, match=f"^{field} must hold {count}numbers, got 2.0$"):
            build(**{field: 2.0})
        if field != "lambdas":
            too_many = (2.0,) * (entries + 1)
            with pytest.raises(ValueError, match=f"^{field} must hold {entries} numbers"):
                build(**{field: too_many})

    @pytest.mark.parametrize("case", REAL_FIELDS, ids=field_id)
    def test_a_real_number_is_stored_as_its_float(self, case):
        build, field, entries = case
        for value in (2, np.int64(2), np.float64(2.0), np.float32(2.0)):
            stored = getattr(build(**{field: field_value(value, entries)}), field)
            assert stored == field_value(2.0, entries)
            assert type(stored) is (float if entries is None else tuple)
            assert all(type(v) is float for v in ((stored,) if entries is None else stored))

    # validate_model keeps no n_samples or seed to read back
    @pytest.mark.parametrize(
        "case", [case for case in INTEGER_FIELDS if case[0] is not validation], ids=field_id
    )
    def test_an_integer_is_stored_as_its_int(self, case):
        build, field, _ = case
        stored = getattr(build(**{field: np.int64(3)}), field)
        assert stored == 3 and type(stored) is int

    @pytest.mark.parametrize(
        "build, field, value, message",
        [
            (model_spec, "n_x", 1.5, "must be an integer"),
            (model_spec, "n_x", True, "must be an integer"),
            (model_spec, "n_u", "0", "must be an integer"),
            (model_spec, "n_x", 0, "must be >= 1"),
            (model_spec, "n_theta", 0, "must be >= 1"),
            (model_spec, "n_u", -1, "must be >= 0"),
            (validation, "seed", True, "must be an integer"),
            (validation, "seed", -1, "must be >= 0"),
        ],
    )
    def test_dimensions_and_seed_name_their_field(self, build, field, value, message):
        # a float, a bool or a string dimension was stored or failed in a
        # comparison naming no field; a negative seed failed in numpy
        with pytest.raises(ValueError, match=f"^{field} {message}, got {value!r}$"):
            build(**{field: value})
