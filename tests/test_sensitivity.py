"""Steady-state sensitivity tests: exact solve, pseudoinverse form, chain rule."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflow import numerics
from ssflow.core import ModelSpec, ObjectiveSpec
from ssflow.models import (
    ConversionReactionProblem,
    NgfErkProblem,
    conversion_reaction_model,
    ngf_erk_model,
    reduced_objective,
)
from ssflow.sensitivity import (
    manifold_gradient,
    pinv_sensitivity,
    sensitivity_exact,
    sensitivity_hat,
    total_gradient,
)

from replaced_forms import asarray_total_gradient, view_per_use_pinv_sensitivity

NO_U = np.zeros(0)


class TestSensitivityExact:
    def test_conversion_reaction_closed_form(self):
        model = conversion_reaction_model()
        theta = np.array([3.9, 1.5])
        x_s = model.analytic_steady_state(theta, NO_U)
        s = sensitivity_exact(model, theta, x_s, NO_U)
        # closed form: s1 = -x_s/(theta1+theta2), s2 = (xi-x_s)/(theta1+theta2)
        assert abs(s[0, 0] - (-0.05144)) < 1e-4
        assert abs(s[0, 1] - 0.13374) < 1e-4

    def test_zero_parameter_jacobian_gives_zero(self):
        model = ModelSpec(
            n_x=2,
            n_theta=3,
            n_u=0,
            f=lambda theta, x, u: -x,
            jac_x=lambda theta, x, u: -np.eye(2),
            jac_theta=lambda theta, x, u: np.zeros((2, 3)),
        )
        s = sensitivity_exact(model, np.zeros(3), np.zeros(2), NO_U)
        assert np.all(s == 0.0)

    def test_ngf_first_row_sparsity(self):
        # the first state equation does not involve parameters 3, 4, 6
        model = ngf_erk_model()
        theta = np.zeros(6)
        u = np.array([1.0])
        s = sensitivity_exact(model, theta, np.array([0.5, 0.6]), u)
        assert np.abs(s[0, [2, 3, 5]]).max() < 1e-14

    def test_singular_jacobian_raises(self):
        model = ModelSpec(
            n_x=2,
            n_theta=1,
            n_u=0,
            f=lambda theta, x, u: np.zeros(2),
            jac_x=lambda theta, x, u: np.ones((2, 2)),
            jac_theta=lambda theta, x, u: np.ones((2, 1)),
        )
        with pytest.raises(numerics.SingularMatrixError):
            sensitivity_exact(model, np.zeros(1), np.zeros(2), NO_U)

    @pytest.mark.parametrize(
        "make_model,n_u,box",
        [
            (conversion_reaction_model, 0, (0.1, 8.0)),
            (ngf_erk_model, 1, (-3.0, 1.0)),
        ],
    )
    def test_matches_finite_differences_of_steady_state_map(
        self, make_model, n_u, box
    ):
        model = make_model()
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            u = rng.uniform(0.1, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            s = sensitivity_exact(model, theta, x_s, u)
            fd = numerics.finite_diff_jacobian(
                lambda t: model.analytic_steady_state(t, u), theta
            )
            assert np.abs(s - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())


class TestSensitivityHat:
    @pytest.mark.parametrize(
        "make_model,n_u,box",
        [
            (conversion_reaction_model, 0, (0.1, 8.0)),
            (ngf_erk_model, 1, (-3.0, 1.0)),
        ],
    )
    def test_equals_exact_on_manifold(self, make_model, n_u, box):
        model = make_model()
        rng = np.random.default_rng(17)
        for _ in range(1000):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            u = rng.uniform(0.1, 2.0, n_u)
            x_s = model.analytic_steady_state(theta, u)
            s = sensitivity_exact(model, theta, x_s, u)
            s_hat = sensitivity_hat(model, theta, x_s, u)
            assert np.abs(s - s_hat).max() < 1e-10 * (1.0 + np.abs(s).max())

    def test_zero_parameter_jacobian_gives_zero(self):
        model = ModelSpec(
            n_x=1,
            n_theta=2,
            n_u=0,
            f=lambda theta, x, u: np.zeros(1),
            jac_x=lambda theta, x, u: np.zeros((1, 1)),
            jac_theta=lambda theta, x, u: np.zeros((1, 2)),
        )
        assert np.all(sensitivity_hat(model, np.zeros(2), np.zeros(1), NO_U) == 0.0)

    def test_off_manifold_against_implicit_solve_oracle(self):
        # off-manifold the pseudoinverse form still equals -(df/dx)^-1 df/dtheta
        # wherever the state Jacobian is invertible; check against solving the
        # 1x1 system by hand for the conversion reaction at x = 0.9
        model = conversion_reaction_model()
        theta = np.array([3.9, 1.5])
        x = np.array([0.9])
        s_hat = sensitivity_hat(model, theta, x, NO_U)
        total = theta[0] + theta[1]
        expected = np.array([[-x[0] / total, (1.0 - x[0]) / total]])
        assert np.abs(s_hat - expected).max() < 1e-12


class TestPinvSensitivity:
    def test_singular_matrix_in_a_stack_falls_back_alone(self):
        # one exactly singular (zero) state Jacobian in a stack of NGF rows:
        # it alone takes the truncated pseudoinverse, every other matrix is
        # solved as it would be on its own, by the closed form's formula
        model = ngf_erk_model()
        rng = np.random.default_rng(23)
        theta = rng.uniform(-3.0, 1.0, 6)
        x_mat = rng.uniform(0.0, 3.0, (12, 2))
        u_mat = rng.uniform(0.0, 100.0, (12, 1))
        a = model.jac_x_batch(theta, x_mat, u_mat)
        b = model.jac_theta_batch(theta, x_mat, u_mat)
        a[5] = 0.0
        got = pinv_sensitivity(a, b)
        assert got.shape == b.shape
        for k in range(12):
            if k == 5:
                expected = -(numerics.pinv(a[k]) @ b[k])
            else:
                expected = python_float_adjugate(a[k], b[k])
                lapack = -np.linalg.solve(a[k], b[k])
                assert np.abs(expected - lapack).max() <= 1e-12 * np.abs(lapack).max()
            assert same_bits(got[k], expected), k
            assert same_bits(pinv_sensitivity(a[k], b[k]), expected), k


def same_bits(a, b):
    """Equal shapes and bit patterns; unlike np.array_equal, 0.0 and -0.0
    differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def log_uniform(shape):
    """Arrays of shape with magnitudes log-uniform over 1e-300..1e300 and
    either sign: the products of two entries overflow and underflow."""
    n = int(np.prod(shape))
    exponents = st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n)
    signs = st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)
    return st.tuples(exponents, signs).map(
        lambda es: (np.array(es[1]) * 10.0 ** np.array(es[0])).reshape(shape)
    )


def python_float_adjugate(a, b):
    """-A^-1 B for one 2x2 A with nonzero det, by the formula of
    pinv_sensitivity's 2x2 closed form, in Python floats."""
    (p, q), (r, t) = a.tolist()
    det, neg_det = p * t - q * r, q * r - p * t
    return np.array(
        [
            [(q * b1 - t * b0) / det for b0, b1 in zip(*b.tolist())],
            [(p * b1 - r * b0) / neg_det for b0, b1 in zip(*b.tolist())],
        ]
    )


@st.composite
def one_by_one_systems(draw):
    """A 1x1 state Jacobian with its parameter block, as one (1, 1) matrix
    or as a stack of 1 to 64."""
    rows = draw(st.none() | st.integers(1, 64))
    n_theta = draw(st.integers(1, 3))
    lead = () if rows is None else (rows,)
    return draw(log_uniform(lead + (1, 1))), draw(log_uniform(lead + (1, n_theta)))


class TestOneByOneClosedForm:
    @given(one_by_one_systems())
    @settings(max_examples=300, deadline=None)
    def test_has_the_bits_of_lapack(self, system):
        a, b = system
        with np.errstate(all="ignore"):
            got = pinv_sensitivity(a, b)
            expected = -np.linalg.solve(a, b)
        assert same_bits(got, expected)

    @pytest.mark.parametrize("a", [1.0, -1.0, 3e-300, -7e299])
    def test_signed_zeros_keep_the_bits_of_lapack(self, a):
        a = np.array([[a]])
        b = np.array([[0.0, -0.0, 2.5, -2.5]])
        assert same_bits(pinv_sensitivity(a, b), -np.linalg.solve(a, b))
        assert same_bits(
            pinv_sensitivity(np.stack([a, -a]), np.stack([b, b])),
            -np.linalg.solve(np.stack([a, -a]), np.stack([b, b])),
        )

    @pytest.mark.parametrize("n_theta", [1, 2])
    def test_makes_no_lapack_call(self, n_theta, monkeypatch):
        def refuse(*args):
            raise AssertionError("np.linalg.solve called")

        # -10 and -1e33: one right-hand side divides, several multiply by
        # the reciprocal, and the two round this quotient differently
        a = np.array([[[-10.0]], [[0.5]]])
        b = np.array([[[-1e33, 3.0]], [[-4.0, 0.0]]])[..., :n_theta]
        expected = -np.linalg.solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert same_bits(pinv_sensitivity(a, b), expected)
        assert same_bits(pinv_sensitivity(a[0], b[0]), expected[0])

    @pytest.mark.parametrize("pivot", [-0.0, np.nan], ids=["-0.0", "nan"])
    def test_negative_zero_takes_pinv_and_nan_gives_nan(self, pivot, monkeypatch):
        # -0.0 is an exact zero: the pseudoinverse takes over, alone and in
        # a stack next to a nonzero pivot. NaN is no zero: it takes the
        # closed form and gives NaN. Neither reaches np.linalg.solve, and
        # neither warns
        solve = np.linalg.solve
        calls = []

        def counted(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        a = np.array([[[2.0]], [[pivot]]])
        b = np.array([[[1.0, -3.0]], [[4.0, 0.5]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = pinv_sensitivity(a[1], b[1])
            stacked = pinv_sensitivity(a, b)
        assert calls == []
        assert same_bits(stacked[0], -solve(a[0], b[0]))
        if np.isnan(pivot):
            assert np.isnan(alone).all() and np.isnan(stacked[1]).all()
        else:
            expected = -(numerics.pinv(a[1]) @ b[1])
            assert same_bits(alone, expected)
            assert same_bits(stacked[1], expected)

    def test_singular_matrix_in_a_conversion_reaction_stack_falls_back_alone(self):
        # theta = (0, 0) makes d f/d x = -(theta_1 + theta_2) exactly zero:
        # those rows alone take the truncated pseudoinverse, every other row
        # is its own matrix solved alone
        model = conversion_reaction_model()
        rng = np.random.default_rng(31)
        theta = rng.uniform(0.1, 8.0, (12, 2))
        singular = [0, 5, 11]
        theta[singular] = 0.0
        x_mat = rng.uniform(0.0, 1.0, (12, 1))
        _, jac = model.f_jac_batch(theta, x_mat, np.zeros((12, 0)))
        a, b = jac[..., :1], jac[..., 1:]
        assert np.flatnonzero(a == 0.0).tolist() == singular
        got = pinv_sensitivity(a, b)
        assert got.shape == b.shape
        for k in range(12):
            if k in singular:
                expected = -(numerics.pinv(a[k]) @ b[k])
            else:
                expected = -np.linalg.solve(a[k], b[k])
                assert same_bits(pinv_sensitivity(a[k], b[k]), expected), k
            assert same_bits(got[k], expected), k


def ngf_state_jacobians(rows, seed):
    """The NGF state and parameter Jacobians of rows random points from the
    sampling boxes, one theta per row: 2x2 matrices with nonzero det."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-3.0, 1.0, (rows, 6))
    x_mat = rng.uniform(0.0, 3.0, (rows, 2))
    u_mat = rng.uniform(0.0, 100.0, (rows, 1))
    _, jac = ngf_erk_model().f_jac_batch(theta, x_mat, u_mat)
    return jac[..., :2], jac[..., 2:]


def refuse(*args):
    raise AssertionError("LAPACK called")


def floats_list(draw, size, low, high):
    return np.array(draw(st.lists(st.floats(low, high), min_size=size, max_size=size)))


def signs_list(draw, size):
    signs = st.lists(st.sampled_from((-1.0, 1.0)), min_size=size, max_size=size)
    return np.array(draw(signs))


def rotations(angles):
    cos, sin = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)


@st.composite
def well_conditioned_2x2_systems(draw):
    """A = s R(phi) diag(1, 1/kappa) R(psi) with kappa <= 100 and s of any
    magnitude, as one matrix or as a stack of 1 to 32, and B of up to
    three columns with entries from 1e-3 s to 1e3 s in magnitude."""
    rows = draw(st.none() | st.integers(1, 32))
    n_theta = draw(st.integers(1, 3))
    lead = () if rows is None else (rows,)
    size = rows or 1
    diag = np.zeros((size, 2, 2))
    diag[:, 0, 0] = 1.0
    diag[:, 1, 1] = 10.0 ** -floats_list(draw, size, 0.0, 2.0)
    turns = [rotations(floats_list(draw, size, 0.0, 2.0 * np.pi)) for _ in "ab"]
    scale = 10.0 ** draw(st.floats(-100.0, 100.0))
    a = scale * (turns[0] @ diag @ turns[1])
    n_b = 2 * n_theta * size
    b = scale * signs_list(draw, n_b) * 10.0 ** floats_list(draw, n_b, -3.0, 3.0)
    return a.reshape(lead + (2, 2)), b.reshape(lead + (2, n_theta))


@st.composite
def stacks_with_singular_matrices(draw, sizes=(2,), max_axes=1):
    """A stack of n_x x n_x state Jacobians, n_x from sizes, on one to
    max_axes leading axes (up to 24 matrices on one, up to 5 per axis on
    more), with entries of magnitude 1e-75 to 1e75 (no product overflows),
    some of them replaced by exactly singular ones: zero, signed zeros, a
    zero row or column, or a row that is a power-of-two multiple of
    another. Returns (a, b, kinds), kinds mapping the index of each
    replaced matrix in the flattened stack to its kind."""
    n_x = draw(st.sampled_from(sizes))
    axes = draw(st.integers(1, max_axes))
    side = st.integers(1, 24) if axes == 1 else st.integers(1, 5)
    lead = tuple(draw(st.lists(side, min_size=axes, max_size=axes)))
    rows = int(np.prod(lead))
    n_theta = draw(st.integers(1, 6))
    n_a, n_b = n_x * n_x * rows, n_x * n_theta * rows
    a = signs_list(draw, n_a) * 10.0 ** floats_list(draw, n_a, -75.0, 75.0)
    b = signs_list(draw, n_b) * 10.0 ** floats_list(draw, n_b, -75.0, 75.0)
    a, b = a.reshape(rows, n_x, n_x), b.reshape(rows, n_x, n_theta)
    singular = draw(st.lists(st.integers(0, rows - 1), max_size=rows, unique=True))
    kinds = {}
    all_kinds = ["zero", "signed zeros", "zero row", "zero column", "multiple row"]
    for k in singular:
        kind = kinds[k] = draw(st.sampled_from(all_kinds[: 2 if n_x == 1 else 5]))
        i, j = draw(st.permutations(range(n_x)))[:2] if n_x > 1 else (0, 0)
        if kind == "zero":
            a[k] = 0.0
        elif kind == "signed zeros":
            a[k] = np.copysign(0.0, signs_list(draw, n_x * n_x)).reshape(n_x, n_x)
        elif kind == "zero row":
            a[k, i] = 0.0
        elif kind == "zero column":
            a[k, :, i] = 0.0
        else:
            a[k, j] = a[k, i] * draw(st.sampled_from([-4.0, -1.0, 0.5, 2.0]))
    return a.reshape(lead + (n_x, n_x)), b.reshape(lead + (n_x, n_theta)), kinds


class TestTwoByTwoClosedForm:
    def test_makes_no_lapack_call(self, monkeypatch):
        a, b = ngf_state_jacobians(12, seed=41)
        expected = [python_float_adjugate(a[k], b[k]) for k in range(12)]
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        stacked = pinv_sensitivity(a, b)
        for k in range(12):
            assert same_bits(stacked[k], expected[k]), k
            assert same_bits(pinv_sensitivity(a[k], b[k]), expected[k]), k

    @given(well_conditioned_2x2_systems())
    @settings(max_examples=300, deadline=None)
    def test_near_lapack_on_well_conditioned_systems(self, system):
        # per column of S, within 1e-12 of LAPACK's relative to its max-norm
        a, b = system
        got = pinv_sensitivity(a, b)
        expected = -np.linalg.solve(a, b)
        assert got.shape == expected.shape
        error = np.abs(got - expected).max(axis=-2)
        assert (error <= 1e-12 * np.abs(expected).max(axis=-2)).all()

    @given(stacks_with_singular_matrices())
    @settings(max_examples=300, deadline=None)
    def test_each_row_has_the_bits_of_its_matrix_alone(self, system):
        a, b, singular = system
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pinv_sensitivity(a, b)
        assert got.shape == b.shape
        for k in range(len(a)):
            alone = pinv_sensitivity(a[k], b[k])
            assert same_bits(got[k], alone), k
            if k in singular:
                assert same_bits(alone, -(numerics.pinv(a[k]) @ b[k])), k

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(log_uniform((2, 2)), log_uniform((2, n)))
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_has_the_bits_of_the_python_float_formula(self, system):
        # entries from 1e-300 to 1e300: products overflow and underflow;
        # NaN results match in place, not necessarily in their sign bit
        a, b = system
        (p, q), (r, t) = a.tolist()
        if p * t - q * r == 0.0:
            return
        with np.errstate(all="ignore"):
            got = pinv_sensitivity(a, b)
        expected = python_float_adjugate(a, b)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert same_bits(np.where(nan, 0.0, got), np.where(nan, 0.0, expected))

    @pytest.mark.parametrize(
        "a",
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[-0.0, 0.0], [0.0, -0.0]],
            [[1.0, 2.0], [2.0, 4.0]],
            [[3.0, -1e-300], [0.0, 0.0]],
            [[0.0, 5.0], [0.0, -7.0]],
        ],
        ids=["zero", "signed-zeros", "rank-one", "zero-row", "zero-column"],
    )
    def test_zero_det_takes_pinv_alone_without_warning(self, a, monkeypatch):
        a = np.array(a)
        b = np.array(
            [[1.0, -3.0, 0.0, 2.0, -0.0, 7.5], [4.0, 0.5, -2.0, 0.0, 1e-3, -6.0]]
        )
        expected = -(numerics.pinv(a) @ b)
        regular, regular_b = ngf_state_jacobians(3, seed=43)
        stack = np.stack([regular[0], a, regular[1], a, regular[2]])
        stack_b = np.stack([regular_b[0], b, regular_b[1], b, regular_b[2]])
        monkeypatch.setattr(np.linalg, "solve", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = pinv_sensitivity(a, b)
            stacked = pinv_sensitivity(stack, stack_b)
        assert same_bits(alone, expected)
        for k in range(5):
            want = expected if k % 2 else python_float_adjugate(stack[k], stack_b[k])
            assert same_bits(stacked[k], want), k

    def test_nan_det_gives_nan_without_lapack(self, monkeypatch):
        a, b = ngf_state_jacobians(3, seed=47)
        a[1, 0, 0] = np.nan
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        got = pinv_sensitivity(a, b)
        assert np.isnan(got[1]).all() and np.isnan(pinv_sensitivity(a[1], b[1])).all()
        for k in (0, 2):
            assert same_bits(got[k], python_float_adjugate(a[k], b[k])), k


def singular_alone(a, b):
    """The rule's verdict on one state Jacobian, reached apart from the
    kernel: a det of exactly zero for n_x <= 2 (in Python floats),
    LAPACK's zero pivot for n_x >= 3."""
    if len(a) == 1:
        return a[0, 0] == 0.0
    if len(a) == 2:
        (p, q), (r, t) = a.tolist()
        return p * t - q * r == 0.0
    try:
        np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return True
    return False


class TestReplacedForms:
    @given(
        stacks_with_singular_matrices()
        | st.integers(1, 3).flatmap(
            lambda n: st.tuples(log_uniform((2, 2)), log_uniform((2, n)), st.just({}))
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_2x2_bits_of_a_view_per_use(self, system):
        # the adjugate's shared views of jac_x give every bit, NaN signs
        # and singular matrices included, of a new view at each use
        a, b, _ = system
        with np.errstate(all="ignore"):
            assert same_bits(pinv_sensitivity(a, b), view_per_use_pinv_sensitivity(a, b))

    @pytest.mark.parametrize("lead", [(), (27,)], ids=["point", "stack"])
    def test_total_gradient_bits_without_asarray(self, lead):
        # the gradients go into the sum as given: float arrays and lists
        # give the asarray form's bits
        rng = np.random.default_rng(17)
        s_hat = rng.normal(size=lead + (10, 2, 6))
        grad_theta = rng.normal(size=lead + (6,))
        grads_x = rng.normal(size=lead + (10, 2))
        grads_x[..., 0] = -0.0
        want = asarray_total_gradient(grad_theta, s_hat, grads_x)
        for given_theta, given_x in [
            (grad_theta, grads_x),
            (grad_theta.tolist(), grads_x.tolist()),
        ]:
            got = total_gradient(given_theta, s_hat, given_x)
            assert same_bits(got, want)


class TestOneSingularityRule:
    @given(stacks_with_singular_matrices(sizes=(1, 2, 3), max_axes=2))
    @settings(max_examples=300, deadline=None)
    def test_every_matrix_has_the_bits_of_its_own_call(self, system):
        # one rule for every n_x: an exactly singular state Jacobian takes
        # the truncated pseudoinverse, every other one its size's solver,
        # and a stack changes no bit of either; no call warns, and for
        # n_x <= 2 none reaches np.linalg.solve
        a, b, kinds = system
        n_x, n_theta = b.shape[-2:]
        flat_a, flat_b = a.reshape(-1, n_x, n_x), b.reshape(-1, n_x, n_theta)
        solve = np.linalg.solve
        expected = []
        for k, (x, y) in enumerate(zip(flat_a, flat_b)):
            # LU may leave a power-of-two multiple row a tiny remainder
            if k in kinds and (n_x <= 2 or kinds[k] != "multiple row"):
                assert singular_alone(x, y), k
            if singular_alone(x, y):
                expected.append(-(numerics.pinv(x) @ y))
            elif n_x == 2:
                expected.append(python_float_adjugate(x, y))
            else:
                expected.append(-solve(x, y))
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return solve(*args)

        with mock.patch.object(np.linalg, "solve", counted):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = pinv_sensitivity(a, b)
                alone = [pinv_sensitivity(x, y) for x, y in zip(flat_a, flat_b)]
        assert got.shape == b.shape
        if n_x <= 2:
            assert calls == []
        for k, want in enumerate(expected):
            assert same_bits(got.reshape(flat_b.shape)[k], want), k
            assert same_bits(alone[k], want), k


def per_condition_ngf_model():
    """The NGF model given per condition: its fused kernel is composed."""
    ngf = ngf_erk_model()
    return ModelSpec(
        n_x=2, n_theta=6, n_u=1, f=ngf.f, jac_x=ngf.jac_x, jac_theta=ngf.jac_theta
    )


class TestHelpersCallTheFusedKernel:
    @pytest.mark.parametrize(
        "make_model, box, state_box",
        [
            (conversion_reaction_model, (0.1, 8.0), (0.0, 1.0)),
            (ngf_erk_model, (-3.0, 1.0), (0.0, 3.0)),
            (per_condition_ngf_model, (-3.0, 1.0), (0.0, 3.0)),
        ],
    )
    def test_bits_of_the_solve_of_the_fused_blocks(self, make_model, box, state_box):
        # sensitivity_exact and sensitivity_hat solve the blocks of one
        # f_jac_batch call on a batch of one, and get the bits of the
        # per-condition jac_x and jac_theta too
        model = make_model()
        n_x = model.n_x
        rng = np.random.default_rng(11)
        for _ in range(300):
            theta = rng.uniform(box[0], box[1], model.n_theta)
            x = rng.uniform(state_box[0], state_box[1], n_x)
            u = rng.uniform(0.0, 100.0, model.n_u)
            _, jac = model.f_jac_batch(theta, x[None], u[None])
            a, b = jac[0, :, :n_x], jac[0, :, n_x:]
            single = (model.jac_x(theta, x, u), model.jac_theta(theta, x, u))
            exact = sensitivity_exact(model, theta, x, u)
            assert same_bits(exact, numerics.solve(a, -b))
            assert same_bits(exact, numerics.solve(single[0], -single[1]))
            s_hat = sensitivity_hat(model, theta, x, u)
            assert same_bits(s_hat, pinv_sensitivity(a, b))
            assert same_bits(s_hat, pinv_sensitivity(*single))


class TestManifoldGradient:
    def test_conversion_reaction_at_prior_mean(self):
        # at theta = theta_bar the prior term vanishes and the gradient is
        # the data misfit pulled back through the sensitivity
        prob = ConversionReactionProblem()
        model = prob.model()
        theta = np.array([3.9, 1.5])
        x_s = model.analytic_steady_state(theta, NO_U)
        grad = manifold_gradient(
            model, prob.objective(), theta, [x_s], prob.u_matrix
        )
        s = sensitivity_exact(model, theta, x_s, NO_U)[0]
        expected = 10.0 * (x_s[0] - 0.2) * s
        assert np.abs(grad - expected).max() < 1e-12

    def test_is_the_flow_parameter_derivative_off_manifold(self):
        # the flow's right-hand side and manifold_gradient share one kernel
        from ssflow.core import FlowConfig
        from ssflow.flow import _assemble

        prob = NgfErkProblem().with_generated_data(3)
        problem = prob.flow_problem(FlowConfig(lam=5.0))
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = rng.uniform(-2.0, 1.0, 6)
            states = rng.uniform(0.0, 3.0, (10, 2))
            d_theta, _ = _assemble(problem, theta, states)
            grad = manifold_gradient(
                problem.model, problem.objective, theta, list(states), problem.u_matrix
            )
            assert np.array_equal(grad, -d_theta)

    def test_state_independent_objective(self):
        prob = ConversionReactionProblem()
        model = prob.model()
        objective = ObjectiveSpec(
            eval=lambda theta, states: float(theta @ theta),
            grad_theta=lambda theta, states: 2.0 * theta,
            grad_x=lambda theta, states: [np.zeros(1)],
        )
        theta = np.array([2.0, 0.5])
        grad = manifold_gradient(
            model, objective, theta, [np.array([0.3])], prob.u_matrix
        )
        assert np.array_equal(grad, 2.0 * theta)

    def test_matches_reduced_objective_finite_differences_cr(self):
        prob = ConversionReactionProblem()
        model = prob.model()
        objective = prob.objective()
        u_matrix = prob.u_matrix
        rng = np.random.default_rng(23)
        for _ in range(100):
            theta = rng.uniform(0.1, 8.0, 2)
            x_s = model.analytic_steady_state(theta, NO_U)
            grad = manifold_gradient(model, objective, theta, [x_s], u_matrix)
            fd = numerics.finite_diff_jacobian(
                lambda t: np.array([reduced_objective(t, prob)[0]]), theta
            )[0]
            assert np.abs(grad - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())

    def test_matches_reduced_objective_finite_differences_ngf(self):
        prob = NgfErkProblem().with_generated_data(0)
        model = prob.model()
        objective = prob.objective()
        u_matrix = prob.u_matrix
        rng = np.random.default_rng(29)
        for _ in range(100):
            theta = rng.uniform(-2.0, 1.0, 6)
            states = [model.analytic_steady_state(theta, u) for u in u_matrix]
            grad = manifold_gradient(model, objective, theta, states, u_matrix)
            fd = numerics.finite_diff_jacobian(
                lambda t: np.array([reduced_objective(t, prob)[0]]), theta
            )[0]
            assert np.abs(grad - fd).max() < 1e-6 * (1.0 + np.abs(fd).max())
