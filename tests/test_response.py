import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matdist.distribution import material_fibre
from matdist.errors import DomainError, NonFiniteError, SingularMatrixError
from matdist.numkit import DEFAULT_TOL
from matdist.response import (
    ConstitutiveModel,
    builtin,
    derivatives,
    derivatives_at_samples,
    evaluate,
    load_model_file,
    parse_model,
)

from conftest import random_invertible


class TestEvaluate:
    def test_example1_identity_gradient_is_zero(self, example1):
        W = evaluate(example1, [-0.5, 0.0, 0.0], np.eye(3))
        np.testing.assert_array_equal(W, np.zeros(9))

    def test_example1_doubled_gradient(self, example1):
        # W = f(1/2) * ((2I)^T (2I) - I) = (1 + e^-2) * 3I
        W = evaluate(example1, [0.5, 0.0, 0.0], 2.0 * np.eye(3))
        expected = (1.0 + np.exp(-2.0)) * 3.0 * np.eye(3)
        np.testing.assert_allclose(W.reshape(3, 3), expected, rtol=0, atol=1e-15)

    def test_example2_center_identity(self, example2):
        # director at the origin is (r, 0, 0): first component r^2, second det I
        W = evaluate(example2, [0.0, 0.0, 0.0], np.eye(3))
        np.testing.assert_allclose(W, [1.0, 1.0])

    def test_example2_radius_param(self):
        model = builtin("example2", r=2.0)
        W = evaluate(model, [0.0, 0.0, 0.0], np.eye(3))
        np.testing.assert_allclose(W, [4.0, 1.0])

    def test_domain_errors(self, example1, example2):
        with pytest.raises(DomainError):
            evaluate(example1, [1.5, 0.0, 0.0], np.eye(3))
        with pytest.raises(DomainError):
            evaluate(example2, [1.1, 0.0, 0.0], np.eye(3))

    def test_singular_gradient_rejected(self, example1):
        with pytest.raises(SingularMatrixError):
            evaluate(example1, [0.0, 0.0, 0.0], np.zeros((3, 3)))

    def test_identity_cal_flattens_gradient(self, identity_cal):
        F = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
        np.testing.assert_array_equal(evaluate(identity_cal, [0, 0, 0], F), F.ravel())

    def test_evaluation_is_target_free(self):
        # the contract takes a source point and a gradient, nothing else
        assert [p for p in inspect.signature(evaluate).parameters] == ["model", "X", "F"]


class TestStiffnessProfile:
    def test_flat_on_left_half(self, example1):
        impl = example1.aux["impl"]
        assert impl.stiffness(-0.7) == 1.0
        assert impl.stiffness(0.0) == 1.0
        assert impl.stiffness(0.5) == pytest.approx(1.0 + np.exp(-2.0), abs=0, rel=1e-15)

    def test_c1_across_interface(self, example1):
        impl = example1.aux["impl"]
        h = 1e-3
        assert abs(impl.stiffness(h) - impl.stiffness(-h)) <= 2e-10
        slope = (impl.stiffness(h) - impl.stiffness(-h)) / (2 * h)
        assert abs(slope) <= 1e-8


class TestDerivatives:
    def test_example1_base_derivatives_vanish_on_left(self, example1):
        B = derivatives(example1, [-0.5, 0.0, 0.0], random_invertible(np.random.default_rng(0)))
        np.testing.assert_array_equal(B[:, :3], np.zeros((9, 3)))

    def test_example1_transverse_derivatives_always_zero(self, example1):
        B = derivatives(example1, [0.4, 0.1, -0.2], random_invertible(np.random.default_rng(1)))
        np.testing.assert_array_equal(B[:, 1], np.zeros(9))
        np.testing.assert_array_equal(B[:, 2], np.zeros(9))

    def test_det_cal_cofactor_rule_at_identity(self, det_cal):
        # at F = I the material frame is the spatial one: the dP columns are dW/dF
        B = derivatives(det_cal, [0.0, 0.0, 0.0], np.eye(3))
        np.testing.assert_allclose(B[0, 3:], np.eye(3).ravel())

    def test_det_cal_cofactor_rule_general(self, det_cal):
        # cofactor matrix from 2x2 minors, independent of the production
        # formula; along F (I + t dP) the rate is cof(F) : F dP = F^T cof(F) : dP
        F = random_invertible(np.random.default_rng(5))
        B = derivatives(det_cal, [0.0, 0.0, 0.0], F)
        cof = np.empty((3, 3))
        for l in range(3):
            for m in range(3):
                minor = np.delete(np.delete(F, l, axis=0), m, axis=1)
                cof[l, m] = (-1) ** (l + m) * np.linalg.det(minor)
        np.testing.assert_allclose(B[0, 3:].reshape(3, 3), F.T @ cof, atol=1e-12)

    @pytest.mark.parametrize("name", ["example1", "example2", "det_cal", "identity_cal"])
    def test_analytic_agrees_with_finite_differences(self, name):
        model = builtin(name)
        stripped = builtin(name)
        stripped._derivatives = None  # force the numerical path
        rng = np.random.default_rng(42)
        for _ in range(5):
            X = rng.uniform(-0.9, 0.9, 3)
            while not model.in_domain(X):
                X = rng.uniform(-0.9, 0.9, 3)
            F = random_invertible(rng)
            exact = derivatives(model, X, F)
            numerical = derivatives(stripped, X, F)
            assert np.abs(exact[:, :3] - numerical[:, :3]).max() < 1e-5
            assert np.abs(exact[:, 3:] - numerical[:, 3:]).max() < 1e-5

    def test_example2_complex_step_matches_closed_form(self, example2):
        # r = (Fe).(Fe) + X.X with e = X + r e1 gives dr/dX = 2 F^T F e + 2X
        # and, along F (I + t dP), 2 (F^T F e) . (dP e); J = det F gives
        # det F tr(dP)
        rng = np.random.default_rng(9)
        for _ in range(5):
            X = rng.uniform(-0.5, 0.5, 3)
            F = random_invertible(rng)
            B = derivatives(example2, X, F)
            e = X.copy()
            e[0] += 1.0
            np.testing.assert_allclose(B[0, :3], 2 * (F.T @ F @ e) + 2 * X, atol=1e-11)
            np.testing.assert_allclose(B[0, 3:], 2 * np.outer(F.T @ F @ e, e).ravel(), atol=1e-11)
            np.testing.assert_allclose(B[1, 3:].reshape(3, 3), np.linalg.det(F) * np.eye(3),
                                       atol=1e-11)

    def test_example2_metric_enters_closed_form(self):
        model = builtin("example2", r=1.5, metric=(1.0, 2.5, 0.7))
        stripped = builtin("example2", r=1.5, metric=(1.0, 2.5, 0.7))
        stripped._derivatives = None  # force the numerical path
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = rng.uniform(-0.8, 0.8, 3)
            F = random_invertible(rng)
            assert np.abs(derivatives(model, X, F) - derivatives(stripped, X, F)).max() < 1e-5

    def test_real_fd_shrinks_near_boundary(self):
        stripped = builtin("example2")
        stripped._derivatives = None  # force the numerical path
        # four halvings from the 1e-6 step reach 6.25e-8, just inside
        X = np.array([1.0 - 1e-7, 0.0, 0.0])
        B = derivatives(stripped, X, np.eye(3))
        assert np.all(np.isfinite(B[:, :3]))

    def test_real_fd_errors_when_shrinking_is_not_enough(self):
        stripped = builtin("example2")
        stripped._derivatives = None  # force the numerical path
        with pytest.raises(DomainError, match="exits the domain"):
            derivatives(stripped, np.array([1.0 - 5e-9, 0.0, 0.0]), np.eye(3))

    @pytest.mark.parametrize("F,error", [
        (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]), SingularMatrixError),
        (np.diag([1.0, np.nan, 1.0]), ValueError),
        (np.eye(2), ValueError),
    ], ids=["singular", "nan", "2x2"])
    @pytest.mark.parametrize("name", ["example1", "det_cal"])
    def test_derivatives_validate_gradient(self, name, F, error):
        with pytest.raises(error):
            derivatives(builtin(name), [0.1, 0.2, 0.3], F)

    @pytest.mark.parametrize("name", ["example1", "example2", "det_cal", "identity_cal", "mdl"])
    def test_batched_derivatives_equal_per_point_calls(self, name):
        # grade maps promise results independent of batch composition; that
        # rests on every point's blocks being the same bits in any batch
        if name == "mdl":
            import os

            import matdist

            model = load_model_file(os.path.join(os.path.dirname(matdist.__file__), "mdl",
                                                 "example1.mdl"))
        else:
            model = builtin(name)
        rng = np.random.default_rng(17)
        Xs = np.array([[0.3, 0.1, -0.2], [-0.4, 0.2, 0.1], [0.05, 0.0, 0.0],
                       [0.6, -0.3, 0.2], [0.0, 0.0, 0.0]])
        for k in (1, 4, 11):
            Fs = np.array([[random_invertible(rng) for _ in range(k)] for _ in Xs])
            B = derivatives_at_samples(model, Xs, Fs)
            assert B.shape == (5, k, model.dim, 12)
            for i, X in enumerate(Xs):
                np.testing.assert_array_equal(B[i], derivatives_at_samples(model, X[None],
                                                                           Fs[i][None])[0])

    def test_non_finite_derivative_raises(self):
        def derivatives_(Xs, Fs):
            block = np.zeros((len(Fs), 1, 12))
            block[:, :, :3] = np.nan
            return block

        model = ConstitutiveModel("nan_rate", 1, lambda Xs, Fs: np.zeros((len(Fs), 1)),
                                  derivatives=derivatives_)
        with pytest.raises(NonFiniteError, match=r"derivative block at X=\[0.1, 0.2, 0.3\]"):
            derivatives(model, [0.1, 0.2, 0.3], np.eye(3))

    def test_wrong_result_shape_raises(self):
        flat = ConstitutiveModel("flat", 1, lambda Xs, Fs: np.zeros(len(Fs)))
        with pytest.raises(ValueError, match="expected"):
            evaluate(flat, [0.0, 0.0, 0.0], np.eye(3))
        with pytest.raises(ValueError, match="expected"):
            derivatives(flat, [0.0, 0.0, 0.0], np.eye(3))
        short = ConstitutiveModel("short", 2, lambda Xs, Fs: np.zeros((len(Fs), 2)),
                                  derivatives=lambda Xs, Fs: np.zeros((len(Fs), 2, 9)))
        with pytest.raises(ValueError, match="derivative block of shape"):
            derivatives(short, [0.0, 0.0, 0.0], np.eye(3))

    def test_batch_shapes(self, example2):
        Fs = np.array([np.eye(3), np.diag([1.0, 2.0, 3.0])])
        assert derivatives_at_samples(example2, np.zeros((1, 3)), Fs[None],
                                      DEFAULT_TOL).shape == (1, 2, 2, 12)


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            builtin("nope")

    def test_example2_rejects_vanishing_director(self):
        with pytest.raises(ValueError, match="vanishes"):
            builtin("example2", r=1.0, e=lambda X: np.asarray(X, dtype=float))

    def test_example2_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            builtin("example2", r=-1.0)

    def test_example2_custom_director_on_lanes(self, example2):
        # the default director given as a custom lane field: same values,
        # derivatives by central differences close to the closed form
        shifted = builtin("example2", e=lambda Xs: Xs + np.array([1.0, 0.0, 0.0]))
        assert shifted._derivatives is None
        rng = np.random.default_rng(3)
        for _ in range(5):
            X = rng.uniform(-0.5, 0.5, 3)
            F = random_invertible(rng)
            np.testing.assert_array_equal(evaluate(shifted, X, F), evaluate(example2, X, F))
            for got, want in zip(derivatives(shifted, X, F), derivatives(example2, X, F)):
                assert np.abs(got - want).max() < 1e-5

    def test_example2_custom_response_map(self):
        model = builtin("example2", r=1.0, response_map=lambda r, J: [r, J, r * J])
        assert model.dim == 3
        W = evaluate(model, [0.0, 0.0, 0.0], np.eye(3))
        np.testing.assert_allclose(W, [1.0, 1.0, 1.0])
        assert model._derivatives is None  # closed forms only for the default map

    def test_leaf_predicates(self, example1, example2):
        rng = np.random.default_rng(1)
        seed = np.array([0.5, 0.0, 0.0])
        for _ in range(10):
            Z = example1.leaf.sample(seed, rng)
            assert Z[0] == 0.5
            assert example1.leaf.residual(seed, Z) == 0.0
        seed = np.array([-0.5, 0.2, 0.1])
        for _ in range(10):
            Z = example1.leaf.sample(seed, rng)
            assert Z[0] < 0.0
        seed = np.array([0.3, 0.0, 0.0])
        for _ in range(10):
            Z = example2.leaf.sample(seed, rng)
            assert np.linalg.norm(Z) == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_array_equal(example2.leaf.sample(np.zeros(3), rng), np.zeros(3))


class TestParsedModels:
    def test_shipped_example1_matches_builtin(self, example1):
        import os

        import matdist

        path = os.path.join(os.path.dirname(matdist.__file__), "mdl", "example1.mdl")
        parsed = load_model_file(path)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            X = rng.uniform(-0.99, 0.99, 3)
            F = random_invertible(rng)
            worst = max(worst, np.abs(evaluate(parsed, X, F) - evaluate(example1, X, F)).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("mode", ["pointwise", "germ1"])
    @pytest.mark.parametrize("x1", [1e-160, 1e-200, 5e-324])
    def test_shipped_example1_fibre_below_the_exp_underflow(self, example1, x1, mode):
        # exp(-1/X1) underflows to 0 while the chain factor of -1/X1 overflows:
        # the rate of the underflowed exp is 0, not 0 * inf = NaN
        import os

        import matdist

        path = os.path.join(os.path.dirname(matdist.__file__), "mdl", "example1.mdl")
        got = material_fibre(load_model_file(path), [x1, 0.0, 0.0], mode=mode)
        want = material_fibre(example1, [x1, 0.0, 0.0], mode=mode)
        assert (got.grade, got.validated) == (want.grade, want.validated) == (3, True)

    def test_parse_model_param_override(self):
        model = parse_model("param k = 2\nresponse = k * det(F)\n", params={"k": 5.0})
        assert evaluate(model, [0, 0, 0], np.eye(3))[0] == 5.0

    def test_parse_model_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="declares no parameter"):
            parse_model("response = det(F)\n", params={"k": 1.0})

    def test_parsed_model_dimension_from_kind(self):
        assert parse_model("response = det(F)\n").dim == 1
        assert parse_model("response = F * X\n").dim == 3
        assert parse_model("response = F' * F\n").dim == 9


def old_in_domain(model, X):
    """The one-point domain test as numpy decided it, with example1's ``|X| < 1``."""
    X = np.asarray(X, dtype=float)
    if X.shape != (3,) or not np.all(np.isfinite(X)):
        return False
    if model.name == "example1":
        return bool(np.all(np.abs(X) < 1.0))
    return True if model.domain is None else bool(model.domain(X))


def outcome(decide, model, X):
    try:
        return decide(model, X)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


EDGE_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
                               np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
                               np.nextafter(1.0, 2.0), 5e-324, 0.5])
COORDS = st.one_of(st.floats(), EDGE_FLOATS, st.floats(-1.0, 1.0))


def near_sphere():
    """Unit-sphere points of ``example2`` moved by a few ulps either way."""
    direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: np.dot(u, u) > 1e-6)
    return st.builds(lambda u, ulps: (np.asarray(u) / np.linalg.norm(u))
                     * (1.0 + ulps * np.finfo(float).eps), direction, st.integers(-4, 4))


POINTS = st.one_of(
    st.lists(COORDS, min_size=3, max_size=3),
    st.tuples(COORDS, COORDS, COORDS).map(np.array),
    near_sphere(),
    st.lists(COORDS, max_size=5),  # wrong lengths
    st.lists(st.lists(COORDS, min_size=3, max_size=3), min_size=1, max_size=2),  # (1,3), (2,3)
    st.lists(st.lists(COORDS, min_size=1, max_size=1), min_size=3, max_size=3),  # (3,1)
    st.lists(st.one_of(COORDS, st.lists(COORDS, max_size=2)), min_size=3, max_size=3),  # ragged
)


class TestInDomain:
    MODELS = {"example1": builtin("example1"), "example2": builtin("example2"),
              "no domain": ConstitutiveModel("free", 1, lambda Xs, Fs: np.zeros((len(Xs), 1)))}

    @settings(max_examples=400, deadline=None)
    @given(X=POINTS, name=st.sampled_from(sorted(MODELS)))
    def test_decisions_match_the_numpy_test(self, X, name):
        model = self.MODELS[name]
        assert outcome(ConstitutiveModel.in_domain, model, X) == outcome(old_in_domain, model, X)

    @pytest.mark.parametrize("X,inside", [
        ((0.0, 0.0, 0.0), True), ((-0.0, 0.0, -0.0), True), ((1.0, 0.0, 0.0), False),
        ((0.0, -1.0, 0.0), False), ((np.nan, 0.0, 0.0), False), ((0.0, np.inf, 0.0), False),
        ((0.5, np.nan, 0.0), False), ((0.0, 0.5, np.nan), False),
        ((np.nextafter(1.0, 0.0),) * 3, True),
    ])
    def test_example1_edges(self, example1, X, inside):
        assert example1.in_domain(np.array(X)) is inside
        # the predicate alone, as numpy decided it: a NaN anywhere is outside
        assert example1.domain(np.array(X)) is bool(np.all(np.abs(X) < 1.0))
