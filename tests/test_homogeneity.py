import numpy as np
import pytest

from matdist import homogeneity
from matdist.errors import DomainError, SingularMatrixError
from matdist.homogeneity import (
    Chart,
    builtin_chart,
    chart_from_expressions,
    eq25_residual,
    homogeneity_check,
    leaf_pairs,
    sample_region,
    translation_jet,
)
from matdist.numkit import DEFAULT_TOL
from matdist.response import ConstitutiveModel, LeafInfo, builtin


def region_right_slab(X):
    return X[0] >= 0.1


@pytest.fixture(scope="module")
def cube_identity_chart():
    # leafwise coordinates (X2, X3) come first; the transverse X1 is last
    return builtin_chart("identity").restrict(region_right_slab)


def sheared_cube_chart():
    def forward(X):
        return np.array([X[1] + X[0] ** 2, X[2], X[0]])

    def inverse(q):
        return np.array([q[2], q[0] - q[2] ** 2, q[1]])

    def jacobian(X):
        return np.array([[2.0 * X[0], 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])

    return Chart("sheared", forward, inverse, leafwise_count=2, jacobian=jacobian,
                 region=region_right_slab)


class TestTranslationJet:
    def test_same_point_is_identity(self, cube_identity_chart):
        P = translation_jet(cube_identity_chart, [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
        np.testing.assert_allclose(P, np.eye(3), atol=1e-12)

    def test_identity_chart_gives_identity_everywhere(self, cube_identity_chart):
        P = translation_jet(cube_identity_chart, [0.5, 0.1, 0.2], [0.3, -0.4, 0.6])
        np.testing.assert_allclose(P, np.eye(3), atol=1e-12)

    def test_constant_jacobian_cancels(self):
        chart = builtin_chart("affine", A=np.diag([2.0, 1.0, 1.0]), b=np.zeros(3))
        P = translation_jet(chart, [0.5, 0.1, 0.2], [-0.3, 0.4, 0.6])
        np.testing.assert_allclose(P, np.eye(3), atol=1e-12)

    def test_chain_rule_on_random_triples(self, example2):
        chart = builtin_chart("spherical_cap")
        rng = np.random.default_rng(31)
        points = sample_region(example2, chart, rng, 300)
        worst = 0.0
        for i in range(100):
            X, Y, Z = points[3 * i:3 * i + 3]
            lhs = translation_jet(chart, Y, Z) @ translation_jet(chart, X, Y)
            rhs = translation_jet(chart, X, Z)
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst <= 1e-9

    def test_singular_jacobian_rejected(self, example1):
        chart = Chart("collapse", lambda X: np.array([X[0], X[1], 0.0]),
                      lambda q: q, leafwise_count=1)
        with pytest.raises(SingularMatrixError):
            translation_jet(chart, [0.1, 0.0, 0.0], [0.2, 0.0, 0.0])


class TestLeafPairs:
    def test_cube_pairs_share_the_plane(self, example1, cube_identity_chart):
        pairs, skipped = leaf_pairs(example1, cube_identity_chart, 10)
        assert len(pairs) == 10
        for Y, Z in pairs:
            assert Z[0] == pytest.approx(Y[0], abs=1e-12)

    def test_crystal_pairs_share_the_sphere(self, example2):
        chart = builtin_chart("spherical_cap")
        pairs, _ = leaf_pairs(example2, chart, 10)
        assert len(pairs) == 10
        for Y, Z in pairs:
            assert np.linalg.norm(Z) == pytest.approx(np.linalg.norm(Y), abs=1e-6)

    def test_traced_pairs_share_the_sphere(self, example2):
        chart = builtin_chart("spherical_cap")
        pairs, skipped = leaf_pairs(example2, chart, 4, leaf_oracle="trace")
        assert len(pairs) == 4
        for Y, Z in pairs:
            assert abs(np.linalg.norm(Z) - np.linalg.norm(Y)) <= 1e-4

    def test_point_leaf_yields_degenerate_pair(self):
        leaf = LeafInfo(lambda seed, x: float(np.linalg.norm(x - seed)),
                        lambda seed, rng: np.asarray(seed, dtype=float))
        model = ConstitutiveModel("pointleaf", 1, lambda Xs, Fs: np.zeros((len(Fs), 1)), leaf=leaf)
        chart = builtin_chart("identity")
        pairs, _ = leaf_pairs(model, chart, 3)
        for Y, Z in pairs:
            np.testing.assert_array_equal(Y, Z)


class TestHomogeneityCheck:
    def test_cube_identity_chart_passes(self, example1, cube_identity_chart):
        report = homogeneity_check(example1, cube_identity_chart, n_pairs=10, n_samples=8)
        assert report.passed
        assert report.foliated.passed and report.translation.passed and report.eq25.passed
        assert max(report.foliated.worst, report.translation.worst, report.eq25.worst) <= 1e-7

    def test_sheared_chart_is_also_accepted(self, example1):
        # the shear depends only on X1, which is constant on each leaf, so
        # the translation jets still cancel: the test certifies the
        # definition, not chart uniqueness
        report = homogeneity_check(example1, sheared_cube_chart(), n_pairs=10, n_samples=8)
        assert report.passed

    def test_crystal_spherical_cap_fails_translation(self, example2):
        chart = builtin_chart("spherical_cap")
        report = homogeneity_check(example2, chart, n_pairs=10, n_samples=8)
        assert not report.passed
        assert not report.translation.passed
        assert report.translation.worst > DEFAULT_TOL.residual_tol
        assert "Y" in report.translation.witness and "Z" in report.translation.witness

    def test_leafwise_zero_is_vacuous_with_warning(self, example1, cube_identity_chart):
        chart = cube_identity_chart.with_leafwise(0)
        with pytest.warns(UserWarning, match="vacuous"):
            report = homogeneity_check(example1, chart, n_pairs=4, n_samples=4)
        assert report.passed

    def test_leafwise_above_grade_aborts_foliated_and_eq25(self, example1, cube_identity_chart):
        chart = cube_identity_chart.with_leafwise(3)  # grade is 2 on the slab
        report = homogeneity_check(example1, chart, n_pairs=6, n_samples=6)
        assert report.aborted
        assert not report.passed
        assert not report.foliated.passed and not report.eq25.passed
        assert report.translation.n > 0  # translation still ran

    def test_json_schema(self, example1, cube_identity_chart):
        payload = homogeneity_check(example1, cube_identity_chart,
                                    n_pairs=4, n_samples=4).to_json_dict()
        assert sorted(payload) == ["eq25", "foliated", "params", "translation"]
        for key in ("eq25", "foliated", "translation"):
            assert set(payload[key]) >= {"pass", "worst", "witness"}
        assert "diagnostics" in payload["params"]

    def test_affine_recoordination_preserves_verdicts(self, example1, cube_identity_chart):
        # post-compose with a block affine map mixing leafwise coordinates
        # among themselves: same leaves, same verdicts
        A = np.array([[2.0, 0.5, 0.0], [-0.3, 1.5, 0.0], [0.0, 0.0, 0.7]])
        b = np.array([0.1, -0.2, 0.05])
        base = cube_identity_chart

        def forward(X):
            return A @ base.forward(X) + b

        def inverse(q):
            return base.inverse(np.linalg.solve(A, np.asarray(q, dtype=float) - b))

        def jacobian(X):
            return A @ base.jac(X)

        recoordinated = Chart("affine-of-identity", forward, inverse, 2,
                              jacobian=jacobian, region=base.region)
        r1 = homogeneity_check(example1, base, n_pairs=8, n_samples=6)
        r2 = homogeneity_check(example1, recoordinated, n_pairs=8, n_samples=6)
        assert (r1.passed, r1.foliated.passed, r1.translation.passed, r1.eq25.passed) == \
               (r2.passed, r2.foliated.passed, r2.translation.passed, r2.eq25.passed)
        assert r2.eq25.worst <= 10 * max(r1.eq25.worst, DEFAULT_TOL.residual_tol)

    def test_derivative_criterion_implies_translation(self, example1, cube_identity_chart):
        # when the leafwise derivative vanishes along a leaf segment, the
        # finite translation test must accept pairs inside that segment
        report = homogeneity_check(example1, cube_identity_chart, n_pairs=12, n_samples=8)
        assert report.eq25.passed
        assert report.translation.passed


class TestEq25:
    def test_leafwise_directions_are_flat(self, example1, cube_identity_chart):
        X = np.array([0.5, 0.2, -0.1])
        for L in range(2):
            value = eq25_residual(example1, cube_identity_chart, X, np.eye(3), L)
            assert value <= 1e-9

    def test_transverse_direction_detects_inhomogeneity(self, example1):
        # with the natural axis order the first chart coordinate is X1;
        # the residual there is f'(0.5) * max|(2I)^T(2I) - I| = 3 f'(0.5)
        chart = builtin_chart("identity", order=(1, 2, 3)).with_leafwise(1)
        value = eq25_residual(example1, chart, np.array([0.5, 0.0, 0.0]),
                              2.0 * np.eye(3), 0)
        rate = np.exp(-2.0) / 0.25
        assert value >= 1e-3
        assert value == pytest.approx(3.0 * rate, rel=1e-4)

    def test_base_independent_model_is_flat_everywhere(self, det_cal):
        chart = builtin_chart("identity")
        for L in range(2):
            value = eq25_residual(det_cal, chart, np.array([0.2, 0.1, 0.0]), np.eye(3), L)
            assert value <= 1e-9


class TestChartConstruction:
    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError, match="unknown chart"):
            builtin_chart("mercator")

    def test_identity_requires_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            builtin_chart("identity", order=(1, 1, 3))

    @pytest.mark.parametrize("A", [np.zeros((3, 3)), np.full((3, 3), np.nan)],
                             ids=["singular", "nan"])
    def test_affine_matrix_must_be_regular(self, A):
        with pytest.raises(SingularMatrixError):
            builtin_chart("affine", A=A)

    def test_expression_chart_with_jacobian_passes(self, example1):
        chart = chart_from_expressions(
            ["X2", "X3", "X1"], ["X3", "X1", "X2"], leafwise_count=2,
            region=region_right_slab,
            jacobian_exprs=[["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
        )
        report = homogeneity_check(example1, chart, n_pairs=6, n_samples=5)
        assert report.passed

    def test_expression_chart_without_jacobian_is_noise_limited(self, example1):
        # without jac entries the Jacobian is the exact forward-mode
        # derivative of the compiled forward map, so no finite-difference
        # noise reaches the flat-derivative quotient and eq25 passes too
        chart = chart_from_expressions(
            ["X2", "X3", "X1"], ["X3", "X1", "X2"], leafwise_count=2,
            region=region_right_slab,
        )
        report = homogeneity_check(example1, chart, n_pairs=6, n_samples=5)
        assert report.foliated.passed
        assert report.translation.passed
        assert report.eq25.worst <= 1e-2
        assert report.eq25.passed

    def test_expression_jacobian_is_exact(self):
        chart = chart_from_expressions(["X1 * X2", "exp(X3) + X1^2", "X3 / X1"],
                                       ["X1", "X2", "X3"], leafwise_count=1)
        x, y, z = 0.4, -0.7, 0.3
        expected = np.array([[y, x, 0.0], [2 * x, 0.0, 0.0], [-z / x**2, 0.0, 1 / x]])
        expected[1, 2] = np.exp(z)
        np.testing.assert_allclose(chart.jac(np.array([x, y, z])), expected, rtol=1e-15, atol=0)

    def test_bad_inverse_is_caught(self, example1):
        chart = chart_from_expressions(
            ["X1", "X2", "X3"], ["X1 + 0.5", "X2", "X3"], leafwise_count=2,
            region=region_right_slab,
        )
        with pytest.raises(ValueError, match="round-trip"):
            homogeneity_check(example1, chart, n_pairs=4, n_samples=4)

    @pytest.mark.parametrize("broken,error,match", [
        ("inverse", ValueError, "round-trip"),
        ("jacobian", SingularMatrixError, "singular"),
    ])
    def test_nan_chart_is_caught_before_any_base_query(self, example1, monkeypatch, broken,
                                                        error, match):
        def nan(X):
            return np.full((3, 3) if broken == "jacobian" else 3, np.nan)

        def no_query(*args, **kwargs):
            raise AssertionError("a base query ran on a chart with NaN entries")

        parts = {"inverse": lambda q: np.asarray(q, dtype=float), "jacobian": lambda X: np.eye(3)}
        parts[broken] = nan
        chart = Chart("nan", lambda X: np.asarray(X, dtype=float), parts["inverse"],
                      leafwise_count=2, jacobian=parts["jacobian"], region=region_right_slab)
        monkeypatch.setattr(homogeneity, "fibres_at", no_query)
        with pytest.raises(error, match=match):
            homogeneity_check(example1, chart, n_pairs=4, n_samples=4)
        if broken == "jacobian":
            with pytest.raises(SingularMatrixError):
                translation_jet(chart, [0.5, 0.0, 0.0], [0.6, 0.0, 0.0])

    def test_spherical_chart_consistency(self, example2):
        chart = builtin_chart("spherical_cap")
        rng = np.random.default_rng(5)
        for X in sample_region(example2, chart, rng, 20):
            np.testing.assert_allclose(chart.inverse(chart.forward(X)), X, atol=1e-12)
            fd = np.zeros((3, 3))
            h = 1e-7
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = h
                fd[:, i] = (chart.forward(X + dp) - chart.forward(X - dp)) / (2 * h)
            np.testing.assert_allclose(chart.jac(X), fd, atol=1e-6)


class TestCountsAndOracles:
    def test_empty_counts_fail_before_sampling(self, example1, cube_identity_chart, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_region ran before the count check")

        with pytest.raises(ValueError, match="at least 1"):
            sample_region(example1, cube_identity_chart, np.random.default_rng(0), 0)
        monkeypatch.setattr(homogeneity, "sample_region", no_sampling)
        for counts in ({"n_samples": 0}, {"n_pairs": 0}, {"n_samples": -3}):
            with pytest.raises(ValueError, match="at least 1"):
                homogeneity_check(example1, cube_identity_chart, **counts)

    def test_unknown_leaf_oracle_rejected(self, example1, cube_identity_chart):
        with pytest.raises(ValueError, match="unknown leaf oracle"):
            leaf_pairs(example1, cube_identity_chart, 2, leaf_oracle="bogus")
        with pytest.raises(ValueError, match="unknown leaf oracle"):
            homogeneity_check(example1, cube_identity_chart, leaf_oracle="bogus")


class TestDirectorFlatness:
    SAMPLES = np.array([[0.5, 0.1, 0.05], [0.4, -0.1, 0.1]])

    @staticmethod
    def cap_failing_once(exc):
        cap = builtin_chart("spherical_cap")
        calls = []

        def inverse(q):
            calls.append(q)
            if len(calls) == 1:
                raise exc
            return cap.inverse(q)

        return Chart("cap", cap.forward, inverse, 2, jacobian=cap.jacobian, region=cap.region)

    def test_numerical_failures_are_counted(self, example2):
        diag = homogeneity._base_diagnostics(example2, builtin_chart("spherical_cap"),
                                             self.SAMPLES, 2, DEFAULT_TOL)
        assert "director_skipped" not in diag
        chart = self.cap_failing_once(DomainError("step left the domain"))
        diag = homogeneity._base_diagnostics(example2, chart, self.SAMPLES, 2, DEFAULT_TOL)
        assert diag["director_skipped"] == 1
        assert np.isfinite(diag["director_leafwise_derivative"])

    def test_programming_errors_propagate(self, example2):
        chart = self.cap_failing_once(TypeError("bug"))
        with pytest.raises(TypeError, match="bug"):
            homogeneity._base_diagnostics(example2, chart, self.SAMPLES, 2, DEFAULT_TOL)
