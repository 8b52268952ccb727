import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matdist import distribution
from matdist.distribution import (
    GERM_CLOUD,
    GERM_RADIUS,
    MODES,
    SamplerConfig,
    fibres_at,
    is_material_isomorphism,
    material_fibre,
    symmetry_algebra,
)
from matdist.errors import (
    DomainError,
    FibreInstabilityError,
    MatdistError,
    SamplerExhaustedError,
    SingularMatrixError,
)
from matdist.foliation import GridSpec, grade_map
from matdist.numkit import DEFAULT_TOL, Tolerances, principal_angles
from matdist.response import ConstitutiveModel, builtin, derivatives, evaluate

from conftest import expm3, random_invertible


def cube_stiffness(x1):
    return 1.0 if x1 <= 0 else 1.0 + np.exp(-1.0 / x1)


def cube_stiffness_rate(x1):
    return 0.0 if x1 <= 0 else np.exp(-1.0 / x1) / x1**2


def cube_directional_value(X, F, dX, dP):
    """Closed-form directional derivative for the piecewise-stiffness cube:
    f (dP^T C + C dP) + dX1 f' (C - I) with C = F^T F."""
    C = F.T @ F
    out = cube_stiffness(X[0]) * (dP.T @ C + C @ dP)
    out = out + dX[0] * cube_stiffness_rate(X[0]) * (C - np.eye(3))
    return out.ravel()


def crystal_directional_value(X, F, dX, dP, radius=1.0):
    """Closed-form directional derivative for the liquid-crystal model with
    the default director e = X + radius*e1 (so de/dX = I)."""
    e = np.asarray(X, dtype=float).copy()
    e[0] += radius
    u = F @ e
    r_row = 2.0 * u @ (F @ (dX + dP @ e)) + 2.0 * np.dot(X, dX)
    j_row = np.linalg.det(F) * np.trace(dP)
    return np.array([r_row, j_row])


def unpack(candidate):
    return np.asarray(candidate[:3]), np.asarray(candidate[3:]).reshape(3, 3)


class TestAdmissibilityBlock:
    def test_identity_cal_structure(self, identity_cal):
        # W = F: no base dependence, and the dP column (l,i) must carry
        # F[j,l] at response rows (j,i)
        F = random_invertible(np.random.default_rng(0))
        B = derivatives(identity_cal, [0.1, 0.2, 0.3], F)
        np.testing.assert_array_equal(B[:, :3], np.zeros((9, 3)))
        for j in range(3):
            for i in range(3):
                for l in range(3):
                    for m in range(3):
                        expected = F[j, l] if m == i else 0.0
                        assert B[3 * j + i, 3 + 3 * l + m] == pytest.approx(expected, abs=1e-12)

    def test_det_cal_row_is_scaled_identity_pattern(self, det_cal):
        F = random_invertible(np.random.default_rng(1))
        B = derivatives(det_cal, [0.0, 0.0, 0.0], F)
        assert B.shape == (1, 12)
        np.testing.assert_allclose(B[0, :3], np.zeros(3), atol=1e-12)
        expected = np.linalg.det(F) * np.eye(3).ravel()
        np.testing.assert_allclose(B[0, 3:], expected, atol=1e-10)

    def test_example1_block_matches_closed_form(self, example1):
        rng = np.random.default_rng(2)
        X = np.array([0.4, -0.2, 0.1])
        F = random_invertible(rng)
        B = derivatives(example1, X, F)
        for _ in range(20):
            u = rng.standard_normal(12)
            dX, dP = unpack(u)
            np.testing.assert_allclose(B @ u, cube_directional_value(X, F, dX, dP),
                                       rtol=0, atol=1e-10)

    def test_example1_identity_gradient_symmetrizes(self, example1):
        # at F = I the closed form collapses to f * (dP + dP^T)
        X = np.array([-0.5, 0.0, 0.0])
        B = derivatives(example1, X, np.eye(3))
        rng = np.random.default_rng(3)
        dP = rng.standard_normal((3, 3))
        u = np.concatenate([np.zeros(3), dP.ravel()])
        np.testing.assert_allclose((B @ u).reshape(3, 3), dP + dP.T, atol=1e-12)

    def test_example2_block_matches_closed_form(self, example2):
        rng = np.random.default_rng(4)
        X = np.array([0.3, 0.2, 0.1])
        F = random_invertible(rng)
        B = derivatives(example2, X, F)
        for _ in range(20):
            u = rng.standard_normal(12)
            dX, dP = unpack(u)
            np.testing.assert_allclose(B @ u, crystal_directional_value(X, F, dX, dP),
                                       rtol=0, atol=1e-9)

    def test_singular_gradient_rejected(self, example1):
        with pytest.raises(SingularMatrixError):
            derivatives(example1, [0.0, 0.0, 0.0], np.diag([1.0, 1.0, 0.0]))


class TestPointwiseFibre:
    def test_cube_full_grade_region(self, example1):
        result = material_fibre(example1, [-0.5, 0.2, 0.1])
        assert result.grade == 3
        assert result.fibre_dim == 3
        assert result.sym_dim == 0
        assert result.validated
        assert result.heldout_residual <= DEFAULT_TOL.residual_tol

    def test_cube_laminated_region(self, example1):
        result = material_fibre(example1, [0.5, 0.0, 0.0])
        assert result.grade == 2
        # the base projection is the plane normal to the stiffness gradient
        assert np.abs(result.base_basis[0, :]).max() < 1e-9

    def test_crystal_spheres(self, example2):
        X = np.array([0.3, 0.2, 0.1])
        result = material_fibre(example2, X)
        assert result.grade == 2
        assert result.fibre_dim == 7
        assert result.sym_dim == 5
        # base directions are tangent to the sphere through X
        assert np.abs(result.base_basis.T @ X).max() < 1e-9

    def test_det_cal_unimodular_algebra(self, det_cal):
        result = material_fibre(det_cal, [0.1, 0.2, 0.3])
        assert result.grade == 3
        assert result.sym_dim == 8
        for S in result.sym_basis:
            assert abs(np.trace(S)) <= 1e-9

    def test_identity_cal_trivial_algebra(self, identity_cal):
        result = material_fibre(identity_cal, [0.1, 0.2, 0.3])
        assert result.grade == 3
        assert result.fibre_dim == 3
        assert result.sym_dim == 0

    def test_point_outside_domain(self, example1):
        with pytest.raises(DomainError):
            material_fibre(example1, [1.5, 0.0, 0.0])

    def test_result_json_schema(self, example1):
        payload = material_fibre(example1, [0.5, 0.0, 0.0]).to_json_dict()
        assert sorted(payload) == sorted(
            ["point", "grade", "fibre_dim", "sym_dim", "rank_gap", "mode",
             "base_basis", "validated", "samples_used", "dim_history", "heldout_residual"]
        )
        assert payload["mode"] == "pointwise"
        assert len(payload["base_basis"]) == payload["grade"]


class TestGermFibre:
    def test_crystal_origin_is_totally_degenerate(self, example2):
        assert material_fibre(example2, [0.0, 0.0, 0.0], mode="germ1").grade == 0

    def test_crystal_origin_pointwise_overcounts(self, example2):
        # the pointwise system loses the radial constraint exactly at the
        # centre; the first-order field ansatz restores it
        assert material_fibre(example2, [0.0, 0.0, 0.0]).grade == 3

    def test_cube_interface_plane_grade(self, example1):
        assert material_fibre(example1, [0.2, 0.0, 0.0], mode="germ1").grade == 2

    def test_cube_free_region_grade(self, example1):
        result = material_fibre(example1, [-0.3, 0.0, 0.0], mode="germ1")
        assert result.grade == 3
        assert result.fibre_dim == 12  # free base value plus free base slope

    def test_crystal_off_centre_germ_grades(self, example2):
        # an affine field tangent to all nearby spheres must have a skew
        # slope A with base value A X, and matching a first-order fibre
        # field against the affine director e = X + e1 forces A e1 = 0;
        # the surviving rotations are about the e1 axis, so the base value
        # e1 x X vanishes on the axis and is one-dimensional off it
        assert material_fibre(example2, [0.3, 0.0, 0.0], mode="germ1").grade == 0
        assert material_fibre(example2, [0.3, 0.2, 0.1], mode="germ1").grade == 1
        assert material_fibre(example2, [0.0, 0.0, 0.3], mode="germ1").grade == 1

    # Today's germ1 grades of example2, pinned: pointwise reports 2 (the
    # spheres) off the centre, but the affine ansatz reads its own O(r^2)
    # truncation as a constraint, so germ1 reports 1 at generic points, 0
    # on the director's axis (X2 = X3 = 0) and 0 at the centre, each
    # validated.  A change that moves them changes answers on purpose.
    @settings(max_examples=25, deadline=None)
    @given(radius=st.floats(0.2, 0.8), polar=st.floats(0.05, np.pi - 0.05),
           azimuth=st.floats(0.0, 2.0 * np.pi))
    def test_crystal_germ_grade_off_the_axis(self, example2, radius, polar, azimuth):
        X = radius * np.array([np.cos(polar), np.sin(polar) * np.cos(azimuth),
                               np.sin(polar) * np.sin(azimuth)])
        result = material_fibre(example2, X, mode="germ1")
        assert (result.grade, result.validated) == (1, True)

    @settings(max_examples=10, deadline=None)
    @given(x1=st.one_of(st.floats(-0.8, -0.2), st.floats(0.2, 0.8)))
    def test_crystal_germ_grade_on_the_axis(self, example2, x1):
        result = material_fibre(example2, [x1, 0.0, 0.0], mode="germ1")
        assert (result.grade, result.validated) == (0, True)

    @pytest.mark.parametrize("X", [(0.3, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0),
                                   (0.0, 0.0, 0.0)])
    def test_crystal_germ_grade_on_the_axis_and_at_the_centre(self, example2, X):
        result = material_fibre(example2, X, mode="germ1")
        assert (result.grade, result.validated) == (0, True)

    def test_germ_grade_never_exceeds_pointwise(self, example1, example2):
        rng = np.random.default_rng(77)
        for model, lo in ((example1, -0.9), (example2, -0.55)):
            for _ in range(6):
                X = rng.uniform(lo, 0.55, 3)
                g_point = material_fibre(model, X).grade
                g_germ = material_fibre(model, X, mode="germ1").grade
                assert g_germ <= g_point

    def test_validation_runs_in_germ_mode(self, example2):
        result = material_fibre(example2, [0.2, 0.1, 0.0], mode="germ1")
        assert result.validated
        assert result.heldout_residual <= DEFAULT_TOL.residual_tol


class TestSymmetryAlgebra:
    def test_cube_algebra_matches_dense_oracle(self, example1):
        # oracle: stack the closed-form relation over many gradients and
        # extract the kernel in the fibre coefficient alone
        rng = np.random.default_rng(5)
        X = np.array([-0.5, 0.0, 0.0])
        rows = []
        for _ in range(200):
            F = random_invertible(rng)
            C = F.T @ F
            block = np.zeros((9, 9))
            for l in range(3):
                for m in range(3):
                    dP = np.zeros((3, 3))
                    dP[l, m] = 1.0
                    block[:, 3 * l + m] = (dP.T @ C + C @ dP).ravel()
            rows.append(block)
        M = np.vstack(rows)
        oracle_dim = 9 - np.linalg.matrix_rank(M, tol=1e-8 * np.linalg.svd(M, compute_uv=False)[0])

        produced = symmetry_algebra(example1, X)
        assert len(produced) == oracle_dim == 0

    def test_single_gradient_oracle_sanity(self):
        # with one gradient (the identity) the same relation admits exactly
        # the skew matrices; this pins the oracle itself
        block = np.zeros((9, 9))
        for l in range(3):
            for m in range(3):
                dP = np.zeros((3, 3))
                dP[l, m] = 1.0
                block[:, 3 * l + m] = (dP.T + dP).ravel()
        assert 9 - np.linalg.matrix_rank(block) == 3

    def test_det_cal_exponentiates_into_unimodular_group(self, det_cal):
        X = np.array([0.1, 0.2, 0.3])
        basis = symmetry_algebra(det_cal, X)
        rng = np.random.default_rng(6)
        F = random_invertible(rng)
        W0 = evaluate(det_cal, X, F)
        for S in basis:
            for t in (0.1, 1.0):
                G = expm3(S, t)
                W1 = evaluate(det_cal, X, F @ G)
                assert np.abs(W1 - W0).max() <= 1e-12


class TestIsomorphismCheck:
    def test_identity_jet_at_same_point(self, example1):
        check = is_material_isomorphism(example1, [0.3, 0.1, 0.0], [0.3, 0.1, 0.0], np.eye(3))
        assert check.verdict
        assert check.residual == 0.0

    def test_flat_region_points_are_isomorphic(self, example1):
        check = is_material_isomorphism(example1, [-0.5, 0.0, 0.0], [-0.2, 0.3, 0.3], np.eye(3))
        assert check.verdict

    def test_distinct_stiffness_detected(self, example1):
        check = is_material_isomorphism(example1, [0.5, 0.0, 0.0], [0.7, 0.0, 0.0], np.eye(3))
        assert not check.verdict
        gap = abs(cube_stiffness(0.7) - cube_stiffness(0.5))
        assert check.residual >= 3.0 * gap

    def test_singular_jet_rejected(self, example1):
        with pytest.raises(SingularMatrixError):
            is_material_isomorphism(example1, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                    np.zeros((3, 3)))


def scaled_copy(model, factor):
    scaled_derivs = None
    if model._derivatives is not None:
        def scaled_derivs(Xs, Fs, _orig=model._derivatives):
            return factor * np.asarray(_orig(Xs, Fs))

    return ConstitutiveModel(
        f"{model.name}*{factor:g}", model.dim,
        lambda Xs, Fs: factor * model._evaluate(Xs, Fs),
        domain=model.domain, bounds=model.bounds,
        derivatives=scaled_derivs,
    )


class TestInvariants:
    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    @pytest.mark.parametrize("name,point", [
        ("example1", (0.5, 0.1, -0.2)),
        ("example2", (0.3, 0.2, 0.1)),
    ])
    def test_response_scaling_leaves_fibre_unchanged(self, name, point, factor):
        base = material_fibre(builtin(name), point)
        scaled = material_fibre(scaled_copy(builtin(name), factor), point)
        assert scaled.grade == base.grade
        assert scaled.fibre_dim == base.fibre_dim
        assert scaled.sym_dim == base.sym_dim
        assert principal_angles(base.fibre_basis, scaled.fibre_basis).max() < 1e-8
        assert principal_angles(base.base_basis, scaled.base_basis).max() < 1e-8
        if base.sym_dim:
            s1 = np.column_stack([S.ravel() for S in base.sym_basis])
            s2 = np.column_stack([S.ravel() for S in scaled.sym_basis])
            assert principal_angles(s1, s2).max() < 1e-8

    def test_dimension_bookkeeping(self, example1, example2, det_cal, identity_cal):
        # base rank + symmetry dimension account for the whole fibre, and
        # the base projection can add at most three directions
        cases = [(example1, (-0.5, 0.2, 0.1)), (example1, (0.5, 0.0, 0.0)),
                 (example2, (0.3, 0.2, 0.1)), (det_cal, (0.1, 0.2, 0.3)),
                 (identity_cal, (0.1, 0.2, 0.3))]
        for model, point in cases:
            r = material_fibre(model, point)
            assert 0 <= r.grade <= 3
            assert r.fibre_dim <= 12
            assert r.grade <= r.fibre_dim
            assert r.sym_dim + r.grade <= r.fibre_dim <= r.sym_dim + 3

    def test_dimensions_are_seed_independent(self, example1, example2, det_cal):
        cases = [(example1, (-0.5, 0.2, 0.1)), (example1, (0.5, 0.0, 0.0)),
                 (example2, (0.3, 0.2, 0.1)), (det_cal, (0.1, 0.2, 0.3))]
        for model, point in cases:
            dims = set()
            for seed in range(5):
                r = material_fibre(model, point, sampler=SamplerConfig(seed=seed))
                dims.add((r.grade, r.fibre_dim, r.sym_dim))
            assert len(dims) == 1

    def test_fibre_is_a_linear_subspace(self, example2):
        X = np.array([0.3, 0.2, 0.1])
        result = material_fibre(example2, X)
        rng = np.random.default_rng(8)
        B = result.fibre_basis
        combos = [B[:, 0] + B[:, 1], 2.5 * B[:, 0], B @ rng.standard_normal(B.shape[1])]
        for u in combos:
            dX, dP = unpack(u)
            worst = 0.0
            for _ in range(10):
                F = random_invertible(rng)
                worst = max(worst, np.abs(crystal_directional_value(X, F, dX, dP)).max())
            scale = max(1.0, float(np.linalg.norm(u)))
            assert worst <= DEFAULT_TOL.residual_tol * scale

    def test_left_invariance_by_fresh_differences(self, example1, example2):
        # directional derivative of the response along (dX, F dP), central
        # differences applied directly to evaluate, not the assembled rows
        rng = np.random.default_rng(9)
        for model, X in ((example1, np.array([0.5, 0.0, 0.0])),
                         (example2, np.array([0.3, 0.2, 0.1]))):
            result = material_fibre(model, X)
            assert result.validated
            F = random_invertible(rng)
            h = 1e-6
            for j in range(result.fibre_dim):
                dX, dP = unpack(result.fibre_basis[:, j])
                Wp = evaluate(model, X + h * dX, F + h * F @ dP)
                Wm = evaluate(model, X - h * dX, F - h * F @ dP)
                assert np.abs((Wp - Wm) / (2 * h)).max() <= 10 * DEFAULT_TOL.residual_tol


def assert_node_is_the_fibre(model, X, node, mode):
    """``node``, one result of :func:`fibres_at`, equals the one-point fibre at ``X``."""
    try:
        want = material_fibre(model, X, mode=mode)
    except MatdistError as exc:
        assert type(node) is type(exc) and str(node) == str(exc)
        return
    assert not isinstance(node, Exception), f"{X}: {node}"
    assert np.array_equal(node.point, want.point) and node.mode == want.mode
    assert node.grade == want.grade
    assert node.rank_gap == want.rank_gap
    assert np.array_equal(node.base_basis, want.base_basis)
    assert np.array_equal(node.fibre_basis, want.fibre_basis)
    assert node.validated == want.validated
    assert node.heldout_residual == want.heldout_residual
    assert node.samples_used == want.samples_used and node.dim_history == want.dim_history


class TestFibreEntry:
    # per model: a point whose germ cloud the boundary cuts short, two with
    # full clouds and one outside the domain
    MIXED = {
        "example1": [[0.99995, 0.99995, 0.3], [0.5, 0.0, 0.0], [0.0, 0.0, 1.5], [-0.5, 0.2, 0.1]],
        "example2": [[0.99995, 0.0, 0.0], [0.3, 0.2, 0.1], [2.0, 0.0, 0.0], [-0.4, 0.1, 0.0]],
    }

    @pytest.mark.parametrize("name", list(MIXED))
    def test_germ_batches_match_one_point_fibres(self, name):
        model = builtin(name)
        points = self.MIXED[name]
        cloud = distribution._cloud_points(model, np.array(points[0]), GERM_RADIUS, GERM_CLOUD)
        assert len(cloud) < GERM_CLOUD + 1
        for batch in (points, [points[1], points[3]]):  # with and without the short cloud
            for X, node in zip(batch, fibres_at(model, batch, mode="germ1")):
                assert_node_is_the_fibre(model, X, node, "germ1")

    def test_each_mode_seeds_its_own_streams(self, example2, monkeypatch):
        # the salts are part of every payload: pointwise nodes draw from
        # stream 0 and germ1 nodes from stream 1 of their coordinates
        seeded = []
        point_rng = distribution._point_rng

        def spy(sampler, key_values, salt):
            seeded.append((tuple(key_values), salt))
            return point_rng(sampler, key_values, salt)

        monkeypatch.setattr(distribution, "_point_rng", spy)
        points = [(0.3, 0.2, 0.1), (-0.4, 0.1, 0.0)]
        for mode, salt in (("pointwise", 0), ("germ1", 1)):
            seeded.clear()
            fibres_at(example2, points, mode=mode)
            assert seeded == [(X, salt) for X in points]

    @pytest.mark.parametrize("mode", MODES)
    def test_exhausted_sampler_fails_each_node(self, example1, mode):
        # a valid bound that no random gradient meets: the sampler gives up
        # after its batch budget, and that fails each node, not the batch
        sampler = SamplerConfig(cond_max=1.0)
        nodes = fibres_at(example1, [[0.5, 0.0, 0.0], [0.2, 0.0, 0.0]], mode=mode, sampler=sampler)
        assert [type(node) for node in nodes] == [SamplerExhaustedError] * 2
        assert isinstance(nodes[0], RuntimeError)
        with pytest.raises(SamplerExhaustedError, match="gradient sampler"):
            material_fibre(example1, [0.5, 0.0, 0.0], mode=mode, sampler=sampler)
        field = grade_map(example1, GridSpec((0.2, 0.0, 0.0), (0.5, 0.0, 0.0), (2, 1, 1)),
                          mode=mode, sampler=sampler)
        assert [idx for idx, _ in field.errors] == [(0, 0, 0), (1, 0, 0)]
        assert np.all(field.grade == -1)

    def test_unknown_mode_rejected_before_compute(self, example2, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("the fibre kernel ran before the mode check")

        monkeypatch.setattr(distribution, "_fibres", no_compute)
        for run in (lambda: fibres_at(example2, [[0.0, 0.0, 0.0]], mode="germ2"),
                    lambda: material_fibre(example2, [2.0, 0.0, 0.0], mode="germ2"),
                    lambda: grade_map(example2, GridSpec((0,) * 3, (0,) * 3, (1, 1, 1)),
                                      mode="germ2")):
            with pytest.raises(ValueError, match="unknown mode"):
                run()


class TestGermArguments:
    @pytest.mark.parametrize("radius,cloud", [
        (0.0, 20), (-1e-2, 20), (float("nan"), 20), (float("inf"), 20), (1e-2, 0), (1e-2, -3),
        (1e-2, 2.5),
    ], ids=["radius-zero", "radius-negative", "radius-nan", "radius-inf", "cloud-zero",
            "cloud-negative", "cloud-fractional"])
    def test_bad_cloud_rejected_before_compute(self, radius, cloud, example2, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("the fibre kernel ran before the germ argument check")

        # every fibre query goes through fibres_at, the one caller of the kernel
        monkeypatch.setattr(distribution, "_fibres", no_compute)
        for mode in MODES:
            with pytest.raises(ValueError, match="germ"):
                fibres_at(example2, [[0.0, 0.0, 0.0]], mode=mode, germ_radius=radius,
                          germ_cloud=cloud)
            with pytest.raises(ValueError, match="germ"):
                material_fibre(example2, [0.0, 0.0, 0.0], mode=mode, germ_radius=radius,
                               germ_cloud=cloud)
            with pytest.raises(ValueError, match="germ"):
                grade_map(example2, GridSpec((-0.5,) * 3, (0.5,) * 3, (2, 2, 2)), mode=mode,
                          germ_radius=radius, germ_cloud=cloud)

    def test_smallest_cloud_runs(self, example2):
        result = material_fibre(example2, [0.3, 0.2, 0.1], mode="germ1", germ_cloud=1)
        k = 8 * 2 ** (len(result.dim_history) - 1)
        assert result.samples_used == (k + 3) * 2  # the centre and one neighbour


class TestSamplerConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(k_init=2)
        with pytest.raises(ValueError):
            SamplerConfig(k_init=8, k_max=10)
        for det_min in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ValueError, match="det_min"):
                SamplerConfig(det_min=det_min)
        for cond_max in (0.5, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="cond_max"):
                SamplerConfig(cond_max=cond_max)

    def test_boundary_configs_accepted(self):
        SamplerConfig(det_min=0.0, cond_max=1.0)
        SamplerConfig(cond_max=float("inf"))

    def test_fractional_sample_counts_rejected(self):
        # k_init = 8.5 used to pass here and raise a bare TypeError mid-batch
        for kwargs in ({"k_init": 8.5}, {"k_max": 128.0}, {"k_init": True}):
            with pytest.raises(ValueError, match="must be an integer"):
                SamplerConfig(**kwargs)
        SamplerConfig(k_init=np.int64(8), k_max=np.int32(16))

    def test_fractional_seed_rejected(self):
        # seed = 1.5 used to be truncated to 1 without a word
        for seed in (1.5, "1", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                SamplerConfig(seed=seed)
        assert SamplerConfig(seed=np.uint32(7)).seed == 7

    def test_singular_anchor_rejected(self, example2):
        eye = np.eye(3)
        for bad in (np.zeros((3, 3)), np.diag([1.0, 1.0, 1e-13]), np.full((3, 3), np.nan),
                    np.diag([1.0, np.inf, 1.0])):
            with pytest.raises(ValueError, match="anchors must be finite and nonsingular"):
                SamplerConfig(anchors=(eye, bad))
        sampler = SamplerConfig(anchors=(eye, np.diag([1.0, 2.0, 1e-12])))
        assert material_fibre(example2, [0.3, 0.2, 0.1], sampler=sampler).grade == 2

    def test_wrong_shape_anchors_rejected(self):
        for bad in ((), np.eye(3), np.ones((2, 2, 2)), np.ones((1, 3, 4)), [np.eye(3), np.eye(2)],
                    "eye"):
            with pytest.raises(ValueError, match=r"anchors must be a non-empty \(a, 3, 3\) stack"):
                SamplerConfig(anchors=bad)
        assert SamplerConfig(anchors=[np.eye(3)]).anchor_matrices().shape == (1, 3, 3)

    def test_instability_reported_with_history(self):
        rng = np.random.default_rng(10)

        def noisy(Xs, Fs):
            return rng.standard_normal((len(Fs), 1, 12))

        model = ConstitutiveModel("noise", 1, lambda Xs, Fs: np.zeros((len(Fs), 1)),
                                  derivatives=noisy)
        with pytest.raises(FibreInstabilityError) as err:
            material_fibre(model, [0.0, 0.0, 0.0], sampler=SamplerConfig(k_init=4, k_max=8))
        assert len(err.value.history) >= 2

    def test_tight_residual_tolerance_flags_result(self, example2):
        tol = Tolerances(residual_tol=1e-300)
        result = material_fibre(example2, [0.3, 0.2, 0.1], tol=tol)
        assert not result.validated
        assert result.heldout_residual > 0.0
