import io

import numpy as np
import pytest

from matdist.errors import NonFiniteError
from matdist.foliation import (
    GridSpec,
    grade_field_csv,
    grade_field_json_dict,
    grade_map,
    grade_slice_svg,
    leaf_trace,
    leaf_trace_csv,
    leaf_trace_json_dict,
    leaf_trace_svg,
    regularity_report,
)
from matdist.distribution import base_basis_at, material_fibre
from matdist.response import ConstitutiveModel, builtin


def fragile_batched(analytic):
    """An isotropic model whose response (and derivatives) are NaN near X1 = 0.5."""
    def bad(Xs):
        return np.abs(Xs[:, 0] - 0.5) < 1e-3

    def evaluate(Xs, Fs):
        W = np.einsum("kji,kjl->kil", Fs, Fs).reshape(len(Fs), 9)
        return np.where(bad(Xs)[:, None], np.nan, W)

    def derivatives(Xs, Fs):
        m = len(Fs)
        eye = np.eye(3)
        dWdF = (np.einsum("jm,kli->kjilm", eye, Fs)
                + np.einsum("im,klj->kjilm", eye, Fs)).reshape(m, 9, 9)
        return np.zeros((m, 9, 3)), np.where(bad(Xs)[:, None, None], np.nan, dWdF)

    return ConstitutiveModel("fragile_batched", 9, evaluate,
                             derivatives=derivatives if analytic else None)


class TestLeafTrace:
    def test_crystal_trace_stays_on_sphere(self, example2):
        trace = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 200, 0.01)
        assert trace.stop_reason == "completed"
        assert trace.n_points == 201
        radii = np.linalg.norm(trace.points, axis=1)
        assert np.abs(radii - radii[0]).max() <= 1e-4
        assert np.nanmax(trace.leaf_residuals) <= 1e-4
        assert set(trace.grades.tolist()) == {2}

    def test_cube_trace_stays_in_plane(self, example1):
        trace = leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 200, 0.01)
        assert np.abs(trace.points[:, 0] - 0.5).max() <= 1e-6

    def test_cube_free_region_truncates_at_wall(self, example1):
        trace = leaf_trace(example1, [-0.5, 0.0, 0.0], [-1.0, 0.0, 0.0], 200, 0.01)
        assert trace.stop_reason == "domain_boundary"
        assert trace.n_points < 201
        assert set(trace.grades.tolist()) == {3}

    def test_steps_have_unit_speed(self, example2):
        trace = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 50, 0.01)
        gaps = np.linalg.norm(np.diff(trace.points, axis=0), axis=1)
        assert gaps.max() <= 1.5 * trace.step

    def test_step_directions_tangent_to_base(self, example2):
        trace = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 30, 0.01)
        for point, direction in zip(trace.points[:-1], trace.directions):
            basis, _, _ = base_basis_at(example2, point)
            residual = direction - basis @ (basis.T @ direction)
            assert np.arcsin(min(1.0, float(np.linalg.norm(residual)))) <= 1e-6

    def test_reversibility(self, example2):
        forward = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 100, 0.01)
        assert forward.stop_reason == "completed"
        last_dir = forward.points[-1] - forward.points[-2]
        backward = leaf_trace(example2, forward.points[-1], -last_dir, 100, 0.01)
        assert np.linalg.norm(backward.points[-1] - forward.points[0]) <= 1e-3

    def test_grade_constant_along_trace(self, example1):
        trace = leaf_trace(example1, [0.4, 0.2, 0.0], [0.0, 0.0, 1.0], 60, 0.01)
        assert len(set(trace.grades.tolist())) == 1

    def test_orthogonal_hint_uses_tie_break(self, example1):
        # the hint is normal to the leaf plane, so the projection vanishes
        trace = leaf_trace(example1, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], 5, 0.01)
        assert trace.tie_breaks and trace.tie_breaks[0] == 0
        assert np.abs(trace.points[:, 0] - 0.5).max() <= 1e-6

    def test_step_size_guard(self, example1):
        with pytest.raises(ValueError, match="0.05"):
            leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 10, 0.1)

    def test_zero_grade_seed_rejected(self):
        # rows [I | 0] pin the base component everywhere: grade 0
        def pinned(Xs, Fs):
            m = len(Fs)
            return (np.broadcast_to(np.eye(3), (m, 3, 3)).copy(),
                    np.zeros((m, 3, 9)))

        model = ConstitutiveModel("pinned", 3, lambda Xs, Fs: np.zeros((len(Fs), 3)),
                                  derivatives=pinned)
        with pytest.raises(ValueError, match="grade"):
            leaf_trace(model, [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 10, 0.01)


class TestGradeMap:
    def test_cube_grades_split_by_interface(self, example1):
        field = grade_map(example1, GridSpec((-0.9, -0.2, -0.2), (0.9, 0.2, 0.2), (7, 3, 3)))
        pts = field.grid.points()
        left = pts[..., 0] <= 0.0
        right = pts[..., 0] >= 0.1
        assert np.all(field.grade[left] == 3)
        assert np.all(field.grade[right] == 2)
        assert field.stratum_count() == 2

    def test_crystal_ball_grid(self, example2):
        field = grade_map(example2, GridSpec((-0.6, -0.6, -0.6), (0.6, 0.6, 0.6), (5, 5, 5)))
        pts = field.grid.points()
        inside = np.linalg.norm(pts, axis=-1) < 1.0
        norms = np.linalg.norm(pts, axis=-1)
        assert np.all(field.grade[inside & (norms >= 0.05)] == 2)
        assert np.all(field.grade[~inside] == -1)

    def test_single_node_grid(self, det_cal):
        field = grade_map(det_cal, GridSpec((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1, 1, 1)))
        assert field.grade.shape == (1, 1, 1)
        assert field.grade[0, 0, 0] == 3

    def test_germ_mode_at_origin(self, example2):
        field = grade_map(example2, GridSpec((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1, 1, 1)),
                          mode="germ1")
        assert field.grade[0, 0, 0] == 0

    def test_failed_nodes_get_sentinel_and_are_recorded(self):
        def fragile(Xs, Fs):
            if np.any(np.abs(Xs[:, 0] - 0.5) < 1e-9):
                raise NonFiniteError("synthetic failure")
            m = len(Fs)
            return np.zeros((m, 1, 3)), np.zeros((m, 1, 9))

        model = ConstitutiveModel("fragile", 1, lambda Xs, Fs: np.zeros((len(Fs), 1)),
                                  derivatives=fragile)
        field = grade_map(model, GridSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (3, 1, 1)))
        assert field.grade[1, 0, 0] == -1
        assert field.grade[0, 0, 0] == 3
        assert len(field.errors) == 1
        assert field.errors[0][0] == (1, 0, 0)
        # failed node excluded from strata
        assert field.stratum[1, 0, 0] == -1

    def test_node_budget_guard(self, example1):
        with pytest.raises(ValueError, match="nodes"):
            GridSpec((-1, -1, -1), (1, 1, 1), (101, 101, 101))

    @pytest.mark.parametrize("name", ["example1", "example2", "det_cal"])
    def test_batching_matches_single_node_fibres(self, name):
        # per-node generator state is derived from the node coordinates, so
        # running nodes in batches (40 nodes: several chunks) cannot change
        # any bit of a result
        model = builtin(name)
        grid = GridSpec((-0.6, -0.3, -0.2), (0.6, 0.3, 0.2), (5, 4, 2))
        field = grade_map(model, grid)
        single = [material_fibre(model, X) for X in grid.points().reshape(-1, 3)]
        shape = field.grade.shape
        np.testing.assert_array_equal(field.grade, np.reshape([r.grade for r in single], shape))
        np.testing.assert_array_equal(field.rank_gap,
                                      np.reshape([r.rank_gap for r in single], shape))
        np.testing.assert_array_equal(field.validated,
                                      np.reshape([r.validated for r in single], shape))
        assert not field.errors

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_germ1_batching_matches_single_node_fibres(self, name):
        # germ1 nodes run in chunks too (18 nodes: two chunks), each cloud
        # drawing from its own node's generator
        model = builtin(name)
        grid = GridSpec((-0.6, -0.3, -0.2), (0.6, 0.3, 0.2), (3, 3, 2))
        field = grade_map(model, grid, mode="germ1")
        single = [material_fibre(model, X, mode="germ1") for X in grid.points().reshape(-1, 3)]
        shape = field.grade.shape
        np.testing.assert_array_equal(field.grade, np.reshape([r.grade for r in single], shape))
        np.testing.assert_array_equal(field.rank_gap,
                                      np.reshape([r.rank_gap for r in single], shape))
        np.testing.assert_array_equal(field.validated,
                                      np.reshape([r.validated for r in single], shape))
        assert not field.errors

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "central-fd"])
    def test_non_finite_node_of_batched_model_is_isolated(self, analytic):
        # derivatives of these models are evaluated for a whole chunk in one
        # batch; a non-finite response or derivative at X1 = 0.5 must fail
        # that node only
        model = fragile_batched(analytic)
        grid = GridSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (21, 1, 1))
        field = grade_map(model, grid)
        assert [idx for idx, _ in field.errors] == [(10, 0, 0)]
        assert "non-finite" in field.errors[0][1]
        assert field.grade[10, 0, 0] == -1
        others = np.delete(np.arange(21), 10)
        assert np.all(field.grade[others, 0, 0] == 3)
        for i in (0, 9, 11, 20):
            r = material_fibre(model, grid.points()[i, 0, 0])
            assert field.rank_gap[i, 0, 0] == r.rank_gap
            assert field.validated[i, 0, 0] == r.validated

    def test_non_finite_node_fails_alone_in_a_germ1_chunk(self):
        # the cloud of the node at X1 = 0.5 (radius 1e-2) meets the NaN band;
        # its neighbours' clouds, 0.1 away, do not
        model = fragile_batched(analytic=True)
        grid = GridSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (11, 1, 1))
        field = grade_map(model, grid, mode="germ1")
        with pytest.raises(NonFiniteError) as alone:
            material_fibre(model, grid.points()[5, 0, 0], mode="germ1")
        assert field.errors == [((5, 0, 0), str(alone.value))]
        assert field.grade[5, 0, 0] == -1
        for i in (0, 4, 6, 10):
            r = material_fibre(model, grid.points()[i, 0, 0], mode="germ1")
            assert field.grade[i, 0, 0] == r.grade
            assert field.rank_gap[i, 0, 0] == r.rank_gap
            assert field.validated[i, 0, 0] == r.validated


class TestRegularity:
    def test_cube_field_is_not_regular(self, example1):
        field = grade_map(example1, GridSpec((-0.9, -0.1, -0.1), (0.9, 0.1, 0.1), (5, 2, 2)))
        report = regularity_report(field)
        assert not report.regular
        assert report.grades == [2, 3]

    def test_det_cal_field_is_regular(self, det_cal):
        field = grade_map(det_cal, GridSpec((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), (3, 3, 3)))
        report = regularity_report(field)
        assert report.regular
        assert report.grades == [3]
        assert report.stratum_count == 1

    def test_synthetic_constant_field_is_regular(self, det_cal):
        field = grade_map(det_cal, GridSpec((0, 0, 0), (1, 0, 0), (2, 1, 1)))
        field.grade[:] = 2
        report = regularity_report(field)
        assert report.regular


class TestSerialization:
    def test_grade_field_csv_round_trip(self, det_cal):
        field = grade_map(det_cal, GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2, 2, 1)))
        buf = io.StringIO()
        grade_field_csv(field, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "x,y,z,grade,rank_gap,stratum"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert int(first[3]) == 3

    def test_grade_field_json_dict(self, det_cal):
        field = grade_map(det_cal, GridSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2, 1, 1)))
        payload = grade_field_json_dict(field)
        assert payload["grid"]["shape"] == [2, 1, 1]
        assert payload["regular"] is True
        assert payload["stratum_count"] == 1
        assert payload["unknown_nodes"] == 0

    def test_leaf_trace_csv(self, example2):
        trace = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 5, 0.01)
        buf = io.StringIO()
        leaf_trace_csv(trace, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "step,x,y,z,grade"
        assert len(lines) == 1 + trace.n_points
        assert lines[1].startswith("0,")

    def test_leaf_trace_json(self, example2):
        trace = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 5, 0.01)
        payload = leaf_trace_json_dict(trace)
        assert payload["n_points"] == trace.n_points
        assert payload["stop_reason"] == "completed"
        assert len(payload["points"]) == trace.n_points

    def test_grade_slice_svg(self, example1):
        field = grade_map(example1, GridSpec((-0.9, -0.2, -0.2), (0.9, 0.2, 0.2), (5, 3, 3)))
        svg = grade_slice_svg(field, 2, 0.0)
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 720 720"' in svg
        assert svg.count("<rect") == 1 + 5 * 3  # background plus one cell per node
        assert "green" in svg and "orange" in svg

    def test_leaf_trace_svg(self, example2):
        trace = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 30, 0.01)
        svg = leaf_trace_svg(trace)
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 720 720"' in svg
        assert "<polyline" in svg
        assert "orange" in svg  # grade-2 color
