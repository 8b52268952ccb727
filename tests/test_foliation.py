import io
import json

import numpy as np
import pytest

from matdist import distribution, foliation
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

from strata_reference import label_strata


def fragile_batched(analytic):
    """An isotropic model whose response (and derivatives) are NaN near X1 = 0.5."""
    def bad(Xs):
        return np.abs(Xs[:, 0] - 0.5) < 1e-3

    def evaluate(Xs, Fs):
        W = np.einsum("kji,kjl->kil", Fs, Fs).reshape(len(Fs), 9)
        return np.where(bad(Xs)[:, None], np.nan, W)

    def derivatives(Xs, Fs):
        # dP^T C + C dP along F (I + t dP), with C = F^T F
        m = len(Fs)
        C = np.einsum("kji,kjl->kil", Fs, Fs)
        eye = np.eye(3)
        rows = np.einsum("pb,kaq->kpqab", eye, C) + np.einsum("qb,kpa->kpqab", eye, C)
        block = np.concatenate([np.zeros((m, 9, 3)), rows.reshape(m, 9, 9)], axis=2)
        return np.where(bad(Xs)[:, None, None], np.nan, block)

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
            return np.concatenate([np.broadcast_to(np.eye(3), (m, 3, 3)), np.zeros((m, 3, 9))],
                                  axis=2)

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
            return np.zeros((len(Fs), 1, 12))

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
    def test_batching_matches_single_node_fibres(self, name, monkeypatch):
        # every node reads the same gradient draws, so running nodes in
        # batches (40 nodes in chunks of 16: three chunks) cannot change any
        # bit of a result
        monkeypatch.setattr(distribution, "_chunk_nodes", lambda *args: 16)
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
    def test_germ1_batching_matches_single_node_fibres(self, name, monkeypatch):
        # germ1 nodes run in chunks too (18 nodes in chunks of 7: three
        # chunks), every cloud reading the same draws
        monkeypatch.setattr(distribution, "_chunk_nodes", lambda *args: 7)
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
        assert payload["n_errors"] == 0
        assert payload["errors"] == []
        assert set(payload) == {"grid", "mode", "grade", "rank_gap", "stratum", "regular",
                                "grades_present", "node_counts", "stratum_count",
                                "unknown_nodes", "tolerance_sensitive", "n_errors", "errors"}
        json.dumps(payload)

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


class TestStrataLabels:
    # the vectorised labelling against the flood fill it replaced: the same
    # labels, numbered in the same order, with -1 at unknown nodes
    def test_random_grids_match_the_flood_fill(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            shape = tuple(rng.integers(1, 9, 3))
            grades = rng.integers(1, 4)
            grade = rng.integers(-1, grades, shape)
            if rng.random() < 0.5:  # large blocks, so that strata wind through the grid
                grade = np.where(rng.random(shape) < 0.9, grade.flat[0], grade)
            np.testing.assert_array_equal(foliation._label_strata(grade), label_strata(grade))

    @pytest.mark.parametrize("grade", [
        np.full((3, 4, 5), -1), np.zeros((1, 1, 1), dtype=int), np.zeros((0, 2, 2), dtype=int),
        np.arange(24).reshape(2, 3, 4) % 2,
    ], ids=["unknown", "one-node", "empty", "checkerboard-ish"])
    def test_edge_grids(self, grade):
        np.testing.assert_array_equal(foliation._label_strata(grade), label_strata(grade))

    def test_winding_stratum_is_one_label(self):
        # a corridor of grade 2 that snakes through walls of grade 1
        grade = np.ones((9, 9, 9), dtype=int)
        grade[:, ::2, :] = 2
        grade[:, 1::4, -1] = 2
        grade[:, 3::4, 0] = 2
        labels = foliation._label_strata(grade)
        np.testing.assert_array_equal(labels, label_strata(grade))
        assert len(np.unique(labels[grade == 2])) == 1
