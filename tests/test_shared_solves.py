"""Shared solves: nodes of a chunk whose prepared inputs are bit-identical
share one solve, and every node's result, or error, is bit-identical to the
one it gets when queried alone.

The points come from a small lattice, so batches repeat systems often:
``example1`` depends on ``X1`` alone and is constant for ``X1 <= 0``, the
calibration models do not depend on the point at all, and a point may
appear twice.  Each batch is compared with one-point queries, which share
nothing, field by field and bit by bit.
"""

import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matdist import distribution
from matdist.distribution import MODES, FibreResult, fibres_at
from matdist.errors import FibreInstabilityError, MatdistError
from matdist.foliation import GridSpec, grade_map
from matdist.response import builtin

FIELDS = [f.name for f in dataclasses.fields(FibreResult)]

MODELS = {
    "example1": builtin("example1"),
    "example2": builtin("example2"),
    "det_cal": builtin("det_cal"),
    "identity_cal": builtin("identity_cal"),
    # example2's own director passed as a custom one: no closed form, so its
    # blocks are central differences
    "example2-fd": builtin("example2", e=lambda Xs: Xs + np.array([1.0, 0.0, 0.0])),
}

# X1 = 1.5 lies outside example1's cube and example2's ball
LATTICE = st.tuples(st.sampled_from([-0.5, -0.2, 0.0, 0.3, 0.6, 1.5]),
                    st.sampled_from([-0.3, 0.0, 0.2]), st.sampled_from([0.0, 0.4]))

# one node per chunk, the default budget, and every batch in one chunk
CHUNK_BYTES = [1, distribution._CHUNK_BYTES, 64 * 2**20]


def bits(value):
    """A field's value in a form that compares type, shape and every bit."""
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return float, np.float64(value).tobytes()
    return type(value), value


def assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, MatdistError):
        assert str(got) == str(want)
        if isinstance(want, FibreInstabilityError):
            assert got.history == want.history
        return
    for name in FIELDS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def assert_own_arrays(results):
    """No array of one result shares memory with a writable array of another."""
    arrays = [(i, a) for i, r in enumerate(results) if isinstance(r, FibreResult)
              for a in (r.point, r.fibre_basis, r.base_basis, *r.sym_basis)]
    for (i, a), (j, b) in combinations(arrays, 2):
        if i != j and (a.flags.writeable or b.flags.writeable):
            assert not np.shares_memory(a, b)


class TestSharedSolvesAreExact:
    alone = {}  # one-point answers, by query: they share nothing

    def one_point(self, name, X, mode, validate, symmetry):
        key = (name, X, mode, validate, symmetry)
        if key not in self.alone:
            (self.alone[key],) = fibres_at(MODELS[name], [X], mode, validate=validate,
                                           symmetry=symmetry)
        return self.alone[key]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", list(MODELS))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(LATTICE, min_size=2, max_size=6), validate=st.booleans(),
           symmetry=st.booleans(), chunk_bytes=st.sampled_from(CHUNK_BYTES))
    def test_batches_match_one_point_queries(self, monkeypatch, name, mode, points, validate,
                                             symmetry, chunk_bytes):
        monkeypatch.setattr(distribution, "_CHUNK_BYTES", chunk_bytes)
        got = fibres_at(MODELS[name], points, mode, validate=validate, symmetry=symmetry)
        for X, result in zip(points, got):
            assert_same_result(result, self.one_point(name, X, mode, validate, symmetry))
        assert_own_arrays(got)

    @pytest.mark.parametrize("name,mode", [
        ("example1", "pointwise"), ("example2", "pointwise"), ("det_cal", "pointwise"),
        ("identity_cal", "pointwise"), ("det_cal", "germ1"),
    ])
    def test_grade_maps_match_one_point_queries(self, name, mode):
        # det_cal's germ1 rows are the same at every node, but the cloud
        # offsets that build the lift differ in their last bits between nodes
        grid = GridSpec((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9), (5, 5, 5))
        field = grade_map(MODELS[name], grid, mode)
        for i, X in enumerate(grid.points().reshape(-1, 3)):
            (want,) = fibres_at(MODELS[name], [X], mode)
            index = np.unravel_index(i, field.grade.shape)
            if isinstance(want, MatdistError):
                assert field.grade[index] == -1
                continue
            assert field.grade[index] == want.grade
            assert bits(float(field.rank_gap[index])) == bits(want.rank_gap)
            assert field.validated[index] == want.validated
