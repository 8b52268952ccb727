"""Carried solves: a leaf reuses its last solve when a stage system repeats it.

Along a leaf on which the response does not change (a plane of ``example1``
or of its ``.mdl`` twin, anywhere for ``det_cal``, whose rows ignore the
point) every stage query builds the system of the last one bit for bit, and
takes a copy of its result instead of solving again; along an ``example2``
sphere nothing repeats.  Either way each leaf must match the sequential
oracle, which solves every query alone, in every bit, stop reason,
tie-break and error.
"""

import os

import numpy as np
import pytest

import matdist
from matdist import distribution
from matdist.distribution import Carry, FibreResult, fibres_at, material_fibre
from matdist.foliation import trace_leaves
from matdist.response import builtin, load_model_file
from test_leaf_lockstep import oracle_outcome
from test_shared_solves import assert_own_arrays, assert_same_result

LEAVES = {  # seeds, hints and step counts of one lockstep batch per model
    "example1": ([[0.5, 0.0, 0.0], [-0.5, 0.1, 0.0], [0.5, 0.0, 0.0], [0.3, 0.9, 0.1],
                  [0.2, -0.4, 0.3], [1.5, 0.0, 0.0], [0.4, 0.0, 0.0]],
                 [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [0.0, 0.3, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                 [12, 20, 5, 15, 3, 4, 4]),
    "example1.mdl": ([[0.4, 0.1, 0.0], [-0.3, 0.0, 0.2], [0.7, -0.2, 0.5]],
                     [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]],
                     [10, 8, 3]),
    "det_cal": ([[0.1, 0.2, 0.3], [-0.5, 0.0, 0.0], [0.1, 0.2, 0.3]],
                [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, -1.0]],
                [8, 12, 3]),
    "example2": ([[0.3, 0.2, 0.1], [0.6, -0.5, 0.4], [0.5, 0.0, 0.0]],
                 [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 [12, 8, 5]),
}


@pytest.fixture(scope="module")
def models():
    mdl = os.path.join(os.path.dirname(matdist.__file__), "mdl", "example1.mdl")
    return {"example1": builtin("example1"), "example1.mdl": load_model_file(mdl),
            "det_cal": builtin("det_cal"), "example2": builtin("example2")}


def assert_same_leaf(got, want):
    """Points, grades, directions, residuals, stop reason and tie-breaks bit for
    bit, or the same error."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        return
    for name in ("points", "grades", "directions", "leaf_residuals"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.stop_reason == want.stop_reason
    assert got.tie_breaks == want.tie_breaks


def solves(monkeypatch):
    """Nodes queried and nodes solved, counted over every kernel call."""
    counts = {"queried": 0, "solved": 0}
    fibres, saturate = distribution._fibres, distribution._saturate

    def queried(system, *args):
        counts["queried"] += len(system.read)
        return fibres(system, *args)

    def solved(system, nodes):
        counts["solved"] += len(nodes)
        return saturate(system, nodes)

    monkeypatch.setattr(distribution, "_fibres", queried)
    monkeypatch.setattr(distribution, "_saturate", solved)
    return counts


class TestTracesMatchTheOracle:
    @pytest.mark.parametrize("name", list(LEAVES))
    def test_lockstep_batch(self, models, monkeypatch, name):
        model, (seeds, hints, steps) = models[name], LEAVES[name]
        counts = solves(monkeypatch)
        got = trace_leaves(model, seeds, hints, steps, 0.01)
        monkeypatch.undo()
        for leaf, seed, hint, n in zip(got, seeds, hints, steps):
            assert_same_leaf(leaf, oracle_outcome(model, seed, hint, n))
        if name == "example2":  # no stage system repeats: every node solves
            assert counts["solved"] == counts["queried"]
        else:
            assert counts["solved"] < counts["queried"] // 4

    def test_example1_batch_covers_every_outcome(self, models):
        seeds, hints, steps = LEAVES["example1"]
        got = trace_leaves(models["example1"], seeds, hints, steps, 0.01)
        assert [getattr(leaf, "stop_reason", type(leaf).__name__) for leaf in got] == [
            "completed", "completed", "completed", "domain_boundary", "completed",
            "DomainError", "ValueError"]
        assert got[2].tie_breaks == [0]


class TestCarriedQueries:
    POINTS = [(0.3, 0.2, 0.1), (-0.4, 0.0, 0.5), (0.1, -0.6, 0.2), (0.3, 0.2, 0.1)]

    def test_repeated_systems_copy_the_carried_result(self, det_cal, monkeypatch):
        # det_cal's rows ignore the point: after the first query, every
        # query repeats each node's carried system
        pairs = list(zip(self.POINTS, self.POINTS[1:]))
        alone = [fibres_at(det_cal, [X], validate=False)[0] for pair in pairs for X in pair]
        carries = [Carry(), Carry()]
        counts = solves(monkeypatch)
        got = [fibre for pair in pairs
               for fibre in fibres_at(det_cal, np.array(pair), validate=False, carries=carries)]
        assert counts == {"queried": 6, "solved": 1}  # one shared solve, then copies
        for fibre, want in zip(got, alone):
            assert_same_result(fibre, want)
        assert all(carry.result is not None for carry in carries)
        assert_own_arrays(got)

    def test_moved_rows_solve_again(self, example2):
        carry = Carry()
        for X in self.POINTS[:3]:
            (fibre,) = fibres_at(example2, np.array([X]), validate=False, carries=[carry])
            assert_same_result(fibre, fibres_at(example2, [X], validate=False)[0])
            assert carry.result is fibre

    def test_carries_of_out_of_domain_points_are_kept(self, example2):
        carry = Carry()
        fibres_at(example2, np.array([self.POINTS[0]]), validate=False, carries=[carry])
        kept = carry.key, carry.result
        (error,) = fibres_at(example2, np.array([[1.5, 0.0, 0.0]]), validate=False,
                             carries=[carry])
        assert isinstance(error, distribution.DomainError)
        assert (carry.key, carry.result) == kept

    def test_results_own_their_arrays(self, models):
        # the carried result, its copies and the results of other queries
        # share no writable memory
        carries = [Carry() for _ in range(3)]
        got = []
        for shift in (0.0, 0.01, 0.02):
            points = np.array([[0.5, shift, 0.0], [-0.2, 0.1, shift], [0.5, 0.3, shift]])
            got += fibres_at(models["example1"], points, validate=False, symmetry=True,
                             carries=carries)
        assert all(isinstance(fibre, FibreResult) for fibre in got)
        assert_own_arrays(got)

    def test_results_do_not_alias_the_callers_points(self, models):
        # the points are copied once per query: changing the caller's array
        # afterwards leaves the point of every result as it was
        example2, X = models["example2"], np.array([[0.3, 0.2, 0.1], [-0.4, 0.0, 0.5]])
        got = [*fibres_at(example2, X, validate=False), material_fibre(example2, X[0]),
               *fibres_at(example2, X, validate=False, carries=[Carry(), Carry()])]
        want = [fibre.point.copy() for fibre in got]
        X[:, 0] = 0.9
        for fibre, point in zip(got, want):
            assert np.array_equal(fibre.point, point)
