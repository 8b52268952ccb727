"""Material-frame admissibility blocks against the contracted reference.

Every model returns, per jet, the block ``[dW/dX | dW·(F dP)]`` that the
fibre kernel solves.  ``block_reference`` builds the same block the way it
used to be built, from ``dW/dF`` contracted with ``F``.
"""

import os

import numpy as np
import pytest

import block_reference
import matdist
from matdist import cli, distribution
from matdist.distribution import material_fibre
from matdist.homogeneity import chart_from_expressions
from matdist.numkit import DEFAULT_TOL
from matdist.response import (
    ConstitutiveModel,
    builtin,
    derivatives,
    derivatives_at_samples,
    load_model_file,
)

from conftest import random_invertible

MDL = os.path.join(os.path.dirname(matdist.__file__), "mdl")
MODELS = ["example1", "example2", "det_cal", "identity_cal", "example1.mdl", "det_cal.mdl",
          "identity_cal.mdl"]
# the underflow band of example1's stiffness rate, X1 in (0, 0.05], and the example2 centre
SPECIAL = [(1e-3, 0.2, -0.1), (0.01, 0.0, 0.0), (0.03, -0.2, 0.1), (0.05, 0.1, 0.1),
           (0.0, 0.0, 0.0)]


def model_named(name):
    return load_model_file(os.path.join(MDL, name)) if name.endswith(".mdl") else builtin(name)


def jets(rng, n_generic, k):
    Xs = np.vstack([SPECIAL, rng.uniform(-0.5, 0.5, (n_generic, 3))])
    Fs = np.array([[random_invertible(rng) for _ in range(k)] for _ in Xs])
    return Xs, Fs


def assert_matches(got, want, rel=1e-13):
    """Each lane's block within ``rel`` of its largest reference entry."""
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= rel * scale)


def reference(model, Xs, Fs):
    """Reference blocks of gradients ``Fs (n,k,3,3)`` at points ``Xs (n,3)``: ``(n,k,d,12)``."""
    n, k = Fs.shape[:2]
    lanes = block_reference.block(model, np.repeat(Xs, k, axis=0), Fs.reshape(n * k, 3, 3))
    return lanes.reshape(n, k, model.dim, 12)


class TestBlocksMatchTheReference:
    @pytest.mark.parametrize("name", MODELS)
    def test_batch(self, name):
        model = model_named(name)
        Xs, Fs = jets(np.random.default_rng(31), 15, 11)
        assert_matches(derivatives_at_samples(model, Xs, Fs), reference(model, Xs, Fs))

    @pytest.mark.parametrize("name", MODELS)
    def test_single_lane(self, name):
        model = model_named(name)
        Xs, Fs = jets(np.random.default_rng(32), 5, 1)
        for X, F in zip(Xs, Fs[:, 0]):
            got = derivatives(model, X, F)
            assert got.shape == (model.dim, 12)
            assert_matches(got, reference(model, X[None], F[None, None])[0, 0])

    @pytest.mark.parametrize("name", ["example1", "example2", "example1.mdl"])
    def test_runs_longer_than_the_lane_cap(self, name, monkeypatch):
        model = model_named(name)
        k = 11
        n = distribution._DERIV_LANES // k + 4  # two runs
        Xs, Fs = jets(np.random.default_rng(33), n - len(SPECIAL), k)
        calls = []
        original = distribution.derivatives_at_samples

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        monkeypatch.setattr(distribution, "derivatives_at_samples", counted)
        rows = distribution._blocks(model, Xs, Fs, DEFAULT_TOL)
        assert calls == [distribution._DERIV_LANES // k, 4]
        assert_matches(rows.reshape(n, k, model.dim, 12), reference(model, Xs, Fs))

    @pytest.mark.parametrize("name", ["example1", "example2", "example1.mdl"])
    def test_one_run_is_the_model_block(self, name):
        # a chunk within the lane cap takes the block of its one call as its rows
        model = model_named(name)
        k = 11
        n = distribution._DERIV_LANES // k
        Xs, Fs = jets(np.random.default_rng(34), n - len(SPECIAL), k)
        rows = distribution._blocks(model, Xs, Fs, DEFAULT_TOL)
        assert rows.shape == (n, k * model.dim, 12)
        assert_matches(rows.reshape(n, k, model.dim, 12), reference(model, Xs, Fs))
        np.testing.assert_array_equal(
            rows, derivatives_at_samples(model, Xs, Fs, DEFAULT_TOL).reshape(n, -1, 12))


class TestOldContract:
    def test_pair_of_derivatives_fails_the_shape_check(self):
        def pair(Xs, Fs):
            m = len(Fs)
            return np.zeros((m, 1, 3)), np.zeros((m, 1, 9))

        model = ConstitutiveModel("pair", 1, lambda Xs, Fs: np.zeros((len(Fs), 1)),
                                  derivatives=pair)
        shape = r"derivative block of shape ragged, expected \(1, 1, 12\)"
        with pytest.raises(ValueError, match=shape):
            derivatives(model, [0.0, 0.0, 0.0], np.eye(3))


def stripped(name):
    model = builtin(name)
    model._derivatives = None
    return model


def mapped_block(exact, W):
    """The block of ``example2`` with response map ``(r, J, r J)`` by the product rule."""
    r, J = W[..., 0, None], W[..., 1, None]
    return np.concatenate([exact, (J * exact[..., 0, :] + r * exact[..., 1, :])[..., None, :]],
                          axis=-2)


def response_test_points(model):
    # the points of test_response's comparison of closed forms and differences
    rng = np.random.default_rng(42)
    points = []
    for _ in range(5):
        X = rng.uniform(-0.9, 0.9, 3)
        while not model.in_domain(X):
            X = rng.uniform(-0.9, 0.9, 3)
        points.append(X)
    return np.array(points)


class TestFiniteDifferences:
    # without a derivative callable, the block is central differences of
    # evaluate along X and along F (I +- h E_ab)

    def test_stripped_example1_gives_the_exact_block(self, example1):
        Xs, Fs = jets(np.random.default_rng(35), 8, 5)
        assert_matches(derivatives_at_samples(stripped("example1"), Xs, Fs),
                       reference(example1, Xs, Fs), rel=1e-8)

    def test_response_map_gives_the_exact_block(self, example2):
        model = builtin("example2", response_map=lambda r, J: [r, J, r * J])
        assert model._derivatives is None
        Xs, Fs = jets(np.random.default_rng(36), 8, 5)
        n, k = Fs.shape[:2]
        W = example2._evaluate(np.repeat(Xs, k, axis=0), Fs.reshape(n * k, 3, 3)).reshape(n, k, 2)
        assert_matches(derivatives_at_samples(model, Xs, Fs),
                       mapped_block(reference(example2, Xs, Fs), W), rel=1e-8)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 11)])
    def test_two_evaluations_of_the_same_lanes(self, n, k):
        model = stripped("example1")
        calls = []
        evaluate = model._evaluate
        model._evaluate = lambda Xs, Fs: calls.append(len(Fs)) or evaluate(Xs, Fs)
        Xs, Fs = jets(np.random.default_rng(37), 3, k)
        derivatives_at_samples(model, Xs[:n], Fs[:n])
        assert calls == [6 * n * k, 18 * n * k]  # X then F, each direction two-sided

    @pytest.mark.parametrize("name,params", [
        ("example1", {}), ("example2", {}),
        ("example2", {"response_map": lambda r, J: [r, J, r * J]}),
    ], ids=["example1", "example2", "example2-map"])
    def test_same_grades_as_the_closed_forms(self, name, params):
        exact = builtin(name)
        model = builtin(name, **params)
        model._derivatives = None
        for X in response_test_points(exact):
            want, got = material_fibre(exact, X), material_fibre(model, X)
            assert (got.grade, got.fibre_dim, got.sym_dim) == (want.grade, want.fibre_dim,
                                                                 want.sym_dim)


# Values of the chart path (no gradients, three tangents), computed before the
# gradient tangents were seeded in the material frame: they must not move.
CHART_FORWARD = ["X1 * X2 + exp(X3)", "sqrt(X1 * X1 + X2 * X2 + 1) * tr(F)",
                 "log(2 + X3) - X2 / (1 + X1 * X1) + det(F * X1 + I)"]
CHART_POINTS = [(0.3, -0.2, 0.1), (-0.45, 0.6, 0.25), (0.05, 0.0, -0.7)]
CHART_JACOBIANS = [
    ["-0x1.999999999999ap-3", "0x1.3333333333333p-2", "0x1.1aec7b35a00d4p+0",
     "0x1.b17bf2f7debe1p-1", "-0x1.20fd4ca53f296p-1", "0x0.0p+0",
     "0x1.3e0411de5630ap+2", "-0x1.d5b98a919d5b9p-1", "0x1.e79e79e79e79ep-2"],
    ["0x1.3333333333333p-1", "-0x1.ccccccccccccdp-2", "0x1.48b5e3c3e8186p+0",
     "-0x1.147ae147ae148p+0", "0x1.70a3d70a3d70ap+0", "0x0.0p+0",
     "0x1.1170007434af1p-1", "-0x1.a9c7958e1a9c7p-1", "0x1.c71c71c71c71cp-2"],
    ["0x0.0p+0", "0x1.999999999999ap-5", "0x1.fc80db9dd5542p-2",
     "0x1.32d11476bd997p-3", "0x0.0p+0", "0x0.0p+0",
     "0x1.a75c28f5c28f6p+1", "-0x1.feb9231cba6a0p-1", "0x1.89d89d89d89d8p-1"],
]


class TestChartPathUnchanged:
    def test_expression_chart_jacobians(self):
        chart = chart_from_expressions(CHART_FORWARD, ["X1", "X2", "X3"], 2)
        for X, want in zip(CHART_POINTS, CHART_JACOBIANS):
            got = chart.jacobian(np.array(X)).ravel()
            assert [float(v).hex() for v in got] == want

    def test_region_predicate(self):
        inside = cli.parse_region("x1>=0.1 & x2 < 0.5")
        assert [inside(np.array(X)) for X in CHART_POINTS] == [True, False, False]
