"""Incremental saturation: the carried factor, compressed rows, and their edge points.

Each saturation round factorizes the last round's ``diag(s)·Vh`` stacked
on the new rows only, and a solve in either mode replaces each pointwise
block by its triangular factor before the lift.  Both keep ``M^T M``, so
singular values and rank decisions must match one SVD of all the raw
lifted rows.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matdist import distribution
from matdist.distribution import (
    DEFAULT_SAMPLER,
    GERM_CLOUD,
    GERM_RADIUS,
    MODES,
    fibres_at,
    material_fibre,
)
from matdist.numkit import DEFAULT_TOL, rank_split, stacked_factor


def block(rng, shape, kind):
    m, n = shape
    if kind == "zero":
        return np.zeros(shape)
    rank = min(m, n) if kind == "generic" else int(rng.integers(1, min(m, n)))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def carried(s, vh):
    return s[..., :, None] * vh[..., :s.shape[-1], :]


def assert_same_spectrum(got, raw):
    """``got`` singular values against one SVD of the raw rows: values and rank."""
    want = np.linalg.svd(raw, compute_uv=False)
    assert got.shape == want.shape
    s_max = want[0] if want.size else 0.0
    assert np.all(np.abs(got - want) <= 1e-12 * s_max)
    assert rank_split(got, DEFAULT_TOL.rank_rel)[0] == rank_split(want, DEFAULT_TOL.rank_rel)[0]


# first blocks: det_cal's wide first round, example1's pointwise first
# round, and a germ1 system of example2's size; later blocks are the new rows
FIRST = [((11, 12), 8), ((99, 12), 72), ((462, 48), 336)]
KINDS = st.sampled_from(["generic", "deficient", "zero"])


class TestCarriedFactor:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(FIRST), KINDS,
           st.lists(KINDS, min_size=1, max_size=3))
    def test_matches_one_svd_of_all_rows(self, seed, first, first_kind, new_kinds):
        rng = np.random.default_rng(seed)
        (m, n), new_rows = first
        blocks = [block(rng, (m, n), first_kind)]
        s, vh = stacked_factor(blocks[0])
        for kind in new_kinds:
            blocks.append(block(rng, (new_rows, n), kind))
            s, vh = stacked_factor(np.concatenate([carried(s, vh), blocks[-1]]))
            assert_same_spectrum(s, np.concatenate(blocks))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([(11, 12), (99, 12), (462, 48)]),
           st.lists(KINDS, min_size=1, max_size=4))
    def test_stack_matches_one_by_one(self, seed, shape, kinds):
        rng = np.random.default_rng(seed)
        stack = np.stack([block(rng, shape, kind) for kind in kinds])
        s, vh = stacked_factor(stack)
        for j, M in enumerate(stack):
            alone_s, alone_vh = stacked_factor(M)
            np.testing.assert_array_equal(s[j], alone_s)
            np.testing.assert_array_equal(vh[j], alone_vh)
            assert_same_spectrum(s[j], M)


def lifted(system, blocks):
    """Raw blocks ``(points, rows, 12)`` of node 0 through its lift: ``(points*rows, unknowns)``."""
    return (blocks @ system.lift[0]).reshape(-1, system.n_unknowns)


@pytest.mark.parametrize("name,X,mode", [
    ("example1", (0.5, 0.1, 0.0), "pointwise"),
    ("det_cal", (0.1, 0.2, 0.3), "pointwise"),  # a wide first round
    ("example1", (0.2, 0.0, 0.0), "germ1"),
    ("example2", (0.3, 0.2, 0.1), "germ1"),
])
def test_rounds_solve_all_rows_and_validate_raw_ones(request, monkeypatch, name, X, mode):
    model, X = request.getfixturevalue(name), np.array([X])
    spectra = []

    def spy(M):
        s, vh = stacked_factor(M)
        spectra.append(s)
        return s, vh

    monkeypatch.setattr(distribution, "stacked_factor", spy)
    system = distribution._System(model, X, mode, DEFAULT_TOL, GERM_RADIUS, GERM_CLOUD)

    def rng():
        return distribution._point_rng(DEFAULT_SAMPLER, X[0], system.order)

    generator = rng()
    (node,) = distribution._saturate(system, [generator], DEFAULT_SAMPLER)
    assert len(node.dims) == len(spectra) >= 2
    distribution._validate(system, [generator], DEFAULT_SAMPLER, {0: node})

    def raw_blocks(generator, k, anchors):
        return system.blocks([0], [generator], k, DEFAULT_SAMPLER, anchors)[0]

    # every round's raw rows, drawn again in order from a fresh generator
    fresh, k = rng(), DEFAULT_SAMPLER.k_init
    raw = [lifted(system, raw_blocks(fresh, k, anchors=True))]
    while k < node.k:
        raw.append(lifted(system, raw_blocks(fresh, k, anchors=False)))
        k *= 2
    assert node.samples == (k + len(DEFAULT_SAMPLER.anchors)) * system.points_per_node
    assert_same_spectrum(spectra[-1][0], np.concatenate(raw))
    # validation reads the next k gradients' raw blocks, never compressed ones,
    # with the lift applied to the basis
    heldout = raw_blocks(fresh, k, anchors=False)
    assert node.heldout == np.abs(heldout @ (system.lift[0] @ node.basis)).max()
    want = np.abs(lifted(system, heldout) @ node.basis).max()
    assert abs(node.heldout - want) <= 1e-12 * max(np.abs(lifted(system, heldout)).max(), 1.0)


class TestCompressedGermRows:
    # both modes: pointwise is the one-point germ with the identity lift
    @settings(max_examples=15, deadline=None)
    @given(x1=st.one_of(st.floats(1e-4, 0.05), st.floats(0.05, 0.5)),
           x23=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           k=st.sampled_from([8, 16]), anchors=st.booleans(),
           name=st.sampled_from(["example1", "example2"]), mode=st.sampled_from(MODES))
    def test_same_spectrum_as_raw_lifted_rows(self, example1, example2, x1, x23, k, anchors,
                                              name, mode):
        model = {"example1": example1, "example2": example2}[name]
        Xs = np.array([[x1, *x23]])
        system = distribution._System(model, Xs, mode, DEFAULT_TOL, GERM_RADIUS, GERM_CLOUD)

        def rngs():
            return [distribution._point_rng(DEFAULT_SAMPLER, X, system.order) for X in Xs]

        compressed = system.rows([0], rngs(), k, DEFAULT_SAMPLER, anchors)[0]
        raw = lifted(system, system.blocks([0], rngs(), k, DEFAULT_SAMPLER, anchors)[0])
        assert len(compressed) == 12 * system.points_per_node < len(raw)
        assert_same_spectrum(np.linalg.svd(compressed, compute_uv=False), raw)


# grade, fibre_dim, sym_dim, validated at the points the code knows to be
# delicate, as the full re-solve found them: the underflow band X1 in
# (0, 0.05] of example1, the degenerate example2 centre, and clouds that
# the domain boundary cuts short
EDGE_POINTS = [
    ("example1", (0.01, 0.0, 0.0), "pointwise", (3, 3, 0, True)),
    ("example1", (0.05, 0.2, -0.1), "pointwise", (2, 2, 0, True)),
    ("example1", (0.001, 0.3, 0.3), "pointwise", (3, 3, 0, True)),
    ("example1", (0.01, 0.0, 0.0), "germ1", (3, 12, 0, True)),
    ("example1", (0.03, -0.4, 0.1), "germ1", (3, 12, 0, True)),
    ("example2", (0.0, 0.0, 0.0), "germ1", (0, 7, 5, True)),
    ("example2", (0.99995, 0.0, 0.0), "germ1", (0, 7, 5, True)),
    ("example1", (0.99995, 0.99995, 0.3), "germ1", (2, 8, 0, True)),
]


@pytest.mark.parametrize("name,X,mode,want", EDGE_POINTS)
def test_edge_points_keep_their_answers(request, name, X, mode, want):
    result = material_fibre(request.getfixturevalue(name), X, mode=mode)
    assert (result.grade, result.fibre_dim, result.sym_dim, result.validated) == want


def test_germ1_chunk_memory(example1):
    # a 16-node chunk peaked at about 67 MiB while every round re-solved
    # all rows and kept the SVD's U, and at about 36 MiB while validation
    # lifted every held-out row to 48 columns; it now peaks at about 17 MiB
    Xs = np.random.default_rng(0).uniform(-0.6, 0.6, (16, 3))
    fibres_at(example1, Xs[:1], mode="germ1")
    tracemalloc.start()
    try:
        fibres_at(example1, Xs, mode="germ1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20
