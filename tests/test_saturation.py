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
from matdist.errors import NonFiniteError, SamplerExhaustedError
from matdist.numkit import DEFAULT_TOL, rank_split, stacked_factor
from matdist.response import ConstitutiveModel


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

    def new_system():
        return distribution._System(model, X, mode, DEFAULT_TOL, GERM_RADIUS, GERM_CLOUD,
                                    DEFAULT_SAMPLER)

    system = new_system()
    (fibre,) = distribution._saturate(system, validate=True)
    assert len(fibre.dim_history) == len(spectra) >= 2
    distribution._validate(system, {0: fibre})

    # the rounds, from the gradients per cloud point of the last solve set
    k_last = fibre.samples_used // system.points_per_node - len(DEFAULT_SAMPLER.anchors)
    # every round's raw rows, drawn again in order from a fresh generator:
    # an unprepared system draws each node's schedule one read at a time
    fresh, k = new_system(), DEFAULT_SAMPLER.k_init
    raw = [lifted(system, fresh.blocks([0])[0])]
    while k < k_last:
        raw.append(lifted(system, fresh.blocks([0])[0]))
        k *= 2
    assert len(raw) == len(spectra)
    assert fibre.samples_used == (k + len(DEFAULT_SAMPLER.anchors)) * system.points_per_node
    assert_same_spectrum(spectra[-1][0], np.concatenate(raw))
    # validation reads the next k gradients' raw blocks, never compressed ones,
    # with the lift applied to the basis
    heldout = fresh.blocks([0])[0]
    basis = fibre.fibre_basis
    assert fibre.heldout_residual == np.abs(heldout @ (system.lift[0] @ basis)).max()
    want = np.abs(lifted(system, heldout) @ basis).max()
    scale = max(np.abs(lifted(system, heldout)).max(), 1.0)
    assert abs(fibre.heldout_residual - want) <= 1e-12 * scale


class TestCompressedGermRows:
    # both modes: pointwise is the one-point germ with the identity lift, and
    # solves its raw rows; germ1 solves each point's compressed rows
    @settings(max_examples=15, deadline=None)
    @given(x1=st.one_of(st.floats(1e-4, 0.05), st.floats(0.05, 0.5)),
           x23=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           draw=st.sampled_from([0, 1, 2]),
           name=st.sampled_from(["example1", "example2"]), mode=st.sampled_from(MODES))
    def test_same_spectrum_as_raw_lifted_rows(self, example1, example2, x1, x23, draw,
                                              name, mode):
        # draw 0 is k_init gradients led by the anchors, 1 is k_init more, 2 is 2 k_init
        model = {"example1": example1, "example2": example2}[name]
        Xs = np.array([[x1, *x23]])

        def new_system():
            return distribution._System(model, Xs, mode, DEFAULT_TOL, GERM_RADIUS, GERM_CLOUD,
                                        DEFAULT_SAMPLER)

        system, twin = new_system(), new_system()
        for _ in range(draw):
            system.blocks([0])
            twin.blocks([0])
        rows = system.rows([0])[0]
        raw = lifted(system, twin.blocks([0])[0])
        if mode == "pointwise":  # the raw block itself: stacked_factor reduces it
            np.testing.assert_array_equal(rows, raw)
        else:
            assert len(rows) == 12 * system.points_per_node < len(raw)
        assert_same_spectrum(np.linalg.svd(rows, compute_uv=False), raw)


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
    # lifted every held-out row to 48 columns; it now peaks at about 16.6 MiB
    Xs = np.random.default_rng(0).uniform(-0.6, 0.6, (16, 3))
    fibres_at(example1, Xs[:1], mode="germ1")
    tracemalloc.start()
    try:
        fibres_at(example1, Xs, mode="germ1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def counting(monkeypatch, name):
    calls = []
    original = getattr(distribution, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(distribution, name, counted)
    return calls


class TestDrawSchedule:
    # a node reads its draws in a fixed order: the rounds, then the held-out
    # samples; the first two, and the third when validating, come in one batch

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
    def test_one_point_query_draws_and_derives_once(self, example2, monkeypatch, mode, validate):
        draws = counting(monkeypatch, "_draws")
        derivatives = counting(monkeypatch, "derivatives_at_samples")
        (fibre,) = fibres_at(example2, [(0.3, 0.2, 0.1)], mode=mode, validate=validate)
        assert len(fibre.dim_history) == 2 and fibre.fibre_dim > 0  # stops at round 2
        assert len(draws) == 1 and len(derivatives) == 1
        k = DEFAULT_SAMPLER.k_init
        assert draws[0][2] == ([k, k, 2 * k] if validate else [k, k])

    def test_later_rounds_draw_one_at_a_time(self, monkeypatch):
        # a node still open after round 2 draws each further round alone
        draws = counting(monkeypatch, "_draws")
        (fibre,) = fibres_at(stepping_model(), [(0.3, 0.2, 0.1)])
        assert fibre.dim_history == [11, 10, 9, 9] and fibre.validated
        k = DEFAULT_SAMPLER.k_init
        # draw 3 is round 4, draw 4 the held-out samples; draw t holds k << (t - 1)
        assert [call[2] for call in draws] == [[k, k, 2 * k], [k << 2], [k << 3]]


def stepping_model():
    """One base row per gradient: ``e1`` for a point's first 11 gradients (the
    anchors and the first draw), ``e2`` for the next 8 and ``e3`` after them,
    so the null dimension goes 11, 10, 9, 9 over four rounds."""
    seen = {}

    def derivatives(Xs, Fs):
        dWdX = np.zeros((len(Xs), 1, 3))
        for lane, (X, F) in enumerate(zip(Xs, Fs)):
            first = seen.setdefault(X.tobytes(), {})
            index = first.setdefault(F.tobytes(), len(first))
            dWdX[lane, 0, np.searchsorted([11, 19], index, side="right")] = 1.0
        return np.concatenate([dWdX, np.zeros((len(Xs), 1, 9))], axis=2)

    return ConstitutiveModel("stepping", 1, lambda Xs, Fs: np.zeros((len(Fs), 1)),
                             derivatives=derivatives)


def zero_rows(Xs, Fs):
    """Rows that pin all 12 unknowns for generic gradients: a zero fibre."""
    dWdX = np.repeat(np.eye(3)[None], len(Xs), axis=0)
    flat = Fs.reshape(len(Fs), 1, 9)
    return np.concatenate([dWdX, np.concatenate([flat**2, flat**3, np.sin(flat)], axis=1)],
                          axis=2)


def free_base_rows(Xs, Fs):
    """The same rows without the base part: ``dX`` is free, a fibre of dimension 3."""
    block = zero_rows(Xs, Fs)
    block[..., :3] = 0.0
    return block


def fail_after(rows, clean):
    """``rows`` that turn non-finite at each point's gradients after its first ``clean``.

    Keyed on the bytes of the point and the gradient, as ``unstable_zone`` in
    ``test_leaf_lockstep`` is, so a gradient fails wherever and however often
    it is derived.
    """
    seen = {}

    def derivatives(Xs, Fs):
        block = rows(Xs, Fs)
        for lane, (X, F) in enumerate(zip(Xs, Fs)):
            first = seen.setdefault(X.tobytes(), [])
            if F.tobytes() not in first:
                if len(first) >= clean:
                    block[lane, :, 3:] = np.nan
                    continue
                first.append(F.tobytes())
        return block

    return derivatives


def zone_model(derivatives):
    """``zero_rows`` at ``X1 > 0`` and ``free_base_rows`` elsewhere, through ``derivatives``."""
    def rows(Xs, Fs):
        pick = (Xs[:, 0] > 0)[:, None, None]
        return np.where(pick, zero_rows(Xs, Fs), free_base_rows(Xs, Fs))

    return ConstitutiveModel("zoned", 3, lambda Xs, Fs: np.zeros((len(Fs), 3)),
                             derivatives=derivatives(rows))


def assert_same_nodes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(a, Exception):
            assert str(a) == str(b)
            continue
        for name, value in vars(a).items():
            if name == "sym_basis":
                assert len(value) == len(b.sym_basis)
            else:
                assert np.array_equal(value, getattr(b, name)), name


class TestFailuresStayInTheirDraw:
    # the third draw is prepared before any node is known to read it; a
    # failure there fails only the nodes that read it, as when each round
    # drew its own
    ZERO, FREE = (0.3, 0.2, 0.1), (-0.3, 0.2, 0.1)
    CLEAN = 3 + 2 * DEFAULT_SAMPLER.k_init  # the anchors and the two solve draws

    def test_zero_fibre_keeps_its_result(self):
        clean = fibres_at(zone_model(lambda rows: rows), [self.ZERO])
        assert clean[0].fibre_dim == 0 and clean[0].dim_history == [0, 0]
        failing = zone_model(lambda rows: fail_after(rows, self.CLEAN))
        assert_same_nodes(fibres_at(failing, [self.ZERO]), clean)

    def test_held_out_failure_fails_only_the_node_that_reads_it(self):
        clean = fibres_at(zone_model(lambda rows: rows), [self.ZERO, self.FREE])
        assert clean[1].fibre_dim == 3 and clean[1].dim_history == [3, 3]
        failing = zone_model(lambda rows: fail_after(rows, self.CLEAN))
        got = fibres_at(failing, [self.ZERO, self.FREE])
        assert_same_nodes(got[:1], clean[:1])
        assert isinstance(got[1], NonFiniteError)
        assert str(got[1]) == ("model 'zoned' returned a non-finite derivative block at "
                               f"X={list(self.FREE)}")
        # unvalidated, no node reads the third draw
        assert_same_nodes(fibres_at(failing, [self.ZERO, self.FREE], validate=False),
                          fibres_at(zone_model(lambda rows: rows), [self.ZERO, self.FREE],
                                    validate=False))

    def test_exhausted_third_draw(self, monkeypatch):
        # the sampler gives out only on the held-out draw
        original = distribution._draws

        def short_of_the_third(rngs, points, counts, sampler):
            out = original(rngs, points, counts, sampler)
            if 2 * sampler.k_init in counts:
                raise SamplerExhaustedError("gradient sampler failed to find acceptable samples")
            return out

        # gradients past a point's two solve draws fail, so a read from a
        # generator left where the failed draw stopped would fail too
        failing = zone_model(lambda rows: fail_after(rows, self.CLEAN))
        clean = fibres_at(failing, [self.ZERO])
        assert clean[0].dim_history == [0, 0]
        monkeypatch.setattr(distribution, "_draws", short_of_the_third)
        got = fibres_at(failing, [self.ZERO, self.FREE])
        assert_same_nodes(got[:1], clean[:1])
        assert isinstance(got[1], SamplerExhaustedError)
