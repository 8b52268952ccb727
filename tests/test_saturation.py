"""Incremental saturation: the carried factor, compressed rows, and their edge points.

Each saturation round factorizes the last round's triangular factor ``R``
stacked on the new rows only, and a solve in either mode replaces each
pointwise block by its triangular factor before the lift.  Both keep
``M^T M``, so singular values and rank decisions must match one SVD of all
the raw lifted rows.  Round 1 computes singular values alone, and held-out
validation checks a whole group of nodes in one product.
"""

import tracemalloc
from collections import defaultdict
from unittest import mock

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
    SamplerConfig,
    fibres_at,
    material_fibre,
)
from matdist.errors import FibreInstabilityError, NonFiniteError, SamplerExhaustedError
from matdist.foliation import GridSpec, grade_map
from matdist.numkit import DEFAULT_TOL, Tolerances, rank_split, rank_splits, stacked_factor
from matdist.response import ConstitutiveModel


def block(rng, shape, kind):
    m, n = shape
    if kind == "zero":
        return np.zeros(shape)
    rank = min(m, n) if kind == "generic" else int(rng.integers(1, min(m, n)))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


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
        R, s, _ = stacked_factor(blocks[0], vectors=False)  # round 1: values alone
        assert_same_spectrum(s, blocks[0])
        for kind in new_kinds:
            assert len(R) <= n  # carried in at most as many rows as unknowns
            blocks.append(block(rng, (new_rows, n), kind))
            R, s, vh = stacked_factor(np.concatenate([R, blocks[-1]]), vectors=True)
            assert_same_spectrum(s, np.concatenate(blocks))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([(11, 12), (99, 12), (462, 48)]),
           st.lists(KINDS, min_size=1, max_size=4))
    def test_stack_matches_one_by_one(self, seed, shape, kinds):
        rng = np.random.default_rng(seed)
        stack = np.stack([block(rng, shape, kind) for kind in kinds])
        R, s, vh = stacked_factor(stack, vectors=True)
        _, values, _ = stacked_factor(stack, vectors=False)
        for j, M in enumerate(stack):
            alone_R, alone_s, alone_vh = stacked_factor(M, vectors=True)
            np.testing.assert_array_equal(R[j], alone_R)
            np.testing.assert_array_equal(s[j], alone_s)
            np.testing.assert_array_equal(vh[j], alone_vh)
            np.testing.assert_array_equal(values[j], stacked_factor(M, vectors=False)[1])
            assert_same_spectrum(s[j], M)
            assert_same_spectrum(values[j], M)


def saturated(system):
    """Every node of ``system`` saturated, its draws prepared as for a validated query."""
    system.prepare(distribution._prepared_draws(True))
    results = distribution._saturate(system, list(range(len(system.read))))
    return [results[i] for i in range(len(system.read))]


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

    def spy(M, vectors):
        R, s, vh = stacked_factor(M, vectors)
        spectra.append(s)
        return R, s, vh

    monkeypatch.setattr(distribution, "stacked_factor", spy)

    def new_system():
        return distribution._System(model, X, mode, DEFAULT_TOL, GERM_RADIUS, GERM_CLOUD,
                                    DEFAULT_SAMPLER)

    system = new_system()
    (fibre,) = saturated(system)
    assert len(fibre.dim_history) == len(spectra) >= 2
    distribution._validate(system, {0: fibre})

    # the rounds, from the gradients per cloud point of the last solve set
    k_last = fibre.samples_used // system.points_per_node - len(DEFAULT_SAMPLER.anchors)
    # every round's raw rows, read again in order by a fresh system:
    # an unprepared system derives each node's schedule one read at a time
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


def node_system(model, Xs, mode, tol=DEFAULT_TOL):
    return distribution._System(model, np.asarray(Xs, dtype=float).reshape(-1, 3), mode, tol,
                                GERM_RADIUS, GERM_CLOUD, DEFAULT_SAMPLER)


def assert_rounds_match_raw_rows(model, X, mode):
    """Every round of one node, solved from the carried ``R``, against one
    SVD of all the raw lifted rows read up to that round."""
    spectra, asked = [], []

    def spy(M, vectors):
        out = stacked_factor(M, vectors)
        spectra.append(out[1][0])
        asked.append(vectors)
        return out

    system = node_system(model, X, mode)
    with mock.patch.object(distribution, "stacked_factor", spy):
        (fibre,) = saturated(system)
    assert len(spectra) == len(fibre.dim_history) >= 2
    assert asked == [False] + [True] * (len(spectra) - 1)  # round 1: values alone
    fresh, raw = node_system(model, X, mode), []
    for s, dim in zip(spectra, fibre.dim_history):
        raw.append(lifted(system, fresh.blocks([0])[0]))
        assert_same_spectrum(s, np.concatenate(raw))
        assert system.n_unknowns - rank_split(s, DEFAULT_TOL.rank_rel)[0] == dim
    return spectra


class TestCarriedRounds:
    # the edge cases of the carried factor: a first round with fewer rows than
    # unknowns, the underflow band of example1, and the degenerate centre
    @settings(max_examples=6, deadline=None)
    @given(X=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)))
    def test_wide_first_round(self, det_cal, X):
        spectra = assert_rounds_match_raw_rows(det_cal, X, "pointwise")
        assert len(spectra[0]) < 12  # the first round carries itself

    @settings(max_examples=6, deadline=None)
    @given(x1=st.floats(0.0, 0.05, exclude_min=True),
           x23=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), mode=st.sampled_from(MODES))
    def test_underflow_band(self, example1, x1, x23, mode):
        assert_rounds_match_raw_rows(example1, (x1, *x23), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_degenerate_centre(self, example2, mode):
        assert_rounds_match_raw_rows(example2, (0.0, 0.0, 0.0), mode)


class TestFirstRoundRanks:
    # round 1 decides ranks from singular values alone; they must be the
    # ranks the full SVD gives, for a chunk of nodes as for one
    @settings(max_examples=15, deadline=None)
    @given(points=st.lists(st.tuples(st.one_of(st.floats(-0.9, 0.9), st.floats(0.0, 0.05)),
                                     st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                           min_size=1, max_size=4),
           name=st.sampled_from(["example1", "example2", "det_cal", "identity_cal"]),
           mode=st.sampled_from(MODES), centre=st.booleans())
    def test_values_alone_give_the_full_ranks(self, example1, example2, det_cal, identity_cal,
                                              points, name, mode, centre):
        model = {"example1": example1, "example2": example2, "det_cal": det_cal,
                 "identity_cal": identity_cal}[name]
        Xs = np.array(points + [(0.0, 0.0, 0.0)] * centre)
        Xs = Xs[[model.in_domain(X) for X in Xs]]
        if not len(Xs):
            return
        try:
            system = node_system(model, Xs, mode)
        except distribution.MatdistError:  # clouds cut short do not stack
            return
        M = system.rows(list(range(len(Xs))))
        _, values, vh = stacked_factor(M, vectors=False)
        _, full, _ = stacked_factor(M, vectors=True)
        assert vh is None
        rank_rel = DEFAULT_TOL.rank_rel
        assert rank_splits(values, rank_rel)[0] == rank_splits(full, rank_rel)[0]
        for got, raw in zip(values, M):
            assert_same_spectrum(got, raw)


def loop_validate(system, solved):
    """Held-out validation as first written, one node at a time: the oracle."""
    by_rounds = defaultdict(list)
    for i, fibre in solved.items():
        if fibre.fibre_dim > 0:
            by_rounds[len(fibre.dim_history)].append(i)
    for nodes in by_rounds.values():
        B = system.blocks(nodes)
        for j, i in enumerate(nodes):
            per_vector = np.abs(B[j] @ (system.lift[i] @ solved[i].fibre_basis)).max(axis=(0, 1))
            solved[i].heldout_residual = float(per_vector.max())
            solved[i].validated = bool(np.all(per_vector <= system.tol.residual_tol))


# chunks whose nodes share their rounds but not their fibre dimension: across
# example1's X1 = 0 interface in both modes, and around the example2 centre
VALIDATION_CHUNKS = [
    ("example1", "pointwise", [(x, 0.1, -0.2) for x in (-0.3, -0.02, 0.0, 0.01, 0.04, 0.2, 0.5)]),
    ("example1", "germ1", [(-0.2, 0.1, 0.0), (0.03, 0.0, 0.1), (0.4, -0.2, 0.1)]),
    ("example2", "pointwise", [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.3, 0.2, 0.1)]),
]


@pytest.mark.parametrize("name,mode,points", VALIDATION_CHUNKS,
                         ids=["example1-pointwise", "example1-germ1", "example2-pointwise"])
def test_batched_validation_equals_the_node_loop(request, name, mode, points):
    model = request.getfixturevalue(name)

    def validated(check, tol):
        system = node_system(model, points, mode, tol)
        results = saturated(system)
        check(system, dict(enumerate(results)))
        return results

    want = validated(loop_validate, DEFAULT_TOL)
    groups = defaultdict(set)
    for fibre in want:
        groups[len(fibre.dim_history)].add(fibre.fibre_dim)
    assert any(len(dims) > 1 for dims in groups.values())  # padded bases
    # a bound equal to the middle residual passes that node and fails larger ones
    residuals = sorted(fibre.heldout_residual for fibre in want)
    split = Tolerances(residual_tol=residuals[len(residuals) // 2])
    for tol in (DEFAULT_TOL, split):
        want = validated(loop_validate, tol)
        got = validated(distribution._validate, tol)
        assert [f.validated for f in got] == [f.validated for f in want]
        assert [f.heldout_residual for f in got] == [f.heldout_residual for f in want]
    assert len({f.validated for f in got}) == 2


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
    ("example1", (5e-324, 0.0, 0.0), "pointwise", (3, 3, 0, True)),  # x1**2 underflows
    ("example1", (1e-200, 0.2, -0.1), "germ1", (3, 12, 0, True)),
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


def peak_bytes(model, Xs, mode):
    fibres_at(model, Xs[:1], mode=mode)  # the gradient pool, made once per process
    tracemalloc.start()
    try:
        fibres_at(model, Xs, mode=mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_germ1_chunk_memory(example1):
    # example1's germ1 nodes run one per chunk: 16 of them peak at about 1.7 MiB
    Xs = np.random.default_rng(0).uniform(-0.6, 0.6, (16, 3))
    assert peak_bytes(example1, Xs, "germ1") < 3 * 2**20


def test_pointwise_chunk_memory(example1):
    # 200 pointwise nodes run in chunks of 21 and peak at about 1.7 MiB
    Xs = np.random.default_rng(0).uniform(-0.6, 0.6, (200, 3))
    assert peak_bytes(example1, Xs, "pointwise") < 3 * 2**20


@pytest.mark.parametrize("name,mode,validate,nodes", [
    ("example1", "pointwise", True, 21), ("example2", "pointwise", True, 97),
    ("example1", "germ1", True, 1), ("example2", "germ1", True, 4),
    ("example2", "pointwise", False, 179),
])
def test_chunks_fit_their_prepared_rows(request, monkeypatch, name, mode, validate, nodes):
    # a node prepares, per cloud point, 3 anchors and 8 + 8 (+ 16) gradients of
    # dim rows: 1 point in pointwise mode, 21 in germ1; example1 has 9 rows, example2 2
    model = request.getfixturevalue(name)
    assert distribution._chunk_nodes(model, MODES.index(mode), GERM_CLOUD, DEFAULT_SAMPLER,
                                     validate) == nodes
    sizes, system = [], distribution._System

    def sized(model, Xs, *args):
        sizes.append(len(Xs))
        return system(model, Xs, *args)

    monkeypatch.setattr(distribution, "_System", sized)
    Xs = np.random.default_rng(1).uniform(-0.5, 0.5, (2 * nodes + 1, 3))
    assert all(isinstance(f, distribution.FibreResult)
               for f in fibres_at(model, Xs, mode=mode, validate=validate))
    assert sizes == [nodes, nodes, 1]


def counting(monkeypatch, name):
    calls = []
    original = getattr(distribution, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(distribution, name, counted)
    return calls


class TestFactorizationCounts:
    # a query makes one derivative call and one QR or SVD call per stacked
    # factorization, whatever its size: the counts of a one-point query, and
    # of a 12-point batch with one fibre dimension, are those of the kernel
    # before its fixed cost was cut
    POINTS = np.random.default_rng(5).uniform(0.1, 0.6, (12, 3)) * [1.0, 0.5, 0.5]

    @pytest.mark.parametrize("name,points,validate,want", [
        ("example1", 1, False, (1, 2, 3)), ("example2", 1, False, (1, 2, 3)),
        ("identity_cal", 1, False, (1, 2, 3)), ("det_cal", 1, False, (1, 1, 3)),
        ("example2", 1, True, (1, 2, 4)),
        ("example1", 12, False, (1, 2, 3)), ("example2", 12, False, (1, 2, 3)),
        ("identity_cal", 12, False, (1, 2, 3)), ("det_cal", 12, False, (1, 1, 3)),
    ])
    def test_calls_per_query(self, request, monkeypatch, name, points, validate, want):
        model = request.getfixturevalue(name)
        Xs = self.POINTS[:points]

        def query():  # validated queries extract the symmetries, as material_fibre does
            return fibres_at(model, Xs, validate=validate, symmetry=validate)

        query()  # the gradient pool, made once per process
        derivatives = counting(monkeypatch, "derivatives_at_samples")
        factorizations = defaultdict(int)
        for kind in ("qr", "svd"):
            def counted(*args, original=getattr(np.linalg, kind), kind=kind, **kwargs):
                factorizations[kind] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, kind, counted)
        fibres = query()
        assert all(isinstance(f, distribution.FibreResult) for f in fibres)
        assert (len(derivatives), factorizations["qr"], factorizations["svd"]) == want


class TestSolvedNodes:
    # nodes of a chunk whose prepared inputs are bit-identical share one
    # solve: the nodes that reach _saturate, per chunk, on a 5^3 map
    GRID = GridSpec((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9), (5, 5, 5))

    def solved(self, monkeypatch, model):
        calls = counting(monkeypatch, "_saturate")
        grade_map(model, self.GRID)
        return [len(nodes) for _, nodes in calls]

    def test_example1_map_solves_each_distinct_system_once(self, example1, monkeypatch):
        # example1's rows depend on X1 alone and are the same for every
        # X1 <= 0, so a chunk holds one system per X1 > 0 and one for X1 <= 0
        step = distribution._chunk_nodes(example1, 0, GERM_CLOUD, DEFAULT_SAMPLER, True)
        x1 = self.GRID.points().reshape(-1, 3)[:, 0].tolist()
        distinct = [len({max(x, 0.0) for x in x1[i:i + step]}) for i in range(0, len(x1), step)]
        assert distinct == [1, 1, 1, 2, 2, 1]
        assert self.solved(monkeypatch, example1) == distinct

    def test_example2_map_solves_every_node(self, example2, monkeypatch):
        inside = sum(example2.in_domain(X) for X in self.GRID.points().reshape(-1, 3))
        assert sum(self.solved(monkeypatch, example2)) == inside == 33

    @pytest.mark.parametrize("k_max", [DEFAULT_SAMPLER.k_max, 2 * DEFAULT_SAMPLER.k_init],
                             ids=["fourth-round", "unstable"])
    def test_twins_of_a_node_that_reads_on_solve_on_their_own(self, monkeypatch, k_max):
        # stepping_model gives every point the same rows, gradient by gradient,
        # so the three points are twins; their first node either reads past
        # the prepared draws (a fourth round, derived at its own point) or
        # fails at round 2, so the other two solve on their own
        sampler = SamplerConfig(k_max=k_max)
        Xs = [(0.3, 0.2, 0.1), (-0.4, 0.0, 0.5), (0.1, -0.6, 0.2)]
        calls = counting(monkeypatch, "_saturate")
        got = fibres_at(stepping_model(), Xs, sampler=sampler)
        assert [nodes for _, nodes in calls] == [[0], [1, 2]]
        want = [fibres_at(stepping_model(), [X], sampler=sampler)[0] for X in Xs]
        assert_same_nodes(got, want)
        if k_max == DEFAULT_SAMPLER.k_max:
            assert all(fibre.dim_history == [11, 10, 9, 9] for fibre in got)
        else:
            assert all(isinstance(e, FibreInstabilityError) and e.history == [11, 10] for e in got)


def counting_draws(monkeypatch):
    """Per ``_System._raw`` call, the gradient count of each pool draw it reads."""
    draws = []
    pool, raw = distribution._pool, distribution._System._raw

    def read(*args):
        Fs = pool(*args)
        draws[-1].append(Fs.shape[1])
        return Fs

    def derived(system, nodes, ts):
        draws.append([])
        return raw(system, nodes, ts)

    monkeypatch.setattr(distribution, "_pool", read)
    monkeypatch.setattr(distribution._System, "_raw", derived)
    return draws


class TestDrawSchedule:
    # a node reads its draws in a fixed order: the rounds, then the held-out
    # samples; the first two, and the third when validating, come in one batch

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
    def test_one_point_query_draws_and_derives_once(self, example2, monkeypatch, mode, validate):
        draws = counting_draws(monkeypatch)
        derivatives = counting(monkeypatch, "derivatives_at_samples")
        (fibre,) = fibres_at(example2, [(0.3, 0.2, 0.1)], mode=mode, validate=validate)
        assert len(fibre.dim_history) == 2 and fibre.fibre_dim > 0  # stops at round 2
        assert len(draws) == 1 and len(derivatives) == 1
        k = DEFAULT_SAMPLER.k_init
        assert draws[0] == ([k, k, 2 * k] if validate else [k, k])

    def test_later_rounds_draw_one_at_a_time(self, monkeypatch):
        # a node still open after round 2 draws each further round alone
        draws = counting_draws(monkeypatch)
        (fibre,) = fibres_at(stepping_model(), [(0.3, 0.2, 0.1)])
        assert fibre.dim_history == [11, 10, 9, 9] and fibre.validated
        k = DEFAULT_SAMPLER.k_init
        # draw 3 is round 4, draw 4 the held-out samples; draw t holds k << (t - 1)
        assert draws == [[k, k, 2 * k], [k << 2], [k << 3]]


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
        original = distribution._pool

        def short_of_the_third(sampler, salt, t, points):
            if t == 2:
                raise SamplerExhaustedError("gradient sampler failed to find acceptable samples")
            return original(sampler, salt, t, points)

        # gradients past a point's two solve draws fail, so a read of any
        # draw but the first two would fail too
        failing = zone_model(lambda rows: fail_after(rows, self.CLEAN))
        clean = fibres_at(failing, [self.ZERO])
        assert clean[0].dim_history == [0, 0]
        monkeypatch.setattr(distribution, "_pool", short_of_the_third)
        got = fibres_at(failing, [self.ZERO, self.FREE])
        assert_same_nodes(got[:1], clean[:1])
        assert isinstance(got[1], SamplerExhaustedError)
