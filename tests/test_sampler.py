"""The gradient sampler and its pool against the reference oracle.

The package tests each gradient with ``det`` and then ``cond`` on the draws
that pass, and every node reads one pool of draws per sampler;
``sampler_reference`` keeps the plain ``det`` + ``cond`` test on every draw
and the sequential draws of one generator.  Every decision and every pool
draw must match it bit for bit, and so must whole fibres read from a pool
that the oracle drew.
"""

import os

import numpy as np
import pytest

import matdist
from matdist import distribution
from matdist.distribution import (
    DEFAULT_SAMPLER,
    GERM_CLOUD,
    GERM_RADIUS,
    SamplerConfig,
    fibres_at,
    is_material_isomorphism,
    material_fibre,
)
from matdist.errors import SamplerExhaustedError
from matdist.foliation import GridSpec, grade_map
from matdist.numkit import DEFAULT_TOL
from matdist.response import builtin, load_model_file

import sampler_reference as reference

COND_MAXES = [1.0, 2.0, 50.0, 1e6, np.inf]


def sampler_with(cond_max=50.0, det_min=0.1):
    return SamplerConfig(cond_max=cond_max, det_min=det_min)


def assert_same_decisions(Fs, sampler):
    ours = distribution._accepted(Fs, sampler)
    theirs = reference.accepted(Fs, sampler)
    assert ours.dtype == bool and ours.shape == (len(Fs),)
    mismatched = np.flatnonzero(ours != theirs)
    assert mismatched.size == 0, f"{mismatched.size} decisions differ, first at {Fs[mismatched[0]]}"


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def from_singular_values(rng, s):
    """Matrices ``U diag(s) V^T`` with random orthogonal ``U`` and ``V``."""
    return orthogonal(rng, len(s)) @ (s[:, :, None] * orthogonal(rng, len(s)).transpose(0, 2, 1))


def with_condition(rng, conds):
    """Singular values ``(cond, s1, 1)``, ``s1`` log-uniform in ``[1, cond]``, times a random scale."""
    s1 = conds ** rng.random(len(conds))
    s = np.stack([conds, s1, np.ones_like(conds)], axis=1)
    return s * np.exp(rng.uniform(-1.0, 1.0, (len(conds), 1)))


def frobenius_product(s):
    """``|F|_F |F^-1|_F`` for singular values ``s (n,3)``."""
    return np.sqrt((s * s).sum(axis=1) * (1.0 / (s * s)).sum(axis=1))


def with_product(rng, products):
    """Singular values ``(c, s1, 1)`` whose ``|F|_F |F^-1|_F`` equals ``products``.

    On ``[sqrt(c), c]`` the product grows with ``s1`` from ``c + 1 + 1/c`` to
    ``sqrt(2c^2 + 5 + 2/c^2)``; ``c`` is drawn where that range holds the
    target, and bisection finds ``s1``.
    """
    T = products
    c_hi = 0.5 * ((T - 1.0) + np.sqrt((T - 1.0) ** 2 - 4.0))
    c_lo = np.sqrt(0.25 * ((T * T - 5.0) + np.sqrt((T * T - 5.0) ** 2 - 16.0)))
    c = c_lo + (c_hi - c_lo) * rng.uniform(0.05, 0.95, len(T))
    lo, hi = np.sqrt(c), c.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        big = frobenius_product(np.stack([c, mid, np.ones_like(c)], axis=1)) > products
        hi = np.where(big, mid, hi)
        lo = np.where(big, lo, mid)
    return np.stack([c, 0.5 * (lo + hi), np.ones_like(c)], axis=1)


def near(rng, value, n, rel=1e-12):
    return value * (1.0 + rng.uniform(-rel, rel, n))


class TestAcceptanceDecisions:
    @pytest.mark.parametrize("det_min", [0.0, 0.1])
    @pytest.mark.parametrize("cond_max", COND_MAXES)
    def test_random_normals(self, cond_max, det_min):
        rng = np.random.default_rng(20)
        Fs = rng.standard_normal((60000, 3, 3)) * rng.choice([0.3, 1.0, 3.0], (60000, 1, 1))
        assert_same_decisions(Fs, sampler_with(cond_max, det_min))

    # at 1e12 the rounding of |F^-1| and of cond reaches 1e-4 relative
    @pytest.mark.parametrize("cond_max", [1.0, 2.0, 50.0, 1e6, 1e12])
    @pytest.mark.parametrize("edge", [1.0, 3.0], ids=["cond_max", "3cond_max"])
    def test_condition_at_the_band_edges(self, cond_max, edge):
        rng = np.random.default_rng(21)
        conds = np.maximum(near(rng, edge * cond_max, 4000), 1.0)
        Fs = from_singular_values(rng, with_condition(rng, conds))
        for det_min in (0.0, 0.1):
            assert_same_decisions(Fs, sampler_with(cond_max, det_min))
        # the exact test is not trivially one-sided here
        if edge == 1.0 and cond_max > 1.0:
            decided = reference.accepted(Fs, sampler_with(cond_max, 0.0))
            assert 0 < decided.sum() < len(Fs)

    # |F|_F |F^-1|_F is at least 3, so cond_max = 2 has only the reject threshold
    @pytest.mark.parametrize("cond_max,edge", [(2.0, 3.0), (50.0, 1.0), (50.0, 3.0),
                                               (1e6, 1.0), (1e6, 3.0)])
    def test_bound_at_its_thresholds(self, cond_max, edge):
        # where |F|_F |F^-1|_F itself sits on the accept or reject threshold
        target = edge * cond_max
        rng = np.random.default_rng(22)
        s = with_product(rng, near(rng, target, 4000))
        assert np.allclose(frobenius_product(s), target, rtol=1e-9, atol=0.0)
        Fs = from_singular_values(rng, s)
        for det_min in (0.0, 0.1):
            assert_same_decisions(Fs, sampler_with(cond_max, det_min))

    @pytest.mark.parametrize("det_min", [0.1, 1.0])
    def test_near_the_determinant_bound(self, det_min):
        rng = np.random.default_rng(23)
        s = with_condition(rng, rng.uniform(1.0, 60.0, 4000))
        s *= (near(rng, det_min, 4000) / s.prod(axis=1))[:, None] ** (1.0 / 3.0)
        Fs = from_singular_values(rng, s)
        decided = reference.accepted(Fs, sampler_with(50.0, det_min))
        assert 0 < decided.sum() < len(Fs)
        assert_same_decisions(Fs, sampler_with(50.0, det_min))

    def test_infinite_bound_keeps_ill_conditioned_draws(self):
        rng = np.random.default_rng(24)
        Fs = from_singular_values(rng, with_condition(rng, 10.0 ** rng.uniform(3, 15, 3000)))
        assert_same_decisions(Fs, sampler_with(np.inf, 0.0))
        assert distribution._accepted(Fs, sampler_with(np.inf, 0.0)).all()


SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32 + 7, -1]


class TestPool:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("salt", [0, 1, 2])
    def test_draws_are_successive_calls_of_one_generator(self, seed, salt):
        # draw t: k_init gradients at t = 0 and k_init << (t - 1) after,
        # one sample_gradients call per cloud point on the (seed, salt, t) generator
        sampler = SamplerConfig(seed=seed)
        for t in range(5):
            for points in (1, 16, 21):  # 16: a germ1 cloud the domain cuts (X1 = 0.99995)
                rng = np.random.default_rng([seed & 0xFFFFFFFF, salt, t])
                count = sampler.k_init << max(t - 1, 0)
                want = [reference.sample_gradients(rng, count, sampler) for _ in range(points)]
                got = distribution._pool(sampler, salt, t, points)
                assert got.shape == (points, count, 3, 3)
                assert np.array_equal(got, np.stack(want))

    def test_key_is_what_decides_a_draw(self):
        base = SamplerConfig(seed=5)
        drawn = distribution._pool(base, 0, 1, 21)
        for changed in (SamplerConfig(seed=6), SamplerConfig(seed=5, k_init=9),
                        SamplerConfig(seed=5, det_min=1.0), SamplerConfig(seed=5, cond_max=10.0)):
            other = distribution._pool(changed, 0, 1, 21)
            assert other.shape != drawn.shape or not np.array_equal(other, drawn), changed
        # anchors (here an unhashable array) and k_max do not enter the key
        same = [SamplerConfig(seed=5, k_max=64),
                SamplerConfig(seed=5, anchors=2.0 * np.eye(3)[None])]
        for unchanged in same:
            assert distribution._pool(unchanged, 0, 1, 21) is drawn

    def test_cached_draws_are_read_only(self):
        drawn = distribution._pool(DEFAULT_SAMPLER, 0, 0, 1)
        assert not drawn.flags.writeable
        with pytest.raises(ValueError):
            drawn[0, 0, 0, 0] = 1.0
        assert distribution._pool(DEFAULT_SAMPLER, 0, 0, 1) is drawn

    @pytest.mark.parametrize("mode", ["pointwise", "germ1"])
    def test_exhausted_sampler_draws_its_batches_once(self, example1, mode, monkeypatch):
        # nothing meets cond_max = 1: the pool judges the draw once per
        # process, and every node, query and grade map still fails with it
        sampler = SamplerConfig(seed=31, cond_max=1.0)
        batches = []
        original = distribution.sample_gradients

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                batches.append(size)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(distribution, "sample_gradients",
                            lambda rng, count, sampler: original(Counted(rng), count, sampler))
        distribution._pool_draw.cache_clear()
        points = [[0.5, 0.0, 0.0], [0.2, 0.0, 0.0]]
        for _ in range(2):
            nodes = fibres_at(example1, points, mode=mode, sampler=sampler)
            assert [type(node) for node in nodes] == [SamplerExhaustedError] * 2
        with pytest.raises(SamplerExhaustedError):
            material_fibre(example1, points[0], mode=mode, sampler=sampler)
        field = grade_map(example1, GridSpec(points[1], points[0], (2, 1, 1)), mode=mode,
                          sampler=sampler)
        assert len(field.errors) == 2
        assert len(batches) == reference.SAMPLER_BATCHES

    def test_queries_read_the_anchors_of_their_sampler(self, example2):
        # draw 0 is led by the sampler's anchors, an array included: samplers
        # equal but for their anchors give different rows, equal anchors the same
        def rows(anchors):
            system = distribution._System(example2, np.array([[0.3, 0.2, 0.1]]), "pointwise",
                                          DEFAULT_TOL, GERM_RADIUS, GERM_CLOUD,
                                          SamplerConfig(anchors=anchors))
            return system.rows([0])

        unit = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        stretch = ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
        assert np.array_equal(rows(np.array([unit])), rows((unit,)))
        assert np.array_equal(rows(np.array([stretch])), rows((stretch,)))
        assert not np.array_equal(rows(np.array([stretch])), rows(np.array([unit])))
        fibres = [material_fibre(example2, [0.3, 0.2, 0.1], sampler=SamplerConfig(anchors=a))
                  for a in (np.eye(3)[None], np.array([stretch]))]
        assert fibres[0].samples_used == fibres[1].samples_used
        assert not np.array_equal(fibres[0].fibre_basis, fibres[1].fibre_basis)

    def test_a_cleared_pool_draws_again(self, example2, monkeypatch):
        # the pool is the one store of draws: once cleared, the next query
        # draws through sample_gradients again, and reads the same gradients
        want = material_fibre(example2, [0.3, 0.2, 0.1])
        calls = []
        original = distribution.sample_gradients

        def counted(rng, count, sampler):
            calls.append(count)
            return original(rng, count, sampler)

        monkeypatch.setattr(distribution, "sample_gradients", counted)
        material_fibre(example2, [0.3, 0.2, 0.1])
        assert not calls
        distribution._pool_draw.cache_clear()
        got = material_fibre(example2, [0.3, 0.2, 0.1])
        assert calls
        assert np.array_equal(got.fibre_basis, want.fibre_basis)
        assert got.heldout_residual == want.heldout_residual

    def test_each_mode_reads_its_own_salt(self, example2, monkeypatch):
        # the salts are part of every payload: pointwise nodes read draws of
        # salt 0, germ1 nodes of salt 1 and isomorphism checks of salt 2
        salts = set()
        pool = distribution._pool

        def spy(sampler, salt, t, points):
            salts.add(salt)
            return pool(sampler, salt, t, points)

        monkeypatch.setattr(distribution, "_pool", spy)
        points = [(0.3, 0.2, 0.1), (-0.4, 0.1, 0.0)]
        for mode, salt in (("pointwise", 0), ("germ1", 1)):
            salts.clear()
            fibres_at(example2, points, mode=mode)
            assert salts == {salt}
        salts.clear()
        is_material_isomorphism(example2, points[0], points[1], np.eye(3))
        assert salts == {2}

    def test_isomorphism_draws_ignore_the_points(self, example2):
        # a failing check reports the same witness when an endpoint moves by
        # rounding, as leaf endpoints do
        X = np.array([0.3, 0.2, 0.1])
        Y = np.array([0.5, 0.1, 0.0])
        first = is_material_isomorphism(example2, X, Y, np.eye(3))
        moved = is_material_isomorphism(example2, X, Y + 1e-15, np.eye(3))
        assert not first.verdict and not moved.verdict
        assert np.array_equal(first.worst_gradient, moved.worst_gradient)
        assert first.samples_used == moved.samples_used


def example1_mdl():
    return load_model_file(os.path.join(os.path.dirname(matdist.__file__), "mdl", "example1.mdl"))


MODELS = {
    "example1": lambda: builtin("example1"),
    "example2": lambda: builtin("example2"),
    "det_cal": lambda: builtin("det_cal"),
    "identity_cal": lambda: builtin("identity_cal"),
    "example1.mdl": example1_mdl,
}

GERM_POINTS = {
    "example1": [(0.2, 0.0, 0.0), (-0.5, 0.2, 0.1)],
    "example2": [(0.0, 0.0, 0.0), (0.3, 0.2, 0.1)],
    "det_cal": [(0.1, 0.2, 0.3)],
    "identity_cal": [(0.1, 0.2, 0.3)],
    "example1.mdl": [(0.5, 0.0, 0.0)],
}


def with_reference(monkeypatch, run):
    """``run()`` on a pool drawn afresh by the oracle sampler."""
    with monkeypatch.context() as patch:
        patch.setattr(distribution, "_accepted", reference.accepted)
        patch.setattr(distribution, "sample_gradients", reference.sample_gradients)
        distribution._pool_draw.cache_clear()
        try:
            return run()
        finally:
            distribution._pool_draw.cache_clear()


def assert_same_node(a, b):
    assert type(a) is type(b)
    if isinstance(a, Exception):
        assert str(a) == str(b)
        return
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, list):
            assert len(value) == len(other), name
            for u, v in zip(value, other):
                assert np.array_equal(u, v), name
        else:
            assert np.array_equal(value, other), name


@pytest.mark.parametrize("name", list(MODELS))
class TestWholeRunsMatchTheOracle:
    def test_pointwise_grades(self, name, monkeypatch):
        model = MODELS[name]()
        axis = np.linspace(-0.6, 0.6, 4)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        Xs = np.array([X for X in grid if model.in_domain(X)])
        got = fibres_at(model, Xs)
        want = with_reference(monkeypatch, lambda: fibres_at(model, Xs))
        assert len(got) == len(want) == len(Xs)
        for a, b in zip(got, want):
            assert_same_node(a, b)

    def test_germ1_fibres(self, name, monkeypatch):
        model = MODELS[name]()
        for X in GERM_POINTS[name]:
            got = material_fibre(model, X, mode="germ1")
            want = with_reference(monkeypatch, lambda: material_fibre(model, X, mode="germ1"))
            assert_same_node(got, want)

    def test_base_queries_and_isomorphism_checks(self, name, monkeypatch):
        model = MODELS[name]()
        Xs = np.array([[0.3, 0.2, 0.1], [-0.4, 0.1, 0.0], [0.5, 0.0, 0.2]])

        def run():
            fibres = fibres_at(model, Xs, validate=False)
            iso = is_material_isomorphism(model, Xs[0], Xs[2], np.eye(3))
            return fibres, iso

        (got_fibres, got_iso), (want_fibres, want_iso) = run(), with_reference(monkeypatch, run)
        for a, b in zip(got_fibres, want_fibres):
            # every field: base_basis, grade and rank_gap among them
            assert_same_node(a, b)
        assert_same_node(got_iso, want_iso)
