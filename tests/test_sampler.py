"""The gradient sampler against its reference oracle.

The package decides the condition test mostly by a bound and draws the
first batch of every point of every generator at once; ``sampler_reference``
keeps the plain ``det`` + ``cond`` test and the sequential draws.  Every
decision, draw and generator state must match it bit for bit, and so must
whole fibres.
"""

import os

import numpy as np
import pytest

import matdist
from matdist import distribution
from matdist.distribution import (
    SamplerConfig,
    fibres_at,
    is_material_isomorphism,
    material_fibre,
)
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


def counting_replays(monkeypatch):
    calls = []
    original = distribution.sample_gradients

    def counted(rng, count, sampler):
        calls.append(count)
        return original(rng, count, sampler)

    monkeypatch.setattr(distribution, "sample_gradients", counted)
    return calls


def doubling(sampler):
    k = sampler.k_init
    while k <= sampler.k_max:
        yield k
        k *= 2


def assert_same_draws(rngs, points, count, sampler):
    """``_draws`` on ``rngs`` against the oracle on copies: draws and end states."""
    theirs = [np.random.Generator(type(rng.bit_generator)()) for rng in rngs]
    for a, b in zip(rngs, theirs):
        b.bit_generator.state = a.bit_generator.state
    got = distribution._draws(rngs, points, count, sampler)
    assert got.shape == (len(rngs), points, count, 3, 3)
    assert np.array_equal(got, reference.draws(theirs, points, count, sampler))
    # so the held-out draws that follow are the same too
    for a, b in zip(rngs, theirs):
        assert a.bit_generator.state == b.bit_generator.state


class TestDraws:
    @pytest.mark.parametrize("n_rngs", [1, 3, 16])
    def test_sample_many_matches_reference(self, n_rngs, monkeypatch):
        sampler = SamplerConfig()
        replays = counting_replays(monkeypatch)
        for points in (1, 21):
            for count in doubling(sampler):
                rngs = [np.random.default_rng([count, points, i]) for i in range(n_rngs)]
                assert_same_draws(rngs, points, count, sampler)
        assert replays == [], "default draws should come in one batch"

    def test_short_generators_draw_more_batches(self, monkeypatch):
        sampler = sampler_with(cond_max=8.0)  # about half the draws pass
        replays = counting_replays(monkeypatch)
        for n_rngs in (1, 3, 16):
            for points in (1, 21):
                rngs = [np.random.default_rng([5, n_rngs, points, i]) for i in range(n_rngs)]
                assert_same_draws(rngs, points, 16, sampler)
        assert replays, "no first batch came up short"

    @pytest.mark.parametrize("points", [1, 21])
    def test_cloud_draws_match_sequential_draws(self, points, monkeypatch):
        sampler = SamplerConfig()
        replays = counting_replays(monkeypatch)
        for k in doubling(sampler):
            assert_same_draws([np.random.default_rng([k, points])], points, k, sampler)
        assert replays == [], "a default cloud should be drawn in one batch"

    def test_shortfall_replays_sequential_draws(self, monkeypatch):
        sampler = sampler_with(cond_max=8.0)
        replays = counting_replays(monkeypatch)
        for k in (8, 16):
            assert_same_draws([np.random.default_rng([7, k])], 21, k, sampler)
        assert replays == [8] * 21 + [16] * 21


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
    with monkeypatch.context() as patch:
        reference.install(patch, distribution)
        return run()


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
