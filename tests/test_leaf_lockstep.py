"""Lockstep leaf tracing against the sequential oracle in ``leaf_reference``.

Every base query reads the same gradient draws wherever its point lies,
so a leaf traced beside others, alone, or one point at a time by the
oracle must give the same bits, the same stop reason and the same error.
"""

import os

import numpy as np
import pytest

import leaf_reference as reference
import matdist
from matdist.distribution import SamplerConfig, base_basis_at, fibres_at
from matdist.errors import DomainError, FibreInstabilityError, NonFiniteError
from matdist.foliation import leaf_trace, trace_leaves
from matdist.homogeneity import builtin_chart, leaf_pairs
from matdist.response import ConstitutiveModel, builtin, load_model_file

E1, E2, E3, ZERO = np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], np.zeros(3)


def assert_same_trace(got, want):
    assert got.stop_reason == want.stop_reason
    for name in ("points", "grades", "directions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.tie_breaks == want.tie_breaks


def oracle_outcome(model, seed, hint, steps, h=0.01, sampler=SamplerConfig()):
    try:
        return reference.leaf_trace(model, seed, hint, steps, h, sampler)
    except (ValueError, FibreInstabilityError) as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert_same_trace(got, want)


def zoned(name, rows, zone_rows, zone=lambda X: X[1] > 0.3):
    """Three base rows per sample: ``rows`` outside ``zone``, ``zone_rows(X, Fs)`` inside.

    ``zone_rows`` gets the gradients ``Fs (k,3,3)`` of one body point's
    lanes and returns rows for all of them, ``(3,3)``, or per lane,
    ``(k,3,3)``.  Rows that pin e1 and e3 leave the base span(e2), so leaves
    run along X2.  ``zone_rows`` may raise to make the zone fail.
    """

    def derivatives(Xs, Fs):
        # the k lanes of one body point are consecutive
        blocks = np.empty((len(Xs), 3, 3))
        start = 0
        while start < len(Xs):
            stop = start + 1
            while stop < len(Xs) and np.array_equal(Xs[stop], Xs[start]):
                stop += 1
            X = Xs[start]
            blocks[start:stop] = zone_rows(X, Fs[start:stop]) if zone(X) else rows
            start = stop
        return np.concatenate([blocks, np.zeros((len(Xs), 3, 9))], axis=2)

    return ConstitutiveModel(name, 3, lambda Xs, Fs: np.zeros((len(Fs), 3)),
                             domain=lambda X: bool(np.all(np.abs(X) <= 1.0)),
                             bounds=((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
                             derivatives=derivatives)


def pinned_zone(X, Fs):
    return [E1, E2, E3]  # grade 0


def turned_zone(X, Fs):
    return [E2, E3, ZERO]  # the base turns to span(e1)


def non_finite_zone(X, Fs):
    raise NonFiniteError(f"synthetic non-finite response at {X.tolist()}")


def unstable_zone():
    """Zone rows that also pin e3 for every gradient after a point's first seven.

    With ``k_init=4, k_max=8`` a query's first round solves the three
    anchors and four draws, which see ``[E1, 0, 0]`` (``X1 > 0``) or zero
    rows, so the null dimension is 11 (or 12); every later gradient at that
    point adds e3, the dimension drops to 10 and never repeats.  A point
    draws the same gradients in the same order whenever it is queried, so
    the rows depend on the point and the gradient alone, not on how the
    queries are batched or split into rounds.
    """
    first_seen = {}

    def rows(X, Fs):
        first = first_seen.setdefault(X.tobytes(), [])
        early = [E1, ZERO, ZERO] if X[0] > 0 else [ZERO, ZERO, ZERO]
        out = []
        for key in (F.tobytes() for F in Fs):
            if len(first) < 7 and key not in first:
                first.append(key)
            out.append(early if key in first else [E1, E3, ZERO])
        return out

    return rows


STRIPES = [E1, E3, ZERO]
UNSTABLE_SAMPLER = SamplerConfig(k_init=4, k_max=8)


@pytest.fixture(scope="module")
def example1_mdl():
    return load_model_file(os.path.join(os.path.dirname(matdist.__file__), "mdl", "example1.mdl"))


class TestSingleLeafMatchesOracle:
    @pytest.mark.parametrize("seed,hint,steps,reason", [
        ([0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 60, "completed"),
        ([0.6, -0.5, 0.4], [1.0, 1.0, 0.0], 25, "completed"),
    ], ids=["sphere", "sphere-oblique"])
    def test_example2(self, example2, seed, hint, steps, reason):
        trace = leaf_trace(example2, seed, hint, steps, 0.01)
        assert trace.stop_reason == reason
        assert_same_trace(trace, reference.leaf_trace(example2, seed, hint, steps, 0.01))

    @pytest.mark.parametrize("seed,hint,steps,reason", [
        ([0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 60, "completed"),
        ([-0.5, 0.0, 0.0], [-1.0, 0.0, 0.0], 200, "domain_boundary"),
        ([0.5, 0.0, 0.0], [1.0, 0.0, 0.0], 5, "completed"),
    ], ids=["plane", "wall-exit", "tie-break"])
    def test_example1(self, example1, seed, hint, steps, reason):
        trace = leaf_trace(example1, seed, hint, steps, 0.01)
        assert trace.stop_reason == reason
        assert_same_trace(trace, reference.leaf_trace(example1, seed, hint, steps, 0.01))

    def test_tie_breaks_recorded(self, example1):
        trace = leaf_trace(example1, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], 5, 0.01)
        assert trace.tie_breaks == [0]

    def test_example1_mdl(self, example1_mdl):
        trace = leaf_trace(example1_mdl, [0.4, 0.1, 0.0], [0.0, 0.0, 1.0], 40, 0.01)
        assert trace.stop_reason == "completed"
        assert_same_trace(trace, reference.leaf_trace(example1_mdl, [0.4, 0.1, 0.0],
                                                      [0.0, 0.0, 1.0], 40, 0.01))

    @pytest.mark.parametrize("zone_rows,reason", [
        (pinned_zone, "grade_lost"), (turned_zone, "alignment_lost"),
    ], ids=["grade-lost", "alignment-lost"])
    def test_zone_stops(self, zone_rows, reason):
        model = zoned("zoned", STRIPES, zone_rows)
        trace = leaf_trace(model, [0.1, 0.27, 0.0], [0.0, 1.0, 0.0], 20, 0.01)
        assert trace.stop_reason == reason
        assert 1 < trace.n_points < 21
        assert_same_trace(trace, reference.leaf_trace(model, [0.1, 0.27, 0.0], [0.0, 1.0, 0.0],
                                                      20, 0.01))

    def test_grade_zero_seed_error_matches(self):
        model = zoned("pinned", [E1, E2, E3], pinned_zone)
        with pytest.raises(ValueError) as got:
            leaf_trace(model, [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 10, 0.01)
        with pytest.raises(ValueError) as want:
            reference.leaf_trace(model, [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 10, 0.01)
        assert str(got.value) == str(want.value)

    def test_stage_point_error_matches(self):
        # the third step's k2 point is the first one inside the zone
        model = zoned("fragile", STRIPES, non_finite_zone)
        with pytest.raises(NonFiniteError) as got:
            leaf_trace(model, [0.1, 0.275, 0.0], [0.0, 1.0, 0.0], 10, 0.01)
        with pytest.raises(NonFiniteError) as want:
            reference.leaf_trace(model, [0.1, 0.275, 0.0], [0.0, 1.0, 0.0], 10, 0.01)
        assert str(got.value) == str(want.value)
        reached = leaf_trace(model, [0.1, 0.275, 0.0], [0.0, 1.0, 0.0], 2, 0.01).points[-1]
        assert str((reached + 0.005 * E2).tolist()) in str(got.value)


class TestStepArguments:
    @pytest.mark.parametrize("h", [-0.01, 0.0, float("nan")])
    def test_step_size_outside_range_rejected(self, example1, h):
        with pytest.raises(ValueError, match="0.05"):
            leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 10, h)

    def test_largest_step_accepted(self, example1):
        trace = leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 2, 0.05)
        assert trace.n_points == 3

    def test_negative_steps_rejected(self, example1):
        with pytest.raises(ValueError, match="step count"):
            leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], -1, 0.01)

    def test_zero_steps_give_the_seed(self, example1):
        trace = leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 0, 0.01)
        assert trace.stop_reason == "completed" and trace.n_points == 1

    def test_only_pointwise_mode(self, example1):
        with pytest.raises(ValueError, match="germ1"):
            leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 10, 0.01, mode="germ1")


class TestBatchComposition:
    def test_leaves_traced_together_equal_each_alone(self, example1):
        seeds = [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0],
                 [0.3, -0.4, 0.2], [-0.7, 0.5, -0.1]]
        hints = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                 [0.0, 0.3, 1.0], [0.0, 0.0, 0.0]]
        steps = [30, 200, 5, 10, 17, 4]
        together = trace_leaves(example1, seeds, hints, steps, 0.01)
        for got, seed, hint, n in zip(together, seeds, hints, steps):
            (alone,) = trace_leaves(example1, [seed], [hint], [n], 0.01)
            assert_same_outcome(got, alone)
            assert_same_outcome(got, oracle_outcome(example1, seed, hint, n))
        assert isinstance(together[3], DomainError)  # seed outside the domain
        assert str(together[5]) == "zero direction"
        assert together[1].stop_reason == "domain_boundary"

    def test_mixed_stop_reasons_in_one_batch(self):
        model = zoned("fragile", STRIPES, non_finite_zone)
        seeds = [[0.1, 0.275, 0.0], [0.1, -0.5, 0.0], [0.1, 0.5, 0.0], [0.1, 0.2, 0.0],
                 [0.1, 0.95, 0.0]]
        hints = [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                 [0.0, -1.0, 0.0]]
        steps = [10, 12, 3, 8, 3]
        together = trace_leaves(model, seeds, hints, steps, 0.01)
        assert isinstance(together[0], NonFiniteError)  # at a stage point
        assert together[1].stop_reason == "completed"
        assert isinstance(together[2], NonFiniteError)  # at the seed
        for got, seed, hint, n in zip(together, seeds, hints, steps):
            assert_same_outcome(got, oracle_outcome(model, seed, hint, n))

    def test_instability_stays_with_its_leaf(self):
        model = zoned("unstable", STRIPES, unstable_zone())
        seeds = [[0.1, 0.275, 0.0], [0.1, -0.5, 0.0], [-0.1, 0.28, 0.0]]
        hints = [[0.0, 1.0, 0.0]] * 3
        together = trace_leaves(model, seeds, hints, [10, 12, 10], 0.01, UNSTABLE_SAMPLER)
        assert isinstance(together[0], FibreInstabilityError)
        assert isinstance(together[2], FibreInstabilityError)
        assert str(together[0]) != str(together[2])
        for got, seed, hint, n in zip(together, seeds, hints, [10, 12, 10]):
            assert_same_outcome(got, oracle_outcome(model, seed, hint, n, 0.01, UNSTABLE_SAMPLER))


@pytest.fixture(scope="module")
def acceptance_charts(example1, example2):
    return {"example1": (example1, builtin_chart("identity").restrict(lambda X: X[0] >= 0.1)),
            "example2": (example2, builtin_chart("spherical_cap"))}


class TestLeafPairsMatchOracle:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acceptance_charts(self, acceptance_charts, name, seed):
        model, chart = acceptance_charts[name]
        sampler = SamplerConfig(seed=seed)
        pairs, skipped = leaf_pairs(model, chart, 8, "trace", sampler)
        want_pairs, want_skipped = reference.leaf_pairs(model, chart, 8, sampler)
        assert skipped == want_skipped
        assert len(pairs) == len(want_pairs) == 8
        for (Y, Z), (wy, wz) in zip(pairs, want_pairs):
            np.testing.assert_array_equal(Y, wy)
            np.testing.assert_array_equal(Z, wz)

    def test_non_finite_stage_skips_only_its_candidate(self):
        model = zoned("fragile", STRIPES, non_finite_zone)
        chart = builtin_chart("identity")
        pairs, skipped = leaf_pairs(model, chart, 12, "trace")
        want_pairs, want_skipped = reference.leaf_pairs(model, chart, 12)
        assert skipped == want_skipped > 0
        assert len(pairs) == len(want_pairs) == 12
        for (Y, Z), (wy, wz) in zip(pairs, want_pairs):
            np.testing.assert_array_equal(Y, wy)
            np.testing.assert_array_equal(Z, wz)

    def test_instability_raises_the_oracle_error(self):
        model = zoned("unstable", STRIPES, unstable_zone())
        chart = builtin_chart("identity")
        with pytest.raises(FibreInstabilityError) as got:
            leaf_pairs(model, chart, 12, "trace", UNSTABLE_SAMPLER)
        with pytest.raises(FibreInstabilityError) as want:
            reference.leaf_pairs(model, chart, 12, UNSTABLE_SAMPLER)
        assert str(got.value) == str(want.value)

    def test_draw_error_waits_for_earlier_candidates(self):
        # the region is undefined below X3 = -0.7, where the third draw
        # lands; the second candidate's trace meets the unstable zone first,
        # so one candidate at a time its error is the one raised
        def region(X):
            if X[2] < -0.7:
                raise RuntimeError(f"region undefined at {np.asarray(X).tolist()}")
            return True

        model = zoned("unstable", STRIPES, unstable_zone())
        chart = builtin_chart("identity")
        chart.region = region
        with pytest.raises(FibreInstabilityError) as got:
            leaf_pairs(model, chart, 12, "trace", UNSTABLE_SAMPLER)
        with pytest.raises(FibreInstabilityError) as want:
            reference.leaf_pairs(model, chart, 12, UNSTABLE_SAMPLER)
        assert str(got.value) == str(want.value)


class TestBatchedBaseQuery:
    @pytest.mark.parametrize("name", ["example1", "example2", "det_cal"])
    def test_bit_equal_to_single_points(self, name):
        model = builtin(name)
        points = np.random.default_rng(7).uniform(-0.7, 0.7, (21, 3))
        for got, X in zip(fibres_at(model, points, validate=False), points):
            basis, grade, gap = base_basis_at(model, X)
            np.testing.assert_array_equal(got.base_basis, basis)
            assert got.grade == grade and got.rank_gap == gap
            # no held-out check ran
            assert got.validated and got.heldout_residual == 0.0

    def test_out_of_domain_point_fails_alone(self, example1):
        points = [[0.5, 0.0, 0.0], [1.5, 0.0, 0.0], [-0.5, 0.2, 0.0]]
        got = fibres_at(example1, points, validate=False)
        assert isinstance(got[1], DomainError)
        with pytest.raises(DomainError) as single:
            base_basis_at(example1, points[1])
        assert str(got[1]) == str(single.value)
        for i in (0, 2):
            np.testing.assert_array_equal(got[i].base_basis,
                                          base_basis_at(example1, points[i])[0])

    def test_kernel_error_fails_alone(self):
        model = zoned("fragile", STRIPES, non_finite_zone)
        got = fibres_at(model, [[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, -0.5, 0.0]],
                        validate=False)
        assert isinstance(got[1], NonFiniteError)
        assert got[0].grade == got[2].grade == 1
