import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matdist.errors import NonFiniteError
from matdist.numkit import (
    DEFAULT_TOL,
    Tolerances,
    jacobian_fd,
    rank_split,
    rank_splits,
    rk4_step,
    stacked_svd,
    triangular_factor,
)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(residual_tol=-1e-9)


def loop_rank_split(s, rank_rel, scale=None):
    """The rank split as first written, one array at a time: the reference."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        return 0, np.inf
    cutoff = rank_rel * (s[0] if scale is None else scale)
    rank = int(np.sum(s > cutoff))
    if rank == 0 or rank >= s.size or s[rank] == 0.0:
        return rank, np.inf
    return rank, float(s[rank - 1] / s[rank])


class TestRankSplits:
    # one pass over a stack against the reference, row by row
    @staticmethod
    def spectra(rng, n, m):
        """Descending rows with gaps at every scale, exact zeros and repeated values."""
        s = 10.0 ** rng.uniform(-20.0, 2.0, (n, m))
        s[rng.random((n, m)) < 0.15] = 0.0
        if n > 2 and m:
            s[0] = 0.0
            s[1] = s[1, 0]
        return -np.sort(-s, axis=1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 20), st.sampled_from([0, 1, 3, 11, 12, 48]),
           st.sampled_from([1e-8, 1e-3, 0.5]), st.booleans())
    def test_matches_rank_split_row_by_row(self, seed, n, m, rank_rel, scaled):
        rng = np.random.default_rng(seed)
        s = self.spectra(rng, n, m)
        scale = np.maximum(s[:, 0], 1.0) if scaled and m else None
        ranks, gaps = rank_splits(s, rank_rel, scale)
        assert len(ranks) == len(gaps) == n
        for j in range(n):
            row_scale = None if scale is None else float(scale[j])
            want = loop_rank_split(s[j], rank_rel, row_scale)
            assert (ranks[j], gaps[j]) == rank_split(s[j], rank_rel, row_scale) == want
            assert type(ranks[j]) is int and type(gaps[j]) is float


class TestStackedSvd:
    # wide (det_cal's first-round 11x12 system and 3xf base rows), square and tall
    SHAPES = [(11, 12), (3, 9), (12, 12), (9, 5), (99, 12)]

    @staticmethod
    def _matrix(rng, shape, kind):
        m, n = shape
        if kind == "zero":
            return np.zeros(shape)
        rank = min(m, n) if kind == "generic" else int(rng.integers(1, min(m, n)))
        return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(SHAPES),
           st.lists(st.sampled_from(["generic", "deficient", "zero"]), min_size=1, max_size=4))
    def test_keeps_null_space_and_stacks_bit_for_bit(self, seed, shape, kinds):
        rng = np.random.default_rng(seed)
        n = shape[1]
        stack = np.stack([self._matrix(rng, shape, kind) for kind in kinds])
        U, s, vh = stacked_svd(stack)
        for j, M in enumerate(stack):
            for got, alone in zip((U[j], s[j], vh[j]), stacked_svd(M)):
                assert np.array_equal(got, alone)
            full_s = np.linalg.svd(M, compute_uv=False)
            full_rank, _ = rank_split(full_s, DEFAULT_TOL.rank_rel)
            rank, _ = rank_split(s[j], DEFAULT_TOL.rank_rel)
            assert rank == full_rank
            basis = vh[j, rank:].T
            assert basis.shape == (n, n - full_rank)
            if basis.shape[1]:
                sigma_max = full_s[0]
                assert np.abs(M @ basis).max() <= 10.0 * DEFAULT_TOL.rank_rel * sigma_max


class TestTriangularFactor:
    # the stacks the kernel factors: example1's pointwise first round, germ1
    # blocks of example2, a germ1 system and a chunk of germ1 cloud blocks;
    # then wide, square and empty ones
    SHAPES = [(1, 99, 12), (5, 22, 12), (3, 300, 48), (2, 21, 16, 12), (4, 8, 12), (3, 5, 5),
              (99, 12), (2, 0, 12)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("kind", ["generic", "zero-rows", "zero"])
    def test_bit_equal_to_numpy_r(self, shape, kind):
        M = np.random.default_rng(sum(shape)).standard_normal(shape)
        if kind == "zero-rows":
            M[..., ::3, :] = 0.0
        elif kind == "zero":
            M[...] = 0.0
        got, want = triangular_factor(M), np.linalg.qr(M, mode="r")
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_mask_is_not_shared_with_the_result(self):
        R = triangular_factor(np.ones((6, 3)))
        R[...] = 7.0
        assert np.array_equal(triangular_factor(np.eye(3)), np.linalg.qr(np.eye(3), mode="r"))


class TestJacobianFd:
    def test_identity_map(self):
        J = jacobian_fd(lambda x: x, np.array([0.3, -0.7, 1.1]))
        np.testing.assert_allclose(J, np.eye(3), atol=1e-10)

    def test_scalar_square(self):
        J = jacobian_fd(lambda t: t * t, 2.0)
        assert J.shape == (1, 1)
        assert abs(J[0, 0] - 4.0) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linear_map_recovered(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1e3, 1e3, size=(4, 3))
        # at the origin the evaluations stay O(h*A), so cancellation noise
        # is negligible and the strict bound applies
        J0 = jacobian_fd(lambda p: A @ p, np.zeros(3))
        assert np.abs(J0 - A).max() < 1e-9
        # away from it the difference quotient is roundoff-limited by the
        # magnitude of the values being subtracted
        x = rng.uniform(-2.0, 2.0, size=3)
        J = jacobian_fd(lambda p: A @ p, x)
        steps = np.maximum(DEFAULT_TOL.fd_step_rel * np.abs(x), DEFAULT_TOL.fd_step_abs)
        noise = 64 * np.finfo(float).eps * np.abs(A @ x).max() / steps.min()
        assert np.abs(J - A).max() < max(1e-9, noise)

    def test_example1_gradient_block_against_closed_form(self, example1):
        # dW[j,i]/dF[l,m] = f(X1) (delta_{jm} F[l,i] + delta_{im} F[l,j]),
        # written out with loops, independent of the model's registered
        # derivative contract
        X = np.array([-0.5, 0.0, 0.0])
        F = np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.2], [0.4, -0.2, 1.1]])
        f = 1.0  # stiffness factor is 1 on the X1 <= 0 half

        expected = np.zeros((9, 9))
        for j in range(3):
            for i in range(3):
                for l in range(3):
                    for m in range(3):
                        value = 0.0
                        if j == m:
                            value += F[l, i]
                        if i == m:
                            value += F[l, j]
                        expected[3 * j + i, 3 * l + m] = f * value

        def response_of_gradient(fvec):
            G = fvec.reshape(3, 3)
            return (f * (G.T @ G - np.eye(3))).ravel()

        J = jacobian_fd(response_of_gradient, F.ravel())
        assert np.abs(J - expected).max() < 1e-6
        assert X[0] <= 0.0

    def test_non_finite_output_identified(self):
        def bad(x):
            return np.array([x[0], np.inf])

        with pytest.raises(NonFiniteError, match="component 1"):
            jacobian_fd(bad, np.zeros(2))


class TestRk4:
    def test_zero_field_fixed_point(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(rk4_step(lambda p: np.zeros(3), x, 0.1), x)

    def test_constant_field_exact(self):
        c = np.array([1.0, -2.0, 0.5])
        out = rk4_step(lambda p: c, np.zeros(3), 0.1)
        np.testing.assert_allclose(out, 0.1 * c, rtol=0, atol=0)

    def test_rotation_flow_closed_form(self):
        def v(p):
            return np.array([-p[1], p[0], 0.0])

        x = np.array([1.0, 0.0, 0.0])
        for _ in range(100):
            x = rk4_step(v, x, 0.01)
        np.testing.assert_allclose(x, [np.cos(1.0), np.sin(1.0), 0.0], atol=1e-8)

    def test_observed_order_four(self):
        def v(p):
            return np.array([-p[1], p[0], 0.0])

        def flow_error(h, t_final=0.8):
            x = np.array([1.0, 0.0, 0.0])
            for _ in range(round(t_final / h)):
                x = rk4_step(v, x, h)
            return np.linalg.norm(x - [np.cos(t_final), np.sin(t_final), 0.0])

        ratio = flow_error(0.1) / flow_error(0.05)
        assert 12 < ratio < 20  # fourth order: halving the step gives ~16x

    def test_non_finite_stage_rejected(self):
        def v(p):
            return np.array([np.nan])

        with pytest.raises(NonFiniteError, match="k1"):
            rk4_step(v, np.zeros(1), 0.1)

    def test_stacked_states_match_single_steps_bit_for_bit(self):
        def v(p):
            return np.stack([-p[..., 1] * p[..., 2], p[..., 0], np.sin(p[..., 0])], axis=-1)

        xs = np.random.default_rng(3).standard_normal((5, 3))
        stacked = rk4_step(v, xs, 0.037)
        for x, row in zip(xs, stacked):
            np.testing.assert_array_equal(rk4_step(v, x, 0.037), row)

    def test_given_first_stage_saves_one_call(self):
        calls = []

        def v(p):
            calls.append(p.copy())
            return np.array([-p[1], p[0], 1.0])

        x = np.array([0.3, -0.2, 0.1])
        full = rk4_step(v, x, 0.05)
        assert len(calls) == 4
        k1 = v(x)
        calls.clear()
        np.testing.assert_array_equal(rk4_step(v, x, 0.05, k1=k1), full)
        assert len(calls) == 3 and not any(np.array_equal(p, x) for p in calls)

    def test_non_finite_given_first_stage_rejected(self):
        with pytest.raises(NonFiniteError, match="k1"):
            rk4_step(lambda p: np.zeros(1), np.zeros(1), 0.1, k1=np.array([np.inf]))
