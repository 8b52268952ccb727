import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matdist.errors import NonFiniteError
from matdist.numkit import (
    DEFAULT_TOL,
    Tolerances,
    jacobian_fd,
    nullspace,
    nullspace_info,
    principal_angles,
    rank_split,
    rank_splits,
    rk4_step,
    stacked_svd,
)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(residual_tol=-1e-9)


class TestNullspace:
    def test_zero_matrix_gives_identity_basis(self):
        basis = nullspace(np.zeros((3, 3)))
        assert basis.shape == (3, 3)
        np.testing.assert_allclose(basis, np.eye(3))

    def test_coordinate_projection(self):
        basis = nullspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert basis.shape == (3, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-14)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            nullspace(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            nullspace(M)

    def test_constructed_kernel_recovered(self):
        # M = A @ B with A invertible has exactly the kernel of B; the
        # expected 4-dim kernel comes from B's own decomposition, a path
        # disjoint from the production call on M
        rng = np.random.default_rng(7)
        B = rng.standard_normal((8, 12))
        assert np.linalg.matrix_rank(B) == 8
        A = rng.standard_normal((8, 8))
        assert abs(np.linalg.det(A)) > 1e-6
        M = A @ B

        basis = nullspace(M)
        assert basis.shape == (12, 4)
        expected = np.linalg.svd(B)[2][8:].T
        angles = principal_angles(basis, expected)
        assert angles.max() < 1e-10
        assert np.abs(M @ basis).max() <= DEFAULT_TOL.rank_rel * np.linalg.svd(M, compute_uv=False)[0] * np.sqrt(12)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 9))
        basis = nullspace(M)
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_residual_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 14))
        n = int(rng.integers(2, 14))
        rank = int(rng.integers(1, min(m, n) + 1))
        M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        basis = nullspace(M)
        if basis.shape[1] == 0:
            return
        sigma_max = np.linalg.svd(M, compute_uv=False)[0]
        assert np.abs(M @ basis).max() <= 10.0 * DEFAULT_TOL.rank_rel * sigma_max

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1e3]))
    def test_row_scaling_invariance(self, seed, factor):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 9))
        b1, rank1, _ = nullspace_info(M)
        b2, rank2, _ = nullspace_info(factor * M)
        assert rank1 == rank2
        assert b1.shape == b2.shape
        if b1.shape[1]:
            assert principal_angles(b1, b2).max() < 1e-8


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([(11, 12), (12, 12), (99, 12)]))
    def test_agrees_with_plain_svd(self, seed, shape):
        # nullspace_info factorizes through QR: its rank and null space are
        # those of one plain SVD of M
        rng = np.random.default_rng(seed)
        m, n = shape
        rank = int(rng.integers(1, min(m, n)))
        M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        basis, got_rank, _ = nullspace_info(M)
        _, s, vh = np.linalg.svd(M)
        assert got_rank == rank_split(s, DEFAULT_TOL.rank_rel)[0] == rank
        assert principal_angles(basis, vh[rank:].T).max() < 1e-8


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
