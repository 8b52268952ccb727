"""Subspace helpers for the tests: principal angles and a one-matrix null space.

Nothing in the package uses them.  ``null_basis`` decides a rank the way
the fibre kernel does, through ``numkit.stacked_factor`` and
``numkit.rank_split``.
"""

import numpy as np

from matdist.numkit import DEFAULT_TOL, rank_split, stacked_factor


def principal_angles(A, B):
    """Principal angles (radians, ascending) between column spans of A and B.

    Small angles are computed through sines of the projected residual, not
    arccos of near-unit cosines, which cannot resolve below sqrt(eps).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros(0)
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)  # descending
    sines = np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)  # descending
    p = min(len(cosines), len(sines))
    angles = np.arctan2(sines[:p][::-1], np.clip(cosines[:p], 0.0, 1.0))
    return np.sort(angles)


def null_basis(M, tol=DEFAULT_TOL):
    """``(basis, rank)``: orthonormal null-space columns of ``M`` and its rank."""
    _, s, vh = stacked_factor(M, vectors=True)
    rank = rank_split(s, tol.rank_rel)[0]
    return vh[rank:].T, rank
