"""Small dense-matrix numerics shared by all analysis modules.

Rank decisions are made by singular value decomposition with a cutoff
relative to the largest singular value; pivoted elimination is not good
enough for the near-degenerate systems that appear close to grade
boundaries, where rows of wildly different magnitude are mixed.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "FD_SHRINK_TRIES",
    "nullspace",
    "nullspace_info",
    "rank_split",
    "rank_splits",
    "stacked_svd",
    "stacked_factor",
    "jacobian_fd",
    "rk4_step",
    "principal_angles",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used throughout the package.

    Attributes
    ----------
    rank_rel:
        Relative singular-value cutoff: values below ``rank_rel * sigma_max``
        are treated as zero.
    fd_step_rel, fd_step_abs:
        Per-coordinate finite-difference step ``max(fd_step_rel*|x|, fd_step_abs)``.
    residual_tol:
        Bound accepted for admissibility residuals on held-out samples.
    """

    rank_rel: float = 1e-8
    fd_step_rel: float = 1e-6
    fd_step_abs: float = 1e-8
    residual_tol: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0.0):
                raise ValueError(f"tolerance {f.name} must be strictly positive, got {value!r}")


DEFAULT_TOL = Tolerances()

# A finite-difference step that leaves a domain or region is halved at most
# this many times before the difference gives up.
FD_SHRINK_TRIES = 4


def _as_matrix(M, name="matrix"):
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return A


def rank_split(s, rank_rel, scale=None):
    """Split a descending singular-value array into kept and dropped parts.

    Returns ``(rank, gap)`` where ``gap`` is the ratio of the smallest kept
    to the largest dropped singular value (``inf`` when nothing was dropped
    or nothing was kept).  The one-row case of :func:`rank_splits`.
    """
    ranks, gaps = rank_splits(np.asarray(s, dtype=float)[None], rank_rel,
                              None if scale is None else [scale])
    return ranks[0], gaps[0]


def rank_splits(s, rank_rel, scale=None):
    """:func:`rank_split` of each row of a stack ``s (n, m)``, in one pass.

    Returns ``(ranks, gaps)``, lists of ``n`` ints and floats; ``scale``,
    when given, holds one value per row and replaces the row's largest
    singular value as the base of the cutoff.  The cutoffs are compared at
    once; each gap is one division of two Python floats, which rounds as
    numpy's does.
    """
    s = np.asarray(s, dtype=float)
    cutoff = rank_rel * (s[:, :1] if scale is None else np.asarray(scale, dtype=float)[:, None])
    ranks = (s > cutoff).sum(axis=1).tolist()
    gaps = [row[r - 1] / row[r] if 0 < r < len(row) and row[r] != 0.0 else np.inf
            for row, r in zip(s.tolist(), ranks)]
    return ranks, gaps


def stacked_svd(M):
    """SVD ``(U, s, Vh)`` of one matrix or a stack that keeps every null vector.

    The factorization for callers that read ``U`` (base bases and symmetry
    directions); rank decisions that need only ``s`` and ``Vh`` go through
    :func:`stacked_factor`.  Tall and square systems get the thin
    factorization, so ``U`` is ``(m, n)`` instead of a full ``(m, m)`` that
    nobody reads; ``s`` and ``Vh`` are bit-identical to the full one.  Wide
    systems (fewer rows than columns) keep the full ``(n, n)`` ``Vh``: a
    thin one would silently drop the null vectors the missing rows leave
    unconstrained.  A stack is factorized matrix by matrix, so stacking
    never changes a bit of any result.
    """
    A = np.asarray(M, dtype=float)
    m, n = A.shape[-2:]
    return np.linalg.svd(A, full_matrices=m < n)


def stacked_factor(M):
    """``(s, Vh)`` of :func:`stacked_svd` without forming a tall ``U``.

    A tall system is first reduced to its triangular factor ``R`` (as many
    rows as columns, ``R^T R = M^T M``), so ``s`` and ``Vh`` agree with the
    SVD's up to rounding; one with no more rows than columns has nothing to
    reduce and goes to the SVD as it is.
    """
    A = np.asarray(M, dtype=float)
    return stacked_svd(np.linalg.qr(A, mode="r") if A.shape[-2] > A.shape[-1] else A)[1:]


def nullspace(M, tol=DEFAULT_TOL):
    """Orthonormal basis (as columns) of the null space of ``M``.

    The all-zero matrix is not an error: its null space is everything, so
    the identity basis is returned.
    """
    return nullspace_info(M, tol)[0]


def nullspace_info(M, tol=DEFAULT_TOL):
    """Like :func:`nullspace` but also reports ``(basis, rank, gap)``."""
    A = _as_matrix(M)
    n = A.shape[1]
    if not A.any():
        return np.eye(n), 0, np.inf
    s, vh = stacked_factor(A)
    rank, gap = rank_split(s, tol.rank_rel)
    return vh[rank:].T.copy(), rank, gap


def jacobian_fd(f, x, tol=DEFAULT_TOL):
    """Central-difference Jacobian of ``f`` at ``x``.

    ``f`` may map a scalar or a 1-D point to a scalar or a 1-D value; the
    result is always a 2-D ``(m, n)`` array.  The step along coordinate ``i``
    is ``max(fd_step_rel*|x_i|, fd_step_abs)``.  One-sided differences are
    never used: responses with essential flat spots (exp(-1/x)-type terms)
    bias them badly near the flat region.
    """
    x = np.asarray(x, dtype=float)
    scalar_input = x.ndim == 0
    xv = np.atleast_1d(x).astype(float)
    n = xv.size

    def call(p):
        arg = float(p[0]) if scalar_input else p
        out = np.atleast_1d(np.asarray(f(arg), dtype=float)).ravel()
        return out

    cols = []
    for i in range(n):
        h = max(tol.fd_step_rel * abs(xv[i]), tol.fd_step_abs)
        xp = xv.copy()
        xm = xv.copy()
        xp[i] += h
        xm[i] -= h
        fp = call(xp)
        fm = call(xm)
        for tag, val in (("+", fp), ("-", fm)):
            if not np.all(np.isfinite(val)):
                bad = int(np.flatnonzero(~np.isfinite(val))[0])
                raise NonFiniteError(
                    f"f returned non-finite output component {bad} at x{tag}h*e_{i}"
                )
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def rk4_step(v, x, h, k1=None):
    """One classical 4-stage Runge-Kutta step of size ``h`` for ``x' = v(x)``.

    ``x`` is one state or a stack of independent states along the leading
    axis; ``v`` then maps the whole stack at once, and every state's update
    is bit-identical to a step of that state alone.  ``k1``, when given, is
    the first stage ``v(x)`` already known to the caller (a tracer that has
    just evaluated the field at the new point), so ``v`` runs three times
    instead of four.  A non-finite stage value raises :class:`NonFiniteError`.
    """
    x = np.asarray(x, dtype=float)

    def stage(name, p, value=None):
        k = np.asarray(v(p) if value is None else value, dtype=float)
        if not np.all(np.isfinite(k)):
            raise NonFiniteError(f"non-finite value at RK4 stage {name}")
        return k

    k1 = stage("k1", x, k1)
    k2 = stage("k2", x + 0.5 * h * k1)
    k3 = stage("k3", x + 0.5 * h * k2)
    k4 = stage("k4", x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
