"""Small dense-matrix numerics shared by all analysis modules.

Rank decisions are made by singular value decomposition with a cutoff
relative to the largest singular value; pivoted elimination is not good
enough for the near-degenerate systems that appear close to grade
boundaries, where rows of wildly different magnitude are mixed.
"""

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "FD_SHRINK_TRIES",
    "rank_split",
    "rank_splits",
    "stacked_svd",
    "stacked_factor",
    "triangular_factor",
    "jacobian_fd",
    "rk4_step",
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
    """:func:`rank_split` of each row of a float array ``s (n, m)``, in one pass.

    Returns ``(ranks, gaps)``, lists of ``n`` ints and floats; ``scale``,
    when given, holds one value per row and replaces the row's largest
    singular value as the base of the cutoff.  The cutoffs are compared at
    once; each gap is one division of two Python floats, which rounds as
    numpy's does.
    """
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
    m, n = M.shape[-2:]
    return np.linalg.svd(M, full_matrices=m < n)


def stacked_factor(M, vectors):
    """``(R, s, Vh)``: the triangular factor of one matrix or a stack, and its SVD.

    A tall system is reduced to its triangular factor ``R`` (as many rows
    as columns, ``R^T R = M^T M``); one with no more rows than columns has
    nothing to reduce and is its own factor.  ``s`` and ``Vh`` are those of
    :func:`stacked_svd` of ``R``, so they agree with the SVD of ``M`` up to
    rounding and no tall ``U`` is formed.  Without ``vectors`` only the
    singular values are computed, and ``Vh`` is ``None``.
    """
    R = triangular_factor(M) if M.shape[-2] > M.shape[-1] else M
    if not vectors:
        return R, np.linalg.svd(R, compute_uv=False), None
    return (R, *stacked_svd(R)[1:])


@lru_cache(maxsize=64)  # a kernel factors blocks of at most 48 columns
def _strict_lower(m, n):
    """Read-only ``(m, n)`` mask of the entries below the diagonal."""
    mask = np.tri(m, n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def triangular_factor(M):
    """``R`` of the QR factorization of one matrix or a stack: ``(..., min(m, n), n)``.

    Bit-identical to ``np.linalg.qr(M, mode="r")``, which zeroes the
    Householder vectors below the diagonal of the same LAPACK factorization
    with ``np.triu`` on every call; here the factorization comes from
    ``mode="raw"`` and the zeros from a mask made once per shape.
    """
    h, _ = np.linalg.qr(M, mode="raw")  # the factored matrix, transposed
    m, n = M.shape[-2:]
    k = min(m, n)
    return np.where(_strict_lower(k, n), 0.0, h.swapaxes(-1, -2)[..., :k, :])


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
