"""Material-distribution fibres, grades of uniformity and symmetry algebras.

A germ candidate is a 12-vector ``(dX1, dX2, dX3, dP11, dP12, ..., dP33)``
pairing a base velocity ``dX`` with a fibre coefficient matrix ``dP`` (the
vertical part of the candidate field at a jet with gradient ``F`` is
``F @ dP``).  The admissibility system collects, over many sampled
gradients, the conditions

    sum_m dX_m dW_c/dX_m + d/dt W_c(X, F (I + t dP)) = 0

whose rows are the model's material-frame blocks
(:func:`response.derivatives_at_samples`), and the fibre is its null
space.  "For every gradient" is realized by
sampling to rank saturation followed by validation on held-out samples:
the constraints are polynomial in F, so generic finite samples determine
the kernel, and validation catches unlucky draws.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    DomainError,
    FibreInstabilityError,
    MatdistError,
    NonFiniteError,
    SamplerExhaustedError,
    SingularMatrixError,
)
from .numkit import (
    DEFAULT_TOL,
    rank_split,
    rank_splits,
    stacked_factor,
    stacked_svd,
    triangular_factor,
)
from .response import derivatives_at_samples, evaluate_at_samples

__all__ = [
    "SamplerConfig",
    "DEFAULT_SAMPLER",
    "FibreResult",
    "IsoCheck",
    "material_fibre",
    "fibres_at",
    "base_basis_at",
    "is_material_isomorphism",
    "check_germ_args",
    "GERM_RADIUS",
    "GERM_CLOUD",
    "MODES",
]

GERM_RADIUS = 1e-2
GERM_CLOUD = 20

_DEFAULT_ANCHORS = (
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0)),
    ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5)),
)


@dataclass(frozen=True)
class SamplerConfig:
    """Gradient-sampling policy for the admissibility system.

    Random gradients are accepted only when ``|det| >= det_min`` and the
    2-norm condition number is at most ``cond_max``, which keeps the
    admissibility rows well scaled; the fixed anchors make the first rank
    estimate reproducible.  ``det_min`` must be finite and non-negative and
    ``cond_max`` at least 1 (``inf`` drops the condition bound): no
    gradient has a condition number below 1, so a smaller bound, or a NaN
    one, would reject every draw.  ``seed``, ``k_init`` and ``k_max`` must
    be integers, and ``anchors`` a non-empty ``(a, 3, 3)`` stack of finite
    matrices with ``|det| >= 1e-12``.
    """

    seed: int = 0
    k_init: int = 8
    k_max: int = 128
    det_min: float = 0.1
    cond_max: float = 50.0
    anchors: tuple = field(default=_DEFAULT_ANCHORS)

    def __post_init__(self):
        for name in ("seed", "k_init", "k_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        try:
            anchors = np.asarray(self.anchors, dtype=float)
        except (TypeError, ValueError):
            anchors = None
        if anchors is None or anchors.ndim != 3 or anchors.shape[1:] != (3, 3) or not len(anchors):
            raise ValueError(f"anchors must be a non-empty (a, 3, 3) stack, got {self.anchors!r}")
        if not np.all(np.isfinite(anchors)) or np.any(np.abs(np.linalg.det(anchors)) < 1e-12):
            raise ValueError("anchors must be finite and nonsingular (|det| >= 1e-12)")
        if self.k_init < 4:
            raise ValueError("k_init must be at least 4")
        if self.k_max < 2 * self.k_init:
            raise ValueError("k_max must be at least 2*k_init")
        if not (np.isfinite(self.det_min) and self.det_min >= 0.0):
            raise ValueError(f"det_min must be finite and at least 0, got {self.det_min!r}")
        if not self.cond_max >= 1.0:
            raise ValueError(f"cond_max must be at least 1, got {self.cond_max!r}")
        object.__setattr__(self, "_anchors", anchors.copy())  # converted once: queries read it
        self._anchors.flags.writeable = False

    def anchor_matrices(self):
        return self._anchors


DEFAULT_SAMPLER = SamplerConfig()


@dataclass
class FibreResult:
    """Fibre of the material distribution at one body point."""

    point: np.ndarray
    mode: str
    fibre_basis: np.ndarray  # (n_unknowns, fibre_dim), orthonormal columns
    base_basis: np.ndarray  # (3, grade), orthonormal columns
    grade: int
    sym_basis: list  # of 3x3 arrays
    samples_used: int
    rank_gap: float
    validated: bool
    heldout_residual: float
    dim_history: list

    @property
    def fibre_dim(self):
        return self.fibre_basis.shape[1]

    @property
    def sym_dim(self):
        return len(self.sym_basis)

    def to_json_dict(self):
        return {
            "point": [float(v) for v in self.point],
            "grade": int(self.grade),
            "fibre_dim": int(self.fibre_dim),
            "sym_dim": int(self.sym_dim),
            "rank_gap": float(min(self.rank_gap, 1e18)),  # JSON has no infinity: saturate
            "mode": self.mode,
            "base_basis": [[float(v) for v in self.base_basis[:, j]] for j in range(self.grade)],
            "validated": bool(self.validated),
            "samples_used": int(self.samples_used),
            "dim_history": [int(d) for d in self.dim_history],
            "heldout_residual": float(self.heldout_residual),
        }


@dataclass
class IsoCheck:
    """Outcome of a material-isomorphism test between two points."""

    residual: float
    verdict: bool
    worst_gradient: np.ndarray
    samples_used: int


# ---------------------------------------------------------------------------
# sampling


_SAMPLER_BATCHES = 200


def _accepted(Fs, sampler):
    """Which of the gradients ``Fs (n,3,3)`` the sampler accepts: ``(n,)`` bools.

    ``|det F| >= det_min``, then ``np.linalg.cond(F) <= cond_max`` on the
    gradients that pass; both compute each matrix of a stack on its own.
    """
    keep = np.abs(np.linalg.det(Fs)) >= sampler.det_min
    keep[keep] = np.linalg.cond(Fs[keep]) <= sampler.cond_max
    return keep


def sample_gradients(rng, count, sampler):
    """``count`` accepted random gradients from one generator: ``(count, 3, 3)``.

    The generator draws batches of ``max(8, 2*count)`` standard normal
    matrices, and the first ``count`` that :func:`_accepted` passes are kept
    in draw order.  Raises :class:`SamplerExhaustedError` if it is still
    short after ``_SAMPLER_BATCHES`` batches.
    """
    kept, have = [], 0
    for _ in range(_SAMPLER_BATCHES):
        batch = rng.standard_normal((max(8, 2 * count), 3, 3))
        kept.append(batch[_accepted(batch, sampler)])
        have += len(kept[-1])
        if have >= count:
            return np.concatenate(kept)[:count]
    raise SamplerExhaustedError("gradient sampler failed to find acceptable samples")


_POOL_DRAWS = 256  # draws a process keeps; a grade map reads 3 to 5 per mode


def _draw_size(k_init, t):
    """Gradients per cloud point in draw ``t`` of the schedule, anchors aside."""
    return k_init << max(t - 1, 0)


def _pool(sampler, salt, t, points):
    """Draw ``t`` of the schedule at ``points`` cloud points, which every node
    reads: ``(points, count, 3, 3)``, read-only.

    Draw 0 holds ``k_init`` gradients per point (its readers put the anchors
    first), draw ``t`` after it ``k_init << (t - 1)``: ``points``
    successive :func:`sample_gradients` calls on a generator seeded by
    ``(seed, salt, t)``, made once per process.  Only ``seed``, ``k_init``,
    ``det_min`` and ``cond_max`` decide it.  A draw the sampler cannot make
    is remembered too, and each read of it raises
    :class:`SamplerExhaustedError`.
    """
    Fs = _pool_draw(int(sampler.seed) & 0xFFFFFFFF, int(sampler.k_init), sampler.det_min,
                    sampler.cond_max, salt, t, points)
    if Fs is None:
        raise SamplerExhaustedError("gradient sampler failed to find acceptable samples")
    return Fs


@lru_cache(maxsize=_POOL_DRAWS)
def _pool_draw(seed, k_init, det_min, cond_max, salt, t, points):
    """The draw behind :func:`_pool`, or ``None`` when the sampler gives out."""
    sampler = SamplerConfig(seed, k_init, 2 * k_init, det_min, cond_max)  # as _accepted reads it
    rng = np.random.default_rng([seed, salt, t])
    count = _draw_size(k_init, t)
    try:
        Fs = np.stack([sample_gradients(rng, count, sampler) for _ in range(points)])
    except SamplerExhaustedError:
        return None
    Fs.flags.writeable = False
    return Fs


# ---------------------------------------------------------------------------
# admissibility rows


# lanes per derivative call: when a chunk needs several calls, each call's
# block is written into the stacked rows, so the cap bounds the block in
# flight and the model's temporaries, which central differences make 24 times
# larger.  A 97-node pointwise chunk of example2 without its closed form
# (3,395 lanes) peaks at 1.9 MiB with a cap of 256 lanes, 5.4 MiB at 1024 and
# 16.3 MiB in one call; 1024 keeps a one-point query in one call in either
# mode (35 or 735 lanes).
_DERIV_LANES = 1024


def _blocks(model, Xs, Fs, tol):
    """Stacked admissibility rows, gradients ``Fs[i]`` at point ``Xs[i]``: (n, k*d, 12).

    The rows are the model's material-frame blocks.  The points go to the
    model in runs of at most ``_DERIV_LANES`` lanes; lanes are independent,
    so the runs give the bits of one call.  A single run's block is the
    rows themselves: copying it into a second buffer of the same size
    would only double the memory in flight.
    """
    n, k = len(Xs), Fs.shape[1]
    step = max(1, _DERIV_LANES // k)
    if n <= step:
        return derivatives_at_samples(model, Xs, Fs, tol).reshape(n, k * model.dim, 12)
    rows = np.empty((n, k, model.dim, 12))
    for i in range(0, n, step):
        rows[i:i + step] = derivatives_at_samples(model, Xs[i:i + step], Fs[i:i + step], tol)
    return rows.reshape(n, k * model.dim, 12)


# ---------------------------------------------------------------------------
# fibre computation
#
# One kernel serves every fibre: a system yields admissibility rows for a set
# of nodes, all reading one gradient pool; _fibres solves each distinct system
# once (_twins), _saturate solves them in lockstep, and _validate and _grade
# finish the results, one FibreResult per node.  A node may come with a carry,
# its last exact solve (Carry): when its prepared rows repeat the carried ones
# bit for bit, it takes a copy of that result and is not solved.
# fibres_at is the one entry, in both modes: it runs chunks of points
# through the kernel and isolates each failure to its point.  material_fibre,
# grade maps and the homogeneity check call it without carries; leaf traces
# pass one carry per leaf (fibres_at(..., carries=)).

# bytes of the rows a chunk prepares (_System.prepare): they set its memory,
# and larger chunks share the kernel's fixed cost among more nodes.  One
# validated node's rows take 6.6 KiB (pointwise example2) to 620 KiB (germ1
# example1), so a node count would bound neither; this budget gives validated
# chunks of 21 pointwise example1 nodes, 97 pointwise example2 nodes, 1 germ1
# example1 node and 4 germ1 example2 nodes.
_CHUNK_BYTES = 640 * 2**10


MODES = ("pointwise", "germ1")  # fibre modes, by jet order


def _prepared_draws(validate):
    """Draws every node derives before any stops: the two solve rounds, and
    the held-out samples a node stopping at round 2 reads when validating."""
    return 3 if validate else 2


def _chunk_nodes(model, order, cloud, sampler, validate):
    """Nodes per chunk: as many as fit their prepared rows in ``_CHUNK_BYTES``.

    A node prepares, per cloud point, the anchors and the gradients of its
    first draws, each with ``model.dim`` rows of 12 floats.
    """
    points = 1 + order * cloud  # at most: the domain boundary may cut a cloud short
    # draws 0 to T - 1 hold k_init << (T - 1) gradients per point (_draw_size)
    gradients = len(sampler.anchors) + (sampler.k_init << (_prepared_draws(validate) - 1))
    return max(1, _CHUNK_BYTES // (points * gradients * model.dim * 12 * 8))


class _System:
    """Admissibility rows of a batch of nodes, at jet order 0 or 1.

    Each node has a cloud of points; each cloud point has a pointwise block
    ``B_p`` (12 columns ``dX, dP``), which the node's unknowns enter through
    a fixed lift ``L_p`` (12 x unknowns, :func:`_lift`).  ``pointwise`` is
    the one-point germ: the cloud is the node alone, the lift is the
    identity and the solve reads the raw blocks.  ``germ1`` fits a
    first-order field over a small cloud around the node
    (:func:`_cloud_points`); its solve needs only ``B_p^T B_p``, so each
    solve block is replaced by its QR factor before the lift.  Validation
    reads the raw blocks, with the lift applied to the basis (``lift``,
    made only when read).

    Every node reads one fixed schedule of gradient draws per cloud point,
    salted by the jet order (:func:`_pool`): ``k_init`` (led by the
    anchors), ``k_init``, ``2 k_init``, ``4 k_init`` and so on.  Each read
    takes a node's next draw, as a solve round or as held-out samples.
    Clouds near the domain boundary lose points; nodes whose clouds differ
    in size cannot share one stacked system, so such a batch raises and the
    caller runs its nodes one by one.  A node's prepared raw blocks, with
    its cloud offsets in ``germ1`` mode, are all that its solve reads until
    it reads past them; nodes that agree in these bit for bit share one
    solve (:func:`_fibres`).
    """

    dx = slice(0, 3)  # the base velocity dX0 leads the unknowns in both orders

    def __init__(self, model, Xs, mode, tol, radius, count, sampler):
        self.model = model
        self.tol = tol
        self.sampler = sampler
        self.order = MODES.index(mode)
        if self.order:
            clouds = [_cloud_points(model, X, radius, count) for X in Xs]
            if len({len(cloud) for cloud in clouds}) > 1:
                raise MatdistError("germ clouds of unequal size do not stack")
        self.clouds = np.array(clouds) if self.order else Xs[:, None]  # (n, points, 3)
        self.points_per_node = self.clouds.shape[1]
        self.n_unknowns = 12 + 36 * self.order
        self.dp = slice(3 + 9 * self.order, 12 + 9 * self.order)  # dP0, after dX0 and A
        self.read = [0] * len(Xs)  # draws each node has read
        self.ahead = []  # raw blocks of the draws derived for every node in advance

    @cached_property
    def lift(self):
        """``(n, points, 12, unknowns)``; only ``germ1`` reads it, pointwise is the identity."""
        return _lift(self.clouds - self.clouds[:, :1], self.order)

    def prepare(self, draws):
        """Derive every node's first ``draws`` draws at once, before any read.

        A failure there (an exhausted sampler, a non-finite lane) may lie in
        a draw that some node never reads, so it fails no node: nothing is
        kept, and each read derives its own draw.
        """
        try:
            self.ahead = self._raw(slice(None), range(draws))
        except MatdistError:
            self.ahead = []

    def _raw(self, nodes, draws):
        """Raw blocks of the successive ``draws`` of ``nodes`` (indices or a slice):
        ``(n, points, rows, 12)`` each."""
        clouds, dim = self.clouds[nodes], self.model.dim
        n, p = clouds.shape[:2]
        Fs = [_pool(self.sampler, self.order, t, p) for t in draws]
        sizes = [F.shape[1] * dim for F in Fs]
        if draws[0] == 0:  # draw 0 is led by the anchors
            anchors = self.sampler.anchor_matrices()
            Fs.insert(0, anchors[None].repeat(p, 0))
            sizes[0] += len(anchors) * dim
        drawn = np.concatenate(Fs, axis=1)  # (p, k, 3, 3), the same for every node
        rows = _blocks(self.model, clouds.reshape(n * p, 3),
                       drawn[None].repeat(n, 0).reshape(n * p, -1, 3, 3), self.tol)
        rows, ends = rows.reshape(n, p, -1, 12), list(accumulate(sizes, initial=0))
        return [rows[:, :, a:b] for a, b in zip(ends, ends[1:])]

    def blocks(self, nodes):
        """Raw pointwise blocks of each node's next draw: ``(n, points, rows, 12)``.

        ``nodes`` are distinct indices in increasing order, and each has read
        equally many draws.
        """
        t = self.read[nodes[0]]
        for i in nodes:
            self.read[i] = t + 1
        if t >= len(self.ahead):
            return self._raw(nodes, [t])[0]
        return self.ahead[t] if len(nodes) == len(self.read) else self.ahead[t][nodes]  # all: no copy

    def rows(self, nodes):
        """Solve rows of each node's next draw: ``(n, rows, unknowns)``.

        ``pointwise`` solves the raw block, whose lift is the identity;
        ``germ1`` solves ``qr(B_p) @ L_p``, ``points * min(rows, 12)`` rows.
        """
        B = self.blocks(nodes)
        if not self.order:
            return B.reshape(len(nodes), -1, 12)
        R = triangular_factor(B)
        return (R @ self.lift[nodes]).reshape(len(nodes), -1, self.n_unknowns)


def _lift(delta, order):
    """The fixed maps from a node's unknowns to the pointwise unknowns ``(dX, dP)``
    at cloud points ``delta (..., 3)`` away from it: ``(..., 12, unknowns)``.

    Order 0 has the 12 pointwise unknowns themselves.  Order 1 has 48: base
    value ``dX0`` and slope ``A`` (``dX = dX0 + A delta``), then fibre value
    ``dP0`` and slope ``Q`` (``dP = dP0 + Q delta``, contracting the third
    index of ``Q``).  Each column holds one nonzero, so a lifted row is made
    of single products.
    """
    if order == 0:
        return np.broadcast_to(np.eye(12), delta.shape[:-1] + (12, 12))
    L = np.zeros(delta.shape[:-1] + (12, 48))
    value = [0, 1, 2, *range(12, 21)]
    slope = [3, 6, 9, *range(21, 48, 3)]
    for row in range(12):
        L[..., row, value[row]] = 1.0
        L[..., row, slope[row]:slope[row] + 3] = delta
    return L


def _cloud_points(model, X, radius, count):
    """Centre plus low-discrepancy directions at two radial scalings."""
    ndir = (count + 1) // 2
    dirs = _fibonacci_directions(ndir)
    pts = [np.asarray(X, dtype=float)]
    for j in range(count):
        u = dirs[j // 2]
        rad = radius if j % 2 == 0 else 0.5 * radius
        for _ in range(7):
            candidate = X + rad * u
            if model.in_domain(candidate):
                pts.append(candidate)
                break
            rad *= 0.5
    return np.asarray(pts)


def _fibonacci_directions(n):
    idx = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * idx / n)
    azim = np.pi * (1.0 + 5.0**0.5) * idx
    return np.column_stack(
        [np.cos(azim) * np.sin(polar), np.sin(azim) * np.sin(polar), np.cos(polar)]
    )


def _saturate(system, nodes):
    """Double the sample count until each node's null dimension repeats.

    ``nodes`` (increasing indices, none read yet) run in lockstep.  The
    first round solves the anchors and ``k_init`` gradients per node; each
    later round doubles ``k`` with ``k/2`` new gradients and factorizes
    ``[R; new rows]``, where ``R`` is the last round's triangular factor
    (``R^T R = M^T M``), so the singular values are those of the whole
    solve set in exact arithmetic and no row is drawn or solved twice.  A
    node stops only when its null dimension repeats, so none stops at round
    1, which computes singular values alone.  Returns a :class:`FibreResult`
    or a :class:`FibreInstabilityError` per node, keyed by node.  Each
    result starts validated, of grade 0 and without symmetries, with the
    fibre's own ``rank_gap``; :func:`_validate` and :func:`_grade` fill it in.
    """
    sampler, rank_rel, width = system.sampler, system.tol.rank_rel, system.n_unknowns
    open_nodes = nodes
    R, s, _ = stacked_factor(system.rows(open_nodes), vectors=False)
    dims = {i: [width - rank] for i, rank in zip(nodes, rank_splits(s, rank_rel)[0])}
    results = {}
    k = sampler.k_init
    while True:
        k *= 2
        R, s, vh = stacked_factor(np.concatenate([R, system.rows(open_nodes)], axis=1),
                                  vectors=True)
        ranks, gaps = rank_splits(s, rank_rel)
        still_open = []
        for j, i in enumerate(open_nodes):
            rank = ranks[j]
            dims[i].append(width - rank)
            if dims[i][-1] == dims[i][-2]:
                results[i] = FibreResult(
                    point=system.clouds[i, 0], mode=MODES[system.order],
                    fibre_basis=vh[j, rank:].T.copy(), base_basis=np.zeros((3, 0)), grade=0,
                    sym_basis=[], samples_used=(k + len(sampler.anchors)) * system.points_per_node,
                    rank_gap=gaps[j], validated=True, heldout_residual=0.0,
                    dim_history=dims[i])
            elif 2 * k > sampler.k_max:
                results[i] = FibreInstabilityError(
                    f"null dimension did not stabilize within k_max={sampler.k_max}", dims[i]
                )
            else:
                still_open.append(j)
        if not still_open:
            return results
        if len(still_open) < len(open_nodes):  # else R is carried whole, not copied
            R = R[still_open]
            open_nodes = [open_nodes[j] for j in still_open]


def _validate(system, solved):
    """Held-out residuals on fresh samples disjoint from the solve sets.

    The samples are each node's next draw, as many gradients per cloud
    point as its solve set holds besides the anchors.  Nodes that ran the
    same rounds are checked in one product, their bases padded with zero
    columns to the widest: a zero column has residual 0, so it moves
    neither a node's worst residual nor its test.  ``solved`` maps node
    index to :class:`FibreResult`.
    """
    by_rounds = {}
    for i, fibre in solved.items():
        if fibre.fibre_dim > 0:
            by_rounds.setdefault(len(fibre.dim_history), []).append(i)
    for nodes in by_rounds.values():
        B = system.blocks(nodes)  # (n, points, rows, 12)
        bases = np.zeros((len(nodes), 1, system.n_unknowns,
                          max(solved[i].fibre_dim for i in nodes)))
        for j, i in enumerate(nodes):
            bases[j, 0, :, :solved[i].fibre_dim] = solved[i].fibre_basis
        if system.order:  # a pointwise lift is the identity
            bases = system.lift[nodes] @ bases
        worst = np.abs(B @ bases).max(axis=(1, 2, 3)).tolist()
        for j, i in enumerate(nodes):
            solved[i].heldout_residual = worst[j]
            solved[i].validated = worst[j] <= system.tol.residual_tol  # False for NaN


def _grade(system, fibres, symmetry):
    """Grade, base basis and (optionally) symmetry algebra from each fibre basis.

    One SVD of the base rows ``fibre_basis[dx, :]`` per node, stacked over
    nodes of equal fibre dimension, gives both the grade (its rank) and the
    symmetry coefficients (its null space).  ``rank_gap`` becomes the
    smaller of the fibre's and the grade's gap.  A zero fibre keeps grade 0.
    """
    rank_rel = system.tol.rank_rel
    by_dim = {}
    for fibre in fibres:
        if fibre.fibre_dim > 0:
            by_dim.setdefault(fibre.fibre_dim, []).append(fibre)
    for group in by_dim.values():
        U, s, vh = stacked_svd(np.array([fibre.fibre_basis[system.dx] for fibre in group]))
        # basis columns are unit vectors, so 1 is the natural scale; anchoring
        # the cutoff there keeps pure-noise rows from faking base directions
        grades, gaps = rank_splits(s, rank_rel, scale=np.maximum(s[:, 0], 1.0))
        for j, fibre in enumerate(group):
            fibre.grade = grades[j]
            fibre.rank_gap = min(fibre.rank_gap, gaps[j])
            fibre.base_basis = U[j, :, :fibre.grade].copy()
            if symmetry and fibre.grade < fibre.fibre_dim:  # the null space of the base rows
                dirs, sv, _ = stacked_svd((fibre.fibre_basis @ vh[j, fibre.grade:].T)[system.dp])
                keep, _ = rank_split(sv, rank_rel, scale=max(float(sv[0]), 1.0))
                fibre.sym_basis = list(np.ascontiguousarray(dirs[:, :keep].T).reshape(keep, 3, 3))


class Carry:
    """A node's last exact solve, kept by a caller that queries the node again.

    ``key`` holds the bytes of everything the solve read that can differ
    between nodes (:func:`_inputs`), and ``result`` the :class:`FibreResult`
    they gave; both stay ``None`` until a solve fills them.  A solve is kept
    only when it read nothing but prepared draws and gave a result, so a
    query whose inputs repeat ``key`` bit for bit gets that result back
    exactly, however long ago it was kept.  The caller must not change a
    result it passes back this way.
    """

    __slots__ = ("key", "result")

    def __init__(self):
        self.key = self.result = None


def _inputs(system):
    """Per-node arrays of all that a node's solve reads and another node's may
    not: its prepared raw blocks and, in ``germ1`` mode, the cloud offsets that
    build its lift.  Empty when the draws are not prepared."""
    if system.order and system.ahead:
        return [*system.ahead, system.clouds - system.clouds[:, :1]]
    return system.ahead


def _first_rows(system):
    """The bytes of each node's first prepared row: a cheap key that two nodes
    with bit-identical inputs share."""
    first = system.ahead[0][:, 0, 0].tobytes()
    size = len(first) // len(system.read)
    return [first[a:a + size] for a in range(0, len(first), size)]


def _twins(inputs, keys):
    """Each node whose solve inputs repeat, bit for bit, those of an earlier
    node, mapped to the first such node: ``{twin: lead}``.

    ``inputs`` are the nodes' solve inputs (:func:`_inputs`) and ``keys``
    their first rows (:func:`_first_rows`).  The keys bucket the nodes,
    which costs a few microseconds where no node repeats another; within a
    bucket every node is compared bit by bit with the bucket's first, and
    the nodes that differ from it form the next bucket.
    """
    if len(set(keys)) == len(keys):
        return {}
    buckets = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    bits = [a.view(np.uint64) for a in inputs]  # bitwise: 0.0 and -0.0 differ
    twins = {}
    for nodes in buckets.values():
        while len(nodes) > 1:
            lead, rest = nodes[0], np.array(nodes[1:])
            same = np.ones(len(rest), dtype=bool)
            for b in bits:
                same &= (b[rest] == b[lead]).reshape(len(rest), -1).all(axis=1)
            twins.update(dict.fromkeys(rest[same].tolist(), lead))
            nodes = rest[~same].tolist()
    return twins


def _key(inputs, i):
    """Node ``i``'s solve inputs as one string of bytes, compared bit for bit."""
    return b"".join(a[i].tobytes() for a in inputs)


def _repeats(inputs, keys, carries):
    """Nodes whose solve inputs repeat their carried ones bit for bit: ``{node: carry}``.

    A node's first row must lead its carried bytes before the whole key is
    built and compared, so nodes that moved pay one short comparison.
    """
    return {i: carry for i, (key, carry) in enumerate(zip(keys, carries))
            if carry.key is not None and carry.key.startswith(key)
            and carry.key == _key(inputs, i)}


def _copy(fibre, point):
    """``fibre`` at another node: its own ``point`` and its own arrays."""
    return replace(fibre, point=point, fibre_basis=fibre.fibre_basis.copy(),
                   base_basis=fibre.base_basis.copy(),
                   sym_basis=[m.copy() for m in fibre.sym_basis],
                   dim_history=list(fibre.dim_history))


def _solve(system, nodes, validate, symmetry):
    """Saturate, validate and grade ``nodes``: a result or error per node, keyed by node."""
    if not nodes:
        return {}
    results = _saturate(system, nodes)
    solved = {i: r for i, r in results.items() if isinstance(r, FibreResult)}
    if validate:
        _validate(system, solved)
    _grade(system, solved.values(), symmetry)
    return results


def _fibres(system, validate=True, symmetry=False, carries=None):
    """Saturate, validate and grade every node of ``system``.

    Round 2 always runs, and a node that stops there with a fibre is
    validated on its third draw, so the first two draws, and the third when
    ``validate`` is set, are prepared for every node in one batch.  A node
    whose prepared inputs repeat, bit for bit, those of its carry (one
    :class:`Carry` per node in ``carries``, when given) takes a copy of the
    carried result.  Other nodes whose prepared inputs are bit-identical
    (:func:`_twins`) share one solve: the first of them solves, or takes its
    carry, and each other gets its own copy of that result, with its own
    ``point``.  A copy is exact when the solving node read nothing but
    prepared draws; one that read further draws, which are derived at its
    own cloud, or that failed, leaves the others to solve on their own.
    Each node's exact result, with its inputs, becomes its new carry.

    Returns one :class:`FibreResult` or :class:`MatdistError` per node.  A
    failure that the batch cannot attribute to one node (a non-finite
    response, say) raises instead.
    """
    system.prepare(_prepared_draws(validate))
    n, inputs = len(system.read), _inputs(system)
    repeats, twins = {}, {}
    if inputs:
        keys = _first_rows(system)
        if carries is not None:
            repeats = _repeats(inputs, keys, carries)
        if n > 1:
            twins = _twins(inputs, keys)
    results = {i: _copy(carry.result, system.clouds[i, 0]) for i, carry in repeats.items()}
    results.update(_solve(system, [i for i in range(n) if i not in twins and i not in repeats],
                          validate, symmetry))

    def exact(i):  # node i's result can be copied: it read nothing but prepared draws
        return isinstance(results[i], FibreResult) and system.read[i] <= len(system.ahead)

    alone = []
    for i, lead in twins.items():
        if i in repeats:
            continue
        if exact(lead):
            results[i] = _copy(results[lead], system.clouds[i, 0])
        else:
            alone.append(i)
    if alone:
        results.update(_solve(system, sorted(alone), validate, symmetry))
    for i, carry in enumerate(carries or ()):
        if i not in repeats and exact(i):
            carry.key, carry.result = _key(inputs, i), results[i]
    return [results[i] for i in range(n)]


def check_germ_args(radius, cloud):
    """Check the ``germ1`` cloud arguments, raising ``ValueError`` on a bad one.

    ``radius`` must be finite and positive and ``cloud`` an integer of at
    least 1: a zero, negative or NaN radius, or an empty cloud, would leave
    the first-order ansatz unconstrained and report a wrong grade.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"germ radius must be finite and positive, got {radius!r}")
    if not (isinstance(cloud, (int, np.integer)) and cloud >= 1):
        raise ValueError(f"germ cloud must be an integer of at least 1, got {cloud!r}")


def fibres_at(model, Xs, mode="pointwise", sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL,
              germ_radius=GERM_RADIUS, germ_cloud=GERM_CLOUD, validate=True, symmetry=False,
              carries=None):
    """Fibres at many body points in either mode: the fibre kernel's one entry.

    Returns, per point, its :class:`FibreResult` or the
    :class:`MatdistError` that failed that point alone: a
    :class:`DomainError` for a point outside the model domain, say.
    ``validate=False`` skips held-out validation (``validated`` stays True
    and ``heldout_residual`` 0), and ``sym_basis`` is filled only when
    ``symmetry`` is set.  The cloud arguments (checked by
    :func:`check_germ_args`) and ``mode`` are checked before any compute.
    The points are copied once, so no result shares memory with ``Xs``, and
    the in-domain ones run in chunks sized by their prepared rows
    (:func:`_chunk_nodes`).  Every point reads the same gradient draws
    (:func:`_pool`), so results do not depend on how the points are
    batched: a chunk that raises is re-run point by point, which reproduces
    the others exactly and pins the failure to its point.  Points of a chunk
    whose admissibility systems are bit-identical (the same prepared rows
    and, in ``germ1`` mode, the same cloud offsets) are solved once, and
    each gets its own copy of the result, with its own ``point`` and arrays.

    A caller that queries the same nodes again passes ``carries``, one
    :class:`Carry` per point: a point whose solve inputs repeat its carry's
    bit for bit takes a copy of the carried result and is not solved, and
    every exact result, with its inputs, replaces its point's carry.  Every
    answer is bit-identical to querying its point alone, without carries.
    """
    check_germ_args(germ_radius, germ_cloud)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    Xs = np.array(Xs, dtype=float).reshape(-1, 3)
    inside = [model.in_domain(X) for X in Xs]
    points = Xs if all(inside) else Xs[np.array(inside, dtype=bool)]
    if carries is not None:
        carries = [carry for carry, ok in zip(carries, inside) if ok]

    def run(chunk, carried):
        try:
            return _fibres(_System(model, chunk, mode, tol, germ_radius, germ_cloud, sampler),
                           validate, symmetry, carried)
        except MatdistError as exc:
            if len(chunk) == 1:
                return [exc]
            return [f for j in range(len(chunk))
                    for f in run(chunk[j:j + 1], carried and carried[j:j + 1])]

    step = _chunk_nodes(model, MODES.index(mode), germ_cloud, sampler, validate)
    found = iter([f for i in range(0, len(points), step)
                  for f in run(points[i:i + step], carries and carries[i:i + step])])
    return [next(found) if ok else
            DomainError(f"point {Xs[i].tolist()} is outside the domain of model {model.name!r}")
            for i, ok in enumerate(inside)]


def material_fibre(model, X, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL, mode="pointwise",
                   germ_radius=GERM_RADIUS, germ_cloud=GERM_CLOUD):
    """Compute the fibre of the material distribution at a body point.

    ``mode="pointwise"`` solves the admissibility system at ``X`` alone;
    ``mode="germ1"`` extends the unknowns to a first-order field over a
    small neighbourhood cloud, which removes spurious solutions at singular
    strata (an isolated degenerate point constrains nearby field values,
    not just the value at the point itself).  This is the one-point case of
    :func:`fibres_at`, in either mode, with the symmetry algebra extracted;
    it raises the point's error.
    """
    (fibre,) = fibres_at(model, [X], mode, sampler, tol, germ_radius, germ_cloud, symmetry=True)
    if isinstance(fibre, MatdistError):
        raise fibre
    return fibre


def base_basis_at(model, X, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Lightweight base projection at ``X``: ``(basis (3,grade), grade, gap)``.

    The tuple view of the pointwise fibre at ``X`` without held-out
    validation or symmetry extraction (:func:`fibres_at` with
    ``validate=False``); raises the point's error.
    """
    (fibre,) = fibres_at(model, [X], sampler=sampler, tol=tol, validate=False)
    if isinstance(fibre, MatdistError):
        raise fibre
    return fibre.base_basis, fibre.grade, fibre.rank_gap


def is_material_isomorphism(model, X, Y, P, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Test whether the jet ``P`` from ``X`` to ``Y`` is a material isomorphism.

    The residual is ``max_F |W(X, F P) - W(Y, F)|`` over the anchor set and
    ``k_init`` random gradients, the same for every ``(X, Y)``; the verdict
    is ``residual <= residual_tol``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    P = np.asarray(P, dtype=float)
    if P.shape != (3, 3) or not np.all(np.isfinite(P)):
        raise ValueError("P must be a finite 3x3 matrix")
    if abs(float(np.linalg.det(P))) < 1e-12:
        raise SingularMatrixError("P is numerically singular")
    for name, point in (("X", X), ("Y", Y)):
        if not model.in_domain(point):
            raise DomainError(f"{name}={point.tolist()} is outside the domain of model {model.name!r}")
    Fs = np.concatenate([sampler.anchor_matrices(), _pool(sampler, 2, 0, 1)[0]])  # salt 2
    WX = evaluate_at_samples(model, np.broadcast_to(X, (len(Fs), 3)), Fs @ P)
    WY = evaluate_at_samples(model, np.broadcast_to(Y, (len(Fs), 3)), Fs)
    diffs = np.abs(WX - WY).max(axis=1)
    worst = int(np.argmax(diffs))
    residual = float(diffs[worst])
    if not np.isfinite(residual):
        raise NonFiniteError("non-finite residual in material-isomorphism test")
    return IsoCheck(
        residual=residual,
        verdict=bool(residual <= tol.residual_tol),
        worst_gradient=Fs[worst].copy(),
        samples_used=len(Fs),
    )
