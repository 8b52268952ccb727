"""Material-distribution fibres, grades of uniformity and symmetry algebras.

A germ candidate is a 12-vector ``(dX1, dX2, dX3, dP11, dP12, ..., dP33)``
pairing a base velocity ``dX`` with a fibre coefficient matrix ``dP`` (the
vertical part of the candidate field at a jet with gradient ``F`` is
``F @ dP``).  The admissibility system collects, over many sampled
gradients, the rows

    sum_m dX_m dW_c/dX_m + sum_{l,i} (sum_j dW_c/dF_ji F_jl) dP_li = 0

and the fibre is its null space.  "For every gradient" is realized by
sampling to rank saturation followed by validation on held-out samples:
the constraints are polynomial in F, so generic finite samples determine
the kernel, and validation catches unlucky draws.
"""

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FibreInstabilityError,
    MatdistError,
    NonFiniteError,
    SamplerExhaustedError,
    SingularMatrixError,
)
from .numkit import DEFAULT_TOL, rank_split, stacked_factor, stacked_svd
from .response import derivatives_at_samples, evaluate_at_samples

__all__ = [
    "SamplerConfig",
    "DEFAULT_SAMPLER",
    "FibreResult",
    "IsoCheck",
    "admissibility_block",
    "material_fibre",
    "fibres_at",
    "base_bases_at",
    "base_basis_at",
    "symmetry_algebra",
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

    def anchor_matrices(self):
        return np.asarray(self.anchors, dtype=float)


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


def _point_rng(sampler, key_values, salt):
    data = np.ascontiguousarray(np.asarray(key_values, dtype=float))
    words = np.frombuffer(data.tobytes(), dtype=np.uint32)
    entropy = [int(sampler.seed) & 0xFFFFFFFF, int(salt)] + [int(w) for w in words]
    return np.random.default_rng(np.random.SeedSequence(entropy))


_SAMPLER_BATCHES = 200
_EPS = np.finfo(float).eps

# the (i, j) cofactor of F is F[i+1, j+1] F[i+2, j+2] - F[i+1, j+2] F[i+2, j+1],
# indices mod 3; the four rows pick those factors from the flattened F
_COFACTOR_FACTORS = np.array(
    [[3 * ((i + a) % 3) + (j + b) % 3 for i in range(3) for j in range(3)]
     for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))]
)


def _accepted(Fs, sampler):
    """Which of the gradients ``Fs (n,3,3)`` the sampler accepts: ``(n,)`` bools.

    A gradient passes when ``|det F| >= det_min`` and ``cond_2(F) <=
    cond_max``, decided exactly as ``np.linalg.det`` and ``np.linalg.cond``
    decide them.  A cheap bound settles most condition tests: for 3x3
    matrices ``cond_2 <= p <= 3 cond_2`` with ``p = |F|_F |F^-1|_F`` and
    ``|F^-1|_F = |cof F|_F / |det F|``.  ``p`` below ``cond_max`` accepts and
    ``p`` above ``3 cond_max`` rejects, each by a relative margin that
    covers the rounding of ``p`` and of ``np.linalg.cond`` (both a small
    multiple of ``eps * cond``).  Only the gradients left in between, about
    3 % of normal draws at the defaults, take the exact SVD.
    """
    det = np.linalg.det(Fs)
    keep = np.abs(det) >= sampler.det_min
    f = Fs.reshape(-1, 9)
    g = f[:, _COFACTOR_FACTORS]
    cof = g[:, 0] * g[:, 1] - g[:, 2] * g[:, 3]
    # p^2 det^2, so that a zero determinant needs no division
    p2d2 = np.einsum("ni,ni->n", f, f) * np.einsum("ni,ni->n", cof, cof)
    d2 = det * det
    margin = min(1e-9 + 64 * _EPS * sampler.cond_max, 1.0)
    lo = sampler.cond_max * (1.0 - margin)  # NaN for cond_max = inf: then no bound decides
    hi = 3.0 * sampler.cond_max * (1.0 + margin)
    exact = keep & ~(p2d2 < lo * lo * d2)
    keep &= ~(p2d2 > hi * hi * d2)
    exact &= keep
    if exact.any():
        keep[exact] = np.linalg.cond(Fs[exact]) <= sampler.cond_max
    return keep


def _batch_size(count):
    return max(8, 2 * count)


def sample_gradients(rng, count, sampler):
    """``count`` accepted random gradients from one generator: ``(count, 3, 3)``.

    The generator draws batches of ``max(8, 2*count)`` standard normal
    matrices, and the first ``count`` that :func:`_accepted` passes are kept
    in draw order.  Raises :class:`SamplerExhaustedError` if it is still
    short after ``_SAMPLER_BATCHES`` batches.
    """
    kept, have = [], 0
    for _ in range(_SAMPLER_BATCHES):
        batch = rng.standard_normal((_batch_size(count), 3, 3))
        kept.append(batch[_accepted(batch, sampler)])
        have += len(kept[-1])
        if have >= count:
            return np.concatenate(kept)[:count]
    raise SamplerExhaustedError("gradient sampler failed to find acceptable samples")


def _draws(rngs, points, count, sampler):
    """``points`` successive :func:`sample_gradients` calls on each generator, in one batch.

    Returns ``(len(rngs), points, count, 3, 3)`` and leaves every generator
    where the calls would.  ``standard_normal((points, size, 3, 3))`` yields
    the numbers of ``points`` successive ``(size, 3, 3)`` draws, so the first
    batch of every point of every generator is drawn at once and judged by
    one :func:`_accepted` call.  A generator with a point that comes up short
    is rewound and its calls are made one by one.
    """
    states = [rng.bit_generator.state for rng in rngs]
    batch = np.stack([rng.standard_normal((points, _batch_size(count), 3, 3)) for rng in rngs])
    keep = _accepted(batch.reshape(-1, 3, 3), sampler).reshape(batch.shape[:3])
    have = np.cumsum(keep, axis=2)
    keep &= have <= count  # the first count of each point
    if have[..., -1].min() >= count:  # every first batch suffices
        return batch[keep].reshape(len(rngs), points, count, 3, 3)
    full = (have[..., -1] >= count).all(axis=1)  # generators to keep, the others replay
    keep[~full] = False
    out = np.empty((len(rngs), points, count, 3, 3))
    out[full] = batch[keep].reshape(-1, points, count, 3, 3)
    for i in np.flatnonzero(~full):
        rngs[i].bit_generator.state = states[i]
        out[i] = [sample_gradients(rngs[i], count, sampler) for _ in range(points)]
    return out


def _with_anchors(Fs, sampler):
    """The anchors followed by each node's draws ``Fs (n,k,3,3)``: ``(n, k+3, 3, 3)``."""
    anchors = np.repeat(sampler.anchor_matrices()[None], len(Fs), axis=0)
    return np.concatenate([anchors, Fs], axis=1)


# ---------------------------------------------------------------------------
# admissibility rows


def _blocks(model, Xs, Fs, tol):
    """Stacked admissibility rows, gradients ``Fs[i]`` at point ``Xs[i]``: (n, k*d, 12)."""
    dWdX, dWdF = derivatives_at_samples(model, Xs, Fs, tol)
    n, k, d = dWdF.shape[:3]
    G = dWdF.reshape(n * k, d, 3, 3)
    BP = np.einsum("kcji,kjl->kcli", G, Fs.reshape(n * k, 3, 3)).reshape(n, k, d, 9)
    return np.concatenate([dWdX, BP], axis=3).reshape(n, k * d, 12)


def admissibility_block(model, X, F, tol=DEFAULT_TOL):
    """Single admissibility block (d x 12) at one jet."""
    X = np.asarray(X, dtype=float)
    F = np.asarray(F, dtype=float)
    if not model.in_domain(X):
        raise DomainError(f"point {X.tolist()} is outside the domain of model {model.name!r}")
    if abs(float(np.linalg.det(F))) < 1e-12:
        raise SingularMatrixError("F is numerically singular")
    return _blocks(model, X[None], F[None, None], tol)[0]


# ---------------------------------------------------------------------------
# fibre computation
#
# One kernel serves every fibre: a system yields admissibility rows for a set
# of nodes, one generator per node; _saturate solves them in lockstep and
# _fibres validates and grades the results.  fibres_at is its one entry, in
# both modes: it runs chunks of points through the kernel and isolates each
# failure to its point.  material_fibre, grade maps and base_bases_at all
# call it.

_CHUNK_NODES = 16  # nodes per lockstep batch: larger chunks gain no speed and cost memory


MODES = ("pointwise", "germ1")  # fibre modes, by jet order


class _System:
    """Admissibility rows of a batch of nodes, at jet order 0 or 1.

    Each node has a cloud of points; each cloud point has a pointwise block
    ``B_p`` (12 columns ``dX, dP``), which the node's unknowns enter through
    a fixed lift ``L_p`` (12 x unknowns, :func:`_lift`).  ``pointwise`` is
    the one-point germ: the cloud is the node alone and the lift is the
    identity.  ``germ1`` fits a first-order field over a small cloud around
    the node (:func:`_cloud_points`).  The solve needs only ``B_p^T B_p``,
    so each solve block is replaced by its QR factor before the lift;
    validation applies the lift to the basis and reads the raw blocks.

    Every node's cloud draws from that node's generator, seeded by its
    coordinates and the jet order.  Clouds near the domain boundary lose
    points; nodes whose clouds differ in size cannot share one stacked
    system, so such a batch raises and the caller runs its nodes one by one.
    """

    dx = slice(0, 3)  # the base velocity dX0 leads the unknowns in both orders

    def __init__(self, model, Xs, mode, tol, radius, count):
        self.model = model
        self.tol = tol
        self.order = MODES.index(mode)
        clouds = [_cloud_points(model, X, radius, count) for X in Xs] if self.order else Xs[:, None]
        if len({len(cloud) for cloud in clouds}) > 1:
            raise MatdistError("germ clouds of unequal size do not stack")
        self.clouds = np.asarray(clouds)  # (n, points, 3)
        self.points_per_node = self.clouds.shape[1]
        self.lift = _lift(self.clouds - Xs[:, None], self.order)  # (n, points, 12, unknowns)
        self.n_unknowns = self.lift.shape[-1]
        self.dp = slice(3 + 9 * self.order, 12 + 9 * self.order)  # dP0, after dX0 and A

    def blocks(self, nodes, rngs, k, sampler, anchors=False):
        """Raw pointwise blocks of the nodes' cloud points: ``(n, points, rows, 12)``."""
        n, p = len(nodes), self.points_per_node
        Fs = _draws(rngs, p, k, sampler).reshape(n * p, k, 3, 3)
        if anchors:
            Fs = _with_anchors(Fs, sampler)
        rows = _blocks(self.model, self.clouds[nodes].reshape(n * p, 3), Fs, self.tol)
        return rows.reshape(n, p, -1, 12)

    def rows(self, nodes, rngs, k, sampler, anchors=False):
        """Solve rows ``qr(B_p) @ L_p`` of the nodes: ``(n, points * min(rows, 12), unknowns)``."""
        R = np.linalg.qr(self.blocks(nodes, rngs, k, sampler, anchors), mode="r")
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


@dataclass
class _NodeFibre:
    """What the kernel learns at one node; grade fields keep three fields of it."""

    basis: np.ndarray
    fibre_gap: float
    dims: list
    k: int
    samples: int  # gradients in the last solve set, over the whole cloud
    heldout: float = 0.0
    validated: bool = True
    grade: int = 0
    base: np.ndarray = None
    grade_gap: float = np.inf
    sym: list = field(default_factory=list)

    @property
    def rank_gap(self):
        return min(self.fibre_gap, self.grade_gap)


def _saturate(system, rngs, sampler):
    """Double the sample count until each node's null dimension repeats.

    The nodes run in lockstep.  The first round solves the anchors and
    ``k_init`` gradients per node; each later round doubles ``k`` with ``k/2``
    new gradients and factorizes ``[C; new rows]``, where ``C = diag(s)·Vh``
    is the last round's factor (``C^T C = M^T M``), so the singular values
    are those of the whole solve set in exact arithmetic and no row is
    drawn or solved twice.  Returns a :class:`_NodeFibre` or a
    :class:`FibreInstabilityError` per node.
    """
    results = [None] * len(rngs)
    dims = [[] for _ in rngs]
    open_nodes = list(range(len(rngs)))
    k = sampler.k_init
    M = system.rows(open_nodes, rngs, k, sampler, anchors=True)
    while True:
        s, vh = stacked_factor(M)
        still_open = []
        for j, i in enumerate(open_nodes):
            rank, gap = rank_split(s[j], system.tol.rank_rel)
            dims[i].append(system.n_unknowns - rank)
            if len(dims[i]) >= 2 and dims[i][-1] == dims[i][-2]:
                samples = (k + len(sampler.anchors)) * system.points_per_node
                results[i] = _NodeFibre(vh[j, rank:].T.copy(), gap, dims[i], k, samples)
            elif 2 * k > sampler.k_max:
                results[i] = FibreInstabilityError(
                    f"null dimension did not stabilize within k_max={sampler.k_max}", dims[i]
                )
            else:
                still_open.append(j)
        if not still_open:
            return results
        open_nodes = [open_nodes[j] for j in still_open]
        C = s[still_open, :, None] * vh[still_open, :s.shape[1]]
        M = np.concatenate([C, system.rows(open_nodes, [rngs[i] for i in open_nodes], k, sampler)],
                           axis=1)
        k *= 2


def _validate(system, rngs, sampler, solved):
    """Held-out residuals on fresh samples disjoint from the solve sets.

    The samples continue each node's generator; nodes are batched by their
    final sample count.  ``solved`` maps node index to :class:`_NodeFibre`.
    """
    by_k = defaultdict(list)
    for i, node in solved.items():
        if node.basis.shape[1] > 0:
            by_k[node.k].append(i)
    for k, nodes in by_k.items():
        B = system.blocks(nodes, [rngs[i] for i in nodes], k, sampler)
        for j, i in enumerate(nodes):
            per_vector = np.abs(B[j] @ (system.lift[i] @ solved[i].basis)).max(axis=(0, 1))
            solved[i].heldout = float(per_vector.max())
            solved[i].validated = bool(np.all(per_vector <= system.tol.residual_tol))


def _grade(system, nodes, symmetry):
    """Grade, base basis and (optionally) symmetry algebra from each fibre basis.

    One SVD of the base rows ``basis[dx, :]`` per node, stacked over nodes of
    equal fibre dimension, gives both the grade (its rank) and the symmetry
    coefficients (its null space).
    """
    rank_rel = system.tol.rank_rel
    by_dim = defaultdict(list)
    for node in nodes:
        by_dim[node.basis.shape[1]].append(node)
    for f, group in by_dim.items():
        if f == 0:
            for node in group:
                node.base = np.zeros((3, 0))
            continue
        U, s, vh = stacked_svd(np.stack([node.basis[system.dx, :] for node in group]))
        for j, node in enumerate(group):
            # basis columns are unit vectors, so 1 is the natural scale; anchoring
            # the cutoff there keeps pure-noise rows from faking base directions
            node.grade, node.grade_gap = rank_split(s[j], rank_rel, scale=max(float(s[j][0]), 1.0))
            node.base = U[j, :, :node.grade].copy()
            if symmetry:
                node.sym = _symmetry_basis(node.basis, vh[j, node.grade:].T, system.dp, rank_rel)


def _symmetry_basis(basis, coeff, dp, rank_rel):
    if coeff.shape[1] == 0:
        return []
    S = (basis @ coeff)[dp, :]
    U, s, _ = stacked_svd(S)
    keep, _ = rank_split(s, rank_rel, scale=max(float(s[0]) if s.size else 0.0, 1.0))
    return [U[:, j].reshape(3, 3).copy() for j in range(keep)]


def _fibres(system, rngs, sampler, validate=True, symmetry=False):
    """Saturate, validate and grade every node of ``system``.

    Returns one :class:`_NodeFibre` or :class:`MatdistError` per node.  A
    failure that the batch cannot attribute to one node (a non-finite
    response, say) raises instead.
    """
    results = _saturate(system, rngs, sampler)
    solved = {i: r for i, r in enumerate(results) if isinstance(r, _NodeFibre)}
    if validate:
        _validate(system, rngs, sampler, solved)
    _grade(system, solved.values(), symmetry)
    return results


def check_germ_args(radius, cloud):
    """Check the ``germ1`` cloud arguments, raising ``ValueError`` on a bad one.

    ``radius`` must be finite and positive and ``cloud`` an integer of at
    least 1: a zero, negative or NaN radius, or an empty cloud, would leave
    the first-order ansatz unconstrained and report a wrong grade.
    """
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"germ radius must be finite and positive, got {radius!r}")
    if not (isinstance(cloud, (int, np.integer)) and cloud >= 1):
        raise ValueError(f"germ cloud must be an integer of at least 1, got {cloud!r}")


def fibres_at(model, Xs, mode="pointwise", sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL,
              germ_radius=GERM_RADIUS, germ_cloud=GERM_CLOUD, validate=True, symmetry=False):
    """Fibres at many body points in either mode: the one entry to the fibre kernel.

    Returns, per point, what the kernel learned there (fibre basis,
    ``grade``, ``base``, ``rank_gap``, ``validated``, ``heldout``, the
    symmetry basis ``sym`` when ``symmetry`` is set) or the
    :class:`MatdistError` that failed that point alone: a
    :class:`DomainError` for a point outside the model domain, say.
    ``validate=False`` skips held-out validation.  The cloud arguments
    (checked by :func:`check_germ_args`) and ``mode`` are checked before any
    compute.  In-domain points run in chunks of ``_CHUNK_NODES``.  Every
    point draws from its own generator, seeded by its coordinates and the
    mode, so results do not depend on how the points are batched: a chunk
    that raises is re-run point by point, which reproduces the others
    exactly and pins the failure to its point.
    """
    check_germ_args(germ_radius, germ_cloud)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    Xs = np.asarray(Xs, dtype=float).reshape(-1, 3)
    inside = np.array([model.in_domain(X) for X in Xs], dtype=bool)

    def run(chunk):
        try:
            system = _System(model, chunk, mode, tol, germ_radius, germ_cloud)
            rngs = [_point_rng(sampler, X, system.order) for X in chunk]
            return _fibres(system, rngs, sampler, validate, symmetry)
        except MatdistError as exc:
            if len(chunk) == 1:
                return [exc]
            return [node for X in chunk for node in run(X[None])]

    points = Xs[inside]
    found = iter([node for start in range(0, len(points), _CHUNK_NODES)
                  for node in run(points[start:start + _CHUNK_NODES])])
    return [next(found) if ok else
            DomainError(f"point {X.tolist()} is outside the domain of model {model.name!r}")
            for X, ok in zip(Xs, inside)]


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
    X = np.asarray(X, dtype=float)
    (node,) = fibres_at(model, X[None], mode, sampler, tol, germ_radius, germ_cloud, symmetry=True)
    if isinstance(node, MatdistError):
        raise node
    return FibreResult(
        point=X,
        mode=mode,
        fibre_basis=node.basis,
        base_basis=node.base,
        grade=node.grade,
        sym_basis=node.sym,
        samples_used=node.samples,
        rank_gap=node.rank_gap,
        validated=node.validated,
        heldout_residual=node.heldout,
        dim_history=node.dims,
    )


def base_bases_at(model, Xs, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Base projections at many body points, through :func:`fibres_at`.

    Returns, per point, ``(basis (3,grade), grade, gap)`` of the pointwise
    fibre, or the :class:`MatdistError` that failed that point alone: a
    :class:`DomainError` for a point outside the model domain, say.  Held-out
    validation and symmetry extraction are skipped; the flow tracer and the
    homogeneity sample bases query many points this way.  Each result is
    bit-identical to :func:`base_basis_at` at that point.
    """
    return [node if isinstance(node, MatdistError) else (node.base, node.grade, node.rank_gap)
            for node in fibres_at(model, Xs, sampler=sampler, tol=tol, validate=False)]


def base_basis_at(model, X, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Lightweight base projection at ``X``: ``(basis (3,grade), grade, gap)``.

    The one-point case of :func:`base_bases_at`; raises the point's error.
    """
    (result,) = base_bases_at(model, np.asarray(X, dtype=float)[None], sampler, tol)
    if isinstance(result, MatdistError):
        raise result
    return result


def symmetry_algebra(model, X, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Basis of the material symmetry algebra at ``X`` (list of 3x3 arrays)."""
    return material_fibre(model, X, sampler=sampler, tol=tol, mode="pointwise").sym_basis


def is_material_isomorphism(model, X, Y, P, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Test whether the jet ``P`` from ``X`` to ``Y`` is a material isomorphism.

    The residual is ``max_F |W(X, F P) - W(Y, F)|`` over the anchor set and
    ``k_init`` random gradients; the verdict is ``residual <= residual_tol``.
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
    rng = _point_rng(sampler, np.concatenate([X, Y]), salt=2)
    Fs = _with_anchors(sample_gradients(rng, sampler.k_init, sampler)[None], sampler)[0]
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
