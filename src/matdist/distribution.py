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
from .numkit import DEFAULT_TOL, rank_split, stacked_svd
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
    one, would reject every draw.
    """

    seed: int = 0
    k_init: int = 8
    k_max: int = 128
    det_min: float = 0.1
    cond_max: float = 50.0
    anchors: tuple = field(default=_DEFAULT_ANCHORS)

    def __post_init__(self):
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
            "rank_gap": _finite_gap(self.rank_gap),
            "mode": self.mode,
            "base_basis": [[float(v) for v in self.base_basis[:, j]] for j in range(self.grade)],
            "validated": bool(self.validated),
        }


_GAP_CAP = 1e18


def _finite_gap(gap):
    # JSON has no infinity; saturate the diagnostic instead
    return float(min(gap, _GAP_CAP))


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
    """Draw accepted random gradients (finite |det| and condition bounds)."""
    return _sample_many([rng], count, sampler)[0]


def _sample_many(rngs, count, sampler):
    """``count`` accepted gradients from each generator: ``(len(rngs), count, 3, 3)``.

    Each generator draws batches of ``max(8, 2*count)`` standard normal
    matrices and keeps, in draw order, the first ``count`` that
    :func:`_accepted` passes.  Every generator draws the same batches, in the
    same order, as it would alone; only the acceptance test is stacked over
    them.  Raises :class:`SamplerExhaustedError` if a generator is still
    short after ``_SAMPLER_BATCHES`` batches.
    """
    size = _batch_size(count)
    out = np.empty((len(rngs), count, 3, 3))
    have = np.zeros(len(rngs), dtype=int)
    short = np.arange(len(rngs))
    for _ in range(_SAMPLER_BATCHES):
        batch = np.stack([rngs[i].standard_normal((size, 3, 3)) for i in short])
        keep = _accepted(batch.reshape(-1, 3, 3), sampler).reshape(len(short), size)
        slot = have[short, None] + np.cumsum(keep, axis=1) - 1  # where each accepted one goes
        rows, cols = np.nonzero(keep & (slot < count))
        out[short[rows], slot[rows, cols]] = batch[rows, cols]
        have[short] = np.minimum(slot[:, -1] + 1, count)
        short = short[have[short] < count]
        if not short.size:
            return out
    raise SamplerExhaustedError("gradient sampler failed to find acceptable samples")


def _cloud_draws(rng, points, count, sampler):
    """``points`` successive :func:`sample_gradients` calls on one generator, in one batch.

    Returns ``(points, count, 3, 3)`` and leaves ``rng`` where the calls
    would.  ``standard_normal((points, size, 3, 3))`` yields the numbers of
    ``points`` successive ``(size, 3, 3)`` draws, so when every point finds
    ``count`` accepted gradients in its first batch, one batch is all that
    the calls draw.  Otherwise the generator is rewound and the calls are
    made one by one.
    """
    state = rng.bit_generator.state
    batch = rng.standard_normal((points, _batch_size(count), 3, 3))
    keep = _accepted(batch.reshape(-1, 3, 3), sampler).reshape(batch.shape[:2])
    if keep.sum(axis=1).min() >= count:
        return batch[keep & (np.cumsum(keep, axis=1) <= count)].reshape(points, count, 3, 3)
    rng.bit_generator.state = state
    return np.stack([sample_gradients(rng, count, sampler) for _ in range(points)])


def _with_anchors(Fs, sampler):
    """The anchors followed by each node's draws ``Fs (n,k,3,3)``: ``(n, k+3, 3, 3)``."""
    anchors = np.repeat(sampler.anchor_matrices()[None], len(Fs), axis=0)
    return np.concatenate([anchors, Fs], axis=1)


def _solve_set(rng, k, sampler):
    return _solve_sets([rng], k, sampler)[0]


def _solve_sets(rngs, k, sampler):
    """Anchors followed by ``k`` random gradients, per generator: ``(n, k+3, 3, 3)``."""
    return _with_anchors(_sample_many(rngs, k, sampler), sampler)


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


class _PointwiseSystem:
    """Admissibility rows at a batch of body points."""

    n_unknowns = 12
    dx = slice(0, 3)
    dp = slice(3, 12)
    salt = 0  # each node's generator is seeded by its coordinates and this salt
    points_per_node = 1

    def __init__(self, model, Xs, tol, radius, count):  # the cloud arguments are germ1's
        self.model = model
        self.Xs = Xs
        self.tol = tol

    def rows(self, nodes, rngs, k, sampler):
        return _blocks(self.model, self.Xs[nodes], _solve_sets(rngs, k, sampler), self.tol)

    def heldout_rows(self, nodes, rngs, k, sampler):
        return _blocks(self.model, self.Xs[nodes], _sample_many(rngs, k, sampler), self.tol)


class _GermSystem:
    """First-order field ansatz over a small point cloud around each node.

    Unknowns (48): base value dX0, base slope A (dX(X') = dX0 + A(X'-X)),
    fibre value dP0 and fibre slope Q (dP(X') = dP0 + Q(X'-X), contraction
    on the third index of Q).  Every node's cloud draws from that node's
    generator.  Clouds near the domain boundary lose points; nodes whose
    clouds differ in size cannot share one stacked system, so such a batch
    raises and the caller runs its nodes one by one.
    """

    n_unknowns = 48
    dx = slice(0, 3)
    dp = slice(12, 21)
    salt = 1

    def __init__(self, model, Xs, tol, radius, count):
        self.model = model
        self.Xs = Xs
        self.tol = tol
        clouds = [_cloud_points(model, X, radius, count) for X in Xs]
        if len({len(cloud) for cloud in clouds}) > 1:
            raise MatdistError("germ clouds of unequal size do not stack")
        self.clouds = np.stack(clouds)  # (n, points, 3)
        self.points_per_node = self.clouds.shape[1]

    def _assemble(self, nodes, rngs, k, sampler, with_anchors):
        n, p = len(nodes), self.points_per_node
        Fs = np.stack([_cloud_draws(rng, p, k, sampler) for rng in rngs]).reshape(n * p, k, 3, 3)
        if with_anchors:
            Fs = _with_anchors(Fs, sampler)
        cloud = self.clouds[nodes].reshape(n * p, 3)
        rows = _blocks(self.model, cloud, Fs, self.tol)  # (n*p, R, 12)
        delta = cloud - np.repeat(self.Xs[nodes], p, axis=0)
        q, r = rows.shape[:2]
        BX = rows[:, :, :3]
        BP = rows[:, :, 3:]
        cols_a = np.einsum("qri,qj->qrij", BX, delta).reshape(q, r, 9)
        cols_q = np.einsum("qrs,qm->qrsm", BP, delta).reshape(q, r, 27)
        lifted = np.concatenate([BX, cols_a, BP, cols_q], axis=2)
        return lifted.reshape(n, p * r, self.n_unknowns)

    def rows(self, nodes, rngs, k, sampler):
        return self._assemble(nodes, rngs, k, sampler, with_anchors=True)

    def heldout_rows(self, nodes, rngs, k, sampler):
        return self._assemble(nodes, rngs, k, sampler, with_anchors=False)


_SYSTEMS = {"pointwise": _PointwiseSystem, "germ1": _GermSystem}
MODES = tuple(_SYSTEMS)  # fibre modes


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

    The nodes run in lockstep: a round draws ``k`` gradients per open node,
    factorizes all their systems with one stacked SVD and closes every node
    whose null dimension repeats.  Returns a :class:`_NodeFibre` or a
    :class:`FibreInstabilityError` per node.
    """
    results = [None] * len(rngs)
    dims = [[] for _ in rngs]
    open_nodes = list(range(len(rngs)))
    k = sampler.k_init
    while open_nodes:
        M = system.rows(open_nodes, [rngs[i] for i in open_nodes], k, sampler)
        _, s, vh = stacked_svd(M)
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
                still_open.append(i)
        open_nodes = still_open
        k *= 2
    return results


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
        H = system.heldout_rows(nodes, [rngs[i] for i in nodes], k, sampler)
        for j, i in enumerate(nodes):
            per_vector = np.abs(H[j] @ solved[i].basis).max(axis=0)
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
    if mode not in _SYSTEMS:
        raise ValueError(f"unknown mode {mode!r}")
    Xs = np.asarray(Xs, dtype=float).reshape(-1, 3)
    inside = np.array([model.in_domain(X) for X in Xs], dtype=bool)

    def run(chunk):
        try:
            system = _SYSTEMS[mode](model, chunk, tol, germ_radius, germ_cloud)
            rngs = [_point_rng(sampler, X, system.salt) for X in chunk]
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
    Fs = _solve_set(rng, sampler.k_init, sampler)
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
