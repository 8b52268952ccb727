"""Constitutive-model contract, built-in models and DSL loading.

A model maps a body point ``X`` and an invertible 3x3 gradient ``F`` to a
flat response vector in ``R^d`` (matrix-valued responses are flattened
row-major).  There is deliberately no target-point argument anywhere in the
contract: the response of a simple body depends on the jet's source point
and gradient only.
"""

import math

import numpy as np

from . import dsl
from .errors import DomainError, NonFiniteError, SingularMatrixError
from .numkit import DEFAULT_TOL, FD_SHRINK_TRIES

__all__ = [
    "ConstitutiveModel",
    "LeafInfo",
    "BUILTIN_MODELS",
    "builtin",
    "parse_model",
    "load_model_file",
    "evaluate",
    "derivatives",
    "derivatives_at_samples",
    "evaluate_at_samples",
]

_DET_MIN = 1e-12


class LeafInfo:
    """Analytic description of the uniform leaf through a seed point.

    ``residual(seed, x)`` is zero when ``x`` lies on the leaf of ``seed``;
    ``sample(seed, rng)`` draws a point on that leaf.
    """

    def __init__(self, residual, sample, label=""):
        self.residual = residual
        self.sample = sample
        self.label = label


class ConstitutiveModel:
    """Evaluation contract of a simple-body response, over paired lanes.

    A lane is one jet ``(X, F)``: row ``i`` of ``Xs (m,3)`` paired with
    ``Fs[i]`` of ``Fs (m,3,3)``.  Both callables take any number of lanes
    and perform no checks; the module-level functions validate inputs and
    check every result's shape and finiteness.

    Parameters
    ----------
    name:
        Identifier echoed in outputs.
    dim:
        Length of the flattened response vector.
    evaluate:
        Callable ``(Xs (m,3), Fs (m,3,3)) -> (m, dim)``.
    domain:
        Predicate over one body point; ``None`` accepts every finite point.
    bounds:
        Axis-aligned box containing the domain, used for sampling.
    derivatives:
        Optional exact material-frame block over the same lanes,
        ``(Xs, Fs) -> (m, dim, 12)``: the derivatives of ``W`` along
        ``X -> X + t e_i`` (columns 0-2) and along ``F -> F (I + t E_ab)``
        (column ``3 + 3a + b``), the admissibility row of each response
        component.  Without it, the block is central differences of
        ``evaluate`` along the same directions.
    leaf:
        Optional :class:`LeafInfo` when the uniform leaves are known in
        closed form.
    params:
        JSON-serializable metadata echoed into outputs.
    aux:
        Non-serialized extras (e.g. the director field of a liquid-crystal
        model) used by diagnostics.
    """

    def __init__(self, name, dim, evaluate, domain=None, bounds=None, derivatives=None,
                 leaf=None, params=None, aux=None):
        self.name = name
        self.dim = int(dim)
        self._evaluate = evaluate
        self._derivatives = derivatives
        self.domain = domain
        lo, hi = bounds if bounds is not None else ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        self.bounds = (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        self.leaf = leaf
        self.params = dict(params or {})
        self.aux = dict(aux or {})

    def __repr__(self):
        return f"ConstitutiveModel({self.name!r}, dim={self.dim})"

    def in_domain(self, X):
        X = np.asarray(X, dtype=float)
        # math.isfinite over three floats: np.isfinite costs more than the test
        if X.shape != (3,) or not all(map(math.isfinite, X.tolist())):
            return False
        return True if self.domain is None else bool(self.domain(X))


def _checked_jet(model, X, F):
    """``(X, F)`` as float arrays, or the error that makes the jet invalid."""
    X = np.asarray(X, dtype=float)
    F = np.asarray(F, dtype=float)
    if F.shape != (3, 3) or not np.all(np.isfinite(F)):
        raise ValueError("F must be a finite 3x3 matrix")
    if not model.in_domain(X):
        raise DomainError(f"point {X.tolist()} is outside the domain of model {model.name!r}")
    if abs(float(np.linalg.det(F))) < _DET_MIN:
        raise SingularMatrixError(f"F is numerically singular (|det| < {_DET_MIN})")
    return X, F


def _quiet():
    """A fresh ``errstate`` (numpy enters none twice) silencing warnings around
    a model call: :func:`_checked_lanes` raises on every non-finite lane anyway."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _checked_lanes(model, values, shape, what, Xs):
    """``values`` as a float array of ``shape``; non-finite entries raise."""
    try:
        values = np.asarray(values, dtype=float)
        found = values.shape
    except ValueError:  # a ragged sequence, such as a pair of arrays
        found = "ragged"
    if found != shape:
        raise ValueError(f"model {model.name!r} returned {what} of shape {found}, expected {shape}")
    if not np.isfinite(values).all():
        lane = int(np.argwhere(~np.isfinite(values))[0][0])
        raise NonFiniteError(
            f"model {model.name!r} returned a non-finite {what} at X={Xs[lane].tolist()}"
        )
    return values


def evaluate(model, X, F):
    """Response value at ``(X, F)`` with full input validation."""
    X, F = _checked_jet(model, X, F)
    with _quiet():
        W = model._evaluate(X[None], F[None])
    return _checked_lanes(model, W, (1, model.dim), "response", X[None])[0]


def evaluate_at_samples(model, Xs, Fs):
    """Responses ``(m, dim)`` at paired lanes ``Xs (m,3)``, ``Fs (m,3,3)``.

    Inputs are assumed valid: the derivative and admissibility machinery
    guarantees in-domain points and well-conditioned gradients itself.  The
    result's shape is checked, and a non-finite entry raises
    :class:`NonFiniteError` naming its body point.
    """
    Xs = np.asarray(Xs, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    with _quiet():
        W = model._evaluate(Xs, Fs)
    return _checked_lanes(model, W, (len(Fs), model.dim), "response", Xs)


def _domain_steps(model, X, tol):
    """Per-coordinate central-difference steps kept inside the domain.

    Halves an offending step up to ``FD_SHRINK_TRIES`` times before giving up.
    """
    steps = np.maximum(tol.fd_step_rel * np.abs(X), tol.fd_step_abs)
    for i in range(3):
        h = steps[i]
        for _ in range(FD_SHRINK_TRIES + 1):
            xp = X.copy()
            xm = X.copy()
            xp[i] += h
            xm[i] -= h
            if model.in_domain(xp) and model.in_domain(xm):
                break
            h *= 0.5
        else:
            raise DomainError(
                f"finite-difference step along coordinate {i + 1} exits the domain at X={X.tolist()}"
            )
        steps[i] = h
    return steps


def derivatives_at_samples(model, Xs, Fs, tol=DEFAULT_TOL):
    """Material-frame admissibility blocks of gradient sets at many body points.

    The block of a jet ``(X, F)`` is ``(dim, 12)``: columns 0-2 are
    ``dW/dX``, and column ``3 + 3a + b`` is the derivative of ``W`` along
    ``F -> F (I + t E_ab)``, the infinitesimal material action on the
    gradient.  ``Xs (n,3)`` holds the points and ``Fs (n,k,3,3)`` the
    gradient set ``Fs[i]`` at point ``Xs[i]``; the result is ``(n, k, dim,
    12)``.  The ``n*k`` jets go to the model as lanes in one call (central
    differences of its evaluation when it has no derivative), so each
    point's blocks are bit-identical to a call at that point alone.  A
    non-finite block raises :class:`NonFiniteError` naming its body point.
    """
    Xs = np.asarray(Xs, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    n, k, d = len(Xs), Fs.shape[1], model.dim
    lanes = Xs.repeat(k, axis=0)
    if model._derivatives is None:
        block = _fd_block(model, Xs, Fs, tol)
    else:
        with _quiet():
            block = model._derivatives(lanes, Fs.reshape(n * k, 3, 3))
    block = _checked_lanes(model, block, (n * k, d, 12), "derivative block", lanes)
    return block.reshape(n, k, d, 12)


def _fd_block(model, Xs, Fs, tol):
    """Central differences of ``evaluate`` along the block's 12 directions: ``(n*k, d, 12)``."""
    n, k, d = len(Xs), Fs.shape[1], model.dim
    steps = np.array([_domain_steps(model, x, tol) for x in Xs])  # (n,3)
    block = np.empty((n, k, d, 12))

    # X-part: 6 perturbed points per body point, each paired with every gradient sample
    xpert = np.repeat(Xs[:, None], 6, axis=1)
    for i in range(3):
        xpert[:, 2 * i, i] += steps[:, i]
        xpert[:, 2 * i + 1, i] -= steps[:, i]
    Xr = np.repeat(xpert.reshape(n * 6, 3), k, axis=0)
    Fr = np.repeat(Fs[:, None], 6, axis=1).reshape(n * 6 * k, 3, 3)
    vals = evaluate_at_samples(model, Xr, Fr).reshape(n, 6, k, d)
    for i in range(3):
        block[..., i] = (vals[:, 2 * i] - vals[:, 2 * i + 1]) / (2.0 * steps[:, i, None, None])

    # F-part: F (I +- h E_ab) moves column b of F by +-h times column a;
    # rows ordered (point, sign, sample, direction)
    h = tol.fd_step_rel
    FE = np.zeros((n, k, 3, 3, 3, 3))  # F E_ab at [..., a, b, :, :]
    for b in range(3):
        FE[:, :, :, b, :, b] = Fs.transpose(0, 1, 3, 2)
    FE = FE.reshape(n, k * 9, 3, 3)
    Fr = np.repeat(Fs, 9, axis=1)
    Fboth = np.stack([Fr + h * FE, Fr - h * FE], axis=1)
    Xr = np.repeat(Xs, 2 * k * 9, axis=0)
    out = evaluate_at_samples(model, Xr, Fboth.reshape(n * 2 * k * 9, 3, 3)).reshape(n, 2, k, 9, d)
    block[..., 3:] = (out[:, 0] - out[:, 1]).transpose(0, 1, 3, 2) / (2.0 * h)
    return block.reshape(n * k, d, 12)


def derivatives(model, X, F, tol=DEFAULT_TOL):
    """Material-frame block ``(d, 12)`` at a single jet (see :func:`derivatives_at_samples`).

    ``X`` and ``F`` are validated as in :func:`evaluate`.
    """
    X, F = _checked_jet(model, X, F)
    return derivatives_at_samples(model, X[None], F[None, None], tol)[0, 0]


# ---------------------------------------------------------------------------
# built-in models

_EYE9 = np.eye(3).ravel()
_DIAG = np.arange(3)


def _volume_rates(Fs):
    """``det F tr(dP)``, the rate of ``det F`` along ``F (I + t dP)``: ``(m, 9)`` dP columns."""
    return np.linalg.det(Fs)[:, None] * _EYE9


class _PiecewiseStiffCube:
    """Cube body with a stiffness factor that starts growing at X1 = 0.

    Response: f(X1) * (F^T F - I) with f = 1 for X1 <= 0 and
    f = 1 + exp(-1/X1) beyond; f is flat to all orders at the interface.
    """

    @staticmethod
    def stiffness(x1):
        x1 = np.asarray(x1, dtype=float)
        out = np.ones_like(x1)
        pos = x1 > 0
        with np.errstate(under="ignore"):
            out = np.where(pos, 1.0 + np.exp(-1.0 / np.where(pos, x1, 1.0)), out)
        return out if out.ndim else float(out)

    @staticmethod
    def stiffness_rate(x1):
        x1 = np.asarray(x1, dtype=float)
        # exp(-1/x1) is 0 in double precision up to x1 = 1e-3, and x1**2 is 0
        # below about 1e-162, where the quotient would be 0/0
        pos = x1 > 1e-3
        safe = np.where(pos, x1, 1.0)
        with np.errstate(under="ignore"):
            out = np.where(pos, np.exp(-1.0 / safe) / safe**2, 0.0)
        return out if out.ndim else float(out)

    def domain(self, X):
        return all([abs(v) < 1.0 for v in X.tolist()])  # a NaN anywhere is outside

    def evaluate(self, Xs, Fs):
        f = self.stiffness(Xs[:, 0])
        C = np.einsum("kji,kjl->kil", Fs, Fs)
        return (f[:, None, None] * (C - np.eye(3))).reshape(len(Fs), 9)

    def derivatives(self, Xs, Fs):
        """``f' (C - I)`` along ``X1`` and ``f (dP^T C + C dP)`` along ``F (I + t dP)``."""
        m = len(Fs)
        C = np.einsum("kji,kjl->kil", Fs, Fs)
        fC = self.stiffness(Xs[:, 0])[:, None, None] * C
        out = np.zeros((m, 3, 3, 4, 3))  # response (p, q); then dX, and dP rows a, columns b
        out[..., 0, 0] = self.stiffness_rate(Xs[:, 0])[:, None, None] * (C - np.eye(3))
        out[:, _DIAG, :, 1:, _DIAG] = fC.transpose(0, 2, 1)  # E_ba C: row b is row a of C
        out[:, :, _DIAG, 1:, _DIAG] += fC  # C E_ab: column b is column a of C
        return out.reshape(m, 9, 12)

    def leaf_residual(self, seed, x):
        if seed[0] < 0.0:
            return max(float(x[0]), 0.0)
        return abs(float(x[0]) - float(seed[0]))

    def leaf_sample(self, seed, rng):
        y = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-1.0, 1.0)
        x1 = rng.uniform(-1.0, 0.0) if seed[0] < 0.0 else float(seed[0])
        return np.array([x1, y, z])


class _LaminatedLiquidCrystal:
    """Ball body whose response sees a director field through one gradient.

    The two response components are ``r = g(F e(X), F e(X)) + |X|^2`` and
    ``J = det F``; with the default director ``e(X) = X + radius*e1`` the
    uniform leaves are the spheres around the origin.  A custom director
    field takes lanes of body points, ``(m,3) -> (m,3)``.
    """

    def __init__(self, radius, e_field=None, metric_diag=(1.0, 1.0, 1.0)):
        self.radius = float(radius)
        self.e_field = e_field
        self.gdiag = np.asarray(metric_diag, dtype=float)

    def director(self, Xs):
        Xs = np.asarray(Xs, dtype=float)
        if self.e_field is not None:
            return np.asarray(self.e_field(Xs), dtype=float)
        out = Xs.copy()
        out[..., 0] += self.radius
        return out

    def domain(self, X):
        return bool(np.dot(X, X) < self.radius**2)

    def evaluate(self, Xs, Fs):
        e = self.director(Xs)
        u = np.einsum("kij,kj->ki", Fs, e)
        r = np.einsum("ki,i,ki->k", u, self.gdiag, u) + np.einsum("ki,ki->k", Xs, Xs)
        return np.column_stack([r, np.linalg.det(Fs)])

    def derivatives(self, Xs, Fs):
        """Closed form for the default director (de/dX = I), with ``v = F^T G F e``.

        ``r`` has rate ``2 v + 2 X`` along ``X`` and ``2 v_a e_b`` along
        ``F (I + t E_ab)``; ``J`` has rate ``det F tr(dP)``.
        """
        m = len(Fs)
        e = self.director(Xs)
        v = np.einsum("kji,kj->ki", Fs, self.gdiag * np.einsum("kij,kj->ki", Fs, e))
        out = np.zeros((m, 2, 12))
        out[:, 0, :3] = 2.0 * v + 2.0 * Xs
        out[:, 0, 3:] = (2.0 * v[:, :, None] * e[:, None, :]).reshape(m, 9)
        out[:, 1, 3:] = _volume_rates(Fs)
        return out


class _EmbeddedCrystal:
    """Liquid-crystal kinematics pushed through a user map of (r, J).

    ``response_map(r (m,), J (m,))`` returns one array of shape ``(m,)`` or
    a sequence of them, one per response component.
    """

    def __init__(self, core, response_map):
        self.core = core
        self.response_map = response_map

    def evaluate(self, Xs, Fs):
        r, J = self.core.evaluate(Xs, Fs).T
        return np.atleast_2d(np.asarray(self.response_map(r, J), dtype=float)).T


class _DeterminantResponse:
    """Calibration model W = det F; symmetry algebra is the traceless matrices."""

    def evaluate(self, Xs, Fs):
        return np.linalg.det(Fs)[:, None]

    def derivatives(self, Xs, Fs):
        out = np.zeros((len(Fs), 1, 12))
        out[:, 0, 3:] = _volume_rates(Fs)
        return out


class _IdentityResponse:
    """Calibration model W = F (flattened); the symmetry algebra is trivial."""

    def evaluate(self, Xs, Fs):
        return Fs.reshape(len(Fs), 9).copy()

    def derivatives(self, Xs, Fs):
        """``F dP``: along ``F (I + t E_ab)``, column ``b`` of ``W`` moves by
        column ``a`` of ``F``."""
        out = np.zeros((len(Fs), 3, 3, 4, 3))
        out[:, :, _DIAG, 1:, _DIAG] = Fs
        return out.reshape(len(Fs), 9, 12)


class _BoxLeaf:
    """Whole-body leaf: everything is one stratum."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def residual(self, seed, x):
        return 0.0

    def sample(self, seed, rng):
        return rng.uniform(self.lo, self.hi)


class _SphereLeaf:
    def residual(self, seed, x):
        rs = float(np.linalg.norm(seed))
        if rs < 1e-12:
            return float(np.linalg.norm(x))
        return abs(float(np.linalg.norm(x)) - rs)

    def sample(self, seed, rng):
        rs = float(np.linalg.norm(seed))
        if rs < 1e-12:
            return np.zeros(3)
        d = rng.normal(size=3)
        return rs * d / np.linalg.norm(d)


def _whole_space_leaf(bounds_lo, bounds_hi):
    impl = _BoxLeaf(bounds_lo, bounds_hi)
    return LeafInfo(impl.residual, impl.sample, label="whole body")


def _sphere_leaf():
    impl = _SphereLeaf()
    return LeafInfo(impl.residual, impl.sample, label="spheres about the origin")


def _probe_director(core, radius):
    """Reject director fields that vanish somewhere in the ball."""
    rng = np.random.default_rng(20260808)
    pts = rng.uniform(-radius, radius, size=(4096, 3))
    pts = pts[np.einsum("ki,ki->k", pts, pts) < radius**2]
    pts = np.vstack([pts, np.zeros(3)])
    e = core.director(pts)
    norms = np.linalg.norm(e, axis=1)
    if float(norms.min()) < 1e-12 * max(1.0, float(norms.max())):
        raise ValueError("the director field vanishes inside the ball; a nowhere-zero field is required")


def _make_example1():
    impl = _PiecewiseStiffCube()
    leaf = LeafInfo(impl.leaf_residual, impl.leaf_sample,
                    label="planes X1=c for X1>=0, open half-cube for X1<0")
    return ConstitutiveModel(
        "example1", 9, impl.evaluate,
        domain=impl.domain,
        bounds=((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        derivatives=impl.derivatives,
        leaf=leaf,
        params={},
        aux={"impl": impl},
    )


def _make_example2(r=1.0, e=None, metric=(1.0, 1.0, 1.0), response_map=None):
    r = float(r)
    if not r > 0.0:
        raise ValueError("radius r must be positive")
    metric = tuple(float(g) for g in metric)
    if len(metric) != 3 or any(g <= 0.0 for g in metric):
        raise ValueError("metric must be three positive diagonal entries")
    core = _LaminatedLiquidCrystal(r, e_field=e, metric_diag=metric)
    _probe_director(core, r)
    if response_map is None:
        impl = core
    else:
        impl = _EmbeddedCrystal(core, response_map)
    dim = impl.evaluate(np.zeros((1, 3)), np.eye(3)[None]).shape[1]
    # the closed-form derivatives assume the default director and identity
    # map; custom pieces fall back to central differences
    exact = e is None and response_map is None
    return ConstitutiveModel(
        "example2", dim, impl.evaluate,
        domain=core.domain,
        bounds=((-r, -r, -r), (r, r, r)),
        derivatives=core.derivatives if exact else None,
        leaf=_sphere_leaf(),
        params={"r": r, "metric": list(metric),
                "e": "custom" if e is not None else "default",
                "response_map": "custom" if response_map is not None else "identity"},
        aux={"core": core, "director": core.director},
    )


def _make_det_cal():
    impl = _DeterminantResponse()
    return ConstitutiveModel(
        "det_cal", 1, impl.evaluate,
        derivatives=impl.derivatives,
        leaf=_whole_space_leaf((-1, -1, -1), (1, 1, 1)),
        aux={"impl": impl},
    )


def _make_identity_cal():
    impl = _IdentityResponse()
    return ConstitutiveModel(
        "identity_cal", 9, impl.evaluate,
        derivatives=impl.derivatives,
        leaf=_whole_space_leaf((-1, -1, -1), (1, 1, 1)),
        aux={"impl": impl},
    )


BUILTIN_MODELS = ("example1", "example2", "det_cal", "identity_cal")


def builtin(name, **params):
    """Construct a built-in model by name.

    ``example2`` accepts ``r`` (radius), ``e`` (director field callable),
    ``metric`` (three positive diagonal entries) and ``response_map``
    (callable of the two kinematic scalars).
    """
    if name == "example1":
        if params:
            raise ValueError("example1 takes no parameters")
        return _make_example1()
    if name == "example2":
        return _make_example2(**params)
    if name == "det_cal":
        if params:
            raise ValueError("det_cal takes no parameters")
        return _make_det_cal()
    if name == "identity_cal":
        if params:
            raise ValueError("identity_cal takes no parameters")
        return _make_identity_cal()
    raise ValueError(f"unknown model {name!r}; built-ins are {', '.join(BUILTIN_MODELS)}")


# ---------------------------------------------------------------------------
# DSL-backed models


def parse_model(source, name="mdl", params=None):
    """Build a model from DSL source text.

    ``params`` overrides the defaults declared by ``param`` lines.  DSL
    models sample the unit cube ``[-1, 1]^3`` and accept every finite
    point.  The source compiles once into a :class:`dsl.Program`, which
    serves the lane contract directly: its evaluation, and its exact
    forward-mode derivatives, which are the material-frame block.
    """
    mdef = dsl.parse_source(source)
    declared = {k for k, _ in mdef.params}
    overrides = dict(params or {})
    for key in overrides:
        if key not in declared:
            raise ValueError(f"model source declares no parameter {key!r}")
    program = dsl.compile_model(mdef, overrides)
    effective = {k: overrides.get(k, v) for k, v in mdef.params}
    return ConstitutiveModel(
        name, mdef.dim, program.evaluate,
        derivatives=lambda Xs, Fs: program.derivatives(Xs, Fs)[1],
        params={"source_params": effective},
        aux={"model_def": mdef},
    )


def load_model_file(path, params=None):
    """Parse a ``.mdl`` file into a model named after the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_model(text, name=stem, params=params)
