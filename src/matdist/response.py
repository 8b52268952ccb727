"""Constitutive-model contract, built-in models and DSL loading.

A model maps a body point ``X`` and an invertible 3x3 gradient ``F`` to a
flat response vector in ``R^d`` (matrix-valued responses are flattened
row-major).  There is deliberately no target-point argument anywhere in the
contract: the response of a simple body depends on the jet's source point
and gradient only.
"""

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
    """Evaluation contract of a simple-body response.

    Parameters
    ----------
    name:
        Identifier echoed in outputs.
    dim:
        Length of the flattened response vector.
    evaluate_one:
        Callable ``(X, F) -> (dim,)`` with ``X`` a length-3 array and ``F``
        a 3x3 array.  No domain or invertibility checks are expected here;
        the module-level :func:`evaluate` performs them.
    domain:
        Predicate over body points; ``None`` accepts every finite point.
    bounds:
        Axis-aligned box containing the domain, used for sampling.
    evaluate_many:
        Optional vectorized form ``(Xs (n,3), Fs (n,3,3)) -> (n, dim)``.
    derivatives_many:
        Optional exact derivative ``(X, Fs (k,3,3)) -> ((k,dim,3), (k,dim,9))``
        holding dW/dX and dW/dF with F flattened row-major: closed forms for
        the built-ins, forward-mode derivatives of the compiled tree for
        parsed models.  It takes one body point per call; batches over
        points loop over it.
    leaf:
        Optional :class:`LeafInfo` when the uniform leaves are known in
        closed form.
    params:
        JSON-serializable metadata echoed into outputs.
    aux:
        Non-serialized extras (e.g. the director field of a liquid-crystal
        model) used by diagnostics.
    complex_step:
        Declare the evaluation complex-analytic in (X, F).  Models without
        analytic derivatives then get near-machine-precision derivatives
        from an imaginary perturbation instead of real central differences,
        whose subtractive cancellation at the default steps is loud enough
        to blur rank decisions near grade boundaries.  Never set this for
        evaluations with branches, abs() or other non-analytic pieces.
    """

    def __init__(self, name, dim, evaluate_one, domain=None, bounds=None,
                 evaluate_many=None, derivatives_many=None, leaf=None,
                 params=None, aux=None, complex_step=False):
        self.name = name
        self.dim = int(dim)
        self._evaluate_one = evaluate_one
        self._evaluate_many = evaluate_many
        self._derivatives_many = derivatives_many
        self.complex_step = bool(complex_step)
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
        if X.shape != (3,) or not np.all(np.isfinite(X)):
            return False
        return True if self.domain is None else bool(self.domain(X))

    @property
    def has_analytic_derivatives(self):
        return self._derivatives_many is not None


def evaluate(model, X, F):
    """Response value at ``(X, F)`` with full input validation."""
    X = np.asarray(X, dtype=float)
    F = np.asarray(F, dtype=float)
    if F.shape != (3, 3) or not np.all(np.isfinite(F)):
        raise ValueError("F must be a finite 3x3 matrix")
    if not model.in_domain(X):
        raise DomainError(f"point {X.tolist()} is outside the domain of model {model.name!r}")
    if abs(float(np.linalg.det(F))) < _DET_MIN:
        raise SingularMatrixError(f"F is numerically singular (|det| < {_DET_MIN})")
    W = np.asarray(model._evaluate_one(X, F), dtype=float).ravel()
    if W.shape != (model.dim,):
        raise ValueError(f"model {model.name!r} returned shape {W.shape}, expected ({model.dim},)")
    if not np.all(np.isfinite(W)):
        raise NonFiniteError(f"model {model.name!r} returned a non-finite response at X={X.tolist()}")
    return W


def evaluate_at_samples(model, Xs, Fs):
    """Vectorized evaluation at paired samples; inputs are assumed valid.

    Used by the derivative and admissibility machinery, which guarantees
    in-domain points and well-conditioned gradients itself.  Complex inputs
    are passed through unchanged (imaginary-perturbation derivatives).
    """
    Xs = np.asarray(Xs)
    Fs = np.asarray(Fs)
    is_complex = np.iscomplexobj(Xs) or np.iscomplexobj(Fs)
    dtype = complex if is_complex else float
    Xs = Xs.astype(dtype, copy=False)
    Fs = Fs.astype(dtype, copy=False)
    if model._evaluate_many is not None:
        out = np.asarray(model._evaluate_many(Xs, Fs), dtype=dtype)
    else:
        out = np.empty((len(Fs), model.dim), dtype=dtype)
        for i in range(len(Fs)):
            out[i] = np.asarray(model._evaluate_one(Xs[i], Fs[i]), dtype=dtype).ravel()
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise NonFiniteError(
            f"model {model.name!r} returned non-finite component {int(bad[1])} at sample {int(bad[0])}"
        )
    return out


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


def derivatives_at_samples(model, X, Fs, tol=DEFAULT_TOL):
    """dW/dX and dW/dF for batches of gradients at one or many body points.

    With ``X`` of shape ``(3,)`` and ``Fs`` of shape ``(k,3,3)`` the result
    is ``(dWdX, dWdF)`` of shapes ``(k, dim, 3)`` and ``(k, dim, 9)``.  With
    ``X`` of shape ``(n,3)`` and ``Fs`` of shape ``(n,k,3,3)`` (gradient set
    ``Fs[i]`` at point ``X[i]``) both gain a leading point axis.  The
    model's analytic contract takes one point per call, so it is called
    point by point; complex-step and central differences evaluate every
    point in one batch.  Either way each point's blocks are bit-identical to
    a call at that point alone.
    """
    X = np.asarray(X, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None]
        Fs = Fs.reshape((1, -1, 3, 3))
    if model._derivatives_many is not None:
        parts = [model._derivatives_many(x, f) for x, f in zip(X, Fs)]
        dWdX = np.stack([np.asarray(p[0], dtype=float) for p in parts])
        dWdF = np.stack([np.asarray(p[1], dtype=float) for p in parts])
    elif model.complex_step:
        dWdX, dWdF = _complex_step_derivatives(model, X, Fs, tol)
    else:
        dWdX, dWdF = _fd_derivatives(model, X, Fs, tol)
    return (dWdX[0], dWdF[0]) if single else (dWdX, dWdF)


def _complex_step_derivatives(model, Xs, Fs, tol):
    """Derivatives from an imaginary perturbation of each coordinate.

    The real part of every evaluation point never moves, so no domain
    shrinking is needed, and there is no subtractive cancellation: the
    accuracy is machine precision relative to the derivative itself.
    """
    n, k, d = len(Xs), Fs.shape[1], model.dim
    steps = np.maximum(tol.fd_step_rel * np.abs(Xs), tol.fd_step_abs)  # (n,3)

    # X-part: rows ordered (point, coordinate, gradient sample)
    Xc = np.repeat(Xs[:, None].astype(complex), 3, axis=1)
    for i in range(3):
        Xc[:, i, i] += 1j * steps[:, i]
    Xr = np.repeat(Xc.reshape(n * 3, 3), k, axis=0)
    Fr = np.repeat(Fs[:, None].astype(complex), 3, axis=1).reshape(n * 3 * k, 3, 3)
    vals = evaluate_at_samples(model, Xr, Fr).reshape(n, 3, k, d)
    dWdX = (vals.imag / steps[:, :, None, None]).transpose(0, 2, 3, 1)

    HF = np.maximum(tol.fd_step_rel * np.abs(Fs), tol.fd_step_abs)  # (n,k,3,3)
    Fp = np.repeat(Fs[:, :, None].astype(complex), 9, axis=2).reshape(n, k, 3, 3, 3, 3)
    for l in range(3):
        for m in range(3):
            Fp[:, :, l, m, l, m] += 1j * HF[:, :, l, m]
    Xr = np.repeat(Xs.astype(complex), k * 9, axis=0)
    out = evaluate_at_samples(model, Xr, Fp.reshape(n * k * 9, 3, 3))
    dWdF = out.reshape(n, k, 9, d).imag.transpose(0, 1, 3, 2) / HF.reshape(n, k, 1, 9)
    return dWdX, dWdF


def _fd_derivatives(model, Xs, Fs, tol):
    n, k, d = len(Xs), Fs.shape[1], model.dim
    steps = np.array([_domain_steps(model, x, tol) for x in Xs])  # (n,3)

    # X-part: 6 perturbed points per body point, each paired with every gradient sample
    xpert = np.repeat(Xs[:, None], 6, axis=1)
    for i in range(3):
        xpert[:, 2 * i, i] += steps[:, i]
        xpert[:, 2 * i + 1, i] -= steps[:, i]
    Xr = np.repeat(xpert.reshape(n * 6, 3), k, axis=0)
    Fr = np.repeat(Fs[:, None], 6, axis=1).reshape(n * 6 * k, 3, 3)
    vals = evaluate_at_samples(model, Xr, Fr).reshape(n, 6, k, d)
    dWdX = np.empty((n, k, d, 3))
    for i in range(3):
        dWdX[..., i] = (vals[:, 2 * i] - vals[:, 2 * i + 1]) / (2.0 * steps[:, i, None, None])

    # F-part: per-sample, per-entry steps; rows ordered (point, sign, sample, entry)
    HF = np.maximum(tol.fd_step_rel * np.abs(Fs), tol.fd_step_abs)  # (n,k,3,3)
    Fp = np.repeat(Fs[:, :, None], 9, axis=2).reshape(n, k, 3, 3, 3, 3)
    Fm = Fp.copy()
    for l in range(3):
        for m in range(3):
            Fp[:, :, l, m, l, m] += HF[:, :, l, m]
            Fm[:, :, l, m, l, m] -= HF[:, :, l, m]
    Fboth = np.stack([Fp.reshape(n, k * 9, 3, 3), Fm.reshape(n, k * 9, 3, 3)], axis=1)
    Xr = np.repeat(Xs, 2 * k * 9, axis=0)
    out = evaluate_at_samples(model, Xr, Fboth.reshape(n * 2 * k * 9, 3, 3)).reshape(n, 2, k, 9, d)
    dWdF = (out[:, 0] - out[:, 1]).transpose(0, 1, 3, 2) / (2.0 * HF.reshape(n, k, 1, 9))
    return dWdX, dWdF


def derivatives(model, X, F, tol=DEFAULT_TOL):
    """Derivative blocks ``(dW/dX (d,3), dW/dF (d,9))`` at a single jet."""
    X = np.asarray(X, dtype=float)
    if not model.in_domain(X):
        raise DomainError(f"point {X.tolist()} is outside the domain of model {model.name!r}")
    dWdX, dWdF = derivatives_at_samples(model, X, np.asarray(F, dtype=float)[None], tol)
    return dWdX[0], dWdF[0]


# ---------------------------------------------------------------------------
# built-in models

_EYE9 = np.eye(3).ravel()


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
        pos = x1 > 0
        safe = np.where(pos, x1, 1.0)
        with np.errstate(under="ignore"):
            out = np.where(pos, np.exp(-1.0 / safe) / safe**2, 0.0)
        return out if out.ndim else float(out)

    def domain(self, X):
        return bool(np.all(np.abs(X) < 1.0))

    def eval_one(self, X, F):
        f = self.stiffness(X[0])
        return (f * (F.T @ F - np.eye(3))).ravel()

    def eval_many(self, Xs, Fs):
        f = self.stiffness(Xs[:, 0])
        C = np.einsum("kji,kjl->kil", Fs, Fs)
        return (f[:, None, None] * (C - np.eye(3))).reshape(len(Fs), 9)

    def deriv_many(self, X, Fs):
        k = len(Fs)
        f = float(self.stiffness(X[0]))
        fp = float(self.stiffness_rate(X[0]))
        C = np.einsum("kji,kjl->kil", Fs, Fs)
        dWdX = np.zeros((k, 9, 3))
        dWdX[:, :, 0] = fp * (C - np.eye(3)).reshape(k, 9)
        eye = np.eye(3)
        t1 = np.einsum("jm,kli->kjilm", eye, Fs)
        t2 = np.einsum("im,klj->kjilm", eye, Fs)
        dWdF = f * (t1 + t2).reshape(k, 9, 9)
        return dWdX, dWdF

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

    The two response components are ``g(F e(X), F e(X)) + |X|^2`` and
    ``det F``; with the default director ``e(X) = X + radius*e1`` the
    uniform leaves are the spheres around the origin.
    """

    def __init__(self, radius, e_field=None, metric_diag=(1.0, 1.0, 1.0)):
        self.radius = float(radius)
        self.e_field = e_field
        self.gdiag = np.asarray(metric_diag, dtype=float)

    def director(self, Xs):
        Xs = np.asarray(Xs)  # dtype-preserving: imaginary steps pass through
        if self.e_field is not None:
            if Xs.ndim == 1:
                return np.asarray(self.e_field(Xs), dtype=float)
            return np.asarray([self.e_field(x) for x in Xs], dtype=float)
        out = Xs.copy()
        out[..., 0] += self.radius
        return out

    def domain(self, X):
        return bool(np.dot(X, X) < self.radius**2)

    def eval_one(self, X, F):
        u = F @ self.director(X)
        r = float(u @ (self.gdiag * u)) + float(X @ X)
        return np.array([r, float(np.linalg.det(F))])

    def eval_many(self, Xs, Fs):
        e = self.director(Xs)
        u = np.einsum("kij,kj->ki", Fs, e)
        r = np.einsum("ki,i,ki->k", u, self.gdiag, u) + np.einsum("ki,ki->k", Xs, Xs)
        return np.column_stack([r, np.linalg.det(Fs)])


class _EmbeddedCrystal:
    """Liquid-crystal kinematics pushed through a user map of (r, J)."""

    def __init__(self, core, response_map, dim):
        self.core = core
        self.response_map = response_map
        self.dim = dim

    def eval_one(self, X, F):
        r, J = self.core.eval_one(X, F)
        return np.atleast_1d(np.asarray(self.response_map(r, J), dtype=float)).ravel()

    def eval_many(self, Xs, Fs):
        rj = self.core.eval_many(Xs, Fs)
        return np.asarray([self.eval_one_from(rj[i]) for i in range(len(rj))])

    def eval_one_from(self, rj):
        return np.atleast_1d(np.asarray(self.response_map(rj[0], rj[1]), dtype=float)).ravel()


class _DeterminantResponse:
    """Calibration model W = det F; symmetry algebra is the traceless matrices."""

    def eval_one(self, X, F):
        return np.array([np.linalg.det(F)])

    def eval_many(self, Xs, Fs):
        return np.linalg.det(Fs)[:, None]

    def deriv_many(self, X, Fs):
        k = len(Fs)
        dWdX = np.zeros((k, 1, 3))
        cof = np.linalg.det(Fs)[:, None, None] * np.linalg.inv(Fs).transpose(0, 2, 1)
        return dWdX, cof.reshape(k, 1, 9)


class _IdentityResponse:
    """Calibration model W = F (flattened); the symmetry algebra is trivial."""

    def eval_one(self, X, F):
        return F.ravel().copy()

    def eval_many(self, Xs, Fs):
        return Fs.reshape(len(Fs), 9).copy()

    def deriv_many(self, X, Fs):
        k = len(Fs)
        return np.zeros((k, 9, 3)), np.broadcast_to(np.eye(9), (k, 9, 9)).copy()


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
        "example1", 9, impl.eval_one,
        domain=impl.domain,
        bounds=((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        evaluate_many=impl.eval_many,
        derivatives_many=impl.deriv_many,
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
        dim = 2
    else:
        probe = np.atleast_1d(np.asarray(response_map(1.0, 1.0), dtype=float)).ravel()
        impl = _EmbeddedCrystal(core, response_map, len(probe))
        dim = len(probe)
    return ConstitutiveModel(
        "example2", dim, impl.eval_one,
        domain=core.domain,
        bounds=((-r, -r, -r), (r, r, r)),
        evaluate_many=impl.eval_many,
        leaf=_sphere_leaf(),
        params={"r": r, "metric": list(metric),
                "e": "custom" if e is not None else "default",
                "response_map": "custom" if response_map is not None else "identity"},
        aux={"core": core, "director": core.director},
        # the default evaluation is polynomial in (X, F); custom pieces are
        # of unknown analyticity, so they fall back to real differences
        complex_step=(e is None and response_map is None),
    )


def _make_det_cal():
    impl = _DeterminantResponse()
    return ConstitutiveModel(
        "det_cal", 1, impl.eval_one,
        evaluate_many=impl.eval_many,
        derivatives_many=impl.deriv_many,
        leaf=_whole_space_leaf((-1, -1, -1), (1, 1, 1)),
        aux={"impl": impl},
    )


def _make_identity_cal():
    impl = _IdentityResponse()
    return ConstitutiveModel(
        "identity_cal", 9, impl.eval_one,
        evaluate_many=impl.eval_many,
        derivatives_many=impl.deriv_many,
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


class _ParsedResponse:
    """A parsed model compiled once: batched evaluation, forward-mode derivatives."""

    def __init__(self, name, program):
        self.name = name
        self.program = program

    def eval_one(self, X, F):
        return self.program.evaluate(np.asarray(X)[None], np.asarray(F)[None])[0]

    def deriv_many(self, X, Fs):
        W, D = self.program.derivatives(np.broadcast_to(X, (len(Fs), 3)), Fs)
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(D))):
            raise NonFiniteError(
                f"model {self.name!r} has a non-finite response or derivative at X={np.asarray(X).tolist()}"
            )
        return D[..., :3], D[..., 3:]


def parse_model(source, name="mdl", params=None, bounds=None, domain=None):
    """Build a model from DSL source text.

    ``params`` overrides the defaults declared by ``param`` lines.  DSL
    models default to the open unit cube as bounds with an all-accepting
    domain; pass ``domain``/``bounds`` to restrict them.  The source
    compiles once; the model evaluates batches of samples per call and has
    exact forward-mode derivatives.
    """
    mdef = dsl.parse_source(source)
    declared = {k for k, _ in mdef.params}
    overrides = dict(params or {})
    for key in overrides:
        if key not in declared:
            raise ValueError(f"model source declares no parameter {key!r}")
    impl = _ParsedResponse(name, dsl.compile_model(mdef, overrides))
    effective = {k: overrides.get(k, v) for k, v in mdef.params}
    return ConstitutiveModel(
        name, mdef.dim, impl.eval_one,
        domain=domain,
        bounds=bounds,
        evaluate_many=impl.program.evaluate,
        derivatives_many=impl.deriv_many,
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
