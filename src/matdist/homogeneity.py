"""Chart homogeneity tests: translation jets within leaves and the
flat-derivative criterion along leafwise coordinates.

A chart declares its leafwise coordinates as the FIRST ``leafwise_count``
components of its image; the translation jet between two points of one
leaf is then ``D(Z)^-1 D(Y)``, and a chart certifies homogeneous when those
jets are material isomorphisms for sampled same-leaf pairs, the leafwise
chart directions are tangent to the base distribution, and the response is
flat along leafwise coordinates at fixed chart-side gradients.

Only supplied charts are certified or falsified; nonexistence of any
homogeneous chart is not decided here (quantification over all charts is
not finitely checkable).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dsl
from .distribution import DEFAULT_SAMPLER, fibres_at, is_material_isomorphism
from .distribution import base_basis_at  # noqa: F401  (a module name the benchmark tracer wraps)
from .errors import DomainError, MatdistError, SingularMatrixError
from .foliation import leaf_trace  # noqa: F401  (a module name the benchmark tracer wraps)
from .foliation import trace_leaves
from .numkit import DEFAULT_TOL, FD_SHRINK_TRIES, jacobian_fd
from .response import evaluate

__all__ = [
    "Chart",
    "SubTest",
    "HomogeneityReport",
    "builtin_chart",
    "chart_from_expressions",
    "BUILTIN_CHARTS",
    "translation_jet",
    "leaf_pairs",
    "homogeneity_check",
    "eq25_residual",
    "ANGLE_TOL",
    "LEAF_ORACLES",
]

ANGLE_TOL = 1e-5
_ROUNDTRIP_TOL = 1e-10
_JAC_DET_MIN = 1e-8
LEAF_ORACLES = ("analytic", "trace")


def _regular(jacobian):
    """Whether ``jacobian`` is finite with ``|det| >= _JAC_DET_MIN``: NaN fails."""
    return bool(np.isfinite(jacobian).all()) and abs(float(np.linalg.det(jacobian))) >= _JAC_DET_MIN


@dataclass
class Chart:
    """Local configuration with a declared count of leafwise coordinates."""

    name: str
    forward: object  # X -> (3,)
    inverse: object  # chart point -> X
    leafwise_count: int
    jacobian: object = None  # X -> (3,3); finite differences when None
    region: object = None  # predicate over X; None accepts everything
    params: dict = field(default_factory=dict)

    def jac(self, X, tol=DEFAULT_TOL):
        X = np.asarray(X, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(X), dtype=float)
        return jacobian_fd(lambda p: np.asarray(self.forward(p), dtype=float), X, tol)

    def in_region(self, X):
        return True if self.region is None else bool(self.region(np.asarray(X, dtype=float)))

    def restrict(self, predicate):
        """New chart whose region is additionally cut by ``predicate``."""
        old = self.region

        def combined(X):
            return (old is None or old(X)) and bool(predicate(X))

        return Chart(self.name, self.forward, self.inverse, self.leafwise_count,
                     jacobian=self.jacobian, region=combined,
                     params={**self.params, "restricted": True})

    def with_leafwise(self, count):
        return Chart(self.name, self.forward, self.inverse, int(count),
                     jacobian=self.jacobian, region=self.region, params=dict(self.params))


# ---------------------------------------------------------------------------
# built-in charts


class _AffineChart:
    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if not _regular(self.A):
            raise SingularMatrixError("affine chart matrix is singular")
        self.Ainv = np.linalg.inv(self.A)

    def forward(self, X):
        return self.A @ np.asarray(X, dtype=float) + self.b

    def inverse(self, y):
        return self.Ainv @ (np.asarray(y, dtype=float) - self.b)

    def jacobian(self, X):
        return self.A


class _SphericalChart:
    """(polar angle, azimuth, radius); leafwise coordinates are the angles.

    The default region is a cap about the +X1 axis with the poles of the
    angular coordinates on the X3 axis, so the chart is regular there.
    """

    def __init__(self, rho_min, rho_max, cap_cos):
        self.rho_min = float(rho_min)
        self.rho_max = float(rho_max)
        self.cap_cos = float(cap_cos)

    def forward(self, X):
        x, y, z = (float(v) for v in X)
        rho = float(np.sqrt(x * x + y * y + z * z))
        theta = float(np.arccos(np.clip(z / rho, -1.0, 1.0)))
        phi = float(np.arctan2(y, x))
        return np.array([theta, phi, rho])

    def inverse(self, q):
        theta, phi, rho = (float(v) for v in q)
        s = np.sin(theta)
        return np.array([rho * s * np.cos(phi), rho * s * np.sin(phi), rho * np.cos(theta)])

    def jacobian(self, X):
        x, y, z = (float(v) for v in X)
        rho2 = x * x + y * y + z * z
        rho = np.sqrt(rho2)
        s2 = x * x + y * y
        s = np.sqrt(s2)
        return np.array([
            [x * z / (rho2 * s), y * z / (rho2 * s), -s / rho2],
            [-y / s2, x / s2, 0.0],
            [x / rho, y / rho, z / rho],
        ])

    def region(self, X):
        rho = float(np.linalg.norm(X))
        if not (self.rho_min <= rho <= self.rho_max):
            return False
        return float(X[0]) / rho >= self.cap_cos


BUILTIN_CHARTS = ("identity", "affine", "spherical_cap")


def builtin_chart(name, **params):
    """Construct a built-in chart.

    ``identity`` relabels the body axes (the affine map of a permutation
    matrix, without shift); its default order (2, 3, 1) puts
    the transverse direction of a plane-laminated body last, matching the
    leafwise-first convention.  ``affine`` takes ``A`` and ``b``.
    ``spherical_cap`` takes ``rho_min``, ``rho_max`` and ``cap_cos``.
    """
    if name == "identity":
        order = tuple(params.pop("order", (2, 3, 1)))
        if sorted(order) != [1, 2, 3]:
            raise ValueError("order must be a permutation of 1,2,3")
        if params:
            raise ValueError(f"unknown identity-chart parameters {sorted(params)}")
        impl = _AffineChart(np.eye(3)[[int(o) - 1 for o in order]], 0.0)
        return Chart("identity", impl.forward, impl.inverse, leafwise_count=2,
                     jacobian=impl.jacobian, params={"order": list(order)})
    if name == "affine":
        impl = _AffineChart(params.pop("A", np.eye(3)), params.pop("b", np.zeros(3)))
        if params:
            raise ValueError(f"unknown affine-chart parameters {sorted(params)}")
        return Chart("affine", impl.forward, impl.inverse, leafwise_count=2,
                     jacobian=impl.jacobian,
                     params={"A": impl.A.tolist(), "b": impl.b.tolist()})
    if name == "spherical_cap":
        impl = _SphericalChart(params.pop("rho_min", 0.15), params.pop("rho_max", 0.85),
                               params.pop("cap_cos", 0.8))
        if params:
            raise ValueError(f"unknown spherical-cap parameters {sorted(params)}")
        return Chart("spherical_cap", impl.forward, impl.inverse, leafwise_count=2,
                     jacobian=impl.jacobian, region=impl.region,
                     params={"rho_min": impl.rho_min, "rho_max": impl.rho_max,
                             "cap_cos": impl.cap_cos})
    raise ValueError(f"unknown chart {name!r}; built-ins are {', '.join(BUILTIN_CHARTS)}")


def _point_values(program, shape=(-1,)):
    def values(X):
        return program.evaluate(np.asarray(X, dtype=float)[None])[0].reshape(shape)
    return values


def _point_jacobian(program):
    def jacobian(X):
        return program.derivatives(np.asarray(X, dtype=float)[None])[1][0]
    return jacobian


def _parse_scalar_exprs(texts):
    out = []
    for text in texts:
        node = dsl.parse_expression(text)
        if node.kind != dsl.SCALAR:
            raise ValueError(f"chart component {text!r} is not scalar")
        out.append(node)
    return out


def chart_from_expressions(forward_exprs, inverse_exprs, leafwise_count, name="expr",
                           jacobian_exprs=None):
    """Chart whose forward and inverse components are DSL scalar expressions.

    The inverse is validated against the forward map by the homogeneity
    check, never derived.  ``jacobian_exprs`` (a 3x3 nest of expressions,
    row i = derivative of forward component i) is optional; without it the
    Jacobian is the exact forward-mode derivative of the compiled forward
    expressions.  The expressions read ``F`` as the identity.  The chart has
    no region; :meth:`Chart.restrict` cuts one.
    """
    fwd = dsl.Program(_parse_scalar_exprs(forward_exprs))
    inv = dsl.Program(_parse_scalar_exprs(inverse_exprs))
    if jacobian_exprs is None:
        jac = _point_jacobian(fwd)
    else:
        rows = [_parse_scalar_exprs(row) for row in jacobian_exprs]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("jacobian_exprs must be a 3x3 nest of expressions")
        jac = _point_values(dsl.Program([node for row in rows for node in row]), (3, 3))
    return Chart(name, _point_values(fwd), _point_values(inv), int(leafwise_count),
                 jacobian=jac,
                 params={"forward": list(forward_exprs), "inverse": list(inverse_exprs),
                         "jacobian": [list(r) for r in jacobian_exprs] if jacobian_exprs else None})


# ---------------------------------------------------------------------------
# operations


def translation_jet(chart, Y, Z, tol=DEFAULT_TOL):
    """Derivative at Y of (chart inverse) o (translation) o chart: D(Z)^-1 D(Y)."""
    DY = chart.jac(Y, tol)
    DZ = chart.jac(Z, tol)
    if not _regular(DZ) or not _regular(DY):
        raise SingularMatrixError("chart Jacobian is numerically singular")
    return np.linalg.solve(DZ, DY)


_REGION_TRIES = 200000  # candidates sample_region draws before it gives up


def sample_region(model, chart, rng, count):
    """Uniform rejection samples from the chart region inside the model domain."""
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    lo, hi = model.bounds
    out = []
    for _ in range(_REGION_TRIES):
        X = rng.uniform(lo, hi)
        if model.in_domain(X) and chart.in_region(X):
            out.append(X)
            if len(out) == count:
                return np.asarray(out)
    raise ValueError("could not sample the chart region inside the model domain")


_PAIR_STEP = 0.01  # step size of trace-oracle leaves


def leaf_pairs(model, chart, n_pairs, leaf_oracle=None, sampler=DEFAULT_SAMPLER,
               tol=DEFAULT_TOL):
    """Same-leaf point pairs (Y, Z) inside the chart region.

    ``leaf_oracle`` is ``"analytic"`` (the model's leaf predicate) or
    ``"trace"`` (numerically traced leaves); when None, analytic is used
    whenever the model registers a leaf predicate.  Returns
    ``(pairs, skipped)`` where skipped counts failed generation attempts;
    at most ``40 * n_pairs + 100`` candidates are drawn.

    The trace oracle draws candidates (a region point, a random direction
    and a step count) in rounds of as many as are still needed, traces each
    round in lockstep (:func:`~matdist.foliation.trace_leaves`) and judges
    the candidates in draw order.  One candidate at a time, every candidate
    of a round would have been drawn and traced too, so the pairs, the
    skipped count and any error do not depend on the batching.  A candidate
    whose trace fails with a ``ValueError`` (a point of grade 0, a domain
    step or a non-finite response, say) is skipped; any other failure, a
    :class:`FibreInstabilityError` say, propagates from the first such
    candidate in draw order.
    """
    _check_oracle(leaf_oracle)
    if leaf_oracle is None:
        leaf_oracle = "analytic" if model.leaf is not None else "trace"
    if leaf_oracle == "analytic" and model.leaf is None:
        raise ValueError(f"model {model.name!r} registers no leaf predicate")
    rng = np.random.default_rng(np.random.SeedSequence([int(sampler.seed), 0x1EAF]))
    budget = 40 * n_pairs + 100
    if leaf_oracle == "analytic":
        return _analytic_pairs(model, chart, n_pairs, rng, budget)
    return _traced_pairs(model, chart, n_pairs, rng, budget, sampler, tol)


def _analytic_pairs(model, chart, n_pairs, rng, budget):
    pairs = []
    skipped = 0
    while len(pairs) < n_pairs and budget > 0:
        budget -= 1
        Y = sample_region(model, chart, rng, 1)[0]
        for _ in range(64):
            Z = np.asarray(model.leaf.sample(Y, rng), dtype=float)
            if model.in_domain(Z) and chart.in_region(Z):
                pairs.append((Y, Z))
                break
        else:
            skipped += 1
    return pairs, skipped


def _traced_pairs(model, chart, n_pairs, rng, budget, sampler, tol):
    pairs = []
    skipped = 0
    while len(pairs) < n_pairs and budget > 0:
        drawn = []
        draw_error = None
        try:
            for _ in range(min(n_pairs - len(pairs), budget)):
                Y = sample_region(model, chart, rng, 1)[0]
                drawn.append((Y, rng.normal(size=3), int(rng.integers(5, 25))))
        except Exception as exc:  # noqa: BLE001  re-raised below
            # the candidates drawn before the failed draw are judged first,
            # as they would have been one at a time
            draw_error = exc
        budget -= len(drawn)
        seeds, directions, steps = zip(*drawn) if drawn else ((), (), ())
        traces = trace_leaves(model, seeds, directions, steps, _PAIR_STEP, sampler, tol)
        for Y, trace in zip(seeds, traces):
            if isinstance(trace, ValueError):
                skipped += 1
                continue
            if isinstance(trace, Exception):
                raise trace
            Z = trace.points[-1]
            if len(trace.points) > 1 and chart.in_region(Z):
                pairs.append((Y, Z))
            else:
                skipped += 1
        if draw_error is not None:
            raise draw_error
    return pairs, skipped


def eq25_residual(model, chart, X, anchor, L, tol=DEFAULT_TOL):
    """Max-norm of the response derivative along chart coordinate ``L``.

    Central difference of ``x -> W(inverse(x), anchor @ D(inverse(x)))`` in
    the chart coordinate ``L`` (0-based); the step is halved up to
    ``FD_SHRINK_TRIES`` times when it exits the region or domain.
    """
    X = np.asarray(X, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    xt = np.asarray(chart.forward(X), dtype=float)

    def value(q):
        Xb = np.asarray(chart.inverse(q), dtype=float)
        if not (model.in_domain(Xb) and chart.in_region(Xb)):
            raise DomainError("chart step left the region")
        D = chart.jac(Xb, tol)
        return evaluate(model, Xb, anchor @ D)

    h = max(tol.fd_step_rel * abs(float(xt[L])), tol.fd_step_abs)
    for _ in range(FD_SHRINK_TRIES + 1):
        qp = xt.copy()
        qm = xt.copy()
        qp[L] += h
        qm[L] -= h
        try:
            wp = value(qp)
            wm = value(qm)
        except DomainError:
            h *= 0.5
            continue
        return float(np.max(np.abs((wp - wm) / (2.0 * h))))
    raise DomainError(
        f"chart-coordinate step along {L} exits the region at {X.tolist()} after shrinking"
    )


@dataclass
class SubTest:
    """One homogeneity sub-verdict with its worst witness."""

    passed: bool
    worst: float
    witness: dict
    n: int
    note: str = ""

    def to_json_dict(self):
        return {"pass": bool(self.passed), "worst": float(self.worst),
                "witness": self.witness, "n": int(self.n), "note": self.note}


@dataclass
class HomogeneityReport:
    foliated: SubTest
    translation: SubTest
    eq25: SubTest
    leafwise_count: int
    min_grade: int
    aborted: str
    diagnostics: dict
    params: dict

    @property
    def passed(self):
        return (not self.aborted) and self.foliated.passed and self.translation.passed \
            and self.eq25.passed

    def to_json_dict(self):
        params = dict(self.params)
        params["leafwise_count"] = int(self.leafwise_count)
        params["min_grade"] = int(self.min_grade)
        params["aborted"] = self.aborted
        params["diagnostics"] = self.diagnostics
        return {
            "foliated": self.foliated.to_json_dict(),
            "translation": self.translation.to_json_dict(),
            "eq25": self.eq25.to_json_dict(),
            "params": params,
        }


def _validate_chart(chart, samples, tol):
    # each test is written so that a NaN fails it
    for X in samples:
        forward = np.asarray(chart.forward(X), dtype=float)
        back = np.asarray(chart.inverse(forward), dtype=float)
        err = float(np.max(np.abs(back - X)))
        if not err <= _ROUNDTRIP_TOL:
            raise ValueError(
                f"chart {chart.name!r} inverse fails round-trip at {X.tolist()} (error {err:.3e})"
            )
        if not _regular(chart.jac(X, tol)):
            raise SingularMatrixError(f"chart {chart.name!r} Jacobian is singular at {X.tolist()}")


_SECOND_DIFFERENCE_STEP = 1e-4


def _second_difference_residual(chart, samples):
    """Max second difference of the forward components over body coordinates."""
    step = _SECOND_DIFFERENCE_STEP
    worst = 0.0
    for X in samples:
        for k in range(3):
            for m in range(3):
                hk = np.zeros(3)
                hm = np.zeros(3)
                hk[k] = step
                hm[m] = step
                f = chart.forward
                if k == m:
                    d2 = (np.asarray(f(X + hk)) - 2.0 * np.asarray(f(X)) + np.asarray(f(X - hk))) / step**2
                else:
                    d2 = (
                        np.asarray(f(X + hk + hm)) - np.asarray(f(X + hk - hm))
                        - np.asarray(f(X - hk + hm)) + np.asarray(f(X - hk - hm))
                    ) / (4.0 * step**2)
                worst = max(worst, float(np.max(np.abs(d2))))
    return worst


def _director_flatness(model, chart, samples, leafwise_count, tol):
    """Derivative of chart-frame director components along leafwise coordinates.

    Returns ``(worst, skipped)``, or None without a director; a probe whose
    chart step fails numerically (domain, singular or non-finite values) is
    skipped and counted.
    """
    director = model.aux.get("director")
    if director is None or leafwise_count == 0:
        return None
    worst = 0.0
    skipped = 0
    for X in samples:
        xt = np.asarray(chart.forward(X), dtype=float)
        for L in range(leafwise_count):
            h = max(tol.fd_step_rel * abs(float(xt[L])), 1e-6)

            def comp(q):
                Xb = np.asarray(chart.inverse(q), dtype=float)
                return chart.jac(Xb, tol) @ director(Xb[None])[0]

            qp = xt.copy()
            qm = xt.copy()
            qp[L] += h
            qm[L] -= h
            try:
                d = (comp(qp) - comp(qm)) / (2.0 * h)
            except (MatdistError, ValueError, np.linalg.LinAlgError):
                skipped += 1
                continue
            worst = max(worst, float(np.max(np.abs(d))))
    return worst, skipped


def homogeneity_check(model, chart, n_pairs=12, n_samples=10, sampler=DEFAULT_SAMPLER,
                      tol=DEFAULT_TOL, leaf_oracle=None):
    """Run the three homogeneity sub-tests for a supplied chart.

    (a) foliated: the first ``leafwise_count`` chart directions lie in the
    base-distribution span at sampled region points; (b) translation: the
    translation jets of sampled same-leaf pairs are material isomorphisms;
    (c) eq25: the response derivative along leafwise chart coordinates
    vanishes at the anchor gradients.

    ``leafwise_count`` above the minimal sampled grade aborts (a) and (c)
    (the chart cannot be foliated); the translation test still runs.  The
    base bases at the ``n_samples`` region samples come from one batched,
    unvalidated fibre query (:func:`~matdist.distribution.fibres_at`); the
    first sample whose query fails raises its error.  With the trace oracle
    the pairs of (b) come from lockstep traces (:func:`leaf_pairs`).
    """
    if n_samples < 1 or n_pairs < 1:
        raise ValueError(f"n_samples and n_pairs must be at least 1, got {n_samples} and {n_pairs}")
    _check_oracle(leaf_oracle)
    rng = np.random.default_rng(np.random.SeedSequence([int(sampler.seed), 0xC4A7]))
    samples = sample_region(model, chart, rng, n_samples)
    _validate_chart(chart, samples, tol)
    p = int(chart.leafwise_count)

    if p == 0:
        warnings.warn("leafwise_count is 0: the homogeneity test passes vacuously")
        vacuous = SubTest(True, 0.0, {}, 0, note="vacuous: no leafwise coordinates")
        return HomogeneityReport(vacuous, vacuous, vacuous, 0, -1, "",
                                 _base_diagnostics(model, chart, samples, p, tol),
                                 _echo_params(model, chart, n_pairs, n_samples, sampler))

    fibres = fibres_at(model, samples, sampler=sampler, tol=tol, validate=False)
    for fibre in fibres:
        if isinstance(fibre, MatdistError):
            raise fibre
    bases = [fibre.base_basis for fibre in fibres]
    min_grade = int(min(fibre.grade for fibre in fibres))
    aborted = ""
    if p > min_grade:
        aborted = (
            f"leafwise_count {p} exceeds the minimal sampled grade {min_grade}; "
            "the chart cannot be foliated on this region"
        )

    # (a) leafwise chart directions tangent to the base distribution
    if not aborted:
        worst_angle = 0.0
        witness_a = {}
        for X, basis in zip(samples, bases):
            Dinv = np.linalg.inv(chart.jac(X, tol))
            for L in range(p):
                u = Dinv[:, L]
                u = u / np.linalg.norm(u)
                resid = u - basis @ (basis.T @ u)
                angle = float(np.arcsin(min(1.0, float(np.linalg.norm(resid)))))
                if angle > worst_angle:
                    worst_angle = angle
                    witness_a = {"point": X.tolist(), "L": L, "angle": angle}
        foliated = SubTest(worst_angle <= ANGLE_TOL, worst_angle, witness_a, len(samples) * p)
    else:
        foliated = SubTest(False, float("nan"), {}, 0, note=aborted)

    # (b) translation jets on same-leaf pairs
    pairs, skipped = leaf_pairs(model, chart, n_pairs, leaf_oracle, sampler, tol)
    worst_res = 0.0
    witness_b = {}
    all_ok = True
    for Y, Z in pairs:
        P = translation_jet(chart, Y, Z, tol)
        check = is_material_isomorphism(model, Y, Z, P, sampler, tol)
        if check.residual > worst_res:
            worst_res = check.residual
            witness_b = {"Y": Y.tolist(), "Z": Z.tolist(), "residual": check.residual}
        all_ok = all_ok and check.verdict
    translation = SubTest(all_ok and len(pairs) > 0, worst_res, witness_b, len(pairs),
                          note=f"{skipped} pair attempts skipped" if skipped else "")

    # (c) flat response along leafwise chart coordinates at anchor gradients
    if not aborted:
        worst_eq = 0.0
        witness_c = {}
        anchors = sampler.anchor_matrices()
        for X in samples:
            for a_index, anchor in enumerate(anchors):
                for L in range(p):
                    value = eq25_residual(model, chart, X, anchor, L, tol)
                    if value > worst_eq:
                        worst_eq = value
                        witness_c = {"point": X.tolist(), "anchor": a_index, "L": L,
                                     "residual": value}
        eq25 = SubTest(worst_eq <= tol.residual_tol, worst_eq, witness_c,
                       len(samples) * len(anchors) * p)
    else:
        eq25 = SubTest(False, float("nan"), {}, 0, note=aborted)

    return HomogeneityReport(
        foliated=foliated,
        translation=translation,
        eq25=eq25,
        leafwise_count=p,
        min_grade=min_grade,
        aborted=aborted,
        diagnostics=_base_diagnostics(model, chart, samples, p, tol),
        params=_echo_params(model, chart, n_pairs, n_samples, sampler),
    )


def _base_diagnostics(model, chart, samples, leafwise_count, tol):
    diag = {"chart_second_difference": _second_difference_residual(chart, samples)}
    flatness = _director_flatness(model, chart, samples, leafwise_count, tol)
    if flatness is not None:
        diag["director_leafwise_derivative"], skipped = flatness
        if skipped:
            diag["director_skipped"] = skipped
    return diag


def _check_oracle(leaf_oracle):
    if leaf_oracle is not None and leaf_oracle not in LEAF_ORACLES:
        raise ValueError(f"unknown leaf oracle {leaf_oracle!r}; use one of {', '.join(LEAF_ORACLES)}")


def _echo_params(model, chart, n_pairs, n_samples, sampler):
    return {
        "model": model.name,
        "chart": chart.name,
        "chart_params": chart.params,
        "n_pairs": int(n_pairs),
        "n_samples": int(n_samples),
        "seed": int(sampler.seed),
    }
