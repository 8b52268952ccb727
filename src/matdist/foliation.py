"""Leaf tracing, grade fields over grids, and stratum labelling.

The base distribution is known only through null spaces, so the "vector
field" fed to the integrator projects a reference direction onto the
current base basis and normalizes; this yields a well-defined unit-speed
curve inside the leaf without choosing a global frame (none exists on a
sphere).
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .distribution import (
    DEFAULT_SAMPLER,
    GERM_CLOUD,
    GERM_RADIUS,
    base_basis_at,  # noqa: F401  (a module name the benchmark tracer wraps)
    fibres_at,
    material_fibre,  # noqa: F401  (a module name the benchmark tracer wraps)
)
from .errors import DomainError, MatdistError, NonFiniteError
from .numkit import DEFAULT_TOL, rk4_step

__all__ = [
    "GridSpec",
    "GradeField",
    "LeafTrace",
    "RegularityReport",
    "grade_map",
    "leaf_trace",
    "trace_leaves",
    "check_trace_args",
    "MAX_STEP",
    "regularity_report",
    "grade_field_csv",
    "grade_field_json_dict",
    "leaf_trace_csv",
    "leaf_trace_json_dict",
    "grade_slice_svg",
    "leaf_trace_svg",
    "GRADE_COLORS",
]

GRADE_COLORS = {0: "black", 1: "blue", 2: "orange", 3: "green", -1: "gray"}

_MAX_GRID_NODES = 10**6
_ALIGN_EPS = 1e-6
MAX_STEP = 0.05  # largest leaf-trace step size
_MARGINAL_GAP = 10.0  # rank gaps below this mark a node tolerance-sensitive


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with a per-axis node count."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        if len(self.lo) != 3 or len(self.hi) != 3 or len(self.shape) != 3:
            raise ValueError("grid lo/hi/shape must have three entries")
        if any(int(n) < 1 for n in self.shape):
            raise ValueError("grid shape entries must be positive")
        if int(np.prod([int(n) for n in self.shape])) > _MAX_GRID_NODES:
            raise ValueError(f"grid exceeds {_MAX_GRID_NODES} nodes")

    def axes(self):
        return [
            np.linspace(self.lo[i], self.hi[i], int(self.shape[i]))
            if self.shape[i] > 1
            else np.array([0.5 * (self.lo[i] + self.hi[i])])
            for i in range(3)
        ]

    def points(self):
        ax = self.axes()
        nx, ny, nz = (len(a) for a in ax)
        pts = np.empty((nx, ny, nz, 3))
        pts[..., 0] = ax[0][:, None, None]
        pts[..., 1] = ax[1][None, :, None]
        pts[..., 2] = ax[2][None, None, :]
        return pts

    def cell_volume(self):
        ax = self.axes()
        spans = [a[1] - a[0] if len(a) > 1 else 1.0 for a in ax]
        return float(np.prod(spans))


@dataclass
class GradeField:
    """Grades, rank gaps and stratum labels on a grid.

    Grade -1 marks nodes without a computed grade (outside the model
    domain, or failed); they are excluded from strata but keep the output
    rectangular for plotting.
    """

    grid: GridSpec
    mode: str
    grade: np.ndarray  # (nx,ny,nz) int
    rank_gap: np.ndarray  # (nx,ny,nz) float
    stratum: np.ndarray  # (nx,ny,nz) int, -1 for unknown
    validated: np.ndarray  # (nx,ny,nz) bool
    errors: list = field(default_factory=list)  # (index triple, message)

    @property
    def known(self):
        return self.grade >= 0

    def stratum_count(self):
        return int(self.stratum.max()) + 1 if self.stratum.size else 0

    def tolerance_sensitive(self):
        """Indices of known nodes whose rank decision was marginal."""
        mask = self.known & (self.rank_gap < _MARGINAL_GAP)
        return [tuple(int(v) for v in idx) for idx in np.argwhere(mask)]


@dataclass
class RegularityReport:
    """Summary of a grade field: regular iff one grade covers all known nodes."""

    regular: bool
    grades: list
    node_counts: dict
    volumes: dict
    stratum_count: int
    unknown_nodes: int


@dataclass
class LeafTrace:
    """Polyline traced inside one leaf of the body-material foliation."""

    seed: np.ndarray
    direction_hint: np.ndarray
    step: float
    mode: str
    points: np.ndarray  # (n,3)
    grades: np.ndarray  # (n,)
    directions: np.ndarray  # (n-1,3) unit step directions
    leaf_residuals: np.ndarray  # (n,), NaN when no leaf predicate
    stop_reason: str  # "completed" | "domain_boundary" | "grade_lost" | "alignment_lost"
    tie_breaks: list  # step indices where the alignment tie-break fired

    @property
    def n_points(self):
        return len(self.points)


def _normalize(v):
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("zero direction")
    return v / n


def _lex_oriented(column):
    """Fix the sign of a basis column by its first significant component."""
    for value in column:
        if abs(value) > 1e-12:
            return column if value > 0 else -column
    return column


def _flow_value(basis, direction):
    """The projected field: ``direction`` projected onto span(basis), unit length.

    None when the projection nearly vanishes (the leaf turned away from the
    direction the step started with).
    """
    q = basis @ (basis.T @ direction)
    n = float(np.linalg.norm(q))
    if n <= _ALIGN_EPS:
        return None
    return q / n


def _project_direction(basis, reference):
    """Unit vector in span(basis) closest in angle to ``reference``.

    Returns ``(direction, ambiguous)``; when the projection nearly
    vanishes every span direction is equally close, and the
    lexicographically oriented first basis column is the deterministic
    tie-break.
    """
    p = _flow_value(basis, reference)
    if p is None:
        return _lex_oriented(basis[:, 0].copy()), True
    return p, False


def check_trace_args(h, steps, mode="pointwise"):
    """Check leaf-trace arguments, raising ``ValueError`` on a bad one.

    ``h`` must lie in ``(0, MAX_STEP]``, ``steps`` must be at least 0 and
    ``mode`` must be ``"pointwise"``, the only mode leaves are traced in.
    """
    if not 0.0 < h <= MAX_STEP:
        raise ValueError(f"step size h must be in (0, {MAX_STEP}], got {h!r}")
    if steps < 0:
        raise ValueError(f"step count must be at least 0, got {steps!r}")
    if mode != "pointwise":
        raise ValueError(f"leaf traces use pointwise base queries; mode {mode!r} is not supported")


class _Leaf:
    """One leaf of a lockstep trace: its polyline so far and how it ended."""

    def __init__(self, seed, hint, steps):
        self.seed = np.asarray(seed, dtype=float)
        self.hint = np.asarray(hint, dtype=float)
        self.steps = int(steps)
        self.points = [self.seed]
        self.grades = []
        self.directions = []
        self.tie_breaks = []
        self.basis = None  # base basis at the last point
        self.direction = None
        self.stop_reason = "completed"
        self.error = None
        self.done = False

    def stop(self, reason):
        self.stop_reason = reason
        self.done = True

    def fail(self, error):
        self.error = error
        self.done = True

    def start(self, fibre):
        """Take the fibre at the seed; the first direction is the hint."""
        if isinstance(fibre, MatdistError):
            self.fail(fibre)
        elif fibre.grade < 1:
            self.fail(ValueError(f"grade at the seed is {fibre.grade}; need at least 1 to trace"))
        else:
            self.basis = fibre.base_basis
            self.grades.append(fibre.grade)
            self._head(self.hint)

    def arrive(self, fibre):
        """Take the fibre at the point just reached."""
        if isinstance(fibre, MatdistError):
            self.fail(fibre)
            return
        self.basis = fibre.base_basis
        self.grades.append(fibre.grade)
        if fibre.grade < 1:
            self.stop("grade_lost")
        else:
            self._head(self.points[-1] - self.points[-2])

    def _head(self, vector):
        try:
            self.direction = _normalize(vector)
        except ValueError as exc:
            self.fail(exc)

    def result(self, model, h):
        if self.error is not None:
            return self.error
        points = np.asarray(self.points)
        residuals = np.full(len(points), np.nan)
        if model.leaf is not None:
            residuals = np.array([model.leaf.residual(self.seed, p) for p in points])
        return LeafTrace(
            seed=self.seed,
            direction_hint=self.hint,
            step=float(h),
            mode="pointwise",
            points=points,
            grades=np.asarray(self.grades, dtype=int),
            directions=np.asarray(self.directions) if self.directions else np.zeros((0, 3)),
            leaf_residuals=residuals,
            stop_reason=self.stop_reason,
            tie_breaks=self.tie_breaks,
        )


def _stage_flow(model, leaves, sampler, tol):
    """Field of RK4 stages k2..k4 over a stack of leaves, one batched query each.

    A leaf whose stage point is outside the domain, loses grade or alignment,
    or fails in the kernel stops or fails here; its row reads zero from then
    on and is never queried again.
    """
    stages = iter(("k2", "k3", "k4"))

    def flow(P):
        name = next(stages)
        out = np.zeros_like(P)
        live = [j for j, leaf in enumerate(leaves) if not leaf.done]
        for j, fibre in zip(live, fibres_at(model, P[live], sampler=sampler, tol=tol,
                                            validate=False)):
            leaf = leaves[j]
            if isinstance(fibre, DomainError):
                leaf.stop("domain_boundary")
            elif isinstance(fibre, MatdistError):
                leaf.fail(fibre)
            elif fibre.grade < 1:
                leaf.stop("grade_lost")
            else:
                value = _flow_value(fibre.base_basis, leaf.direction)
                if value is None:
                    leaf.stop("alignment_lost")
                elif not np.all(np.isfinite(value)):
                    leaf.fail(NonFiniteError(f"non-finite value at RK4 stage {name}"))
                else:
                    out[j] = value
        return out

    return flow


def trace_leaves(model, seeds, dir_selects, steps, h, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Trace many leaves in lockstep; one :class:`LeafTrace` or error per leaf.

    ``seeds`` and ``dir_selects`` hold one point and one direction hint per
    leaf and ``steps`` one step count per leaf; all leaves share the step
    size ``h``.  Every RK4 stage makes one batched, unvalidated fibre query
    (:func:`~matdist.distribution.fibres_at`) over the leaves still
    moving, and the base basis found at a new point serves as the first
    stage of the next step, so a step costs three queries plus one at the
    point it reaches.  Each leaf keeps its own stop reason, tie-breaks or
    error (a :class:`MatdistError`, or a ``ValueError`` for a seed of grade
    0 or a zero hint), and its trace is bit-identical to tracing it alone.
    """
    check_trace_args(h, min(steps, default=0))
    leaves = [_Leaf(seed, hint, n) for seed, hint, n in zip(seeds, dir_selects, steps)]
    for leaf in leaves:
        if not model.in_domain(leaf.seed):
            leaf.fail(DomainError(f"seed {leaf.seed.tolist()} is outside the model domain"))
    starting = [leaf for leaf in leaves if not leaf.done]
    for leaf, fibre in zip(starting, fibres_at(model, [leaf.seed for leaf in starting],
                                               sampler=sampler, tol=tol, validate=False)):
        leaf.start(fibre)

    for step_index in range(max((leaf.steps for leaf in leaves), default=0)):
        moving = []
        first_stage = []
        for leaf in leaves:
            if leaf.done or step_index >= leaf.steps:
                continue
            leaf.direction, ambiguous = _project_direction(leaf.basis, leaf.direction)
            if ambiguous:
                leaf.tie_breaks.append(step_index)
            k1 = _flow_value(leaf.basis, leaf.direction)
            if k1 is None:
                leaf.stop("alignment_lost")
                continue
            if not np.all(np.isfinite(k1)):
                leaf.fail(NonFiniteError("non-finite value at RK4 stage k1"))
                continue
            moving.append(leaf)
            first_stage.append(k1)
        if not moving:
            break
        x = np.stack([leaf.points[-1] for leaf in moving])
        reached = rk4_step(_stage_flow(model, moving, sampler, tol), x, h, k1=np.stack(first_stage))
        arrived = []
        for leaf, point in zip(moving, reached):
            if leaf.done:
                continue
            if not model.in_domain(point):
                leaf.stop("domain_boundary")
                continue
            leaf.directions.append(leaf.direction)
            leaf.points.append(point)
            arrived.append(leaf)
        for leaf, fibre in zip(arrived, fibres_at(model, [leaf.points[-1] for leaf in arrived],
                                                  sampler=sampler, tol=tol, validate=False)):
            leaf.arrive(fibre)
    return [leaf.result(model, h) for leaf in leaves]


def leaf_trace(model, seed, dir_select, steps, h, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL,
               mode="pointwise"):
    """Trace a leaf of the body-material foliation by projected flow.

    At each step the previous direction is projected onto the current base
    basis and normalized; the step itself is a classical Runge-Kutta update
    of that projected field.  The trace stops early at the domain boundary,
    when the grade drops below one, or when the projected field vanishes.
    ``h`` must lie in ``(0, MAX_STEP]`` and ``steps`` must be at least 0;
    ``mode`` is ``"pointwise"``, the only mode leaves are traced in.  This is
    the one-leaf case of :func:`trace_leaves`; it raises the leaf's error.
    """
    check_trace_args(h, steps, mode)
    (trace,) = trace_leaves(model, [seed], [dir_select], [steps], h, sampler, tol)
    if isinstance(trace, Exception):
        raise trace
    return trace


# ---------------------------------------------------------------------------
# grade maps


def grade_map(model, grid, mode="pointwise", sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL,
              threads=None, germ_radius=GERM_RADIUS, germ_cloud=GERM_CLOUD):
    """Grade of uniformity at every grid node, with stratum labels.

    Nodes outside the model domain are skipped (grade -1); per-node solver
    failures are recorded in ``errors`` and marked the same way.  Nodes of
    either mode run in chunks through the one fibre entry
    (:func:`~matdist.distribution.fibres_at`), which checks the ``germ1``
    cloud arguments and the mode before any node runs; results do not
    depend on how nodes are batched, because every node reads the same
    gradient draws.
    ``threads`` is ignored: the map runs in this process.  Its only caller
    is ``bench/run.py:pool_probe``, and both go together (ROADMAP item 1(c)).
    """
    if not isinstance(grid, GridSpec):
        grid = GridSpec(*grid)
    pts = grid.points()
    shape = pts.shape[:3]
    flat = pts.reshape(-1, 3)

    grade = np.full(len(flat), -1, dtype=int)
    gap = np.full(len(flat), np.nan)
    validated = np.ones(len(flat), dtype=bool)
    errors = []
    for i, out in enumerate(fibres_at(model, flat, mode, sampler, tol, germ_radius, germ_cloud)):
        if isinstance(out, MatdistError):
            # a node outside the domain, or a finite-difference step leaving
            # it, marks the node unknown without counting as a solver failure
            if not isinstance(out, DomainError):
                errors.append((tuple(int(v) for v in np.unravel_index(i, shape)), str(out)))
            continue
        grade[i] = out.grade
        gap[i] = out.rank_gap
        validated[i] = out.validated

    grade = grade.reshape(shape)
    stratum = _label_strata(grade)
    return GradeField(grid=grid, mode=mode, grade=grade, rank_gap=gap.reshape(shape),
                      stratum=stratum, validated=validated.reshape(shape), errors=errors)


def _label_strata(grade):
    """6-connected components of equal known grade, numbered in the order of
    their first node in C order; unknown (negative) nodes get -1.

    Labels start as flat indices.  A round takes the smaller label across
    every equal-grade edge, then jumps each label to its label's label, so
    labels fall and stay in their component until each holds its smallest
    index; a round that changes nothing ends the loop.
    """
    index = np.arange(grade.size).reshape(grade.shape)
    lo, hi = [], []
    for axis in range(grade.ndim):
        g, i = np.moveaxis(grade, axis, 0), np.moveaxis(index, axis, 0)
        same = (g[:-1] == g[1:]) & (g[:-1] >= 0)
        lo.append(i[:-1][same])
        hi.append(i[1:][same])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    labels = index.ravel()
    for _ in range(grade.size):  # each round but the last lowers a label
        low = np.minimum(labels[lo], labels[hi])
        new = labels.copy()
        np.minimum.at(new, lo, low)
        np.minimum.at(new, hi, low)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    known = grade.ravel() >= 0
    out = np.full(grade.size, -1)
    out[known] = np.unique(labels[known], return_inverse=True)[1]
    return out.reshape(grade.shape)


def regularity_report(field):
    """Is the computed foliation regular, and how is volume split by grade?"""
    known = field.grade[field.known]
    values = sorted(int(g) for g in np.unique(known)) if known.size else []
    counts = {g: int(np.sum(known == g)) for g in values}
    cell = field.grid.cell_volume()
    return RegularityReport(
        regular=len(values) == 1,
        grades=values,
        node_counts=counts,
        volumes={g: counts[g] * cell for g in values},
        stratum_count=field.stratum_count(),
        unknown_nodes=int(np.sum(~field.known)),
    )


# ---------------------------------------------------------------------------
# serialization

_FLOAT_FMT = "%.17g"


def _fmt(value):
    if isinstance(value, float) and np.isnan(value):
        return "nan"
    return _FLOAT_FMT % value


def grade_field_csv(field, fh):
    """Write ``x,y,z,grade,rank_gap,stratum`` rows."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["x", "y", "z", "grade", "rank_gap", "stratum"])
    pts = field.grid.points()
    nx, ny, nz = field.grade.shape
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                x, y, z = pts[i, j, k]
                writer.writerow([
                    _fmt(float(x)), _fmt(float(y)), _fmt(float(z)),
                    int(field.grade[i, j, k]),
                    _fmt(float(field.rank_gap[i, j, k])),
                    int(field.stratum[i, j, k]),
                ])


_JSON_ERRORS = 20  # failed nodes the JSON lists; n_errors counts them all


def grade_field_json_dict(field):
    report = regularity_report(field)
    return {
        "grid": {
            "lo": [float(v) for v in field.grid.lo],
            "hi": [float(v) for v in field.grid.hi],
            "shape": [int(v) for v in field.grid.shape],
        },
        "mode": field.mode,
        "grade": field.grade.tolist(),
        "rank_gap": np.where(np.isfinite(field.rank_gap), np.minimum(field.rank_gap, 1e18), -1.0).tolist(),
        "stratum": field.stratum.tolist(),
        "regular": report.regular,
        "grades_present": report.grades,
        "node_counts": {str(k): v for k, v in report.node_counts.items()},
        "stratum_count": report.stratum_count,
        "unknown_nodes": report.unknown_nodes,
        "tolerance_sensitive": [list(idx) for idx in field.tolerance_sensitive()],
        "n_errors": len(field.errors),
        "errors": [{"node": list(node), "message": message}
                   for node, message in field.errors[:_JSON_ERRORS]],
    }


def leaf_trace_csv(trace, fh):
    """Write ``step,x,y,z,grade`` rows."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["step", "x", "y", "z", "grade"])
    for n, (p, g) in enumerate(zip(trace.points, trace.grades)):
        writer.writerow([n, _fmt(float(p[0])), _fmt(float(p[1])), _fmt(float(p[2])), int(g)])


def leaf_trace_json_dict(trace):
    residuals = [None if np.isnan(r) else float(r) for r in trace.leaf_residuals]
    return {
        "seed": [float(v) for v in trace.seed],
        "direction_hint": [float(v) for v in trace.direction_hint],
        "step": float(trace.step),
        "mode": trace.mode,
        "stop_reason": trace.stop_reason,
        "n_points": int(trace.n_points),
        "points": [[float(v) for v in p] for p in trace.points],
        "grades": [int(g) for g in trace.grades],
        "leaf_residuals": residuals,
        "tie_breaks": [int(i) for i in trace.tie_breaks],
    }


# ---------------------------------------------------------------------------
# SVG emitters (fixed 720x720 viewBox, fixed grade colors)

_SVG_SIZE = 720.0


def _svg_header():
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_SIZE:g} {_SVG_SIZE:g}">\n'
        f'<rect width="{_SVG_SIZE:g}" height="{_SVG_SIZE:g}" fill="white"/>\n'
    )


def grade_slice_svg(field, axis, value):
    """Orthographic slice of a grade field perpendicular to ``axis`` (0-2).

    The grid plane nearest to ``value`` is drawn as colored cells.
    """
    axis = int(axis)
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    coords = field.grid.axes()[axis]
    index = int(np.argmin(np.abs(coords - value)))
    slicer = [slice(None)] * 3
    slicer[axis] = index
    plane = field.grade[tuple(slicer)]
    u_axis, v_axis = [a for a in (0, 1, 2) if a != axis]

    nu, nv = plane.shape
    cw, ch = _SVG_SIZE / nu, _SVG_SIZE / nv
    parts = [_svg_header()]
    parts.append(f"<!-- slice axis={axis} at {coords[index]!r}; "
                 f"horizontal=axis{u_axis} vertical=axis{v_axis} -->\n")
    for i in range(nu):
        for j in range(nv):
            color = GRADE_COLORS.get(int(plane[i, j]), "gray")
            x = i * cw
            y = _SVG_SIZE - (j + 1) * ch  # second in-plane axis increases upward
            parts.append(
                f'<rect x="{x:.3f}" y="{y:.3f}" width="{cw:.3f}" height="{ch:.3f}" '
                f'fill="{color}"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def leaf_trace_svg(trace, drop_axis=2):
    """Orthographic projection of a trace onto a coordinate plane.

    Consecutive same-grade runs become one polyline in that grade's color.
    """
    drop_axis = int(drop_axis)
    keep = [a for a in (0, 1, 2) if a != drop_axis]
    pts = trace.points[:, keep]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    margin = 36.0
    scale = (_SVG_SIZE - 2 * margin) / span

    def map_xy(p):
        x = margin + (p[0] - lo[0]) * scale
        y = _SVG_SIZE - margin - (p[1] - lo[1]) * scale
        return x, y

    parts = [_svg_header()]
    start = 0
    for i in range(1, len(pts)):
        boundary = trace.grades[i] != trace.grades[start]
        if boundary or i == len(pts) - 1:
            end = i if boundary else i + 1
            seg = pts[start:end]
            if len(seg) >= 2:
                color = GRADE_COLORS.get(int(trace.grades[start]), "gray")
                coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(map_xy, seg))
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="2"/>\n'
                )
            start = end - 1 if boundary else end
    sx, sy = map_xy(pts[0])
    parts.append(f'<circle cx="{sx:.3f}" cy="{sy:.3f}" r="4" fill="red"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)
