"""Reference oracle for lockstep leaf tracing: the sequential tracer.

``leaf_trace`` traces one leaf at a time and queries the base basis once
per RK4 stage, then once more at each point it reaches (five base queries
per step), exactly as matdist traced leaves before they ran in lockstep.
``leaf_pairs`` draws and traces trace-oracle candidates one at a time.
Tests compare the lockstep tracer against them; nothing in the package uses
this module.
"""

import numpy as np

from matdist.distribution import DEFAULT_SAMPLER, base_basis_at
from matdist.errors import DomainError, MatdistError
from matdist.foliation import LeafTrace, _normalize, _project_direction
from matdist.homogeneity import sample_region
from matdist.numkit import DEFAULT_TOL, rk4_step

_ALIGN_EPS = 1e-6


class _GradeLost(MatdistError):
    pass


def leaf_trace(model, seed, dir_select, steps, h, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """One leaf, one point at a time; raises what the trace raises."""
    seed = np.asarray(seed, dtype=float)
    if not model.in_domain(seed):
        raise DomainError(f"seed {seed.tolist()} is outside the model domain")

    basis, grade, _ = base_basis_at(model, seed, sampler, tol)
    if grade < 1:
        raise ValueError(f"grade at the seed is {grade}; need at least 1 to trace")

    points = [seed]
    grades = [grade]
    directions = []
    tie_breaks = []
    stop_reason = "completed"
    direction = _normalize(dir_select)

    current = seed
    current_basis = basis
    for step_index in range(int(steps)):
        direction, ambiguous = _project_direction(current_basis, direction)
        if ambiguous:
            tie_breaks.append(step_index)

        def flow(y, _d=direction):
            b, g, _ = base_basis_at(model, y, sampler, tol)
            if g < 1:
                raise _GradeLost()
            q = b @ (b.T @ _d)
            n = float(np.linalg.norm(q))
            if n <= _ALIGN_EPS:
                raise _GradeLost("alignment")
            return q / n

        try:
            nxt = rk4_step(flow, current, h)
        except _GradeLost as stop:
            stop_reason = "alignment_lost" if stop.args else "grade_lost"
            break
        except DomainError:
            stop_reason = "domain_boundary"
            break
        if not model.in_domain(nxt):
            stop_reason = "domain_boundary"
            break
        directions.append(direction)
        current = nxt
        points.append(nxt)
        current_basis, grade, _ = base_basis_at(model, nxt, sampler, tol)
        if grade < 1:
            grades.append(grade)
            stop_reason = "grade_lost"
            break
        grades.append(grade)
        direction = _normalize(nxt - points[-2])

    points = np.asarray(points)
    residuals = np.full(len(points), np.nan)
    if model.leaf is not None:
        residuals = np.array([model.leaf.residual(seed, p) for p in points])
    return LeafTrace(
        seed=seed,
        direction_hint=np.asarray(dir_select, dtype=float),
        step=float(h),
        mode="pointwise",
        points=points,
        grades=np.asarray(grades, dtype=int),
        directions=np.asarray(directions) if directions else np.zeros((0, 3)),
        leaf_residuals=residuals,
        stop_reason=stop_reason,
        tie_breaks=tie_breaks,
    )


def leaf_pairs(model, chart, n_pairs, sampler=DEFAULT_SAMPLER, tol=DEFAULT_TOL):
    """Trace-oracle pairs ``(pairs, skipped)``, one candidate at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([int(sampler.seed), 0x1EAF]))
    pairs = []
    skipped = 0
    budget = 40 * n_pairs + 100
    while len(pairs) < n_pairs and budget > 0:
        budget -= 1
        Y = sample_region(model, chart, rng, 1)[0]
        direction = rng.normal(size=3)
        steps = int(rng.integers(5, 25))
        try:
            trace = leaf_trace(model, Y, direction, steps, 0.01, sampler, tol)
        except ValueError:
            skipped += 1
            continue
        Z = trace.points[-1]
        if len(trace.points) > 1 and chart.in_region(Z):
            pairs.append((Y, Z))
        else:
            skipped += 1
    return pairs, skipped
