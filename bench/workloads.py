"""The four benchmark workloads: inputs drawn from the seed, calls, answer checks.

Every workload is a sequence of cycles.  A cycle is a fixed mix of public
calls whose inputs come from ``(seed, cycle index)``, so a run of whole
cycles always has the same composition and a traced run can replay the
exact cycles an untraced run made.  Calls look their function up on the
matdist module at call time, so the tracer's wrappers see them.

An operation (op) is an in-domain grid node (``maps``), a completed RK4
step (``leaves``) or one public call (``probes``, ``mdl``).  Each call is
judged: an op that raised or came back flagged counts as failed; an answer
that contradicts the acceptance expectations is wrong.
"""

import contextlib
import io
import json
import os

import numpy as np

BOX = ((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9))
# Chart files without Jacobian entries use finite differences, whose noise
# limits the flat-derivative (eq25) sub-test to roughly 1e-2 (documented in
# homogeneity.chart_from_expressions).  Over 160 generated charts the worst
# residual had median 1.1e-2 and maximum 0.21; this limit leaves a margin of
# about 2.4x over that maximum, and a residual above it is a wrong answer.
FD_EQ25_LIMIT = 0.5
GRADE_BAND = (0.0, 0.1)  # example1 underflow band: no grade expectation


class Outcome:
    """Result of judging one call: ops completed, ops failed, wrong answer or None."""

    __slots__ = ("ops", "failed", "wrong")

    def __init__(self, ops, failed=0, wrong=None):
        self.ops = ops
        self.failed = failed
        self.wrong = wrong


class Call:
    """One public call of a cycle; ``judge(result) -> Outcome``."""

    __slots__ = ("kind", "fn", "judge")

    def __init__(self, kind, fn, judge):
        self.kind = kind
        self.fn = fn
        self.judge = judge


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _e1_point(rng, side):
    lo, hi = (-0.9, 0.0) if side == "left" else (0.1, 0.9)
    return np.array([rng.uniform(lo, hi), rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)])


def _e1_expected_grade(X):
    if X[0] <= GRADE_BAND[0]:
        return 3
    if X[0] >= GRADE_BAND[1]:
        return 2
    return None


def _judge_fibre(grade=None, sym_dim=None, grade_range=None):
    def judge(result):
        if not result.validated:
            return Outcome(0, failed=1)
        if grade is not None and result.grade != grade:
            return Outcome(1, wrong=f"grade {result.grade} at {result.point.tolist()}, expected {grade}")
        if grade_range is not None and not grade_range[0] <= result.grade <= grade_range[1]:
            return Outcome(1, wrong=f"grade {result.grade} at {result.point.tolist()}, "
                                    f"expected within {grade_range}")
        if sym_dim is not None and result.sym_dim != sym_dim:
            return Outcome(1, wrong=f"symmetry dimension {result.sym_dim} at "
                                    f"{result.point.tolist()}, expected {sym_dim}")
        return Outcome(1)
    return judge


def _judge_verdict(expected, what):
    def judge(result):
        verdict = bool(result.verdict if hasattr(result, "verdict") else result.passed)
        if verdict != expected:
            return Outcome(1, wrong=f"{what}: verdict {verdict}, expected {expected}")
        return Outcome(1)
    return judge


_LEAF_OK = ("completed", "domain_boundary")


def _judge_leaf(drift_of, limit, what, per_step=True):
    """Ops are the completed RK4 steps, or the call itself when not ``per_step``."""
    def judge(trace):
        ops = len(trace.points) - 1 if per_step else 1
        if trace.stop_reason not in _LEAF_OK:
            return Outcome(ops if per_step else 0, failed=1)
        drift = drift_of(trace)
        if not drift <= limit:
            return Outcome(ops, wrong=f"{what}: drift {drift:.3e} above {limit:g}")
        return Outcome(ops)
    return judge


def _sphere_drift(trace):
    radii = np.linalg.norm(trace.points, axis=1)
    return float(np.abs(radii - radii[0]).max())


def _plane_drift(trace):
    return float(np.abs(trace.points[:, 0] - trace.points[0, 0]).max())


class Workload:
    """Common frame: ``prepare`` writes input files, ``setup`` is the timed set-up."""

    name = ""
    why = ""

    def __init__(self, seed, workdir):
        self.m = None
        self.seed = int(seed)
        self.workdir = workdir

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def prepare(self):
        """Write generated input files (not part of set-up)."""

    def setup(self, modules):
        """Build the built-ins (and parse the workload's files) with ``modules``."""
        self.m = modules
        response = modules["response"]
        self.models = {name: response.builtin(name) for name in response.BUILTIN_MODELS}

    def warmup_calls(self):
        raise NotImplementedError

    def cycle(self, index):
        raise NotImplementedError


class Maps(Workload):
    name = "maps"
    why = ("independent per-node fibres: SVD-bound saturation and gradient sampling; "
           "thin SVD or node batching shows here")

    def _grade_map(self, model_name, counts):
        model = self.models[model_name]
        grid = self.m["foliation"].GridSpec(BOX[0], BOX[1], counts)
        pts = grid.points().reshape(-1, 3)
        inside = np.array([model.in_domain(p) for p in pts])
        judge = self._judge_map(model_name, pts, inside)
        return Call(f"grade_map.{model_name}",
                    lambda: self.m["foliation"].grade_map(model, grid), judge)

    @staticmethod
    def _judge_map(model_name, pts, inside):
        def judge(field):
            grade = field.grade.reshape(-1)
            validated = field.validated.reshape(-1)
            bad = inside & ((grade < 0) | ~validated)
            ok = inside & ~bad
            out = Outcome(int(ok.sum()), failed=int(bad.sum()))
            if model_name == "example1":
                left = ok & (pts[:, 0] <= 0.0)
                right = ok & (pts[:, 0] >= 0.1 - 1e-12)
                if np.any(grade[left] != 3) or np.any(grade[right] != 2):
                    out.wrong = "example1 map: grade 3 left of X1=0 and 2 right of X1=0.1 expected"
            else:
                norms = np.linalg.norm(pts, axis=1)
                shell = ok & (norms >= 0.05) & (norms <= 0.9)
                if np.any(grade[shell] != 2):
                    out.wrong = "example2 map: grade 2 expected for 0.05 <= |X| <= 0.9"
            if out.wrong is None and field.stratum_count() != 2:
                out.wrong = f"{model_name} map: {field.stratum_count()} strata, expected 2"
            return out
        return judge

    def warmup_calls(self):
        return [self._grade_map("example1", (5, 5, 5)), self._grade_map("example2", (5, 5, 5))]

    def cycle(self, index):
        rng = self.rng(1, index)
        # odd counts keep X1 = 0 and the ball centre on the grid; small grids
        # give many calls per run, and one shape for both models keeps the
        # example1/example2 node ratio of a cycle fixed
        shape = tuple(int(n) for n in rng.choice((5, 7, 9), size=3))
        return [self._grade_map("example1", shape), self._grade_map("example2", shape)]

    # grids of the pool probe (traced runs only)
    POOL_GRIDS = (("example1", (7, 7, 7)), ("example2", (7, 7, 7)))


class Leaves(Workload):
    name = "leaves"
    why = ("sequential RK4 leaf tracing through base_basis_at only: five dependent "
           "saturations per step, no held-out check; bypasses grid-only optimisations")

    STEPS = 200
    H = 0.01

    def _sphere_trace(self, rng, steps):
        seed = rng.uniform(0.2, 0.8) * _unit(rng)
        direction = _unit(rng)
        model = self.models["example2"]
        return Call("leaf.example2",
                    lambda: self.m["foliation"].leaf_trace(model, seed, direction, steps, self.H),
                    _judge_leaf(_sphere_drift, 1e-4, "example2 sphere leaf"))

    def _plane_trace(self, rng, steps):
        # start near a corner of the X1 = c square and head for the opposite
        # one, so that all steps fit inside the cube
        sy, sz = rng.choice((-1.0, 1.0), size=2)
        seed = np.array([rng.uniform(0.1, 0.9), sy * rng.uniform(0.85, 0.95),
                         sz * rng.uniform(0.85, 0.95)])
        psi = rng.uniform(np.pi / 4 - 0.15, np.pi / 4 + 0.15)
        direction = np.array([0.0, -sy * np.cos(psi), -sz * np.sin(psi)])
        model = self.models["example1"]
        return Call("leaf.example1",
                    lambda: self.m["foliation"].leaf_trace(model, seed, direction, steps, self.H),
                    _judge_leaf(_plane_drift, 1e-6, "example1 plane leaf"))

    def warmup_calls(self):
        rng = self.rng(2, 0)
        return [self._sphere_trace(rng, 10), self._plane_trace(rng, 10)]

    def cycle(self, index):
        rng = self.rng(1, index)
        return [self._sphere_trace(rng, self.STEPS), self._plane_trace(rng, self.STEPS),
                self._sphere_trace(rng, self.STEPS)]


class Probes(Workload):
    name = "probes"
    why = ("interactive point queries: cheap pointwise fibres and iso checks set p50, "
           "germ1 fibres and homogeneity verdicts set p90 and peak memory")

    def _fibre(self, model_name, X, mode="pointwise", **expect):
        model = self.models[model_name]
        return Call(f"fibre.{mode}.{model_name}",
                    lambda: self.m["distribution"].material_fibre(model, X, mode=mode),
                    _judge_fibre(**expect))

    def _iso(self, model_name, X, Y, P, expected):
        model = self.models[model_name]
        return Call(f"iso.{model_name}",
                    lambda: self.m["distribution"].is_material_isomorphism(model, X, Y, P),
                    _judge_verdict(expected, f"{model_name} iso {X.tolist()} -> {Y.tolist()}"))

    def _homog(self, model_name, oracle):
        # the acceptance charts: a verdict's cost swings twofold with the
        # region (the traced leaf pairs depend on it), so it is not drawn
        homogeneity = self.m["homogeneity"]
        if model_name == "example1":
            chart = homogeneity.builtin_chart("identity").restrict(lambda X: X[0] >= 0.1)
            expected = True
        else:
            chart = homogeneity.builtin_chart("spherical_cap")
            expected = False
        model = self.models[model_name]
        verdict = _judge_verdict(expected, f"{model_name} homogeneity ({oracle})")

        def judge(report):
            if not expected and report.translation.passed:
                return Outcome(1, wrong=f"{model_name} homogeneity ({oracle}): "
                                        "translation sub-test passed")
            return verdict(report)

        return Call(f"homog.{oracle}.{model_name}",
                    lambda: self.m["homogeneity"].homogeneity_check(model, chart,
                                                                    leaf_oracle=oracle),
                    judge)

    def warmup_calls(self):
        rng = self.rng(2, 0)
        return [self._fibre("example1", _e1_point(rng, "left"), grade=3),
                self._fibre("example2", 0.5 * _unit(rng), grade=2),
                self._fibre("det_cal", rng.uniform(-0.9, 0.9, 3), grade=3, sym_dim=8),
                self._fibre("identity_cal", rng.uniform(-0.9, 0.9, 3), sym_dim=0),
                self._iso("example1", _e1_point(rng, "left"), _e1_point(rng, "left"),
                          np.eye(3), True)]

    def cycle(self, index):
        """40 calls: 29 light (p50), 1 analytic verdict, 8 example2 germ1 fibres
        (p90 falls inside this class), 1 example1 germ1 fibre, 1 traced-leaf verdict."""
        rng = self.rng(1, index)
        calls = []
        for side in ("left", "right") * 4:
            X = _e1_point(rng, side)
            calls.append(self._fibre("example1", X, grade=_e1_expected_grade(X)))
        for _ in range(6):
            calls.append(self._fibre("example2", rng.uniform(0.05, 0.9) * _unit(rng), grade=2))
        for _ in range(3):
            calls.append(self._fibre("det_cal", rng.uniform(-0.9, 0.9, 3), grade=3, sym_dim=8))
            calls.append(self._fibre("identity_cal", rng.uniform(-0.9, 0.9, 3), sym_dim=0))
        eye = np.eye(3)
        for _ in range(2):
            calls.append(self._iso("example1", _e1_point(rng, "left"), _e1_point(rng, "left"),
                                   eye, True))
            X = _e1_point(rng, "right")
            Y = np.array([X[0], rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)])
            calls.append(self._iso("example1", X, Y, eye, True))
            a = rng.uniform(0.1, 0.45)
            X = np.array([a, rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)])
            Y = np.array([a + rng.uniform(0.2, 0.45), rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)])
            calls.append(self._iso("example1", X, Y, eye, False))
        r1 = rng.uniform(0.1, 0.4)
        calls.append(self._iso("example2", r1 * _unit(rng), (r1 + rng.uniform(0.2, 0.5)) * _unit(rng),
                               eye, False))
        A = rng.normal(size=(3, 3))
        A = A if np.linalg.det(A) > 0 else -A
        calls.append(self._iso("det_cal", rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                               A / np.cbrt(np.linalg.det(A)), True))
        calls.append(self._iso("identity_cal", rng.uniform(-0.9, 0.9, 3), rng.uniform(-0.9, 0.9, 3),
                               eye + 0.5 * rng.normal(size=(3, 3)), False))
        pass_first = index % 2 == 0
        calls.append(self._homog("example1" if pass_first else "example2", "analytic"))
        calls.append(self._fibre("example2", np.zeros(3), mode="germ1", grade=0))
        for _ in range(7):
            # off the centre the first-order germ gives grade 1 today; a
            # germ can only lose grade against the pointwise 2
            calls.append(self._fibre("example2", rng.uniform(0.2, 0.8) * _unit(rng), mode="germ1",
                                     grade_range=(1, 2)))
        calls.append(self._fibre("example1", _e1_point(rng, "right"), mode="germ1", grade=2))
        calls.append(self._homog("example2" if pass_first else "example1", "trace"))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]


class Mdl(Workload):
    name = "mdl"
    why = ("the same queries on user inputs: DSL tree-walking model, real finite "
           "differences, jacobian_fd on a chart file without jac entries, CLI region predicate")

    N_CHARTS = 4
    FIBRE_PAIRS = 15
    LEAVES = 10
    LEAF_STEPS = 3

    def mdl_path(self):
        return os.path.join(os.path.dirname(self.m["response"].__file__), "mdl", "example1.mdl")

    def _chart_spec(self, i):
        """Rotation in the (X2, X3) leaf plane, scale along X1, offsets; leafwise first.

        The region cut stays at the acceptance X1 >= 0.1: it alone decides
        the traced leaf pairs, and with them most of the call's cost.
        """
        rng = self.rng(3, i)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        a, b = float(np.cos(theta)), float(np.sin(theta))
        s = float(rng.uniform(0.5, 2.0))
        c1, c2, c3 = (float(c) for c in rng.uniform(-0.5, 0.5, 3))
        fwd = [f"{a!r}*X2 + {b!r}*X3 + {c1!r}", f"{-b!r}*X2 + {a!r}*X3 + {c2!r}",
               f"{s!r}*X1 + {c3!r}"]
        inv = [f"(X3 - {c3!r}) / {s!r}", f"{a!r}*(X1 - {c1!r}) - {b!r}*(X2 - {c2!r})",
               f"{b!r}*(X1 - {c1!r}) + {a!r}*(X2 - {c2!r})"]
        return fwd, inv

    def chart_path(self, i):
        return os.path.join(self.workdir, f"chart{i}.chart")

    def prepare(self):
        for i in range(self.N_CHARTS):
            fwd, inv = self._chart_spec(i)
            lines = [f"fwd{k + 1} = {e}" for k, e in enumerate(fwd)]
            lines += [f"inv{k + 1} = {e}" for k, e in enumerate(inv)]
            with open(self.chart_path(i), "w", encoding="utf-8") as fh:
                fh.write("# generated chart: no jac entries, so the Jacobian is finite-differenced\n")
                fh.write("\n".join(lines) + "\n")

    def setup(self, modules):
        super().setup(modules)
        self.model = self.m["response"].load_model_file(self.mdl_path())
        # the chart expressions are parsed once here; the CLI parses its file again per call
        for i in range(self.N_CHARTS):
            self.m["homogeneity"].chart_from_expressions(*self._chart_spec(i), 2)

    def _fibre(self, X, model=None):
        model = self.model if model is None else model
        return Call("fibre.mdl" if model is self.model else "fibre.builtin",
                    lambda: self.m["distribution"].material_fibre(model, X),
                    _judge_fibre(grade=_e1_expected_grade(X)))

    def _leaf(self, rng, steps):
        seed = np.array([rng.uniform(0.1, 0.8), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
        phi = rng.uniform(0.0, 2.0 * np.pi)
        direction = np.array([0.0, np.cos(phi), np.sin(phi)])
        return Call("leaf.mdl",
                    lambda: self.m["foliation"].leaf_trace(self.model, seed, direction, steps, 0.01),
                    _judge_leaf(_plane_drift, 1e-6, "mdl plane leaf", per_step=False))

    def _cli_homog(self, i):
        argv = ["homog", "--mdl", self.mdl_path(), "--chart", "@" + self.chart_path(i),
                "--region", "x1>=0.1", "--leafwise", "2", "--pairs", "2", "--samples", "3"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.m["cli"].main(argv)
            return code, out.getvalue()

        def judge(result):
            code, text = result
            if code not in (0, 3):
                return Outcome(0, failed=1)
            res = json.loads(text)["payload"]["result"]
            if not (res["foliated"]["pass"] and res["translation"]["pass"]):
                return Outcome(1, wrong=f"cli homog chart{i}: foliated/translation sub-test failed")
            eq25_ok = res["eq25"]["pass"] or res["eq25"]["worst"] <= FD_EQ25_LIMIT
            if not eq25_ok or (code == 0) != res["eq25"]["pass"]:
                return Outcome(1, wrong=f"cli homog chart{i}: exit {code}, eq25 worst "
                                        f"{res['eq25']['worst']:.3e}")
            return Outcome(1)

        return Call("cli.homog", call, judge)

    def warmup_calls(self):
        rng = self.rng(2, 0)
        return [self._fibre(_e1_point(rng, "left")), self._fibre(_e1_point(rng, "right"))]

    def cycle(self, index):
        """41 calls: 30 model fibres (p50), 10 short leaf traces, 1 CLI verdict.

        Sorted by latency, p90 lies 6 of the 10 leaf positions above the
        fibres, so it is a leaf latency and not a class boundary."""
        rng = self.rng(1, index)
        calls = [self._fibre(_e1_point(rng, side)) for side in ("left", "right") * self.FIBRE_PAIRS]
        calls += [self._leaf(rng, self.LEAF_STEPS) for _ in range(self.LEAVES)]
        calls.append(self._cli_homog(index % self.N_CHARTS))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    def reference_calls(self, cycles):
        """Built-in example1 fibres at the probe points of ``cycles`` (cost-ratio base)."""
        out = []
        for index in range(cycles):
            rng = self.rng(1, index)
            out += [self._fibre(_e1_point(rng, side), model=self.models["example1"])
                    for side in ("left", "right") * self.FIBRE_PAIRS]
        return out


WORKLOADS = {w.name: w for w in (Maps, Leaves, Probes, Mdl)}
