"""In-memory span tracer for the matdist benchmark.

Spans are taken from the benchmark's own files: each public function of a
matdist module is wrapped at the name its caller looks up (for example
``distribution.derivatives_at_samples``, which is what ``_blocks`` calls),
so the library itself is never modified.  numpy's ``svd`` is wrapped once
and attributed to the calling matdist module through the caller's frame.

A span records its layer, name, start, end, parent and request (the
benchmark operation that caused it).  Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of a run; the per-sample DSL
evaluations are only totalled, since a run makes hundreds of thousands.
A layer's self time is the summed duration of its spans minus the time
their direct children cover, so the self times of all layers add up to the
traced wall time.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numkit", "response", "distribution", "foliation", "homogeneity", "dsl", "cli", "bench")

# record fields
_ID, _PARENT, _REQUEST, _LAYER, _NAME, _START, _END, _CHILD = range(8)


class _CountingRng:
    """Generator proxy that counts the candidate gradients drawn through it."""

    def __init__(self, rng, counters):
        self._rng = rng
        self._counters = counters

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._rng.standard_normal(size, *args, **kwargs)
        self._counters["distribution.grad_candidates"] += len(out) if np.ndim(out) else 1
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _svd_out_bytes(shape, itemsize, full_matrices, compute_uv):
    """Bytes of (U, s, Vh) as requested, and as a thin SVD would return them."""
    m, n = shape[-2], shape[-1]
    k = min(m, n)
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    thin = (m * k + k + k * n) if compute_uv else k
    full = (m * m + k + n * n) if (compute_uv and full_matrices) else thin
    return batch * full * itemsize, batch * thin * itemsize


class Tracer:
    """Span stack plus counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.root_s = 0.0
        self.negative_self = 0
        self._totals = defaultdict(lambda: [0, 0.0, 0.0])  # (layer, name) -> calls, incl, self
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- spans --------------------------------------------------------------

    def begin(self, layer, name):
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            parent = self._stack[-1]
            # a request is a direct child of a root span; deeper spans inherit it
            request = sid if parent[_PARENT] is None else parent[_REQUEST]
            rec = [sid, parent[_ID], request, layer, name, 0.0, 0.0, 0.0]
        else:
            rec = [sid, None, sid, layer, name, 0.0, 0.0, 0.0]
        self._stack.append(rec)
        rec[_START] = time.perf_counter()
        return rec

    def end(self, rec, keep=True):
        """Close ``rec``; ``keep=False`` adds it to the totals without storing it."""
        rec[_END] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[_NAME]} closed out of order")
        dur = rec[_END] - rec[_START]
        own = dur - rec[_CHILD]
        totals = self._totals[(rec[_LAYER], rec[_NAME])]
        totals[0] += 1
        totals[1] += dur
        totals[2] += own
        if own < -1e-9:
            self.negative_self += 1
        if self._stack:
            self._stack[-1][_CHILD] += dur
        else:
            self.root_s += dur
        if keep:
            self.spans.append(rec)

    def call(self, layer, name, fn, *args, **kwargs):
        rec = self.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(rec)

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, module, attr, layer, name, count=None, keep=True):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``count(counters, args, kwargs, result)`` runs after a successful call;
        ``keep=False`` totals the spans without storing each one.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                rec = tracer.begin(layer, name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(rec, keep)
                if count is not None:
                    count(tracer.counters, args, kwargs, result)
                return result
            return wrapper

        self._patch(module, attr, make)

    def install(self, matdist_modules):
        """Patch every traced call site; ``matdist_modules`` maps short names to modules."""
        m = matdist_modules
        dist, fol, homog, resp = m["distribution"], m["foliation"], m["homogeneity"], m["response"]
        tracer = self

        def rank_split_counter(original):
            def wrapper(*args, **kwargs):
                tracer.counters["numkit.rank_split_calls"] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (dist, m["numkit"]):
            self._patch(module, "rank_split", rank_split_counter)
        self.wrap(fol, "rk4_step", "numkit", "rk4")
        self.wrap(homog, "jacobian_fd", "numkit", "jacobian_fd")

        deriv_rows = _rows_counter("response.deriv_rows", 2, "Fs")
        eval_rows = _rows_counter("response.eval_rows", 2, "Fs")
        self.wrap(dist, "derivatives_at_samples", "response", "deriv", deriv_rows)
        for module in (dist, resp):
            self.wrap(module, "evaluate_at_samples", "response", "eval", eval_rows)
        self.wrap(homog, "evaluate", "response", "eval", eval_rows)

        def count_unvalidated(counters, args, kwargs, result):
            if not result.validated:
                counters["distribution.unvalidated"] += 1

        for module in (dist, fol):
            self.wrap(module, "material_fibre", "distribution", "fibre", count_unvalidated)
        for module in (fol, homog):
            self.wrap(module, "base_basis_at", "distribution", "base")
        for module in (dist, homog):
            self.wrap(module, "is_material_isomorphism", "distribution", "iso")

        def sampler_wrapper(original):
            def wrapper(rng, count, sampler):
                rec = tracer.begin("distribution", "sample")
                try:
                    out = original(_CountingRng(rng, tracer.counters), count, sampler)
                finally:
                    tracer.end(rec)
                tracer.counters["distribution.grad_accepted"] += len(out)
                return out
            return wrapper

        self._patch(dist, "sample_gradients", sampler_wrapper)

        dist_name = dist.__name__

        def svd_wrapper(original):
            def wrapper(a, full_matrices=True, compute_uv=True, hermitian=False):
                caller = sys._getframe(1)
                if caller.f_globals.get("__name__") != dist_name:
                    return original(a, full_matrices, compute_uv, hermitian)
                arr = np.asarray(a)
                full, thin = _svd_out_bytes(arr.shape, arr.dtype.itemsize, full_matrices, compute_uv)
                c = tracer.counters
                c["distribution.svd_out_bytes"] += full
                c["distribution.svd_thin_bytes"] += thin
                c["distribution.svd_rows_max"] = max(c["distribution.svd_rows_max"], arr.shape[-2])
                if caller.f_code.co_name == "_saturate":
                    c["distribution.saturation_rounds"] += 1
                rec = tracer.begin("distribution", "svd")
                try:
                    return original(a, full_matrices, compute_uv, hermitian)
                finally:
                    tracer.end(rec)
            return wrapper

        self._patch(np.linalg, "svd", svd_wrapper)

        def count_nodes(counters, args, kwargs, result):
            counters["foliation.nodes"] += result.grade.size

        def count_steps(counters, args, kwargs, result):
            counters["foliation.leaf_steps"] += len(result.points) - 1

        self.wrap(fol, "grade_map", "foliation", "grade_map", count_nodes)
        for module in (fol, homog):
            self.wrap(module, "leaf_trace", "foliation", "leaf", count_steps)

        for module in (homog, m["cli"]):
            self.wrap(module, "homogeneity_check", "homogeneity", "check")
        self.wrap(homog, "sample_region", "homogeneity", "sample_region")
        self.wrap(homog, "leaf_pairs", "homogeneity", "leaf_pairs")
        self.wrap(homog, "eq25_residual", "homogeneity", "eq25")

        for attr in ("parse_source", "parse_expression"):
            self.wrap(m["dsl"], attr, "dsl", "parse")
        # one call per response sample: hundreds of thousands per run
        self.wrap(m["dsl"], "evaluate_model_def", "dsl", "eval", keep=False)

        self.wrap(m["cli"], "main", "cli", "main")

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per-name call counts and inclusive times, and per-layer self times."""
        calls, incl, self_by_name = defaultdict(int), defaultdict(float), defaultdict(float)
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for (layer, name), (n, total, own) in self._totals.items():
            key = f"{layer}.{name}"
            calls[key] = n
            incl[key] = total
            self_by_name[key] = own
            self_by_layer[layer] += own
        return {"calls": calls, "incl": incl, "self_by_name": self_by_name,
                "self_by_layer": self_by_layer, "root_s": self.root_s,
                "negative_self": self.negative_self}

    def request_durations(self, layer, name, request_names):
        """Durations of ``layer.name`` spans grouped by the name of their request span."""
        by_id = {rec[_ID]: rec for rec in self.spans}
        out = defaultdict(list)
        for rec in self.spans:
            if rec[_LAYER] == layer and rec[_NAME] == name:
                req = by_id.get(rec[_REQUEST])
                if req is not None and req[_NAME] in request_names:
                    out[req[_NAME]].append(rec[_END] - rec[_START])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"id": rec[_ID], "parent": rec[_PARENT], "request": rec[_REQUEST],
                                     "layer": rec[_LAYER], "name": rec[_NAME],
                                     "start": rec[_START], "end": rec[_END]}) + "\n")


def _rows_counter(key, index, kwarg):
    def count(counters, args, kwargs, result):
        rows = args[index] if len(args) > index else kwargs.get(kwarg)
        counters[key] += len(rows) if np.ndim(rows) > 2 else 1
    return count


# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("numkit.rank_split_calls", "count"), ("numkit.rk4_steps", "count"), ("numkit.rk4_s", "s"),
    ("numkit.jacobian_fd_calls", "count"), ("numkit.jacobian_fd_s", "s"), ("numkit.self_s", "s"),
    ("response.deriv_calls", "count"), ("response.deriv_rows", "count"), ("response.deriv_s", "s"),
    ("response.eval_calls", "count"), ("response.eval_rows", "count"), ("response.eval_s", "s"),
    ("response.self_s", "s"),
    ("distribution.fibre_calls", "count"), ("distribution.fibre_s", "s"),
    ("distribution.base_calls", "count"), ("distribution.base_s", "s"),
    ("distribution.grad_candidates", "count"), ("distribution.grad_accepted", "count"),
    ("distribution.grad_accept_ratio", "ratio"), ("distribution.sample_s", "s"),
    ("distribution.svd_calls", "count"), ("distribution.svd_s", "s"),
    ("distribution.svd_rows_max", "rows"), ("distribution.svd_out_bytes", "B"),
    ("distribution.svd_useful_ratio", "ratio"), ("distribution.saturation_rounds", "count"),
    ("distribution.unvalidated", "count"), ("distribution.iso_calls", "count"),
    ("distribution.iso_s", "s"), ("distribution.self_s", "s"),
    ("foliation.nodes", "count"), ("foliation.grade_map_s", "s"), ("foliation.leaf_steps", "count"),
    ("foliation.leaf_s", "s"), ("foliation.pool_speedup", "ratio"), ("foliation.self_s", "s"),
    ("homogeneity.check_calls", "count"), ("homogeneity.check_s", "s"),
    ("homogeneity.sample_region_s", "s"), ("homogeneity.leaf_pairs_s", "s"),
    ("homogeneity.eq25_calls", "count"), ("homogeneity.eq25_s", "s"), ("homogeneity.self_s", "s"),
    ("dsl.parse_s", "s"), ("dsl.eval_calls", "count"), ("dsl.eval_s", "s"),
    ("dsl.fibre_cost_ratio", "ratio"), ("dsl.self_s", "s"),
    ("cli.main_calls", "count"), ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("bench.self_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"),
)

# metric prefix -> span key whose call count and inclusive time it reports
_SPAN_METRICS = {
    "numkit.jacobian_fd": "numkit.jacobian_fd",
    "response.deriv": "response.deriv",
    "response.eval": "response.eval",
    "distribution.fibre": "distribution.fibre",
    "distribution.base": "distribution.base",
    "distribution.svd": "distribution.svd",
    "distribution.iso": "distribution.iso",
    "homogeneity.check": "homogeneity.check",
    "homogeneity.eq25": "homogeneity.eq25",
    "dsl.eval": "dsl.eval",
    "cli.main": "cli.main",
}


def layer_metrics(tracer):
    """Every per-layer metric the spans and counters give (ratios set elsewhere are 0)."""
    s = tracer.summary()
    c = tracer.counters
    out = {name: 0.0 for name, _ in PER_LAYER}
    for prefix, key in _SPAN_METRICS.items():
        out[f"{prefix}_calls"] = s["calls"][key]
        out[f"{prefix}_s"] = s["incl"][key]
    for layer, value in s["self_by_layer"].items():
        out[f"{layer}.self_s"] = value
    out["numkit.rank_split_calls"] = c["numkit.rank_split_calls"]
    out["numkit.rk4_steps"] = s["calls"]["numkit.rk4"]
    out["numkit.rk4_s"] = s["incl"]["numkit.rk4"]
    out["response.deriv_rows"] = c["response.deriv_rows"]
    out["response.eval_rows"] = c["response.eval_rows"]
    out["distribution.grad_candidates"] = c["distribution.grad_candidates"]
    out["distribution.grad_accepted"] = c["distribution.grad_accepted"]
    if c["distribution.grad_candidates"]:
        out["distribution.grad_accept_ratio"] = (c["distribution.grad_accepted"]
                                                 / c["distribution.grad_candidates"])
    out["distribution.sample_s"] = s["incl"]["distribution.sample"]
    out["distribution.svd_rows_max"] = c["distribution.svd_rows_max"]
    out["distribution.svd_out_bytes"] = c["distribution.svd_out_bytes"]
    if c["distribution.svd_out_bytes"]:
        out["distribution.svd_useful_ratio"] = (c["distribution.svd_thin_bytes"]
                                                / c["distribution.svd_out_bytes"])
    out["distribution.saturation_rounds"] = c["distribution.saturation_rounds"]
    out["distribution.unvalidated"] = c["distribution.unvalidated"]
    out["foliation.nodes"] = c["foliation.nodes"]
    out["foliation.grade_map_s"] = s["self_by_name"]["foliation.grade_map"]
    out["foliation.leaf_steps"] = c["foliation.leaf_steps"]
    out["foliation.leaf_s"] = s["incl"]["foliation.leaf"]
    out["homogeneity.sample_region_s"] = s["incl"]["homogeneity.sample_region"]
    out["homogeneity.leaf_pairs_s"] = s["incl"]["homogeneity.leaf_pairs"]
    out["dsl.parse_s"] = s["incl"]["dsl.parse"]
    return out, s
