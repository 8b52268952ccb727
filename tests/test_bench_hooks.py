"""The benchmark tracer's hooks into the package.

``bench/tracing.py`` wraps library functions at the names their callers look
up.  Installing it here means a renamed or removed hooked function fails the
test suite rather than the first traced benchmark run, and uninstalling it
must leave every module exactly as it was.
"""

import glob
import importlib.util
import os
import re

import numpy as np
import pytest

from matdist import cli, distribution, dsl, foliation, homogeneity, numkit, response
from matdist.distribution import SamplerConfig
from matdist.foliation import GridSpec

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "matdist")
TRACER_MARK = "a module name the benchmark tracer wraps"

MODULES = {"cli": cli, "distribution": distribution, "dsl": dsl, "foliation": foliation,
           "homogeneity": homogeneity, "numkit": numkit, "response": response}

# names the benchmark's per-layer metrics rest on
HOOKED = [
    (distribution, "derivatives_at_samples"),
    (distribution, "evaluate_at_samples"),
    (response, "evaluate_at_samples"),
    (homogeneity, "evaluate"),
    (foliation, "base_basis_at"),
    (homogeneity, "base_basis_at"),
    (foliation, "leaf_trace"),
    (homogeneity, "leaf_trace"),
    (distribution, "sample_gradients"),
    (distribution, "material_fibre"),
    (foliation, "material_fibre"),
    (foliation, "grade_map"),
    (homogeneity, "leaf_pairs"),
    (dsl, "evaluate_model_def"),
    (cli, "main"),
]


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores(tracing):
    before = {module: dict(vars(module)) for module in MODULES.values()}
    svd = np.linalg.svd
    tracer = tracing.Tracer()
    try:
        tracer.install(MODULES)
        for module, attr in HOOKED:
            assert getattr(module, attr) is not before[module][attr], \
                f"{module.__name__}.{attr} is not hooked"
        assert np.linalg.svd is not svd
    finally:
        tracer.uninstall()
    assert np.linalg.svd is svd
    for module, attrs in before.items():
        after = vars(module)
        changed = [attr for attr, value in attrs.items() if after.get(attr) is not value]
        assert not changed, f"{module.__name__}: {changed} not restored"
        assert set(after) == set(attrs), f"{module.__name__}: attributes added or lost"


def test_hooks_see_a_grade_map(tracing, det_cal):
    tracer = tracing.Tracer()
    try:
        tracer.install(MODULES)
        foliation.grade_map(det_cal, GridSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2, 1, 1)))
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["foliation.grade_map"] == 1
    assert calls["response.deriv"] >= 1
    assert tracer.counters["response.deriv_rows"] >= 2
    assert tracer.counters["foliation.nodes"] == 2


def test_traced_runs_replay_draws_and_probe_the_pool(tracing, example2, det_cal):
    # a cleared pool draws again, through the traced sample_gradients and its
    # proxy generators; a tight sampler leaves some first batches short, so
    # they draw more; grade_map(threads=2) is the call bench/run.py:pool_probe makes
    sampler = SamplerConfig(cond_max=8.0)
    point = [0.3, 0.2, 0.1]
    grid = GridSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2, 1, 1))
    want = distribution.material_fibre(example2, point, sampler=sampler, mode="germ1")
    distribution._pool_draw.cache_clear()
    tracer = tracing.Tracer()
    try:
        tracer.install(MODULES)
        got = distribution.material_fibre(example2, point, sampler=sampler, mode="germ1")
        field = foliation.grade_map(det_cal, grid, threads=2)
    finally:
        tracer.uninstall()
    assert tracer.counters["distribution.grad_candidates"] > 0, "no draw was replayed"
    assert tracer.counters["distribution.grad_accepted"] > 0
    assert np.array_equal(got.fibre_basis, want.fibre_basis)
    assert got.dim_history == want.dim_history and got.heldout_residual == want.heldout_residual
    assert np.array_equal(field.grade, foliation.grade_map(det_cal, grid).grade)
    assert tracer.counters["foliation.nodes"] == 2


def test_names_kept_for_the_tracer_are_hooked():
    # an import kept only for the tracer is dead code once the tracer stops
    # wrapping it; listing it in HOOKED makes that show here
    hooked = {(module.__name__, name) for module, name in HOOKED}
    kept = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = "matdist." + os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if TRACER_MARK in line:
                    kept.add((module, re.search(r"(\w+),?\s*# noqa", line).group(1)))
    assert kept, "no import is marked as kept for the tracer"
    assert kept <= hooked, f"imports kept for the tracer but not hooked: {sorted(kept - hooked)}"
