"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
heavy grade fields are computed once per session.
"""

import glob
import json
import os
import time

import numpy as np
import pytest

from matdist import cli, dsl
from matdist.distribution import SamplerConfig, material_fibre
from matdist.foliation import GridSpec, grade_map, leaf_trace
from matdist.homogeneity import builtin_chart, homogeneity_check, sample_region, translation_jet
from matdist.response import builtin, evaluate, load_model_file

from conftest import expm3, random_invertible
from subspaces import null_basis, principal_angles

ACCEPTANCE_POINTS = [
    ("example1", (-0.5, 0.2, 0.1), "pointwise"),
    ("example1", (0.5, 0.0, 0.0), "pointwise"),
    ("example1", (0.2, 0.0, 0.0), "germ1"),
    ("example2", (0.3, 0.2, 0.1), "pointwise"),
    ("example2", (0.3, 0.0, 0.0), "pointwise"),
    ("example2", (0.0, 0.0, 0.0), "germ1"),
    ("det_cal", (0.1, 0.2, 0.3), "pointwise"),
    ("identity_cal", (0.1, 0.2, 0.3), "pointwise"),
]


def announce(number, text):
    print(f"\nACCEPTANCE {number} PASS - {text}")


@pytest.fixture(scope="module")
def cube_field(example1):
    start = time.perf_counter()
    field = grade_map(example1, GridSpec((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9), (21, 21, 21)))
    return field, time.perf_counter() - start


@pytest.fixture(scope="module")
def crystal_field(example2):
    start = time.perf_counter()
    field = grade_map(example2, GridSpec((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9), (21, 21, 21)))
    return field, time.perf_counter() - start


def test_criterion_1_cube_grade_field(cube_field):
    field, elapsed = cube_field
    pts = field.grid.points()
    left = pts[..., 0] <= 0.0
    right = pts[..., 0] >= 0.1 - 1e-12
    assert np.all(field.grade[left] == 3), "grade 3 expected at every node with X1 <= 0"
    assert np.all(field.grade[right] == 2), "grade 2 expected at every node with X1 >= 0.1"
    assert field.stratum_count() == 2
    assert elapsed <= 60.0, f"cube grade field took {elapsed:.1f}s (budget 60s)"
    announce(1, f"cube grade field 21^3: grade 3 left / 2 right of the interface "
                f"({elapsed:.1f}s)")


def test_criterion_2_crystal_grade_field(crystal_field, example2):
    field, elapsed = crystal_field
    pts = field.grid.points()
    norms = np.linalg.norm(pts, axis=-1)
    mask = (norms <= 0.9) & (norms >= 0.05)
    assert np.all(field.grade[mask] == 2), "grade 2 expected on the punctured ball"
    origin = material_fibre(example2, [0.0, 0.0, 0.0], mode="germ1")
    assert origin.grade == 0
    assert elapsed <= 120.0, f"crystal grade field took {elapsed:.1f}s (budget 120s)"
    announce(2, f"crystal grade field 21^3 ball: grade 2 off the centre, germ grade 0 at it "
                f"({elapsed:.1f}s)")


def test_criterion_3_leaf_conformance(example1, example2):
    start = time.perf_counter()
    trace2 = leaf_trace(example2, [0.3, 0.2, 0.1], [0.0, 1.0, 0.0], 200, 0.01)
    t2 = time.perf_counter() - start
    radii = np.linalg.norm(trace2.points, axis=1)
    drift = float(np.abs(radii - radii[0]).max())
    assert drift <= 1e-4
    assert t2 <= 10.0

    start = time.perf_counter()
    trace1 = leaf_trace(example1, [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], 200, 0.01)
    t1 = time.perf_counter() - start
    plane_drift = float(np.abs(trace1.points[:, 0] - 0.5).max())
    assert plane_drift <= 1e-6
    assert t1 <= 10.0
    announce(3, f"leaf traces: sphere drift {drift:.2e} <= 1e-4, plane drift "
                f"{plane_drift:.2e} <= 1e-6 ({t2:.1f}s / {t1:.1f}s)")


def test_criterion_4_homogeneity_verdicts(example1, example2):
    start = time.perf_counter()
    chart1 = builtin_chart("identity").restrict(lambda X: X[0] >= 0.1)
    report1 = homogeneity_check(example1, chart1, n_pairs=12, n_samples=10)
    t1 = time.perf_counter() - start
    assert report1.passed
    worst = max(report1.foliated.worst, report1.translation.worst, report1.eq25.worst)
    assert worst <= 1e-7
    assert t1 <= 30.0

    start = time.perf_counter()
    report2 = homogeneity_check(example2, builtin_chart("spherical_cap"),
                                n_pairs=12, n_samples=10)
    t2 = time.perf_counter() - start
    assert not report2.translation.passed
    assert report2.translation.witness, "a failing pair must be recorded"
    assert report2.translation.worst > 1e-7
    assert t2 <= 30.0
    announce(4, f"homogeneity: cube identity chart passes (worst {worst:.2e}), "
                f"crystal spherical cap rejected with witness ({t1:.1f}s / {t2:.1f}s)")


def test_criterion_5_calibration_oracles(det_cal, identity_cal):
    start = time.perf_counter()
    result = material_fibre(det_cal, [0.1, 0.2, 0.3])
    assert result.grade == 3
    assert result.sym_dim == 8
    trace_worst = max(abs(np.trace(S)) for S in result.sym_basis)
    assert trace_worst <= 1e-9

    rng = np.random.default_rng(2026)
    X = np.array([0.1, 0.2, 0.3])
    exp_worst = 0.0
    for S in result.sym_basis:
        for t in (0.1, 1.0):
            G = expm3(S, t)
            for _ in range(3):
                F = random_invertible(rng)
                delta = np.abs(evaluate(det_cal, X, F @ G) - evaluate(det_cal, X, F)).max()
                exp_worst = max(exp_worst, float(delta))
    assert exp_worst <= 1e-12

    identity_result = material_fibre(identity_cal, [0.1, 0.2, 0.3])
    assert identity_result.sym_dim == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    announce(5, f"calibration: volumetric response grade 3 / algebra 8 (traceless "
                f"{trace_worst:.1e}, group invariance {exp_worst:.1e}), identity algebra 0 "
                f"({elapsed:.1f}s)")


def test_criterion_6_property_suites(example1, example2):
    # null-space scaling invariance at factors 1e+-3
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 12))
        base, rank_base = null_basis(M)
        for factor in (1e-3, 1e3):
            scaled, rank_scaled = null_basis(factor * M)
            assert rank_base == rank_scaled
            assert principal_angles(base, scaled).max() <= 1e-8

    # seed-independence of every reported dimension on the acceptance points
    for name, point, mode in ACCEPTANCE_POINTS:
        model = builtin(name)
        dims = set()
        for seed in range(5):
            r = material_fibre(model, point, sampler=SamplerConfig(seed=seed), mode=mode)
            dims.add((r.grade, r.fibre_dim, r.sym_dim))
        assert len(dims) == 1, f"dimensions vary with the seed at {name} {point}"

    # held-out admissibility residual for every fibre basis vector
    worst_res = 0.0
    for name, point, mode in ACCEPTANCE_POINTS:
        r = material_fibre(builtin(name), point, mode=mode)
        assert r.validated
        worst_res = max(worst_res, r.heldout_residual)
    assert worst_res <= 1e-7

    # germ grade never exceeds the pointwise grade (50 points per example)
    rng = np.random.default_rng(2)
    for model, sampler_box in ((example1, 0.9), (example2, 0.55)):
        for _ in range(50):
            X = rng.uniform(-sampler_box, sampler_box, 3)
            g_point = material_fibre(model, X).grade
            g_germ = material_fibre(model, X, mode="germ1").grade
            assert g_germ <= g_point

    # translation-jet chain rule on 100 random triples
    chart = builtin_chart("spherical_cap")
    rng = np.random.default_rng(3)
    points = sample_region(example2, chart, rng, 300)
    chain_worst = 0.0
    for i in range(100):
        X, Y, Z = points[3 * i:3 * i + 3]
        lhs = translation_jet(chart, Y, Z) @ translation_jet(chart, X, Y)
        chain_worst = max(chain_worst, float(np.abs(lhs - translation_jet(chart, X, Z)).max()))
    assert chain_worst <= 1e-9
    announce(6, f"properties: scaling invariance, 5-seed dimension stability, held-out "
                f"residuals <= {worst_res:.1e}, germ<=pointwise at 100 points, chain rule "
                f"{chain_worst:.1e}")


def test_criterion_7_dsl_equivalence(example1):
    import matdist

    mdl_dir = os.path.join(os.path.dirname(matdist.__file__), "mdl")
    parsed = load_model_file(os.path.join(mdl_dir, "example1.mdl"))
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        X = rng.uniform(-0.99, 0.99, 3)
        F = random_invertible(rng)
        worst = max(worst, float(np.abs(evaluate(parsed, X, F) - evaluate(example1, X, F)).max()))
    assert worst <= 1e-12

    sources = sorted(glob.glob(os.path.join(mdl_dir, "*.mdl")))
    assert sources
    for path in sources:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        first = dsl.pretty_source(dsl.parse_source(text))
        second = dsl.pretty_source(dsl.parse_source(first))
        assert first == second, path
    announce(7, f"DSL: transcription matches the built-in to {worst:.1e} on 100 jets; "
                f"{len(sources)} shipped sources are print fixed points")


def test_criterion_8_reproducibility(tmp_path):
    def payload_bytes(path):
        text = path.read_text()
        return text[text.index('"payload"'):]

    runs = [
        (["fibre", "--model", "example2", "--point", "0.3,0.2,0.1",
          "--mode", "germ1", "--seed", "7"], "fibre"),
        (["grade-map", "--model", "example1", "--grid-lo", "-0.9,-0.1,-0.1",
          "--grid-hi", "0.9,0.1,0.1", "--grid-n", "7,2,2", "--seed", "7"], "grade-map"),
        (["homog", "--model", "example1", "--chart", "identity",
          "--region", "x1>=0.1", "--leafwise", "2", "--seed", "7"], "homog"),
    ]
    for argv, label in runs:
        first = tmp_path / f"{label}-a.json"
        cfg = tmp_path / f"{label}.cfg"
        second = tmp_path / f"{label}-b.json"
        code = cli.main(argv + ["--out", str(first), "--emit-config", str(cfg)])
        assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE)
        code2 = cli.main([label, "--config", str(cfg), "--out", str(second)])
        assert code2 == code
        assert payload_bytes(first) == payload_bytes(second), f"{label} payload drifted"
        # and the payload parses back to the same structure
        assert json.loads(first.read_text())["payload"] == json.loads(second.read_text())["payload"]
    announce(8, "reproducibility: emitted configs reproduce fibre, grade-map and homog "
                "payloads byte-identically")
