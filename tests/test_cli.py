import json

import numpy as np
import pytest

from matdist import cli
from matdist.distribution import SamplerConfig, material_fibre
from matdist.homogeneity import BUILTIN_CHARTS
from matdist.response import builtin


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def payload_of(out):
    return json.loads(out)["payload"]


class TestFibreCommand:
    def test_cube_flat_region_grade(self, capsys):
        code, out, _ = run(["fibre", "--model", "example1", "--point", "-0.5,0,0"], capsys)
        assert code == cli.EXIT_OK
        result = payload_of(out)["result"]
        assert result["grade"] == 3
        assert result["validated"] is True

    def test_crystal_origin_germ_mode(self, capsys):
        code, out, _ = run(["fibre", "--model", "example2", "--point", "0,0,0",
                            "--mode", "germ1"], capsys)
        assert code == cli.EXIT_OK
        assert payload_of(out)["result"]["grade"] == 0

    def test_det_cal_symmetry_dimension(self, capsys):
        code, out, _ = run(["fibre", "--model", "det_cal", "--point", "0,0,0"], capsys)
        assert code == cli.EXIT_OK
        result = payload_of(out)["result"]
        assert result["grade"] == 3
        assert result["sym_dim"] == 8

    def test_out_file_and_config_echo(self, tmp_path, capsys):
        out_path = tmp_path / "fibre.json"
        code, _, _ = run(["fibre", "--model", "example1", "--point", "0.5,0,0",
                          "--out", str(out_path)], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["payload"]["config"]["command"] == "fibre"
        assert doc["payload"]["config"]["model"] == "example1"
        assert doc["header"]["tool"] == "matdist"

    def test_point_outside_domain_is_runtime_error(self, capsys):
        code, _, err = run(["fibre", "--model", "example1", "--point", "2,0,0"], capsys)
        assert code == cli.EXIT_RUNTIME
        assert "error" in err

    @pytest.mark.parametrize("mode", ["pointwise", "germ1"])
    def test_exhausted_sampler_is_runtime_error(self, mode, capsys, monkeypatch):
        # the CLI does not expose the sampler bounds; a bound no random
        # gradient meets makes the sampler give up in either mode
        monkeypatch.setattr(cli, "SamplerConfig",
                            lambda seed: SamplerConfig(seed=seed, cond_max=1.0))
        code, _, err = run(["fibre", "--model", "example1", "--point", "0.5,0,0",
                            "--mode", mode], capsys)
        assert code == cli.EXIT_RUNTIME
        assert err == "matdist: error: gradient sampler failed to find acceptable samples\n"
        code, out, _ = run(["grade-map", "--model", "example1", "--grid-lo", "0.2,0,0",
                            "--grid-hi", "0.5,0,0", "--grid-n", "2,1,1", "--mode", mode], capsys)
        assert code == cli.EXIT_FLAGGED
        assert payload_of(out)["result"]["n_errors"] == 2

    @pytest.mark.parametrize("model,point,mode", [
        ("example1", "0.5,0,0", "pointwise"),
        ("example2", "0,0,0", "germ1"),
    ])
    def test_saturation_diagnostics_match_library(self, model, point, mode, capsys):
        code, out, _ = run(["fibre", "--model", model, "--point", point, "--mode", mode,
                            "--seed", "3"], capsys)
        assert code == cli.EXIT_OK
        result = payload_of(out)["result"]
        want = material_fibre(builtin(model), [float(v) for v in point.split(",")],
                              sampler=SamplerConfig(seed=3), mode=mode)
        assert result["samples_used"] == want.samples_used
        assert result["dim_history"] == want.dim_history
        assert result["heldout_residual"] == want.heldout_residual

    def test_flagged_result_exit_code(self, capsys):
        code, out, _ = run(["fibre", "--model", "example2", "--point", "0.3,0.2,0.1",
                            "--tol-residual", "1e-300"], capsys)
        assert code == cli.EXIT_FLAGGED
        assert payload_of(out)["result"]["validated"] is False


class TestGradeMapCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(["grade-map", "--model", "example1",
                            "--grid-lo", "-0.9,-0.1,-0.1", "--grid-hi", "0.9,0.1,0.1",
                            "--grid-n", "5,2,2"], capsys)
        assert code == cli.EXIT_OK
        result = payload_of(out)["result"]
        assert result["grid"]["shape"] == [5, 2, 2]
        assert result["stratum_count"] == 2

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "map.csv"
        code, _, _ = run(["grade-map", "--model", "det_cal",
                          "--grid-lo", "0,0,0", "--grid-hi", "1,0,0", "--grid-n", "2,1,1",
                          "--format", "csv", "--out", str(out_path)], capsys)
        assert code == cli.EXIT_OK
        lines = out_path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "x,y,z,grade,rank_gap,stratum"
        assert len(data) == 3
        assert any(ln.startswith("# command = grade-map") for ln in lines)

    def test_svg_slice(self, tmp_path, capsys):
        svg_path = tmp_path / "slice.svg"
        code, _, _ = run(["grade-map", "--model", "example1",
                          "--grid-lo", "-0.9,-0.1,-0.1", "--grid-hi", "0.9,0.1,0.1",
                          "--grid-n", "5,2,2", "--slice", "x3=0",
                          "--svg", str(svg_path)], capsys)
        assert code == cli.EXIT_OK
        body = svg_path.read_text()
        assert 'viewBox="0 0 720 720"' in body
        assert "green" in body and "orange" in body

    def test_svg_without_slice_is_usage_error(self, capsys):
        code, _, err = run(["grade-map", "--model", "example1", "--svg", "x.svg"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("slice_args", [[], ["--slice", "w=0"], ["--slice", "x3=abc"]],
                             ids=["missing", "unknown-axis", "malformed-value"])
    def test_bad_svg_slice_fails_before_compute(self, slice_args, monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("grade_map ran before the --slice check")

        monkeypatch.setattr(cli, "grade_map", no_compute)
        code, _, err = run(["grade-map", "--model", "example1", "--svg", "x.svg"] + slice_args,
                           capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err

    def test_failed_nodes_are_listed(self, tmp_path, capsys):
        # sqrt(X1) is not finite for X1 < 0, and its derivative is not at X1 = 0
        path = tmp_path / "root.mdl"
        path.write_text("response = sqrt(X1) * (F' * F - I)\n")
        code, out, _ = run(["grade-map", "--mdl", str(path), "--grid-lo", "-0.5,-0.1,0",
                            "--grid-hi", "0.5,0.1,0", "--grid-n", "3,2,1"], capsys)
        assert code == cli.EXIT_FLAGGED
        result = payload_of(out)["result"]
        assert result["n_errors"] == 4
        assert [e["node"] for e in result["errors"]] == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]
        assert all(e["message"] and set(e) == {"node", "message"} for e in result["errors"])
        assert result["grade"] == [[[-1], [-1]], [[-1], [-1]], [[2], [2]]]

        code, out, _ = run(["grade-map", "--mdl", str(path), "--grid-lo", "-0.9,-0.9,-0.9",
                            "--grid-hi", "-0.1,0.9,0.9", "--grid-n", "3"], capsys)
        result = payload_of(out)["result"]
        assert result["n_errors"] == 27
        assert len(result["errors"]) == 20  # the first 20, in node order
        assert result["errors"][-1]["node"] == [2, 0, 1]

    def test_threads_flag_is_gone(self, capsys):
        code, out, _ = run(["grade-map", "--model", "det_cal", "--grid-n", "1"], capsys)
        assert code == cli.EXIT_OK
        assert "threads" not in payload_of(out)["config"]
        code, _, err = run(["grade-map", "--model", "det_cal", "--grid-n", "1",
                            "--threads", "2"], capsys)
        assert code == cli.EXIT_USAGE


class TestLeafCommand:
    def test_json_trace(self, capsys):
        code, out, _ = run(["leaf", "--model", "example2", "--point", "0.3,0.2,0.1",
                            "--dir", "0,1,0", "--steps", "20", "--h", "0.01"], capsys)
        assert code == cli.EXIT_OK
        result = payload_of(out)["result"]
        assert result["n_points"] == 21
        radii = [np.linalg.norm(p) for p in result["points"]]
        assert max(abs(r - radii[0]) for r in radii) < 1e-6

    def test_csv_and_svg(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        svg_path = tmp_path / "trace.svg"
        code, _, _ = run(["leaf", "--model", "example2", "--point", "0.3,0.2,0.1",
                          "--dir", "0,1,0", "--steps", "10", "--h", "0.01",
                          "--format", "csv", "--out", str(out_path),
                          "--svg", str(svg_path)], capsys)
        assert code == cli.EXIT_OK
        data = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
        assert data[0] == "step,x,y,z,grade"
        assert len(data) == 12
        assert "<polyline" in svg_path.read_text()


    @pytest.mark.parametrize("flags,config", [
        (["--h", "0.1"], ""), (["--h", "-0.01"], ""), (["--h", "0"], ""),
        (["--steps", "-1"], ""), ([], "h = 0.1\n"), ([], "steps = many\n"),
        (["--mode", "germ1"], ""),
    ], ids=["h-too-large", "h-negative", "h-zero", "steps-negative", "h-config",
            "steps-config-malformed", "germ1-mode"])
    def test_bad_step_fails_before_model_is_built(self, flags, config, tmp_path, monkeypatch,
                                                  capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("the model was built before the step check")

        monkeypatch.setattr(cli, "builtin", no_model)
        argv = ["leaf", "--model", "example2", "--point", "0.3,0.2,0.1"] + flags
        if config:
            cfg = tmp_path / "leaf.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err


class TestHomogCommand:
    def test_cube_identity_chart_passes(self, capsys):
        code, out, _ = run(["homog", "--model", "example1", "--chart", "identity",
                            "--region", "x1>=0.1", "--leafwise", "2"], capsys)
        assert code == cli.EXIT_OK
        result = payload_of(out)["result"]
        assert result["foliated"]["pass"] and result["translation"]["pass"] and result["eq25"]["pass"]

    def test_crystal_spherical_cap_fails(self, capsys):
        code, out, _ = run(["homog", "--model", "example2", "--chart", "spherical_cap",
                            "--leafwise", "2"], capsys)
        assert code == cli.EXIT_NEGATIVE
        result = payload_of(out)["result"]
        assert result["translation"]["pass"] is False
        assert result["translation"]["witness"]

    def test_leafwise_above_grade_is_flagged(self, capsys):
        code, _, _ = run(["homog", "--model", "example1", "--chart", "identity",
                          "--region", "x1>=0.1", "--leafwise", "3"], capsys)
        assert code == cli.EXIT_FLAGGED

    def test_chart_file(self, tmp_path, capsys):
        chart_path = tmp_path / "perm.chart"
        chart_path.write_text(
            "fwd1 = X2\nfwd2 = X3\nfwd3 = X1\n"
            "inv1 = X3\ninv2 = X1\ninv3 = X2\n"
            "jac11 = 0\njac12 = 1\njac13 = 0\n"
            "jac21 = 0\njac22 = 0\njac23 = 1\n"
            "jac31 = 1\njac32 = 0\njac33 = 0\n"
        )
        code, _, _ = run(["homog", "--model", "example1", "--chart", f"@{chart_path}",
                          "--region", "x1>=0.1", "--leafwise", "2"], capsys)
        assert code == cli.EXIT_OK


    @pytest.mark.parametrize("flags,config", [
        (["--samples", "0"], ""), (["--pairs", "0"], ""), (["--pairs", "-2"], ""),
        ([], "samples = 0\n"), ([], "pairs = 0\n"),
        (["--oracle", "bogus"], ""), ([], "oracle = bogus\n"),
    ], ids=["samples-flag", "pairs-flag", "negative-pairs", "samples-config", "pairs-config",
            "oracle-flag", "oracle-config"])
    def test_bad_counts_and_oracles_fail_before_compute(self, flags, config, tmp_path,
                                                        monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("homogeneity_check ran before the usage check")

        monkeypatch.setattr(cli, "homogeneity_check", no_compute)
        argv = ["homog", "--model", "example1", "--chart", "identity"] + flags
        if config:
            cfg = tmp_path / "homog.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err


class TestCheckIsoCommand:
    def test_flat_region_isomorphic(self, capsys):
        code, out, _ = run(["check-iso", "--model", "example1",
                            "--from", "-0.5,0,0", "--to", "-0.2,0.3,0.3",
                            "--P", "identity"], capsys)
        assert code == cli.EXIT_OK
        assert payload_of(out)["result"]["verdict"] is True

    def test_distinct_stiffness_negative(self, capsys):
        code, out, _ = run(["check-iso", "--model", "example1",
                            "--from", "0.5,0,0", "--to", "0.7,0,0",
                            "--P", "identity"], capsys)
        assert code == cli.EXIT_NEGATIVE
        assert payload_of(out)["result"]["verdict"] is False

    def test_explicit_matrix(self, capsys):
        code, out, _ = run(["check-iso", "--model", "det_cal",
                            "--from", "0,0,0", "--to", "0.5,0,0",
                            "--P", "1,0,0,0,1,0,0,0,1"], capsys)
        assert code == cli.EXIT_OK


class TestParseCommand:
    def test_valid_source_prints_canonical_form(self, tmp_path, capsys):
        path = tmp_path / "m.mdl"
        path.write_text("response = det( F )\n")
        code, out, _ = run(["parse", "--mdl", str(path)], capsys)
        assert code == cli.EXIT_OK
        assert out == "response = det(F)\n"

    def test_bad_source_exits_65(self, tmp_path, capsys):
        path = tmp_path / "bad.mdl"
        path.write_text("response = det(\n")
        code, _, err = run(["parse", "--mdl", str(path)], capsys)
        assert code == cli.EXIT_MODEL_PARSE
        assert "parse error" in err

    def test_kind_error_exits_65(self, tmp_path, capsys):
        path = tmp_path / "bad2.mdl"
        path.write_text("response = F + 1\n")
        code, _, _ = run(["parse", "--mdl", str(path)], capsys)
        assert code == cli.EXIT_MODEL_PARSE

    def test_mdl_model_runs_in_fibre(self, tmp_path, capsys):
        path = tmp_path / "d.mdl"
        path.write_text("response = det(F)\n")
        code, out, _ = run(["fibre", "--mdl", str(path), "--point", "0,0,0"], capsys)
        assert code == cli.EXIT_OK
        assert payload_of(out)["result"]["grade"] == 3
        assert payload_of(out)["result"]["sym_dim"] == 8


class TestUsageErrors:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_missing_model(self, capsys):
        code, _, err = run(["fibre", "--point", "0,0,0"], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err

    def test_model_and_mdl_together(self, tmp_path, capsys):
        path = tmp_path / "d.mdl"
        path.write_text("response = det(F)\n")
        code, _, _ = run(["fibre", "--model", "example1", "--mdl", str(path),
                          "--point", "0,0,0"], capsys)
        assert code == cli.EXIT_USAGE

    def test_bad_point(self, capsys):
        code, _, _ = run(["fibre", "--model", "example1", "--point", "1,2"], capsys)
        assert code == cli.EXIT_USAGE

    def test_unknown_flag(self, capsys):
        code, _, _ = run(["fibre", "--model", "example1", "--point", "0,0,0",
                          "--bogus", "1"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv,flag", [
        (["fibre", "--model", "example1", "--point", "0.5,0,0"], "--svg"),
        (["homog", "--model", "example1", "--chart", "identity"], "--mode"),
        (["homog", "--model", "example1", "--chart", "identity"], "--svg"),
        (["check-iso", "--model", "example1", "--from", "0.5,0,0", "--to", "0.7,0,0"], "--mode"),
        (["check-iso", "--model", "example1", "--from", "0.5,0,0", "--to", "0.7,0,0"], "--svg"),
    ], ids=["fibre-svg", "homog-mode", "homog-svg", "check-iso-mode", "check-iso-svg"])
    def test_flag_the_subcommand_never_reads(self, argv, flag, tmp_path, capsys):
        # --mode belongs to fibre, grade-map and leaf; --svg to grade-map and leaf
        svg = tmp_path / "x.svg"
        value = str(svg) if flag == "--svg" else "germ1"
        code, out, err = run(argv + [flag, value], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and flag in err
        assert not out and not svg.exists()

    @pytest.mark.parametrize("argv,config,compute", [
        (["check-iso", "--model", "example1", "--from", "0.5,0,0", "--to", "0.7,0,0"],
         "mode = germ1\nsvg = {svg}\nbogus = 1\n", "is_material_isomorphism"),
        (["fibre", "--model", "example1", "--point", "0.5,0,0"], "svg = {svg}\n", "material_fibre"),
        (["homog", "--model", "example1", "--chart", "identity"], "mode = germ1\n",
         "homogeneity_check"),
        (["grade-map", "--model", "example1", "--grid-n", "2"], "bogus = 1\n", "grade_map"),
        (["leaf", "--model", "example2", "--point", "0.3,0.2,0.1"], "germ.radius = 0.01\n",
         "leaf_trace"),
    ], ids=["check-iso", "fibre-svg", "homog-mode", "grade-map-bogus", "leaf-germ"])
    def test_config_key_the_subcommand_never_reads(self, argv, config, compute, tmp_path,
                                                   monkeypatch, capsys):
        # a key in the file is as much a usage error as the flag it mirrors
        def no_compute(*args, **kwargs):
            raise AssertionError(f"{compute} ran before the config key check")

        monkeypatch.setattr(cli, compute, no_compute)
        svg = tmp_path / "y.svg"
        cfg = tmp_path / "f.cfg"
        cfg.write_text(config.format(svg=svg))
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE
        keys = [line.split("=")[0].strip() for line in cfg.read_text().splitlines()]
        assert "usage error" in err and all(key in err for key in keys)
        assert not out and not svg.exists()

    @pytest.mark.parametrize("argv", [
        ["fibre", "--model", "example2", "--point", "0.3,0.2,0.1", "--mode", "germ1"],
        ["grade-map", "--model", "example2", "--grid-n", "2", "--slice", "x3=0"],
        ["leaf", "--model", "example2", "--point", "0.3,0.2,0.1", "--steps", "2"],
        ["homog", "--model", "example2", "--chart", "spherical_cap", "--chart-param",
         "rho_min=0.2", "--pairs", "1", "--samples", "1"],
        ["homog", "--model", "example1", "--chart", "identity", "--region", "x1>=0.1",
         "--pairs", "1", "--samples", "1"],
        ["check-iso", "--model", "example1", "--from", "0.5,0,0", "--to", "0.7,0,0"],
    ], ids=["fibre", "grade-map", "leaf", "homog-chart-param", "homog-identity", "check-iso"])
    def test_emitted_config_reloads_in_its_subcommand(self, argv, tmp_path, capsys):
        # an emitted config holds command, the sampler settings and chart parameters
        cfg = tmp_path / "emitted.cfg"
        code, first, _ = run(argv + ["--emit-config", str(cfg)], capsys)
        assert f"command = {argv[0]}\n" in cfg.read_text()
        again, second, err = run([argv[0], "--config", str(cfg)], capsys)
        assert again == code, err
        assert payload_of(second) == payload_of(first)

    @pytest.mark.parametrize("chart,params", [
        ("identity", ["bogus=1"]), ("@file", ["bogus=1"]),
        ("spherical_cap", ["rho_min=0.2", "bogus=1"]), ("affine", ["bogus=1"]),
        ("affine", ["A=2"]),
    ], ids=["identity", "chart-file", "spherical-cap", "affine", "affine-matrix"])
    def test_chart_parameter_the_chart_never_reads(self, chart, params, tmp_path, monkeypatch,
                                                   capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("homogeneity_check ran before the chart parameter check")

        monkeypatch.setattr(cli, "homogeneity_check", no_compute)
        if chart == "@file":
            path = tmp_path / "perm.chart"
            path.write_text("fwd1 = X2\nfwd2 = X3\nfwd3 = X1\ninv1 = X3\ninv2 = X1\ninv3 = X2\n")
            chart = f"@{path}"
        argv = ["homog", "--model", "example1", "--chart", chart, "--region", "x1>=0.1",
                "--pairs", "1", "--samples", "1"]
        code, out, err = run(argv + [arg for p in params for arg in ("--chart-param", p)], capsys)
        assert code == cli.EXIT_USAGE
        unread = params[-1].split("=")[0]
        assert "usage error" in err and f"no parameter {unread}" in err and "rho_min" not in err
        assert not out

    @pytest.mark.parametrize("flag,item,message", [
        ("--param", "r", "--param expects name=value, got 'r'"),
        ("--param", "r=abc", "--param r: 'abc' is not a number"),
        ("--chart-param", "rho_min", "--chart-param expects name=value, got 'rho_min'"),
        ("--chart-param", "rho_min=abc", "--chart-param rho_min: 'abc' is not a number"),
    ], ids=["param-form", "param-number", "chart-param-form", "chart-param-number"])
    def test_malformed_parameter_names_its_flag(self, flag, item, message, monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("homogeneity_check ran with a malformed parameter")

        monkeypatch.setattr(cli, "homogeneity_check", no_compute)
        code, out, err = run(["homog", "--model", "example2", "--chart", "spherical_cap",
                              flag, item], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and message in err
        assert not out

    def test_one_parser_serves_calls_with_and_without_chart_parameters(self, monkeypatch,
                                                                       capsys):
        # the parser is built once per process: a --chart-param list, an
        # append default, must not carry from one call into the next
        class Passed:
            aborted, passed = False, True

            def to_json_dict(self):
                return {}

        monkeypatch.setattr(cli, "homogeneity_check", lambda *args, **kwargs: Passed())
        plain = ["homog", "--model", "example2", "--chart", "spherical_cap"]
        with_param = plain + ["--chart-param", "rho_min=0.2"]
        configs = []
        for argv in (plain, with_param, plain, with_param):
            code, out, err = run(argv, capsys)
            assert code == cli.EXIT_OK, err
            configs.append(payload_of(out)["config"])
        assert cli.build_parser() is cli.build_parser()
        assert "chart.rho_min" not in configs[0]
        assert configs[1]["chart.rho_min"] == "0.20000000000000001"
        assert configs[2] == configs[0] and configs[3] == configs[1]
        assert {k: v for k, v in configs[1].items() if k != "chart.rho_min"} == configs[0]

    def test_malformed_chart_parameter_names_its_config_key(self, tmp_path, monkeypatch,
                                                             capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError("homogeneity_check ran with a malformed parameter")

        monkeypatch.setattr(cli, "homogeneity_check", no_compute)
        cfg = tmp_path / "f"
        cfg.write_text("chart = spherical_cap\nchart.rho_min = abc\n")
        code, out, err = run(["homog", "--model", "example2", "--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and "config value chart.rho_min = 'abc' is not a number" in err
        assert "--chart-param" not in err and not out

    def test_unknown_chart_fails_before_the_model_is_built(self, monkeypatch, capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("the model was built before the chart name check")

        monkeypatch.setattr(cli, "builtin", no_model)
        code, out, err = run(["homog", "--model", "example1", "--chart", "bogus"], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and "bogus" in err
        assert all(name in err for name in BUILTIN_CHARTS) and "@file" in err
        assert not out

    def test_config_of_another_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "iso.cfg"
        run(["check-iso", "--model", "example1", "--from", "0.5,0,0", "--to", "0.7,0,0",
             "--emit-config", str(cfg)], capsys)
        code, out, err = run(["fibre", "--config", str(cfg), "--point", "0.5,0,0"], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and "check-iso" in err and not out

    @pytest.mark.parametrize("argv,config,key", [
        (["homog", "--model", "example1", "--chart", "identity"], "pairs = abc\n", "pairs"),
        (["fibre", "--model", "example1", "--point", "0.5,0,0"], "seed = 1.5\n", "seed"),
        (["fibre", "--model", "example1", "--point", "0.5,0,0"], "tol.rank_rel = tiny\n",
         "tol.rank_rel"),
    ], ids=["homog-pairs", "fibre-seed", "fibre-tolerance"])
    def test_malformed_config_number_names_the_key(self, argv, config, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        code, _, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and key in err

    @pytest.mark.parametrize("command,compute", [
        (["fibre", "--point", "0.5,0,0"], "material_fibre"), (["grade-map"], "grade_map"),
    ], ids=["fibre", "grade-map"])
    def test_bad_config_mode_fails_before_compute(self, command, compute, tmp_path,
                                                  monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError(f"{compute} ran before the mode check")

        monkeypatch.setattr(cli, compute, no_compute)
        cfg = tmp_path / "mode.cfg"
        cfg.write_text("mode = bogus\n")
        code, _, err = run([command[0], "--model", "example1", *command[1:],
                            "--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE
        assert "mode" in err and "bogus" in err


    @pytest.mark.parametrize("command,compute", [
        (["fibre", "--point", "0,0,0", "--mode", "germ1"], "material_fibre"),
        (["grade-map", "--mode", "germ1"], "grade_map"),
        (["grade-map"], "grade_map"),
    ], ids=["fibre", "grade-map", "grade-map-pointwise"])
    @pytest.mark.parametrize("flags,config", [
        (["--germ-radius", "0"], ""), (["--germ-radius", "nan"], ""),
        (["--germ-radius", "-0.01"], ""), (["--germ-cloud", "0"], ""),
        (["--germ-cloud", "-2"], ""), ([], "germ.radius = 0\n"), ([], "germ.radius = nan\n"),
        ([], "germ.cloud = 0\n"),
    ], ids=["radius-zero", "radius-nan", "radius-negative", "cloud-zero", "cloud-negative",
            "radius-config", "radius-nan-config", "cloud-config"])
    def test_bad_germ_cloud_fails_before_compute(self, command, compute, flags, config, tmp_path,
                                                 monkeypatch, capsys):
        def no_compute(*args, **kwargs):
            raise AssertionError(f"{compute} ran before the germ argument check")

        monkeypatch.setattr(cli, compute, no_compute)
        argv = [command[0], "--model", "example2", *command[1:]] + flags
        if config:
            cfg = tmp_path / "germ.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and "germ" in err


# every setting with a converter or a choice list: (key, flag, a value it rejects)
COMMON_SETTINGS = [("seed", "--seed", "1.5"), ("tol.rank_rel", "--tol-rank", "tiny"),
                   ("tol.residual", "--tol-residual", "tiny"), ("tol.fd_rel", "--tol-fd-rel", "tiny"),
                   ("tol.fd_abs", "--tol-fd-abs", "tiny")]
MODE = [("mode", "--mode", "bogus")]
GERM = [("germ.radius", "--germ-radius", "wide"), ("germ.cloud", "--germ-cloud", "2.5")]
COMMANDS = {  # a valid invocation, the call that computes, and the settings it takes
    "fibre": (["--model", "example1", "--point", "0.5,0,0"], "material_fibre",
              COMMON_SETTINGS + [("format", "--format", "csv")] + MODE + GERM),
    "grade-map": (["--model", "example1", "--grid-n", "2"], "grade_map",
                  COMMON_SETTINGS + [("format", "--format", "xml")] + MODE + GERM),
    "leaf": (["--model", "example2", "--point", "0.3,0.2,0.1"], "leaf_trace",
             COMMON_SETTINGS + [("format", "--format", "xml")] + MODE
             + [("steps", "--steps", "many"), ("h", "--h", "small")]),
    "homog": (["--model", "example1", "--chart", "identity"], "homogeneity_check",
              COMMON_SETTINGS + [("format", "--format", "csv"), ("leafwise", "--leafwise", "two"),
                                 ("pairs", "--pairs", "abc"), ("samples", "--samples", "1.5"),
                                 ("oracle", "--oracle", "bogus")]),
    "check-iso": (["--model", "example1", "--from", "0.5,0,0", "--to", "0.7,0,0"],
                  "is_material_isomorphism", COMMON_SETTINGS + [("format", "--format", "csv")]),
}
BAD_VALUES = [(command, *setting) for command, (_, _, settings) in COMMANDS.items()
              for setting in settings]


class TestFlagConfigParity:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,key,flag,value", BAD_VALUES,
                             ids=[f"{c}-{k}" for c, k, _, _ in BAD_VALUES])
    def test_bad_value_is_a_usage_error_from_either_source(self, command, key, flag, value,
                                                           source, tmp_path, monkeypatch, capsys):
        argv, compute, _ = COMMANDS[command]

        def no_compute(*args, **kwargs):
            raise AssertionError(f"{compute} ran with {key} = {value!r}")

        monkeypatch.setattr(cli, compute, no_compute)
        if source == "flag":
            extra = [flag, value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key} = {value}\n")
            extra = ["--config", str(cfg)]
        code, out, err = run([command, *argv, *extra], capsys)
        assert code == cli.EXIT_USAGE
        assert "usage error" in err and (flag if source == "flag" else key) in err
        assert not out


class TestReproducibility:
    def extract_payload_bytes(self, text):
        start = text.index('"payload"')
        return text[start:]

    def test_fibre_config_round_trip(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        cfg = tmp_path / "a.cfg"
        code, _, _ = run(["fibre", "--model", "example2", "--point", "0.3,0.2,0.1",
                          "--seed", "3", "--out", str(out1), "--emit-config", str(cfg)], capsys)
        assert code == cli.EXIT_OK
        out2 = tmp_path / "b.json"
        code, _, _ = run(["fibre", "--config", str(cfg), "--out", str(out2)], capsys)
        assert code == cli.EXIT_OK
        assert self.extract_payload_bytes(out1.read_text()) == \
            self.extract_payload_bytes(out2.read_text())

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("model = example1\npoint = -0.5,0,0\nseed = 1\n")
        code, out, _ = run(["fibre", "--config", str(cfg), "--point", "0.5,0,0"], capsys)
        assert code == cli.EXIT_OK
        doc = payload_of(out)
        assert doc["config"]["point"] == "0.5,0,0"
        assert doc["result"]["grade"] == 2

    def test_seventeen_digit_floats(self, capsys):
        code, out, _ = run(["fibre", "--model", "example1", "--point", "0.1,0,0"], capsys)
        assert code == cli.EXIT_OK
        assert '"point"' in out
        doc = payload_of(out)
        assert doc["result"]["point"][0] == 0.1
        # a third appears in the canonical text at full precision
        assert cli.format_float(1.0 / 3.0) == "0.33333333333333331"

    def test_region_flag_applies(self, capsys):
        # region excludes the sampled slab entirely: sampling must fail
        code, _, err = run(["homog", "--model", "example1", "--chart", "identity",
                            "--region", "x1>=5", "--leafwise", "2"], capsys)
        assert code == cli.EXIT_RUNTIME
        assert "region" in err
