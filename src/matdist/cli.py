"""Command-line front end.

Subcommands: fibre, grade-map, leaf, homog, check-iso, parse.  A flat
``key = value`` config file mirrors the flags (flags win); every output
embeds the effective config so that re-running an emitted config
reproduces the JSON payload byte-identically at a fixed seed.  All
floating-point output uses 17 significant digits.

Exit codes: 0 pass, 1 runtime error, 2 flagged numerical result,
3 negative verdict, 64 usage error, 65 model parse error.
"""

import argparse
import functools
import math
import re
import os
import sys
import time

import numpy as np

from . import __version__
from .distribution import (
    GERM_CLOUD,
    GERM_RADIUS,
    MODES,
    SamplerConfig,
    check_germ_args,
    is_material_isomorphism,
    material_fibre,
)
from .errors import MatdistError, ModelParseError
from . import dsl
from .foliation import (
    GridSpec,
    check_trace_args,
    grade_field_csv,
    grade_field_json_dict,
    grade_map,
    grade_slice_svg,
    leaf_trace,
    leaf_trace_csv,
    leaf_trace_json_dict,
    leaf_trace_svg,
)
from .homogeneity import (
    BUILTIN_CHARTS,
    LEAF_ORACLES,
    builtin_chart,
    chart_from_expressions,
    homogeneity_check,
)
from .numkit import Tolerances
from .response import builtin, load_model_file

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_FLAGGED = 2
EXIT_NEGATIVE = 3
EXIT_USAGE = 64
EXIT_MODEL_PARSE = 65

_AXIS_NAMES = {"x1": 0, "x2": 1, "x3": 2, "x": 0, "y": 1, "z": 2}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: "--mode" must not be taken for "--model"
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        # accept comma-joined negative coordinates like "-0.5,0,0" as values
        self._negative_number_matcher = re.compile(r"^-\d+[\d.,eE+-]*$|^-\.\d[\d.,eE+-]*$")

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# canonical JSON with 17-significant-digit floats


def format_float(value):
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return "null"
    return "%.17g" % value


def canonical_json(obj, indent=0):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(f'{pad}  "{key}": {canonical_json(obj[key], indent + 2).lstrip()}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + "  " + canonical_json(v, indent + 2).lstrip() for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    text = str(obj)
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


# ---------------------------------------------------------------------------
# config files


def read_config(path):
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def config_to_text(cfg):
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))


class _Settings:
    """Resolution order: explicit flag > config file > default."""

    def __init__(self, args, file_cfg):
        self.args = args
        self.file_cfg = file_cfg
        self.effective = {}
        self.read = set()  # config keys the subcommand has looked up

    def get(self, key, arg_name, default, convert=str, choices=None):
        """Flag ``--arg-name``, else config value ``key``, else ``default``.

        Flags and config values go through the same ``convert`` and
        ``choices`` check; a value either rejects is a usage error that
        names the flag or the key it came from.
        """
        self.read.add(key)
        raw = getattr(self.args, arg_name, None)
        given = f"--{arg_name.replace('_', '-')} {raw!r}"
        if raw is None:
            raw = self.file_cfg.get(key)
            given = f"config value {key} = {raw!r}"
        value = default
        if raw is not None:
            value = _convert(given, raw, convert)
            if choices is not None and value not in choices:
                raise _UsageError(f"{given} is not one of {', '.join(choices)}")
        if value is not None:
            self.effective[key] = _to_config_string(value)
        return value

    def check_keys(self):
        """Fail unless the subcommand reads or writes every config-file key.

        Called before any compute.  ``command``, which emitted configs hold,
        must name this subcommand.
        """
        command = self.effective["command"]
        if self.file_cfg.get("command", command) != command:
            raise _UsageError(f"config file is for {self.file_cfg['command']!r}, not {command!r}")
        unread = sorted(set(self.file_cfg) - self.read - set(self.effective))
        if unread:
            raise _UsageError(f"{command} reads no config key {', '.join(unread)}")


_KINDS = {int: "an integer", float: "a number"}


def _convert(given, raw, convert):
    try:
        return convert(raw)
    except ValueError:
        what = _KINDS.get(convert, "valid")
        raise _UsageError(f"{given} is not {what}") from None


def _to_config_string(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_to_config_string(v) for v in value)
    return str(value)


def _parse_floats(text, n=None, what="value list"):
    try:
        values = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad {what}: {text!r}") from None
    if n is not None and len(values) != n:
        raise _UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    return values


def _parse_ints(text, what="integer list"):
    try:
        return [int(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad {what}: {text!r}") from None


def _parse_params(items, flag):
    """``name=value`` items as a dict of floats; usage errors name ``flag``."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise _UsageError(f"{flag} expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise _UsageError(f"{flag} {name}: {value!r} is not a number") from None
    return out


# ---------------------------------------------------------------------------
# region predicates


def _normalize_region_text(text):
    out = text
    for low, up in (("x1", "X1"), ("x2", "X2"), ("x3", "X3")):
        out = out.replace(low, up)
    return out


def parse_region(text):
    """Predicate from '&'-joined comparisons such as ``x1>=0.1 & x2<0.5``.

    The clauses compile into one program of nested ``if`` expressions, so a
    clause is evaluated only where every clause before it holds.
    """
    clauses = []
    for raw in _normalize_region_text(text).split("&"):
        raw = raw.strip()
        if not raw:
            continue
        for op in dsl._RELOPS:  # two-character operators first
            if op in raw:
                lhs_text, rhs_text = raw.split(op, 1)
                break
        else:
            raise _UsageError(f"region clause {raw!r} has no comparison operator")
        lhs = dsl.parse_expression(lhs_text)
        rhs = dsl.parse_expression(rhs_text)
        if lhs.kind != dsl.SCALAR or rhs.kind != dsl.SCALAR:
            raise _UsageError(f"region clause {raw!r} must compare scalars")
        clauses.append((op, lhs, rhs))
    inside = dsl.Num(1.0)
    for op, lhs, rhs in reversed(clauses):
        inside = dsl.IfExpr(op, lhs, rhs, inside, dsl.Num(0.0), dsl.SCALAR)
    program = dsl.Program([inside])

    def predicate(X):
        return bool(program.evaluate(np.asarray(X, dtype=float)[None])[0, 0])

    return predicate


# ---------------------------------------------------------------------------
# shared setup


def _add_common(parser):
    parser.add_argument("--model", help="built-in model name")
    parser.add_argument("--mdl", help="path to a .mdl model source")
    parser.add_argument("--param", action="append", help="model parameter name=value")
    parser.add_argument("--config", help="flat key=value config file (flags override)")
    parser.add_argument("--seed")
    parser.add_argument("--tol-rank", dest="tol_rank")
    parser.add_argument("--tol-residual", dest="tol_residual")
    parser.add_argument("--tol-fd-rel", dest="tol_fd_rel")
    parser.add_argument("--tol-fd-abs", dest="tol_fd_abs")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", help="json; grade-map and leaf also write csv")
    parser.add_argument("--emit-config", dest="emit_config",
                        help="also write the effective flat config here")


def _resolve_common(settings, command):
    settings.effective["command"] = command
    model_name = settings.get("model", "model", None)
    mdl_path = settings.get("mdl", "mdl", None)
    params_text = getattr(settings.args, "param", None)
    settings.read.add("params")
    if params_text is None and "params" in settings.file_cfg:
        params_text = [p for p in settings.file_cfg["params"].split(";") if p]
    params = _parse_params(params_text, "--param")
    if params:
        settings.effective["params"] = ";".join(f"{k}={format_float(v)}" for k, v in sorted(params.items()))
    if (model_name is None) == (mdl_path is None):
        raise _UsageError("exactly one of --model or --mdl is required")
    seed = settings.get("seed", "seed", 0, int)
    tol = Tolerances(
        rank_rel=settings.get("tol.rank_rel", "tol_rank", 1e-8, float),
        fd_step_rel=settings.get("tol.fd_rel", "tol_fd_rel", 1e-6, float),
        fd_step_abs=settings.get("tol.fd_abs", "tol_fd_abs", 1e-8, float),
        residual_tol=settings.get("tol.residual", "tol_residual", 1e-7, float),
    )
    sampler = SamplerConfig(seed=seed)
    settings.effective.update({
        "sampler.k_init": str(sampler.k_init),
        "sampler.k_max": str(sampler.k_max),
        "sampler.det_min": format_float(sampler.det_min),
        "sampler.cond_max": format_float(sampler.cond_max),
    })
    if model_name is not None:
        model = builtin(model_name, **params)
    else:
        model = load_model_file(mdl_path, params=params or None)
    return model, sampler, tol


def _write_output(settings, result_dict, out_path, fmt="json", csv_writer=None):
    # output locations are not analysis configuration; leaving them out
    # keeps re-runs byte-identical wherever their results land
    effective = {k: v for k, v in settings.effective.items() if k not in ("out", "svg")}
    settings.effective = effective
    payload = {"config": effective, "result": result_dict}
    header = {
        "tool": "matdist",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    emit_cfg = getattr(settings.args, "emit_config", None)
    if emit_cfg:
        with open(emit_cfg, "w", encoding="utf-8") as fh:
            fh.write(config_to_text(settings.effective))
    if fmt == "csv" and csv_writer is not None:
        target = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
        try:
            for key in sorted(settings.effective):
                target.write(f"# {key} = {settings.effective[key]}\n")
            csv_writer(target)
        finally:
            if out_path:
                target.close()
        return
    text = canonical_json({"header": header, "payload": payload}) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fibre(args):
    settings = _Settings(args, read_config(args.config) if args.config else {})
    mode = settings.get("mode", "mode", "pointwise", choices=MODES)
    model, sampler, tol = _resolve_common(settings, "fibre")
    point = _parse_floats(settings.get("point", "point", None, str), 3, "--point")
    radius, cloud = _germ_args(settings)
    fmt = settings.get("format", "format", "json", choices=("json",))
    out = settings.get("out", "out", None)
    settings.check_keys()

    result = material_fibre(model, point, sampler=sampler, tol=tol, mode=mode,
                            germ_radius=radius, germ_cloud=cloud)
    _write_output(settings, result.to_json_dict(), out, fmt)
    return EXIT_OK if result.validated else EXIT_FLAGGED


def _cmd_grade_map(args):
    settings = _Settings(args, read_config(args.config) if args.config else {})
    mode = settings.get("mode", "mode", "pointwise", choices=MODES)
    model, sampler, tol = _resolve_common(settings, "grade-map")
    lo = _parse_floats(settings.get("grid.lo", "grid_lo", "-0.9,-0.9,-0.9", str), 3, "--grid-lo")
    hi = _parse_floats(settings.get("grid.hi", "grid_hi", "0.9,0.9,0.9", str), 3, "--grid-hi")
    n_text = settings.get("grid.n", "grid_n", "21", str)
    counts = _parse_ints(n_text, "--grid-n")
    if len(counts) == 1:
        counts = counts * 3
    if len(counts) != 3:
        raise _UsageError("--grid-n needs one or three integers")
    radius, cloud = _germ_args(settings)
    fmt = settings.get("format", "format", "json", choices=("json", "csv"))
    out = settings.get("out", "out", None)
    slice_text = settings.get("slice", "slice", None, str)
    svg_path = settings.get("svg", "svg", None, str)
    if svg_path:
        axis, value = _parse_slice(slice_text)
    settings.check_keys()

    field = grade_map(model, GridSpec(tuple(lo), tuple(hi), tuple(counts)), mode=mode,
                      sampler=sampler, tol=tol, germ_radius=radius, germ_cloud=cloud)
    if svg_path:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(grade_slice_svg(field, axis, value))
    _write_output(settings, grade_field_json_dict(field), out, fmt,
                  csv_writer=lambda fh: grade_field_csv(field, fh))
    flagged = bool(field.errors) or not bool(field.validated[field.known].all())
    return EXIT_FLAGGED if flagged else EXIT_OK


def _germ_args(settings):
    """``germ1`` cloud radius and size, checked before any compute."""
    radius = settings.get("germ.radius", "germ_radius", GERM_RADIUS, float)
    cloud = settings.get("germ.cloud", "germ_cloud", GERM_CLOUD, int)
    try:
        check_germ_args(radius, cloud)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return radius, cloud


def _parse_slice(text):
    """``axis=value`` of a grade-map SVG slice, checked before any compute."""
    if not text:
        raise _UsageError("--svg for grade-map needs --slice axis=value")
    axis_name, _, value_text = text.partition("=")
    axis = _AXIS_NAMES.get(axis_name.strip().lower())
    if axis is None:
        raise _UsageError(f"unknown slice axis {axis_name!r}")
    try:
        value = float(value_text or 0.0)
    except ValueError:
        raise _UsageError(f"bad --slice value {value_text!r}") from None
    return axis, value


def _cmd_leaf(args):
    settings = _Settings(args, read_config(args.config) if args.config else {})
    mode = settings.get("mode", "mode", None, choices=MODES)
    steps = settings.get("steps", "steps", 200, int)
    h = settings.get("h", "h", 0.01, float)
    try:
        check_trace_args(h, steps, mode or "pointwise")
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    model, sampler, tol = _resolve_common(settings, "leaf")
    point = _parse_floats(settings.get("point", "point", None, str), 3, "--point")
    direction = _parse_floats(settings.get("dir", "dir", "0,1,0", str), 3, "--dir")
    fmt = settings.get("format", "format", "json", choices=("json", "csv"))
    out = settings.get("out", "out", None)
    svg_path = settings.get("svg", "svg", None, str)
    settings.check_keys()

    trace = leaf_trace(model, point, direction, steps, h, sampler=sampler, tol=tol)
    if svg_path:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(leaf_trace_svg(trace))
    _write_output(settings, leaf_trace_json_dict(trace), out, fmt,
                  csv_writer=lambda fh: leaf_trace_csv(trace, fh))
    return EXIT_OK


def _load_chart_file(path):
    keys = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, expr = line.partition("=")
            keys[key.strip()] = expr.strip()
    try:
        fwd = [keys[f"fwd{i}"] for i in (1, 2, 3)]
        inv = [keys[f"inv{i}"] for i in (1, 2, 3)]
    except KeyError as missing:
        raise _UsageError(f"chart file {path} is missing component {missing}") from None
    jac = None
    if any(k.startswith("jac") for k in keys):
        try:
            jac = [[keys[f"jac{i}{j}"] for j in (1, 2, 3)] for i in (1, 2, 3)]
        except KeyError as missing:
            raise _UsageError(f"chart file {path} is missing Jacobian entry {missing}") from None
    return fwd, inv, jac


# the chart parameters each built-in chart reads; the identity chart and chart
# files read none (the identity's axis order has its own flag), and neither
# does affine: its A and b are a matrix and a vector, which no single-number
# value can give, so the CLI affine chart is A = I, b = 0
_CHART_PARAMS = {"spherical_cap": ("rho_min", "rho_max", "cap_cos")}


def _build_chart(settings):
    name = settings.get("chart", "chart", None, str)
    if name is None:
        raise _UsageError("--chart is required")
    if not (name.startswith("@") or name in BUILTIN_CHARTS):
        raise _UsageError(f"unknown chart {name!r}; built-ins are {', '.join(BUILTIN_CHARTS)}, "
                          "or @file for a chart file")
    leafwise = settings.get("leafwise", "leafwise", 2, int)
    chart_items = getattr(settings.args, "chart_param", None)
    if chart_items is not None:
        chart_params = _parse_params(chart_items, "--chart-param")
    else:  # the chart.<name> keys an emitted config holds
        chart_params = {key[len("chart."):]: _convert(f"config value {key} = {value!r}", value, float)
                        for key, value in settings.file_cfg.items()
                        if key.startswith("chart.") and key != "chart.order"}
    unread = sorted(set(chart_params) - set(_CHART_PARAMS.get(name, ())))
    if unread:
        raise _UsageError(f"chart {name!r} takes no parameter {', '.join(unread)}")
    for key, value in chart_params.items():
        settings.effective[f"chart.{key}"] = format_float(value)
    if name.startswith("@"):
        fwd, inv, jac = _load_chart_file(name[1:])
        chart = chart_from_expressions(fwd, inv, leafwise, name=os.path.basename(name[1:]),
                                       jacobian_exprs=jac)
    elif name == "identity":
        order_text = settings.get("chart.order", "chart_order", "2,3,1", str)
        chart = builtin_chart("identity", order=tuple(_parse_ints(order_text, "--chart-order")))
        chart = chart.with_leafwise(leafwise)
    else:
        chart = builtin_chart(name, **chart_params).with_leafwise(leafwise)
    region_text = settings.get("region", "region", None, str)
    if region_text:
        chart = chart.restrict(parse_region(region_text))
    return chart


def _cmd_homog(args):
    settings = _Settings(args, read_config(args.config) if args.config else {})
    n_pairs = settings.get("pairs", "pairs", 12, int)
    n_samples = settings.get("samples", "samples", 10, int)
    if n_pairs < 1 or n_samples < 1:
        raise _UsageError(f"--pairs and --samples must be at least 1, got {n_pairs} and {n_samples}")
    oracle = settings.get("oracle", "oracle", None, str, choices=LEAF_ORACLES)
    chart = _build_chart(settings)
    model, sampler, tol = _resolve_common(settings, "homog")
    fmt = settings.get("format", "format", "json", choices=("json",))
    out = settings.get("out", "out", None)
    settings.check_keys()

    report = homogeneity_check(model, chart, n_pairs=n_pairs, n_samples=n_samples,
                               sampler=sampler, tol=tol, leaf_oracle=oracle)
    _write_output(settings, report.to_json_dict(), out, fmt)
    if report.aborted:
        return EXIT_FLAGGED
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_check_iso(args):
    settings = _Settings(args, read_config(args.config) if args.config else {})
    model, sampler, tol = _resolve_common(settings, "check-iso")
    source = _parse_floats(settings.get("from", "from_point", None, str), 3, "--from")
    target = _parse_floats(settings.get("to", "to_point", None, str), 3, "--to")
    p_text = settings.get("P", "P", "identity", str)
    if p_text == "identity":
        P = np.eye(3)
    else:
        P = np.array(_parse_floats(p_text, 9, "--P")).reshape(3, 3)
    fmt = settings.get("format", "format", "json", choices=("json",))
    out = settings.get("out", "out", None)
    settings.check_keys()

    check = is_material_isomorphism(model, source, target, P, sampler=sampler, tol=tol)
    result = {
        "from": [float(v) for v in source],
        "to": [float(v) for v in target],
        "P": [[float(v) for v in row] for row in P],
        "residual": check.residual,
        "verdict": check.verdict,
        "worst_gradient": [[float(v) for v in row] for row in check.worst_gradient],
        "samples_used": check.samples_used,
    }
    _write_output(settings, result, out, fmt)
    return EXIT_OK if check.verdict else EXIT_NEGATIVE


def _cmd_parse(args):
    path = args.mdl
    if path is None:
        raise _UsageError("parse needs --mdl")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    mdef = dsl.parse_source(text)
    sys.stdout.write(dsl.pretty_source(mdef))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


_EPILOG = """\
exit codes: 0 pass, 1 runtime error, 2 flagged numerical result,
3 negative verdict, 64 usage error, 65 model parse error.
SVG output uses a fixed 720x720 viewBox with fixed grade colors:
0 black, 1 blue, 2 orange, 3 green (unknown nodes gray).
"""


@functools.lru_cache(maxsize=1)  # built on first use: parse_args leaves it unchanged
def build_parser():
    parser = _Parser(prog="matdist",
                     description="Material-distribution analysis of simple bodies",
                     epilog=_EPILOG,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"matdist {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_fibre = sub.add_parser("fibre", help="fibre, grade and symmetry algebra at one point")
    _add_common(p_fibre)
    p_fibre.add_argument("--mode", help=" | ".join(MODES))
    p_fibre.add_argument("--point")
    p_fibre.add_argument("--germ-radius", dest="germ_radius")
    p_fibre.add_argument("--germ-cloud", dest="germ_cloud")
    p_fibre.set_defaults(func=_cmd_fibre)

    p_map = sub.add_parser("grade-map", help="grade field over a grid")
    _add_common(p_map)
    p_map.add_argument("--mode", help=" | ".join(MODES))
    p_map.add_argument("--svg", help="write an SVG rendering of a --slice to this path")
    p_map.add_argument("--grid-lo", dest="grid_lo")
    p_map.add_argument("--grid-hi", dest="grid_hi")
    p_map.add_argument("--grid-n", dest="grid_n")
    p_map.add_argument("--slice", help="axis=value plane for --svg, e.g. x3=0")
    p_map.add_argument("--germ-radius", dest="germ_radius")
    p_map.add_argument("--germ-cloud", dest="germ_cloud")
    p_map.set_defaults(func=_cmd_grade_map)

    p_leaf = sub.add_parser("leaf", help="trace a leaf of the body-material foliation")
    _add_common(p_leaf)
    p_leaf.add_argument("--mode", help="pointwise, the only mode leaves use")
    p_leaf.add_argument("--svg", help="write an SVG projection of the trace to this path")
    p_leaf.add_argument("--point")
    p_leaf.add_argument("--dir")
    p_leaf.add_argument("--steps")
    p_leaf.add_argument("--h")
    p_leaf.set_defaults(func=_cmd_leaf)

    p_homog = sub.add_parser("homog", help="test a chart for homogeneity")
    _add_common(p_homog)
    p_homog.add_argument("--chart", help="identity | affine | spherical_cap | @file")
    p_homog.add_argument("--chart-order", dest="chart_order",
                         help="axis order for the identity chart (default 2,3,1)")
    p_homog.add_argument("--chart-param", action="append", dest="chart_param",
                         help="chart parameter name=value")
    p_homog.add_argument("--region", help="'&'-joined comparisons, e.g. x1>=0.1")
    p_homog.add_argument("--leafwise")
    p_homog.add_argument("--pairs")
    p_homog.add_argument("--samples")
    p_homog.add_argument("--oracle", help=" | ".join(LEAF_ORACLES))
    p_homog.set_defaults(func=_cmd_homog)

    p_iso = sub.add_parser("check-iso", help="test one jet for material isomorphism")
    _add_common(p_iso)
    p_iso.add_argument("--from", dest="from_point")
    p_iso.add_argument("--to", dest="to_point")
    p_iso.add_argument("--P", dest="P", help="'identity' or nine numbers row-major")
    p_iso.set_defaults(func=_cmd_check_iso)

    p_parse = sub.add_parser("parse", help="syntax-check a .mdl file and print it canonically")
    p_parse.add_argument("--mdl", required=False)
    p_parse.set_defaults(func=_cmd_parse)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as exc:
        print(f"matdist: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelParseError as exc:
        print(f"matdist: model parse error: {exc}", file=sys.stderr)
        return EXIT_MODEL_PARSE
    except (MatdistError, ValueError, OSError) as exc:
        print(f"matdist: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
