"""CLI payload gate: run one list of CLI cases on two checkouts and diff them.

    python3 tools/payload_gate.py BASE CHANGED [--seeds 0-11,42] [--jobs 2]

``BASE`` and ``CHANGED`` are checkout roots (each with ``src/matdist``).
Every case runs as ``python -m matdist ...`` in a fresh process, with the
checkout as working directory and its ``src`` on ``PYTHONPATH``; a seeded
case runs once per seed (``--seed S`` appended), the others once.  Stdout
is compared after the header timestamp is removed and the checkout path is
replaced by ``<checkout>``; stderr and the exit code are compared as they
are.  Chart, config and model files that cases read are written once to a
temporary directory that both checkouts read, so the config echoes match.

Prints one line per differing run, then the number of runs and their exit
codes; exits 1 if any run differs, 0 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

MDL = "src/matdist/mdl/example1.mdl"  # relative to the checkout

# files the cases read, written to the shared temporary directory
FILES = {
    "plane.chart": "fwd1 = X2\nfwd2 = X3\nfwd3 = X1\ninv1 = X3\ninv2 = X1\ninv3 = X2\n",
    "turned.chart": ("# a rotation in the leaf plane, a scale across it; no jac entries\n"
                     "fwd1 = 0.6*X2 + 0.8*X3 + 0.1\nfwd2 = -0.8*X2 + 0.6*X3 - 0.2\n"
                     "fwd3 = 1.5*X1 + 0.05\ninv1 = (X3 - 0.05) / 1.5\n"
                     "inv2 = 0.6*(X1 - 0.1) - 0.8*(X2 + 0.2)\n"
                     "inv3 = 0.8*(X1 - 0.1) + 0.6*(X2 + 0.2)\n"),
    "fibre.cfg": "model = example2\npoint = 0.3,0.2,0.1\nmode = germ1\n",
    "leaf.cfg": "model = example1\npoint = 0.4,0.1,-0.2\ndir = 0,1,1\nsteps = 12\nh = 0.02\n",
    "homog.cfg": "model = example1\nchart = identity\nregion = x1>=0.1\npairs = 4\nsamples = 4\n"
                 "oracle = trace\n",
    "bad-pairs.cfg": "model = example1\nchart = identity\npairs = abc\n",
    "bad-seed.cfg": "model = example2\npoint = 0.3,0.2,0.1\nseed = 1.5\n",
    "bad-mode.cfg": "model = example2\npoint = 0.3,0.2,0.1\nmode = germ2\n",
    "broken.mdl": "response = tr(C) +\n",
}

GRID = ["--grid-lo", "-0.9,-0.9,-0.9", "--grid-hi", "0.9,0.9,0.9"]


def cases(files):
    """``(name, argv, seeded)`` triples; ``files`` maps a file name to its path."""
    out = []

    def case(name, *argv, seeded=True):
        out.append((name, list(argv), seeded))

    for model, points in (
        ("example1", ["0.3,0.1,0.2", "-0.4,0,0", "0.001,0,0", "0.02,0.1,0", "0.05,0,0.3",
                      "0.99995,0,0"]),
        ("example2", ["0.3,0.2,0.1", "0,0,0", "0.5,0,0", "0.99995,0,0", "1.5,0,0"]),
        ("det_cal", ["0.1,0.2,0.3"]),
        ("identity_cal", ["-0.2,0.4,0.1"]),
    ):
        for point in points:
            case(f"fibre {model} {point}", "fibre", "--model", model, "--point", point)
    # near the boundary a germ1 cloud loses points: 16 of 21 at X1 = 0.99995, 19 at 0.9999
    for model, point in (("example1", "0.5,0,0"), ("example1", "0.99995,0,0"),
                         ("example2", "0.3,0.2,0.1"), ("example2", "0,0,0"),
                         ("example2", "0.995,0.05,0"), ("example2", "0.9999,0,0"),
                         ("det_cal", "0.1,0.2,0.3")):
        case(f"fibre germ1 {model} {point}", "fibre", "--model", model, "--point", point,
             "--mode", "germ1")
    case("fibre mdl", "fibre", "--mdl", MDL, "--point", "0.3,0.1,0.2")
    case("fibre mdl germ1", "fibre", "--mdl", MDL, "--point", "0.4,0,0", "--mode", "germ1")
    case("fibre config", "fibre", "--config", files["fibre.cfg"])

    for model in ("example1", "example2", "det_cal", "identity_cal"):
        case(f"grade-map {model}", "grade-map", "--model", model, *GRID, "--grid-n", "7")
    for model in ("example1", "example2"):
        case(f"grade-map germ1 {model}", "grade-map", "--model", model, *GRID, "--grid-n", "3",
             "--mode", "germ1")
    case("grade-map germ1 example2 near the sphere", "grade-map", "--model", "example2",
         "--mode", "germ1", "--grid-lo", "-0.99,-0.99,-0.99", "--grid-hi", "0.99,0.99,0.99",
         "--grid-n", "3")
    case("grade-map mdl csv", "grade-map", "--mdl", MDL, *GRID, "--grid-n", "5",
         "--format", "csv")

    for name, model, point, direction, steps, h in (
        ("example1 plane", "example1", "0.3,0.1,0.2", "0,1,0", "20", "0.01"),
        ("example1 flat side", "example1", "-0.3,0.1,0.2", "0,1,1", "10", "0.02"),
        ("example1 wall", "example1", "0.3,0.9,0", "0,1,0", "20", "0.05"),
        ("example1 tilted hint", "example1", "0.6,0,0", "1,1,0", "8", "0.01"),
        ("example2 sphere", "example2", "0.3,0.2,0.1", "0,1,0", "20", "0.01"),
        ("example2 pole", "example2", "0.5,0,0", "0,0,1", "15", "0.02"),
        ("det_cal", "det_cal", "0.1,0.2,0.3", "0,1,0", "6", "0.01"),
    ):
        case(f"leaf {name}", "leaf", "--model", model, "--point", point, "--dir", direction,
             "--steps", steps, "--h", h)
    case("leaf mdl", "leaf", "--mdl", MDL, "--point", "0.4,0,0", "--dir", "0,1,1",
         "--steps", "10", "--h", "0.01")
    case("leaf csv", "leaf", "--model", "example2", "--point", "0.2,0.4,0", "--dir", "0,0,1",
         "--steps", "6", "--h", "0.01", "--format", "csv")
    case("leaf config", "leaf", "--config", files["leaf.cfg"])

    small = ["--pairs", "4", "--samples", "4"]
    for oracle in ("analytic", "trace"):
        case(f"homog example1 identity {oracle}", "homog", "--model", "example1",
             "--chart", "identity", "--region", "x1>=0.1", "--oracle", oracle)
        case(f"homog example2 spherical_cap {oracle}", "homog", "--model", "example2",
             "--chart", "spherical_cap", "--oracle", oracle, *small)
        case(f"homog example1 affine {oracle}", "homog", "--model", "example1",
             "--chart", "affine", "--region", "x1>=0.1", "--leafwise", "2", "--oracle", oracle,
             *small)
        case(f"homog example1 @file {oracle}", "homog", "--model", "example1",
             "--chart", "@" + files["plane.chart"], "--region", "x1>=0.1", "--oracle", oracle,
             *small)
    case("homog mdl @file", "homog", "--mdl", MDL, "--chart", "@" + files["turned.chart"],
         "--region", "x1>=0.1", "--leafwise", "2", "--pairs", "2", "--samples", "3")
    case("homog spherical_cap params", "homog", "--model", "example2", "--chart",
         "spherical_cap", "--chart-param", "cap_cos=0.9", "--oracle", "trace", *small)
    case("homog config", "homog", "--config", files["homog.cfg"])

    for name, model, source, target, P in (
        ("same leaf", "example1", "0.3,0,0", "0.3,0.2,0.1", "identity"),
        ("across leaves", "example1", "0.5,0,0", "0.7,0,0", "identity"),
        ("matrix", "example2", "0.3,0,0", "0,0.3,0", "0,-1,0,1,0,0,0,0,1"),
        ("outside", "example2", "0.3,0,0", "1.5,0,0", "identity"),
    ):
        case(f"check-iso {name}", "check-iso", "--model", model, "--from", source,
             "--to", target, "--P", P)

    case("parse mdl", "parse", "--mdl", MDL, seeded=False)
    case("parse broken", "parse", "--mdl", files["broken.mdl"], seeded=False)
    case("usage no command", seeded=False)
    case("usage leaf h", "leaf", "--model", "example1", "--point", "0.3,0,0", "--dir", "0,1,0",
         "--steps", "3", "--h", "0.1")
    case("usage leaf mode", "leaf", "--model", "example1", "--point", "0.3,0,0",
         "--dir", "0,1,0", "--mode", "germ1")
    case("usage fibre mode", "fibre", "--model", "example2", "--point", "0,0,0",
         "--mode", "germ2")
    case("usage germ radius", "fibre", "--model", "example2", "--point", "0,0,0",
         "--germ-radius", "0")
    case("usage homog chart", "homog", "--model", "example1", "--chart", "nope")
    case("usage homog oracle", "homog", "--model", "example1", "--chart", "identity",
         "--oracle", "guess")
    case("usage config pairs", "homog", "--config", files["bad-pairs.cfg"])
    case("usage config seed", "fibre", "--config", files["bad-seed.cfg"], seeded=False)
    case("usage config mode", "fibre", "--config", files["bad-mode.cfg"])
    case("usage format", "fibre", "--model", "example2", "--point", "0,0,0", "--format", "xml")
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


_TIMESTAMP = re.compile(r'^\s*"timestamp": "[^"]*",?\n', re.MULTILINE)


def run(checkout, argv):
    """``(stdout, stderr, exit code)`` of one CLI run, stdout normalised."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-m", "matdist", *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=600)
    stdout = _TIMESTAMP.sub("", proc.stdout).replace(checkout, "<checkout>")
    return stdout, proc.stderr, proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("changed")
    parser.add_argument("--seeds", default="0-11,42", help="e.g. 0-11,42 (default)")
    parser.add_argument("--jobs", type=int, default=2, help="CLI runs at once (default 2)")
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(args.base), os.path.abspath(args.changed)]
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="payload-gate-") as tmp:
        files = {}
        for name, text in FILES.items():
            files[name] = os.path.join(tmp, name)
            with open(files[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        runs = [(name, argv + ["--seed", str(seed)] if seeded else argv,
                 seed if seeded else None)
                for name, argv, seeded in cases(files)
                for seed in (seeds if seeded else [None])]
        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            outcomes = [pool.map(lambda r, c=c: run(c, r[1]), runs) for c in checkouts]
            base, changed = (list(o) for o in outcomes)
    differ = 0
    for (name, _, seed), a, b in zip(runs, base, changed):
        streams = [label for label, x, y in zip(("stdout", "stderr", "exit"), a, b) if x != y]
        if streams:
            differ += 1
            print(f"DIFFERS {name} seed={seed}: {', '.join(streams)} (exit {a[2]} -> {b[2]})")
    codes = Counter(code for _, _, code in changed)
    print(f"{len(runs)} runs per checkout, {differ} differ; exit codes "
          + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
