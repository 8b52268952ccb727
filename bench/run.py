"""Run one matdist benchmark workload and print its metrics.

    python3 bench/run.py --workload probes --seed 1 --seconds 32 --trace 0

From the repository root.  The library is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the run measures the end-to-end metrics
with tracing off; with ``--trace 1`` it makes an untraced pass, replays the
same cycles with span tracing on, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer matched its expectation.  See ``bench/README.md``.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import BOX, WORKLOADS

# BLAS threading is left as users get it; the thread variables are recorded as found
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
SETUP_SAMPLES = 12  # half before the timed phase, half after it
WARMUP_S = 1.5
POOL_SAMPLES = 3
SETUP_TIMEOUT_S = 60
SELF_TIME_TOLERANCE = 0.01
# the benchmark's own glue plus any library time no span covers; about 1 %
# of the traced wall time when every call goes through a wrapped function
BENCH_SELF_SHARE_MAX = 0.05


def import_matdist():
    if not os.path.isfile(os.path.join(SRC, "matdist", "__init__.py")):
        raise SystemExit(f"bench: no matdist package under {SRC}")
    sys.path.insert(0, SRC)
    import matdist
    from matdist import cli, distribution, dsl, foliation, homogeneity, numkit, response

    if not os.path.abspath(matdist.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: matdist imported from {matdist.__file__}, not from {SRC}")
    return {"matdist": matdist, "cli": cli, "distribution": distribution, "dsl": dsl,
            "foliation": foliation, "homogeneity": homogeneity, "numkit": numkit,
            "response": response}


# ---------------------------------------------------------------------------
# running calls


class Phase:
    """Ops, failures, wrong answers and per-call latencies of one pass."""

    def __init__(self, name):
        self.name = name
        self.ops = 0
        self.failed = 0
        self.wrong = []
        self.errors = []
        self.latency_ms = []  # per call: wall time / ops the call completed
        self.kind_ms = defaultdict(list)
        self.call_s = 0.0
        self.cycles = 0
        self.wall_s = 0.0

    def run(self, call, tracer=None):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = call.fn()
            else:
                result = tracer.call("bench", "op:" + call.kind, call.fn)
        except Exception as exc:  # a call that raises is a failed op; keep measuring
            self.call_s += time.perf_counter() - start
            self.failed += 1
            self.errors.append(f"{call.kind}: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        self.call_s += elapsed
        outcome = call.judge(result)
        self.ops += outcome.ops
        self.failed += outcome.failed
        if outcome.wrong:
            self.wrong.append(f"{call.kind}: {outcome.wrong}")
        if outcome.ops:
            self.latency_ms.append(1000.0 * elapsed / outcome.ops)
            self.kind_ms[call.kind].append(self.latency_ms[-1])

    def kinds(self):
        """Per call kind: sample count and median latency (ms per op)."""
        return {k: [len(v), round(statistics.median(v), 3)] for k, v in sorted(self.kind_ms.items())}

    def run_cycles(self, workload, seconds=None, cycles=None, tracer=None):
        """Whole cycles, until ``seconds`` have passed or ``cycles`` are done."""
        start = time.perf_counter()
        index = 0
        while (cycles is None or index < cycles) and \
                (seconds is None or time.perf_counter() - start < seconds):
            for call in workload.cycle(index):
                self.run(call, tracer)
            index += 1
        self.cycles = index
        self.wall_s = time.perf_counter() - start
        return self


def warm_up(workload):
    phase = Phase("warmup")
    start = time.perf_counter()
    calls = workload.warmup_calls()
    while True:
        for call in calls:
            phase.run(call)
        if time.perf_counter() - start >= WARMUP_S:
            return phase


def measure_setup(argv):
    """Seconds from a fresh process to ready, one child process per sample."""
    cmd = [sys.executable, os.path.abspath(__file__), *argv, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def pool_probe(workload, modules):
    """Serial against threads=2 grade maps; every sample is serial time / pool time.

    The pool's workers inherit the BLAS threads of the process; that
    oversubscription is what the probe documents.
    """
    foliation = modules["foliation"]
    samples = []
    for i in range(POOL_SAMPLES):
        times = {}
        for threads in ((1, 2) if i % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            for model_name, counts in workload.POOL_GRIDS:
                grid = foliation.GridSpec(BOX[0], BOX[1], counts)
                foliation.grade_map(workload.models[model_name], grid, threads=threads)
            times[threads] = time.perf_counter() - start
        samples.append(times[1] / times[2])
    return samples


# ---------------------------------------------------------------------------
# environment record


def _openblas():
    """The loaded OpenBLAS library, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads():
    """Threads of the loaded OpenBLAS, under whichever symbol name the build exports."""
    lib = _openblas()
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, f"{prefix}get_num_threads{tail}", None) if lib is not None else None
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "matdist")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        library = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": library,
        "blas_threads": blas_threads(),
        **{f"{var} (as found)": os.environ.get(var, "unset") for var in BLAS_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_matdist_lines": _source_lines(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def percentiles(values):
    p50, p90 = np.percentile(values, [50, 90]) if values else (0.0, 0.0)
    return float(p50), float(p90)


def steal_ticks():
    """Host steal time of the whole machine so far, in clock ticks (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return -1


def machine_reference_us(repeats=300):
    """Median time of one 171x12 SVD, the shape of a pointwise saturation system.

    Independent of matdist: it shows how fast the machine ran around a run.
    """
    A = np.random.default_rng(0).standard_normal((171, 12))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.svd(A)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def end_to_end_run(args, workload, sample_setup):
    """``sample_setup()`` times one fresh-process set-up; half the samples come
    before the timed phase and half after, so they span the run's window."""
    setup_samples = [sample_setup() for _ in range(SETUP_SAMPLES // 2)]
    warm = warm_up(workload)
    ref_before = machine_reference_us()
    steal0, cpu0 = steal_ticks(), time.process_time()
    phase = Phase("timed").run_cycles(workload, seconds=args.seconds)
    steal, cpu = steal_ticks() - steal0, time.process_time() - cpu0
    ref_after = machine_reference_us()
    setup_samples += [sample_setup() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    p50, p90 = percentiles(phase.latency_ms)
    attempted = phase.ops + phase.failed
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": phase.ops / phase.call_s,
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": phase.ops / attempted if attempted else 0.0,
    }
    details = {"setup_samples_s": setup_samples, "cycles": phase.cycles,
               "timed_wall_s": phase.wall_s, "timed_cpu_s": cpu, "steal_ticks": steal,
               "machine_reference_us": [ref_before, ref_after],
               "call_s": phase.call_s,
               "latency_samples": len(phase.latency_ms),
               "samples_above_p90": sum(v > p90 for v in phase.latency_ms),
               "kind_ms": phase.kinds()}
    units = dict(END_TO_END)
    return {k: (metrics[k], units[k]) for k, _ in END_TO_END}, [warm, phase], details


def traced_run(args, workload, modules, tracer, setup_wall):
    warm = warm_up(workload)
    plain = Phase("untraced").run_cycles(workload, seconds=args.seconds / 2.0)
    traced = Phase("traced")
    tracer.install(modules)
    root = tracer.begin("bench", "ops")
    start = time.perf_counter()
    try:
        traced.run_cycles(workload, cycles=plain.cycles, tracer=tracer)
    finally:
        tracer.end(root)
        wall = time.perf_counter() - start
        tracer.uninstall()
    phases = [warm, plain, traced]

    metrics, summary = layer_metrics(tracer)
    metrics["trace.wall_s"] = setup_wall + wall
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    self_sum = sum(summary["self_by_layer"].values())
    details = {"cycles": plain.cycles, "untraced_wall_s": plain.wall_s, "traced_wall_s": wall,
               "self_time_sum_s": self_sum, "spans": len(tracer.spans),
               "negative_self_spans": summary["negative_self"],
               "self_s_by_span": {k: round(v, 4) for k, v in sorted(summary["self_by_name"].items())
                                  if not k.startswith("bench.op:")},
               "kind_ms": traced.kinds()}
    problems = []
    if abs(self_sum - metrics["trace.wall_s"]) > SELF_TIME_TOLERANCE * metrics["trace.wall_s"]:
        problems.append(f"layer self times sum to {self_sum:.4f} s, traced wall is "
                        f"{metrics['trace.wall_s']:.4f} s")
    if metrics["bench.self_s"] > BENCH_SELF_SHARE_MAX * metrics["trace.wall_s"]:
        problems.append(f"bench.self_s is {metrics['bench.self_s']:.4f} s, above "
                        f"{BENCH_SELF_SHARE_MAX:.0%} of the traced wall: time outside any span")
    if summary["negative_self"]:
        problems.append(f"{summary['negative_self']} spans have negative self time")

    if workload.name == "maps":
        samples = pool_probe(workload, modules)
        metrics["foliation.pool_speedup"] = statistics.median(samples)
        details["pool_speedup_samples"] = samples
    if workload.name == "mdl":
        reference = Tracer()
        reference.install(modules)
        root = reference.begin("bench", "reference")
        try:
            ref = Phase("reference")
            for call in workload.reference_calls(plain.cycles):
                ref.run(call, reference)
        finally:
            reference.end(root)
            reference.uninstall()
        phases.append(ref)
        mdl_fibre = tracer.request_durations("distribution", "fibre", {"op:fibre.mdl"})
        builtin_fibre = reference.request_durations("distribution", "fibre", {"op:fibre.builtin"})
        metrics["dsl.fibre_cost_ratio"] = (statistics.median(mdl_fibre["op:fibre.mdl"])
                                           / statistics.median(builtin_fibre["op:fibre.builtin"]))

    units = dict(PER_LAYER)
    return {k: (metrics[k], units[k]) for k, _ in PER_LAYER}, phases, details, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        modules = import_matdist()
        WORKLOADS[args.workload](args.seed, args.workdir).setup(modules)
        print("ready", flush=True)
        return 0

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems = []
    modules = import_matdist()
    if args.trace == 0:
        probe_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0", "--workdir", workdir]
        workload.setup(modules)
        metrics, phases, details = end_to_end_run(args, workload,
                                                  lambda: measure_setup(probe_argv))
        report = phases[-1]
    else:
        tracer = Tracer()
        tracer.install(modules)
        root = tracer.begin("bench", "setup")
        start = time.perf_counter()
        try:
            workload.setup(modules)
        finally:
            tracer.end(root)
            setup_wall = time.perf_counter() - start
            tracer.uninstall()
        metrics, phases, details, problems = traced_run(args, workload, modules, tracer,
                                                        setup_wall)
        report = next(p for p in phases if p.name == "traced")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))

    wrong = [w for p in phases for w in p.wrong] + problems
    env = environment()
    correct = not wrong
    record = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "details": details, "wrong": wrong,
              "errors": [e for p in phases for e in p.errors],
              "attempted": report.ops + report.failed, "failed": report.failed}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {workload.why}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for key, value in details.items():
        print(f"detail {key} = {value}")
    for line in record["errors"]:
        print(f"error {line}")
    for line in wrong:
        print(f"WRONG {line}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
