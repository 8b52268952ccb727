"""Smoke test of the benchmark workloads: one cycle of each gated workload.

``bench/workloads.py`` is loaded read-only, as ``test_bench_hooks.py`` loads
the tracer.  Each gated workload runs its warm-up calls and its first cycle
through the calls' own judges, so a library change that breaks an answer
the benchmark checks fails here, before any timed run.
"""

import importlib.util
import os

import pytest

import matdist
from matdist import cli, distribution, dsl, foliation, homogeneity, numkit, response

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
MODULES = {"matdist": matdist, "cli": cli, "distribution": distribution, "dsl": dsl,
           "foliation": foliation, "homogeneity": homogeneity, "numkit": numkit,
           "response": response}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["maps", "probes", "mdl"])
def test_first_cycle_has_no_failed_op_or_wrong_answer(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    workload.prepare()
    workload.setup(MODULES)
    for call in workload.warmup_calls() + workload.cycle(0):
        outcome = call.judge(call.fn())
        assert outcome.failed == 0, f"{call.kind}: failed op"
        assert outcome.wrong is None, f"{call.kind}: {outcome.wrong}"
        assert outcome.ops > 0, f"{call.kind}: no op completed"
