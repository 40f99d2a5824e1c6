"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest bench/test_bench.py

The determinism test makes two traced runs of every workload, about four
minutes on a 2-CPU machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.use_checkout_src()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)
from graphentropy import Infeasible  # noqa: E402

ROOT = checkout.ROOT
SEED = 3


def _run(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def _traced(workload):
    proc = _run(ROOT, workload, SEED, 1)
    assert proc.returncode == 0, proc.stderr
    *_, meta, result = proc.stdout.splitlines()
    return json.loads(meta), json.loads(result)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_runs_at_one_seed_repeat(workload):
    meta1, res1 = _traced(workload)
    meta2, res2 = _traced(workload)
    # starts, feasible starts, statuses, census totals, exit codes, output
    # digests and the bits of every s value, op by op
    assert meta1["facts"] == meta2["facts"]
    assert meta1["facts_repeat_equal"] and meta2["facts_repeat_equal"]
    assert (res1["correct"], res1["attempted"], res1["failed"]) == (
        res2["correct"], res2["attempted"], res2["failed"])
    counts = sorted(k for k, v in res1["metrics"].items() if v["unit"] == "count")
    assert [res1["metrics"][k] for k in counts] == [res2["metrics"][k] for k in counts]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "solver", SEED, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_package_errors_fail_and_other_exceptions_are_wrong():
    assert workloads._error(Infeasible("no start reached the tolerance")).status == "failed"
    assert workloads._error(TypeError("unexpected argument")).status == "wrong"


def test_unexpected_exit_code_is_wrong():
    check = workloads._cli_check(0, lambda out: ("", {}))
    assert check((0, "")).status == "ok"
    assert check((1, "")).status == "wrong"
