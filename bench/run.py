"""Benchmark of graphentropy: one workload per run, outputs checked, metrics on the last line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {solver,cli} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the run makes untraced passes over the workload's ops, as many
as took S seconds when the benchmark was defined, and reports the end-to-end
metrics of BENCHMARK.json.
With --trace 1 it makes one untraced and one traced pass, runs the workload's
traced-only ops once, then the layer microbenchmarks, and reports the
per-layer metrics.  Spans are written to
.bench_out/spans-<workload>-<seed>.jsonl.  Earlier stdout lines are a
readable log and one JSON line of run metadata; the last line is the result.

Load model: one closed-loop client.  Ops run one at a time, each after the
previous one ends, in this single process (the cli workload runs one child
process at a time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import checkout

checkout.use_checkout_src()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from graphentropy import GraphEntropyError  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLOCK_NOTE = ("timing uses only this process's own clocks (time.perf_counter, "
              "getrusage); no hardware counters or system-wide tracing are available")


def load_spec():
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Passes


def run_pass(workload, ops, tracer):
    """Run each op once; returns (wall seconds, [(op, seconds, verdict)])."""
    records = []
    t0 = perf_counter()
    for op in ops:
        with tracer.span(f"op.{workload}.{op.name}"):
            start = perf_counter()
            try:
                result = op.call(tracer)
            except Exception as exc:  # a failing op is an outcome to count, not a crash
                if not isinstance(exc, GraphEntropyError):
                    traceback.print_exc()
                result = exc
            seconds = perf_counter() - start
        verdict = op.check(result)
        if verdict.status != "ok":
            print(f"bench: {workload}/{op.name} {verdict.status}: {verdict.detail}",
                  file=sys.stderr)
        records.append((op, seconds, verdict))
    return perf_counter() - t0, records


def probe_setup(name, seed, workdir):
    """Seconds from spawning a fresh interpreter until it has built the workload."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, script, name, str(seed), workdir],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up probe failed with exit {proc.returncode}")
    return seconds


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# Figures derived from op records


def accuracy(records):
    """failed_frac with counts, s_err_max and exponent_err from the checks."""
    bad = [op.name for op, _, v in records if v.status != "ok"]
    errs = [v.facts["s_err"] for _, _, v in records if "s_err" in v.facts]
    exps = [v.facts["exponent_err"] for _, _, v in records if "exponent_err" in v.facts]
    return {
        "attempted": len(records),
        "failed": len(bad),
        "failed_frac": len(bad) / len(records),
        "ops": len({op.name for op, _, _ in records}),
        "failed_ops": sorted(set(bad)),
        "s_err_max": max(errs) if errs else None,
        "exponent_err": max(exps) if exps else None,
    }


def facts(records):
    """Deterministic outputs of each op, for comparing runs at one seed."""
    return {op.name: v.facts for op, _, v in sorted(records, key=lambda r: r[0].name)}


def layer_metrics(records):
    """Per-layer figures from one traced run of each op; the names of ops
    this workload lacks are left out and read 0."""
    out = {op.metric: seconds for op, seconds, _ in records}
    for op, _, v in records:
        if op.name == "crease_report":
            out["phase.crease_points_ok"] = v.facts.get("points_ok", 0)
            out["phase.separation_sigma"] = v.facts.get("separation_sigma") or 0.0
            out["phase.exponent_err"] = v.facts.get("exponent_err", 0.0)
        elif "rows_ok" in v.facts:
            out["phase.scan_rows_ok"] = out.get("phase.scan_rows_ok", 0) + v.facts["rows_ok"]
    solved = [v.facts for _, _, v in records if "starts" in v.facts]
    if solved:
        starts = sum(f["starts"] for f in solved)
        feasible = sum(f["feasible_starts"] for f in solved)
        out["optimize.starts"] = starts
        out["optimize.feasible_starts"] = feasible
        out["optimize.feasible_start_ratio"] = feasible / starts
        out["optimize.converged_frac"] = sum(f["converged"] for f in solved) / len(solved)
    errs = [v.facts["s_err"] for _, _, v in records if "s_err" in v.facts]
    if errs:
        out["optimize.s_err_max"] = max(errs)
    return out


# ---------------------------------------------------------------------------
# Runs


def spread_evenly(count, passes):
    """How many of `count` samples to take before each of `passes` passes."""
    due = [j * passes // count for j in range(count)]
    return [due.count(index) for index in range(passes)]


def timed_run(workload, seconds, probe):
    """Untraced passes over every op, with the set-up probes spread between
    them; wall_s is the sum of each op's slowest time, setup_s the slowest probe.

    The shared machine the benchmark was defined on ran at one contended
    speed most of the time, with fast spells of seconds to minutes whose
    share of a run varied from run to run.  The slowest repetition measures
    an op or a set-up at the contended speed, and spread less across runs
    than the median or the fastest.  Spreading the probes through the run
    lets them see the same spells as the ops.
    """
    passes = workload.passes(seconds)
    setup, walls, records, latencies = [], [], [], {}
    for index, probes in enumerate(spread_evenly(SETUP_SAMPLES, passes)):
        setup += [probe() for _ in range(probes)]
        wall, recs = run_pass(workload.name, workload.pass_order(index), tracing.NullTracer())
        walls.append(wall)
        records += recs
        for op, s, _ in recs:
            latencies.setdefault(op.name, []).append(s)
    op_s = [statistics.median(v) for v in latencies.values()]
    slowest = [max(v) for v in latencies.values()]
    return {"wall_s": sum(slowest), "setup_s": max(setup)}, records, {
        "passes": passes,
        "pass_walls_s": walls,
        "setup_samples_s": setup,
        "op_samples_s": latencies,
        "op_p50_s": statistics.median(op_s),
        "op_p50_ops": len(op_s),
        "op_p50_samples": len(records),
    }


def traced_run(workload, seed, spans_path):
    """One untraced pass, one traced pass, the traced-only ops, then the layer
    microbenchmarks."""
    wall0, recs0 = run_pass(workload.name, workload.pass_order(0), tracing.NullTracer())
    tracer = tracing.Tracer()
    wall1, recs1 = run_pass(workload.name, workload.pass_order(1), tracer)
    _, recs2 = run_pass(workload.name, workload.traced_ops, tracer)
    tracer.write(spans_path)
    out = layer_metrics(recs1 + recs2)
    out["trace.overhead_s"] = tracing.span_cost_s() * len(tracer.spans)
    out["trace.spans"] = len(tracer.spans)
    ops = (workloads.solve_ops() + [workloads.above_ridge_op()]
           + workloads.reject_ops() + [workloads.reject_corner_op()])
    out.update(layers.measure(seed, [(op.target.e, op.target.t) for op in ops]))
    return out, recs0 + recs1 + recs2, {
        "untraced_wall_s": wall0,
        "traced_wall_s": wall1,
        "spans_file": os.path.relpath(spans_path, checkout.ROOT),
        "facts": facts(recs1 + recs2),
        "facts_repeat_equal": facts(recs0) == facts(recs1),
    }


# ---------------------------------------------------------------------------
# Environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not os.path.isdir(os.path.join(checkout.ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", checkout.ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(checkout.SRC, "graphentropy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "solver_seed": workloads.SOLVER_SEED,
        "clocks": CLOCK_NOTE,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    os.makedirs(checkout.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=checkout.OUT)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            spans = os.path.join(checkout.OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            measured, records, extra = traced_run(workload, args.seed, spans)
            declared = spec["per_layer"]
        else:
            measured, records, extra = timed_run(
                workload, args.seconds, lambda: probe_setup(args.workload, args.seed, workdir))
            measured["peak_rss_mb"] = peak_rss_mb()
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"bench: measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    for value in metrics.values():
        if not math.isfinite(value["value"]):
            raise SystemExit(f"bench: non-finite metric {value}")

    acc = accuracy(records)
    by_op = {}
    for op, seconds, v in records:
        by_op.setdefault(op.name, []).append((seconds, v))
    for name, runs in by_op.items():
        times = [s for s, _ in runs]
        bad = [v for _, v in runs if v.status != "ok"]
        print(f"{name:20s} runs {len(runs):4d}  fastest {min(times):.4f} s  "
              f"median {statistics.median(times):.4f} s  slowest {max(times):.4f} s  "
              f"not ok {len(bad)}"
              + (f"  ({bad[0].status}: {bad[0].detail})" if bad else ""))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {acc['failed_frac']:.4f} ({acc['failed']} of {acc['attempted']} op runs;"
          f" {len(acc['failed_ops'])} of {acc['ops']} ops: {', '.join(acc['failed_ops']) or '-'})")
    if "op_p50_s" in extra:
        print(f"op_p50_s {extra['op_p50_s']:.6g} s (median over {extra['op_p50_ops']}"
              f" ops of each op's median, from {extra['op_p50_samples']} op runs)")
    print(f"s_err_max {acc['s_err_max']} nats  exponent_err {acc['exponent_err']}")
    meta = {"workload": args.workload, "trace": args.trace,
            "accuracy": acc, "environment": environment(args.seed), **extra}
    print(json.dumps(meta, default=str))
    print(json.dumps({
        "correct": all(v.status != "wrong" for _, _, v in records),
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
