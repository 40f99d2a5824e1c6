"""Layer microbenchmarks, run in every traced run.

Each figure is the cost of the public functions behind one layer, measured on
inputs drawn from the benchmark seed, independent of the workload.  Per-call
times are medians over batches, because one kernel call (tens of
microseconds) is too short to time alone.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from graphentropy import (
    ErgmParams,
    Graphon,
    Motif,
    OptimConfig,
    classify,
    enumerate_census,
    motif_density,
    motif_gradient,
    rate_value,
    transition_curve,
    verify_t_le_e_cubed,
    verify_trace_inequality,
)
from graphentropy.graphon import rate_derivative

from workloads import SOLVER_SEED, child_env

BATCHES = 7


def per_call_s(fn, number):
    """Median over BATCHES batches of the mean time of one call."""
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


def median_s(fn, repeat=3):
    """Median of `repeat` timed calls."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _symmetric(rng, m, lo, hi):
    r = rng.uniform(lo, hi, size=(m, m))
    return 0.5 * (r + r.T)


def _kernels(rng, out):
    tri, star4 = Motif.triangle(), Motif.star(4)
    c4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for m in (8, 16, 32):
        g = Graphon(values=_symmetric(rng, m, 0.05, 0.95))
        for label, motif in (("triangle", tri), ("star4", star4)):
            out[f"graphon.eval_us.{label}.m{m}"] = 1e6 * per_call_s(
                lambda: (motif_density(g, motif), motif_gradient(g, motif)), 200)
        out[f"graphon.rate_us.m{m}"] = 1e6 * per_call_s(
            lambda: (rate_value(g.values), rate_derivative(g.values)), 200)
        if m == 16:
            out["graphon.eval_us.c4.m16"] = 1e6 * per_call_s(
                lambda: (motif_density(g, c4), motif_gradient(g, c4)), 10)
    # computed from array sizes, not counted: density and gradient each do
    # one m x m matmul (2 m^3) plus two elementwise passes (2 m^2)
    flops = 4 * 32 ** 3 + 4 * 32 ** 2
    out["graphon.gflops.triangle.m32"] = flops / out["graphon.eval_us.triangle.m32"] / 1e3


def _cli_start(out):
    env = child_env()
    out["cli.python_start_s"] = median_s(
        lambda: subprocess.run([sys.executable, "-c", "pass"], check=True, env=env))
    code = ("import time; t = time.perf_counter(); import graphentropy.cli; "
            "print(time.perf_counter() - t)")
    out["cli.import_s"] = statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout)
        for _ in range(3))


def measure(seed, targets):
    """All layer microbenchmark figures; targets are (e, t) pairs to classify."""
    rng = np.random.default_rng(seed)
    out = {}
    _kernels(rng, out)
    out["region.classify_us"] = 1e6 * per_call_s(
        lambda: [classify(e, t) for e, t in targets], 50) / len(targets)
    dg = _symmetric(rng, 16, -1.0, 1.0)
    out["spectral.trace_ineq_us.m16"] = 1e6 * per_call_s(lambda: verify_trace_inequality(dg), 50)
    out["census.enumerate_s.t1"] = median_s(lambda: enumerate_census(7, threads=1))
    out["census.enumerate_s.t2"] = median_s(lambda: enumerate_census(7, threads=2))
    out["census.graphs_per_s"] = 2 ** 21 / out["census.enumerate_s.t1"]
    grid = [ErgmParams(float(b1), float(b2))
            for b1 in np.linspace(-3, 3, 7) for b2 in np.linspace(-3, 3, 7)]
    cfg = OptimConfig(m=8, multistart_count=4, seed=SOLVER_SEED)
    t0 = perf_counter()
    verify_t_le_e_cubed(grid, cfg)
    out["ergm.psi_full_ms"] = 1e3 * (perf_counter() - t0) / len(grid)
    t0 = perf_counter()
    transition_curve(0.6, 2.0, 8)
    out["ergm.transition_curve_s"] = perf_counter() - t0
    _cli_start(out)
    return out
