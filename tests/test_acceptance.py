"""Acceptance suite: one test per criterion, one pass/fail line each under -v.

Each test prints a `criterion NN: PASS/FAIL` line before asserting so the
verdicts survive in captured output as well.  Criteria 4, 6 and 7, and the
ER-ceiling part of 2, the derivative part of 10 and the n = 3 part of 12, call
the checks of `graphentropy.invariants` that `graphentropy verify` runs, with
this suite's own seeds and larger sample counts; criterion 2 also runs the
region-geometry check.  Criterion 9 covers both ends of the transition curve
of the scalar family: below the critical coupling 9/16 it asserts the proven
absence of a first-order jump, above it a tie.
"""

import json
import math
import time

import numpy as np
import pytest

from graphentropy import errors, invariants
from graphentropy.census import enumerate_census, ridge_bins
from graphentropy.cli import run
from graphentropy.ergm import THEOREM5_GRID, ErgmParams, find_transition, verify_t_le_e_cubed
from graphentropy.graphon import DensityPair, Graphon, Motif, motif_density, rate_second_derivative
from graphentropy.optimize import (
    OptimConfig,
    closed_form_half,
    closed_form_upper,
    f_minus,
    maximize_entropy,
)
from graphentropy.phase import crease_report, crease_scan
from graphentropy.spectral import delta_t_decomposition, triangle_delta_direct

ACCEPT_CFG = OptimConfig(m=16, multistart_count=4)
FAST_CFG = OptimConfig(m=8, multistart_count=4)


def _verdict(number, ok, detail=""):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'}{detail}")
    return ok


def test_criterion_01_closed_form_slice():
    ok = True
    details = []
    for t in (0.02, 0.05, 0.08, 0.11, 0.124):
        ref = closed_form_half(t).s_value
        t0 = time.time()
        res = maximize_entropy(DensityPair(e=0.5, t=t), Motif.triangle(), ACCEPT_CFG)
        dt = time.time() - t0
        good = abs(res.s_value - ref) <= 1e-3 and dt < 60.0
        ok &= good
        details.append(f"t={t}: |ds|={abs(res.s_value - ref):.2e} {dt:.1f}s")
    assert _verdict(1, ok, " (" + "; ".join(details) + ")")


def test_criterion_02_er_curve_ceiling_and_bounds():
    ok, detail = invariants.er_curve_ceiling(ACCEPT_CFG)
    region_ok, region_detail = invariants.region_geometry()
    ok &= region_ok
    for e in (0.3, 0.5, 0.7):
        scan = crease_scan(e, Motif.triangle(), deltas=[1e-3, 1e-2], config=FAST_CFG)
        ok &= scan.bound_checks["all_hold"]
        # off-curve values strictly below the on-curve value
        for p in scan.below + scan.above:
            if p.s is not None:
                ok &= p.s < scan.s_on_curve
    assert _verdict(2, ok, f" ({detail}; {region_detail})")


def test_criterion_03_crease_and_exponent():
    verdicts = crease_report([0.5], Motif.triangle(), ACCEPT_CFG)
    v = verdicts[0]
    fit = v.scan.left_exponent_fit
    ok = v.crease_detected
    ok &= abs(fit["exponent"] - 2.0 / 3.0) <= 0.1
    fm = f_minus(0.5).f_minus
    ok &= abs(fit["constant"] - fm) <= 0.2 * fm
    assert _verdict(
        3, ok,
        f" (exponent={fit['exponent']:.3f}, constant={fit['constant']:.3f},"
        f" separation={v.separation_sigma:.1f} sigma)",
    )


def test_criterion_04_trace_inequality():
    ok, detail = invariants.trace_inequality(np.random.default_rng(42), 1000)
    assert _verdict(4, ok, f" ({detail})")


def test_criterion_05_delta_t_decomposition():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(200):
        m = int(rng.integers(2, 17))
        r = rng.uniform(0.05, 0.95, size=(m, m))
        g = Graphon(values=0.5 * (r + r.T))
        e = float(np.mean(g.values))
        rep = delta_t_decomposition(g, e)
        ok &= abs(rep.delta_t - triangle_delta_direct(g, e)) <= 1e-9
    assert _verdict(5, ok)


def test_criterion_06_gradient_checks():
    ok, detail = invariants.gradient_checks(np.random.default_rng(101), 100)
    assert _verdict(6, ok, f" ({detail})")


def test_criterion_07_euler_lagrange_closed_form():
    ok, detail = invariants.closed_form_agreement()
    slice_ok, slice_detail = invariants.slice_multipliers()
    assert _verdict(7, ok and slice_ok, f" ({detail}; {slice_detail})")


def test_criterion_08_maximizer_triangle_bound():
    report = verify_t_le_e_cubed(THEOREM5_GRID, FAST_CFG)
    ok = not report["violations"]
    warm = OptimConfig(m=8, multistart_count=2, warm_start=closed_form_upper(0.5, 8))
    report2 = verify_t_le_e_cubed(
        [ErgmParams(0.0, 1.0), ErgmParams(1.0, 2.0)], warm
    )
    ok &= not report2["violations"]
    assert _verdict(8, ok, f" (max excess {report['max_excess']:.2e})")


def test_criterion_09_transition_curve():
    # The scalar family phi(u) = -I0(u) + b1 u + b2 u^3 has phi'' > 0 only
    # where 12 b2 u^2 (1-u) > 1, and u^2 (1-u) <= 4/27 (at u = 2/3), so tied
    # maximizers exist only for b2 > 9/16 = 0.5625.  At b2 = 0.5 phi is
    # strictly concave, the maximizer is unique and varies continuously, and
    # NoTransitionFound is the correct answer.  b2 = 0.58 probes just above the
    # critical coupling, where the jump is about 0.23.
    from graphentropy.ergm import _phi
    ok = True
    details = []
    t0 = time.time()
    b2 = 0.5
    us = np.linspace(1e-6, 1.0 - 1e-6, 100_001)
    d2_max = float(np.max(-rate_second_derivative(us) + 6.0 * b2 * us))
    ok &= d2_max < 0.0
    try:
        find_transition(b2)
        ok = False
        details.append(f"b2={b2}: transition reported below 9/16")
    except errors.NoTransitionFound:
        details.append(f"b2={b2}: no transition, max phi''={d2_max:.3f}")
    for b2 in (0.58, 1.0, 2.0):
        try:
            b1c, u_low, u_high = find_transition(b2)
        except errors.NoTransitionFound as exc:
            ok = False
            details.append(f"b2={b2}: no transition found ({exc})")
            continue
        gap = abs(_phi(u_low, b1c, b2) - _phi(u_high, b1c, b2))
        good = gap <= 1e-9 and (u_high - u_low) > 1e-3
        ok &= good
        details.append(f"b2={b2}: jump={u_high - u_low:.3f} gap={gap:.1e}")
    dt = time.time() - t0
    ok &= dt < 10.0
    assert _verdict(9, ok, " (" + "; ".join(details) + f"; {dt:.1f}s)")


def test_criterion_10_convexity_change():
    ok, detail = invariants.convexity_derivative_paths(400)
    assert _verdict(10, ok, f" ({detail})")


def test_criterion_11_star_one_sidedness():
    ok = True
    e4 = 0.5 ** 4
    for d in (1e-3, 1e-2):
        try:
            maximize_entropy(DensityPair(e=0.5, t=e4 - d), Motif.star(4), FAST_CFG)
            ok = False
        except errors.Infeasible:
            pass
        res = maximize_entropy(DensityPair(e=0.5, t=e4 + d), Motif.star(4), FAST_CFG)
        ok &= res.converged
    # degree-moment convexity floor on random graphons
    rng = np.random.default_rng(55)
    for _ in range(500):
        m = int(rng.integers(2, 9))
        r = rng.uniform(0.0, 1.0, size=(m, m))
        g = Graphon(values=0.5 * (r + r.T))
        e = float(np.mean(g.values))
        ok &= motif_density(g, Motif.star(4)) >= e ** 4 - 1e-12
    assert _verdict(11, ok)


def test_criterion_12_census_oracle():
    t0 = time.time()
    ok, _ = invariants.census_hand_enumeration(1)
    t7 = enumerate_census(7)
    dt = time.time() - t0
    ok &= t7.total() == 2 ** 21
    bins = ridge_bins(t7)
    for e in (0.4, 0.5, 0.6):
        ec = round(e * 21)
        ok &= abs(bins[ec] - (ec / 21) ** 3 * 35) <= 2.0
    ok &= dt < 60.0
    assert _verdict(12, ok, f" ({dt:.1f}s)")


def test_criterion_13_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "e_grid": [0.5],
        "t_grid": [0.0, -1e-3, 1e-3],
        "relative": True,
        "optim": {"m": 8, "multistart_count": 2},
    }))
    outputs = {"verify": set(), "scan": set()}
    for threads in ("1", "4", "8"):
        vout = tmp_path / f"verify{threads}.txt"
        sout = tmp_path / f"scan{threads}.csv"
        assert run(["verify", "--seed", "7", "--threads", threads,
                    "--out", str(vout)]) == 0
        assert run(["scan", "--spec", str(spec), "--seed", "7",
                    "--threads", threads, "--out", str(sout)]) == 0
        outputs["verify"].add(vout.read_bytes())
        outputs["scan"].add(sout.read_bytes())
    ok = len(outputs["verify"]) == 1 and len(outputs["scan"]) == 1
    assert _verdict(13, ok)
