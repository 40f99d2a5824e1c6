"""Free-energy, transition-curve and convexity tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpu_pair import (
    HASWELL_AVX2,
    HASWELL_AVX512,
    SKYLAKEX_AVX2,
    SKYLAKEX_AVX512,
    pin_message,
    pinned,
)
from graphentropy import _kernel, ergm, errors
from graphentropy.ergm import (
    THEOREM5_GRID,
    ErgmParams,
    FreeEnergyResult,
    _dphi,
    _phi,
    find_transition,
    psi_constant,
    psi_full,
    transition_curve,
    verify_t_le_e_cubed,
)
from graphentropy.graphon import rate_value
from graphentropy.optimize import (
    OptimConfig,
    closed_form_upper,
    convexity_report,
    slice_second_derivative,
    slice_second_derivative_fd,
)
from graphentropy.problem import KKT_TOL, MAX_INNER_ITERATIONS, DensityPair, Motif

FAST = OptimConfig(m=8, multistart_count=4)

# psi and the maximizer's (e, t) of psi_full at THEOREM5_GRID[30], (b1, b2) =
# (1, -1), with FAST, where the constant start psi_constant gives is refined
# by bisecting the sign of phi' to 1e-14; every bit must be reproduced.  t
# was re-recorded (one ulp lower) when the triangle density became one BLAS
# dot.  psi was re-recorded (one ulp higher, from 0x1.74951e36fdbcep-1) when
# psi_full came to minimize the augmented Lagrangian at zero penalty, which
# sums f as I - (b1 e + b2 t) where the free-energy objective before it
# summed (I - b1 e) - b2 t; e and t did not move.  One record per (OpenBLAS
# core, numpy AVX512_SKX) pair, as cpu_pair.py names it; the SKYLAKEX_AVX512
# record is the history above, and the other three pairs, recorded from the
# same code, give the same bits.
PSI_FULL_FROM_PHI_PRIME_BISECTION = {
    SKYLAKEX_AVX512: ("0x1.74951e36fdbcfp-1", "0x1.18d861877be01p-1", "0x1.5200e8be14186p-3"),
    HASWELL_AVX512: ("0x1.74951e36fdbcfp-1", "0x1.18d861877be01p-1", "0x1.5200e8be14186p-3"),
    SKYLAKEX_AVX2: ("0x1.74951e36fdbcfp-1", "0x1.18d861877be01p-1", "0x1.5200e8be14186p-3"),
    HASWELL_AVX2: ("0x1.74951e36fdbcfp-1", "0x1.18d861877be01p-1", "0x1.5200e8be14186p-3"),
}


def test_parameter_grid():
    # beta1 the outer loop, each axis np.linspace's points
    grid = list(ergm.parameter_grid(-1, 1, 3, 0, 2, 2))
    assert [(p.beta1, p.beta2) for p in grid] == [
        (-1.0, 0.0), (-1.0, 2.0), (0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (1.0, 2.0)]
    assert THEOREM5_GRID == tuple(ErgmParams(float(b1), float(b2)) for b1 in np.linspace(-3, 3, 7)
                                  for b2 in np.linspace(-3, 3, 7))
    # the counts are checked at the call, before a point is made
    for counts in ((0, 1), (1, 2.5), (1, math.nan)):
        with pytest.raises(errors.ValueOutOfRange, match="grid count"):
            ergm.parameter_grid(0, 1, counts[0], 0, 1, counts[1])
    with pytest.raises(errors.TooLarge, match="grid point count"):
        ergm.parameter_grid(0, 1, 1001, 0, 1, 1000)


def test_psi_full_bit_identical_to_recorded_values():
    params = THEOREM5_GRID[30]
    assert (params.beta1, params.beta2) == (1.0, -1.0)
    res = psi_full(params, FAST)
    got = (res.psi, res.maximizer_densities.e, res.maximizer_densities.t)
    expected = pinned(PSI_FULL_FROM_PHI_PRIME_BISECTION)
    assert [float(x).hex() for x in got] == [float.fromhex(h).hex() for h in expected], (
        pin_message())


def _free_energy(params, m):
    """The negated free energy, built as psi_full builds it: the Lagrangian at
    target (0, 0), no penalty and multipliers (beta1, beta2), with a
    tolerance no iterate meets."""
    return _kernel.AugmentedLagrangian(_kernel.density_gradient(Motif.triangle(), m),
                                       0.0, 0.0, (params.beta1, params.beta2), 0.0, -1.0)


def _spg_constant_start_runs(params, m):
    """spg_box from each psi_constant maximizer u_star and from 0.1, 0.5 and
    0.9, each as (psi, e, t, pg)."""
    objective = _free_energy(params, m)
    runs = []
    for u in [*psi_constant(params)["u_star"], 0.1, 0.5, 0.9]:
        _, f, _, pg = _kernel.spg_box(_kernel.project(np.full((m, m), u)), objective,
                                      0.3 * KKT_TOL, MAX_INNER_ITERATIONS)
        runs.append((-f, objective.e, objective.t, pg))
    return runs


def _psi_full_with_spg_constant_starts(params, config):
    """psi_full with the constant starts 0.1, 0.5 and 0.9 added:
    (psi, degenerate, converged) over the constant-start SPG runs and the
    random restarts (config has no warm start)."""
    m = config.m
    runs = _spg_constant_start_runs(params, m)
    objective = _free_energy(params, m)
    rng = np.random.default_rng(config.seed)
    for _ in range(max(config.multistart_count // 2, 2)):
        r = rng.uniform(0.05, 0.95, size=(m, m))
        _, f, _, pg = _kernel.spg_box(_kernel.project(0.5 * (r + r.T)), objective,
                                      0.3 * KKT_TOL, MAX_INNER_ITERATIONS)
        runs.append((-f, objective.e, objective.t, pg))
    runs.sort(key=lambda r: -r[0])
    psi, e_val, t_val, pg = runs[0]
    degenerate = any(psi - psi2 <= 1e-7 and max(abs(e2 - e_val), abs(t2 - t_val)) > 1e-3
                     for psi2, e2, t2, _ in runs[1:])
    return psi, degenerate, pg <= KKT_TOL


@pytest.mark.parametrize("m", [8, 16])
def test_spg_from_each_constant_maximizer_returns_its_start(m):
    # psi_full's constant candidates take no step: u_star is a zero of phi'
    # to rounding, so spg_box stops at its first projected-gradient test
    for params in THEOREM5_GRID:
        objective = _free_energy(params, m)
        for u in psi_constant(params)["u_star"]:
            start = _kernel.project(np.full((m, m), u))
            a, _, _, pg = _kernel.spg_box(start, objective, 0.3 * KKT_TOL, MAX_INNER_ITERATIONS)
            assert np.all(start == u) and a is start and pg <= 0.3 * KKT_TOL, (params, u)


@settings(max_examples=40, deadline=None)
@given(b1=st.floats(-3.0, 3.0), b2=st.floats(-3.0, 3.0), m=st.sampled_from([1, 4, 8]))
def test_no_constant_start_beats_the_valued_constant_family(b1, b2, m):
    # an SPG run from a constant start stays constant, so it ends at a local
    # maximum of phi, which cannot beat phi's global maximum u_star
    params = ErgmParams(b1, b2)
    psi = psi_full(params, OptimConfig(m=m, multistart_count=4)).psi
    assert max(run[0] for run in _spg_constant_start_runs(params, m)) <= psi + 1e-12


def test_psi_full_verdicts_match_the_spg_constant_starts_on_the_theorem5_grid():
    cfg = OptimConfig(m=8, multistart_count=4)
    for params in THEOREM5_GRID:
        res = psi_full(params, cfg)
        psi, degenerate, converged = _psi_full_with_spg_constant_starts(params, cfg)
        assert (res.degenerate, res.converged) == (degenerate, converged), params
        assert abs(res.psi - psi) <= 1e-12, params


def test_params_must_be_finite():
    with pytest.raises(errors.ValueOutOfRange):
        ErgmParams(math.inf, 0.0)


def test_psi_constant_zero_field():
    out = psi_constant(ErgmParams(0.0, 0.0))
    assert out["psi_er"] == pytest.approx(0.5 * math.log(2.0), abs=1e-10)
    assert len(out["u_star"]) == 1
    assert out["u_star"][0] == pytest.approx(0.5, abs=1e-8)


def test_psi_constant_strong_field_pushes_to_one():
    out = psi_constant(ErgmParams(50.0, 0.0))
    assert out["u_star"][-1] > 0.999


def test_psi_full_zero_field():
    res = psi_full(ErgmParams(0.0, 0.0), FAST)
    assert res.psi == pytest.approx(0.5 * math.log(2.0), abs=1e-8)
    assert res.maximizer_densities.e == pytest.approx(0.5, abs=1e-6)
    assert not res.degenerate
    # psi equals the functional evaluated on its maximizer
    g = res.maximizer
    e, t = res.maximizer_densities.e, res.maximizer_densities.t
    val = -float(np.mean(rate_value(g.values)))
    assert res.psi == pytest.approx(val + 0.0 * e + 0.0 * t, abs=1e-10)


def test_psi_full_reports_convergence_as_data():
    assert psi_full(ErgmParams(0.0, 0.0), FAST).converged is True


def test_psi_full_constant_maximizer_for_positive_beta2():
    res = psi_full(ErgmParams(0.3, 0.8), FAST)
    spread = float(np.ptp(res.maximizer.values))
    assert spread < 1e-6
    assert res.psi >= psi_constant(ErgmParams(0.3, 0.8))["psi_er"] - 1e-8


def test_psi_majorizes_constant_family():
    params = ErgmParams(-0.7, 1.3)
    res = psi_full(params, FAST)
    us = np.linspace(0.0, 1.0, 1000)
    vals = -rate_value(us) + params.beta1 * us + params.beta2 * us ** 3
    assert res.psi >= float(np.max(vals)) - 1e-8


def test_psi_convex_along_beta_line():
    b1s = np.linspace(-1.0, 1.0, 9)
    psis = [psi_constant(ErgmParams(float(b), 0.5))["psi_er"] for b in b1s]
    second = np.diff(psis, 2)
    assert np.all(second >= -1e-8)


def test_maximizer_triangle_bound():
    report = verify_t_le_e_cubed(
        [ErgmParams(b1, -2.0) for b1 in (-1.0, 0.0, 1.0)], FAST
    )
    assert report["violations"] == []
    assert report["max_excess"] <= 1e-6


def test_maximizer_bound_reports_a_violating_point(monkeypatch):
    # no maximizer exceeds e^3 (that is the theorem checked), so a stand-in
    # psi_full supplies one that does
    def psi_full(params, config):
        return FreeEnergyResult(psi=0.0, maximizer=None,
                                maximizer_densities=DensityPair(e=0.5, t=0.2),
                                degenerate=False, converged=True)

    monkeypatch.setattr(ergm, "psi_full", psi_full)
    report = verify_t_le_e_cubed([ErgmParams(1.0, 2.0)])
    assert report["violations"] == report["points"] == [(1.0, 2.0, 0.5, 0.2, 0.2 - 0.5 ** 3)]
    assert report["max_excess"] == 0.2 - 0.5 ** 3


def test_maximizer_bound_escapes_upper_boundary_start():
    cfg = OptimConfig(m=8, multistart_count=2, warm_start=closed_form_upper(0.5, 8))
    report = verify_t_le_e_cubed([ErgmParams(0.0, 1.0)], cfg)
    assert report["violations"] == []


def test_transition_exists_above_critical_coupling():
    b1c, u_low, u_high = find_transition(1.0)
    assert u_high - u_low > 1e-3
    # tied maximizers are both Erdos-Renyi: triangle density is the cube
    ps = psi_constant(ErgmParams(b1c, 1.0))
    assert abs(ps["u_star"][0] - u_low) < 1e-6
    assert abs(ps["u_star"][-1] - u_high) < 1e-6


def test_no_transition_below_critical_coupling():
    # the scalar family has a unique maximizer throughout for weak coupling
    with pytest.raises(errors.NoTransitionFound):
        find_transition(0.5)


@pytest.mark.parametrize("beta2", [0.57, 0.58, 0.59])
def test_transition_found_just_above_critical_coupling(beta2):
    # the whole jump lies above u = 1/2 here; the tied maxima straddle 2/3
    b1c, u_low, u_high = find_transition(beta2)
    assert u_low < 2.0 / 3.0 < u_high
    ps = psi_constant(ErgmParams(b1c, beta2))
    assert len(ps["u_star"]) == 2
    assert abs(ps["u_star"][0] - u_low) < 1e-6
    assert abs(ps["u_star"][-1] - u_high) < 1e-6


@pytest.mark.parametrize("beta2", [21.0, 50.0, 1e3, 1e6])
def test_transition_found_at_strong_coupling(beta2):
    # the critical beta1 lies below -20 from beta2 near 20 up, and from near
    # 512 up no float lies between bisection ends 1e-13 apart
    b1c, u_low, u_high = find_transition(beta2)
    assert u_low < 2.0 / 3.0 < u_high
    assert abs(_phi(u_low, b1c, beta2) - _phi(u_high, b1c, beta2)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(b1=st.floats(-3.0, 3.0), b2=st.floats(-0.5, 3.0, exclude_min=True))
def test_constant_maximizers_are_zeros_of_phi_prime(b1, b2):
    # phi' to rounding, plus |phi''| times the half-width 5e-15 of the last
    # bracket: near u = 1 no float does better (at (0, 3) the maximizer is
    # 1 - 1.5e-8, phi'' = -3.3e7, and one ulp of u moves phi' by 3.7e-9)
    for u in psi_constant(ErgmParams(b1, b2))["u_star"]:
        if 1e-9 < u < 1.0 - 1e-9:
            curvature = abs(-0.5 / (u * (1.0 - u)) + 6.0 * b2 * u)
            bound = 1e-10 * (1.0 + abs(b1) + 3.0 * abs(b2)) + 5e-15 * curvature
            assert abs(_dphi(u, b1, b2)) <= bound


def test_no_transition_where_the_tied_values_differ(monkeypatch):
    # bisected to the tolerance the two maxima tie to 1e-9; stopped at 1e-2
    # they do not
    monkeypatch.setattr(ergm, "TRANSITION_TOL", 1e-2)
    with pytest.raises(errors.NoTransitionFound, match="tied-value gap"):
        find_transition(1.0)


def test_transition_curve_row_for_every_coupling_above_critical():
    rows = transition_curve(0.55, 0.6, 6)
    sampled = np.linspace(0.55, 0.6, 6)
    assert [r[0] for r in rows] == [float(b) for b in sampled if b > 9.0 / 16.0]


def test_transition_curve_rows_monotone():
    rows = transition_curve(0.8, 2.0, 4)
    assert len(rows) == 4
    b1s = [r[1] for r in rows]
    assert all(b1s[i] > b1s[i + 1] for i in range(len(b1s) - 1))
    for _, b1c, u_low, u_high in rows:
        assert u_high - u_low > 1e-3


def test_transition_curve_domain_guard():
    with pytest.raises(errors.ValueOutOfRange):
        transition_curve(-1.0, 1.0, 3)
    with pytest.raises(errors.ValueOutOfRange):
        transition_curve(1.0, -1.0, 3)
    with pytest.raises(errors.ValueOutOfRange):
        find_transition(-0.6)
    for steps in (1, 2.5, True):
        with pytest.raises(errors.ValueOutOfRange, match="steps"):
            transition_curve(0.6, 2.0, steps)
    # nan compares false with -1/2, so non-finite values need their own guard
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(errors.ValueOutOfRange):
            find_transition(bad)
        with pytest.raises(errors.ValueOutOfRange):
            transition_curve(bad, 1.0, 3)
        with pytest.raises(errors.ValueOutOfRange):
            transition_curve(0.6, bad, 3)


def test_convexity_report_sign_change():
    rep = convexity_report(300)
    assert 0.0 < rep.c1 <= rep.c2 < 0.125
    ts = np.array([t for t, _ in rep.second_derivative_samples])
    d2 = np.array([d for _, d in rep.second_derivative_samples])
    assert np.all(d2[ts < rep.c1 - 1e-9] < 0.0)
    assert np.all(d2[ts > rep.c2 + 1e-9] > 0.0)


def test_convexity_exact_matches_finite_differences():
    for t in (0.02, 0.05, 0.08, 0.11):
        ex = float(slice_second_derivative(t))
        fd = slice_second_derivative_fd(t)
        assert fd == pytest.approx(ex, rel=1e-6)
