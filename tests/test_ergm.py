"""Free-energy, transition-curve and convexity tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphentropy import _kernel, errors
from graphentropy.ergm import (
    THEOREM5_GRID,
    ErgmParams,
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
from graphentropy.problem import KKT_TOL, MAX_INNER_ITERATIONS, Motif

FAST = OptimConfig(m=8, multistart_count=4)

# psi and the maximizer's (e, t) of psi_full at THEOREM5_GRID[30], (b1, b2) =
# (1, -1), with FAST, recorded at commit d15f377, where every line-search
# trial built its gradient and the densities were taken again after each
# start; every bit must be reproduced.
PSI_FULL_AT_D15F377 = ("0x1.74951e36fdbd0p-1", "0x1.18d861857b880p-1", "0x1.5200e8b6da3dfp-3")


def test_psi_full_bit_identical_to_recorded_values():
    params = THEOREM5_GRID[30]
    assert (params.beta1, params.beta2) == (1.0, -1.0)
    res = psi_full(params, FAST)
    got = (res.psi, res.maximizer_densities.e, res.maximizer_densities.t)
    assert [float(x).hex() for x in got] == [float.fromhex(h).hex() for h in PSI_FULL_AT_D15F377]


def _spg_constant_start_runs(params, m):
    """The runs psi_full once made from constant starts: spg_box from each
    psi_constant maximizer u_star and from 0.1, 0.5 and 0.9, each as
    (psi, e, t, pg)."""
    objective = _kernel.FreeEnergy(_kernel.density_gradient(Motif.triangle(), m),
                                   params.beta1, params.beta2)
    runs = []
    for u in [*psi_constant(params)["u_star"], 0.1, 0.5, 0.9]:
        _, f, _, pg = _kernel.spg_box(_kernel.project(np.full((m, m), u)), objective,
                                      0.3 * KKT_TOL, MAX_INNER_ITERATIONS)
        runs.append((-f, objective.e, objective.t, pg))
    return runs


def _psi_full_with_spg_constant_starts(params, config):
    """psi_full as it was before it valued the constant family directly:
    (psi, degenerate, converged) over the constant-start SPG runs and the
    random restarts (config has no warm start)."""
    m = config.m
    runs = _spg_constant_start_runs(params, m)
    objective = _kernel.FreeEnergy(_kernel.density_gradient(Motif.triangle(), m),
                                   params.beta1, params.beta2)
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
