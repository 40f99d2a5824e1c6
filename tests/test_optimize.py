"""Constrained entropy solver and closed-form tests."""

import contextlib
import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpu_pair import (
    HASWELL_AVX2,
    HASWELL_AVX512,
    SKYLAKEX_AVX2,
    SKYLAKEX_AVX512,
    pin_message,
    pinned,
)
from graphentropy import _kernel, _random, errors, invariants, optimize
from graphentropy.ergm import ErgmParams, psi_full
from graphentropy.graphon import (
    DensityPair,
    Graphon,
    Motif,
    constant_graphon,
    edge_density,
    motif_density,
    rate_derivative,
    rate_function,
    rate_value,
)
from graphentropy.optimize import (
    OptimConfig,
    closed_form_half,
    closed_form_upper,
    el_residual,
    estimate_multipliers,
    f_minus,
    maximize_entropy,
    slice_second_derivative,
    slice_second_derivative_fd,
)
from graphentropy.phase import ScanSpec, crease_scan, phase_diagram_scan, power_fit
from graphentropy.problem import region_precheck

FAST = OptimConfig(m=8, multistart_count=2)


# ---------------------------------------------------------------------------
# Log-log fit


def test_power_fit_recovers_exact_power_law():
    xs = np.geomspace(1e-4, 3e-2, 6)
    coef, cov = power_fit(xs, 0.37 * xs ** (2.0 / 3.0))
    assert coef[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert math.exp(coef[0]) == pytest.approx(0.37, rel=1e-12)
    assert np.all(np.abs(cov) < 1e-20)


def test_power_fit_standard_errors_match_closed_form():
    # perturbed power law, so the residuals and standard errors are not zero
    xs = np.geomspace(1e-4, 3e-2, 7)
    noise = np.array([0.03, -0.02, 0.05, -0.04, 0.01, 0.02, -0.05])
    ys = 1.3 * xs ** 0.5 * np.exp(noise)
    coef, cov = power_fit(xs, ys)
    lx, ly = np.log(xs), np.log(ys)
    n = len(lx)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean()))) / sxx
    intercept = float(ly.mean()) - slope * float(lx.mean())
    s2 = float(np.sum((ly - intercept - slope * lx) ** 2)) / (n - 2)
    assert coef[1] == pytest.approx(slope, rel=1e-12)
    assert coef[0] == pytest.approx(intercept, rel=1e-12)
    assert math.sqrt(cov[1, 1]) == pytest.approx(math.sqrt(s2 / sxx), rel=1e-12)
    assert math.sqrt(cov[0, 0]) == pytest.approx(
        math.sqrt(s2 * (1.0 / n + float(lx.mean()) ** 2 / sxx)), rel=1e-12)
    with pytest.raises(errors.DegenerateFit):
        power_fit(xs[:2], ys[:2])
    for x in (1e-3, 0.03125):  # three points at one x: singular, or a negative variance
        with pytest.raises(errors.DegenerateFit):
            power_fit([x] * 3, ys[:3])
    # the LAPACK fit the closed form replaced: lstsq for coef, inv for cov
    x = np.column_stack([np.ones(n), lx])
    ref, *_ = np.linalg.lstsq(x, ly, rcond=None)
    ref_cov = float(np.sum((ly - x @ ref) ** 2)) / (n - 2) * np.linalg.inv(x.T @ x)
    np.testing.assert_allclose(coef, ref, rtol=1e-12)
    np.testing.assert_allclose(cov, ref_cov, rtol=1e-10)


@pytest.mark.parametrize("xs, ys, named", [
    ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], "x = 0.0"),
    ([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0], "x = -1.0"),
    ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0], "x = nan"),
    ([1.0, 2.0, 3.0], [0.0, 2.0, 3.0], "y = 0.0"),
    ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], "y = inf"),
], ids=["zero-x", "negative-x", "nan-x", "zero-y", "inf-y"])
def test_power_fit_rejects_a_value_that_is_not_finite_and_positive(xs, ys, named, capfd):
    # a package error before any log is taken, and nothing printed to stderr
    with pytest.raises(errors.ValueOutOfRange, match=named):
        power_fit(xs, ys)
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------------
# Closed forms

# s''(1/2, t) by finite differences and exactly, recorded at commit 616a98c,
# where the finite difference valued the slice through its own copy of the
# closed form
SLICE_D2_AT_616A98C = {  # t: (finite difference, exact)
    0.001: ("-0x1.448ae90c78b87p+9", "-0x1.448d3ed34592cp+9"),
    0.02: ("-0x1.80e6f08890341p+4", "-0x1.80e6f083ec5f6p+4"),
    0.05: ("-0x1.e69ffb487ffacp+1", "-0x1.e69ffb25496f2p+1"),
    0.08: ("0x1.a8570616f189ep+2", "0x1.a8570614a1befp+2"),
    0.11: ("0x1.a1d48f3df057bp+5", "0x1.a1d48f4607f9ap+5"),
    0.124: ("0x1.11c7a6049c2cap+11", "0x1.11cb4c35eae97p+11"),
}


def test_slice_second_derivatives_bit_identical_to_recorded_values():
    for t, (fd, exact) in SLICE_D2_AT_616A98C.items():
        assert float(slice_second_derivative_fd(t)).hex() == float.fromhex(fd).hex(), t
        assert float(slice_second_derivative(t)).hex() == float.fromhex(exact).hex(), t



def test_closed_form_half_reference_point():
    sol = closed_form_half(0.124)
    assert sol.epsilon == pytest.approx(0.1, rel=1e-12)
    assert sol.s_value == pytest.approx(-rate_value(0.6), abs=1e-15)
    assert sol.beta2 == pytest.approx(-math.log(0.6 / 0.4) / 0.06, rel=1e-12)
    assert sol.beta1 == pytest.approx(-0.75 * sol.beta2, rel=1e-12)


def test_closed_form_half_endpoint_betas_diverge():
    sol = closed_form_half(0.125)
    assert sol.epsilon == 0.0
    assert not sol.beta_finite
    assert math.isinf(sol.beta1)


@st.composite
def _half_density_graphons(draw):
    """Symmetric step graphons 1/2 + U with int U = 0 and t(U) <= 0: the
    bipodal optimizers 1/2 -/+ epsilon, or a random U, its degrees
    optionally removed, scaled into [-1/2, 1/2]."""
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        eps = draw(st.floats(0.0, 0.5))
        side = np.arange(2 * m) < m
        return np.where(side[:, None] == side[None, :], 0.5 - eps, 0.5 + eps)
    r = draw(arrays(np.float64, (m, m), elements=st.floats(-1.0, 1.0)))
    u = np.triu(r) + np.triu(r, 1).T
    if draw(st.booleans()):  # zero degrees, so that t - 1/8 = t(U)
        u = u - u.mean(axis=0) - u.mean(axis=1)[:, None] + u.mean()
    else:
        u = u - u.mean()
    size = np.max(np.abs(u))
    if size > 0:
        u = u / size * (0.5 * draw(st.floats(0.0, 1.0)))
    # the scaling magnifies the mean left by rounding: at a constant r, an
    # ulp of it becomes the whole of U
    u = u - u.mean()
    if np.trace(u @ u @ u) > 0:  # t(-U) = -t(U)
        u = -u
    w = np.clip(0.5 + u, 0.0, 1.0)
    return 0.5 * (w + w.T)


@settings(max_examples=300, deadline=None)
@given(w=_half_density_graphons())
# a bipodal optimizer, where the bound is attained: lowered by 1e-9, it fails here
@example(w=np.array([[0.4, 0.6], [0.6, 0.4]]))
def test_closed_form_half_bounds_s_at_edge_density_one_half(w):
    # the bound that ends a solve at e = 1/2: no graphon of edge density 1/2
    # and triangle density t <= 1/8 has -I above the closed form at t
    g = Graphon(values=w)
    t = motif_density(g, Motif.triangle())
    assume(abs(edge_density(g) - 0.5) <= 1e-15 and t <= 0.125)
    # the bound rises as t(W) rounds down, steeply near 1/8, where its slope
    # -beta2 diverges: at epsilon = 1.2e-7 one ulp of t moves it by 6e-12
    t_hi = min(t + 1e-15, 0.125)
    assert -rate_function(g) <= closed_form_half(t_hi).s_value + 1e-12


def test_closed_forms_reject_arguments_outside_their_domains():
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        f_minus(1.0)
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        closed_form_half(0.2)
    with pytest.raises(errors.ValueOutOfRange, match="samples must be an integer >= 100"):
        optimize.convexity_report(99)


def test_convexity_report_raises_on_an_unexpected_sign_pattern(monkeypatch):
    # s''(1/2, t) changes sign once on (0, 1/8) for every sample count, so a
    # stand-in second derivative that never does supplies the pattern
    monkeypatch.setattr(optimize, "slice_second_derivative", lambda t: np.ones_like(t))
    with pytest.raises(errors.SignPatternUnexpected, match="got 0 crossings"):
        optimize.convexity_report(100)


def test_closed_form_upper_densities():
    g = closed_form_upper(0.25, 16)
    assert float(np.mean(g.values)) == pytest.approx(0.25, abs=1e-12)


_E_GRID = [i / 20 for i in range(21)] + [0.03, 0.123, 0.4999, 0.77]


def test_closed_form_upper_bit_equal_to_its_clique_formula():
    # 1 on the first round(sqrt(e) m) rows and columns, 0 elsewhere, written
    # out; the grid has both ends, the empty graphon and the complete one
    for m in range(1, 34):
        for e in _E_GRID:
            mc = min(max(int(round(math.sqrt(e) * m)), 0), m)
            a = np.zeros((m, m))
            a[:mc, :mc] = 1.0
            assert closed_form_upper(e, m).values.tobytes() == a.tobytes(), (e, m)


def test_closed_form_upper_rejects_e_outside_the_unit_interval():
    for e in (-1e-12, 1.0 + 1e-12, math.nan):
        with pytest.raises(errors.ValueOutOfRange):
            closed_form_upper(e, 5)


def test_checkerboard_start_bit_equal_to_its_rank_one_formula():
    # e + sign x alpha alpha^T, alpha = -1 on the first m // 2 blocks and +1
    # on the rest, clamped onto the box; sign is -1 below the ridge t = e^3
    triangle = Motif.triangle()
    for m in range(1, 34):
        cfg = OptimConfig(m=m, multistart_count=0)
        for e in (0.05, 0.2, 0.3, 0.5, 0.61, 0.9):
            for sign in (-1.0, 1.0):
                t = e ** 3 * (1.0 + 0.5 * sign * (1.0 - e))
                starts = dict(optimize._starts(DensityPair(e=e, t=t), triangle, cfg))
                x = min(abs(e ** 3 - t) ** (1.0 / 3.0), e - 0.01, 1.0 - e - 0.01)
                alpha = np.ones(m)
                alpha[: m // 2] = -1.0
                ref = optimize.project(e + sign * x * np.outer(alpha, alpha))
                assert starts["checkerboard"].tobytes() == ref.tobytes(), (e, sign, m)


def test_f_minus_half_is_one():
    fm = f_minus(0.5)
    assert fm.f_minus == pytest.approx(1.0, abs=1e-9)
    assert fm.linear_constant_above == pytest.approx(0.4, abs=1e-9)


def test_f_minus_bounded_by_curvature():
    # at e = 1/2 the bound is met with equality: f_-(1/2) = I0''(1/2)/2 = 1
    for e in (0.2, 0.4, 0.5, 0.6, 0.8):
        fm = f_minus(e)
        assert 0.0 < fm.f_minus <= 1.0 / (4.0 * e * (1.0 - e)) + 1e-12


def _f_decimal(e, x):
    """f(e, x) = [I0(e+x) - x I0'(e) - I0(e)] / x^2 for Decimal e and x, in
    the current decimal context; at x = 0 its limit I0''(e)/2."""
    def i0(u):
        return sum((v * v.ln() for v in (u, 1 - u) if v), decimal.Decimal(0)) / 2

    if x == 0:
        return (1 / e + 1 / (1 - e)) / 4
    return (i0(e + x) - x * (e / (1 - e)).ln() / 2 - i0(e)) / (x * x)


@settings(max_examples=200, deadline=None)
@given(e=st.floats(optimize.CLAMP, 1.0 - optimize.CLAMP))
# at 0.4999 a search on f's direct formula loses 1.6e-9 relative to cancellation
@example(e=0.4999)
def test_f_minus_is_the_closed_form_to_1e_15(e):
    # f(e, 1 - 2e) = atanh(1 - 2e)/(1 - 2e) = (1/2) ln((1-e)/e) / (1 - 2e)
    with decimal.localcontext(decimal.Context(prec=80)):
        d = decimal.Decimal(e)
        f_min = float(_f_decimal(d, 1 - 2 * d))
    c = f_minus(e)
    assert abs(c.f_minus - f_min) <= 1e-15 * f_min
    assert c.f_minus >= 1.0
    assert c.x_argmin == 1 - 2 * e
    # f_-(e) = f_-(1 - e) on a pair whose sum is exactly 1: hi >= 1/2 and
    # 1 - hi, which is in the box unless 1 - e rounded up to above 1 - CLAMP
    hi = max(e, 1.0 - e)
    if 1.0 - hi >= optimize.CLAMP:
        assert abs(f_minus(1.0 - hi).f_minus - f_minus(hi).f_minus) <= 2 * math.ulp(c.f_minus)


@pytest.mark.parametrize("e", [optimize.CLAMP, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - optimize.CLAMP])
def test_f_minus_point_is_below_its_neighbours_and_the_ends(e):
    with decimal.localcontext(decimal.Context(prec=80)):
        d = decimal.Decimal(e)
        x, step = 1 - 2 * d, decimal.Decimal("1e-3")
        f_min = _f_decimal(d, x)
        for other in (x - step, x + step, -d, 1 - d):
            if -d <= other <= 1 - d:
                assert _f_decimal(d, other) >= f_min, (e, other)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def test_el_residual_vanishes_on_bipodal_family():
    for eps in (0.05, 0.1, 0.2, 0.4):
        sol = closed_form_half(0.125 - eps ** 3)
        g = sol.graphon(8)
        assert el_residual(g, sol.beta1, sol.beta2) < 1e-10


@pytest.mark.parametrize("motif, e, t", [
    (Motif.triangle(), 0.5, 0.1), (Motif.star(2), 0.5, 0.3), (Motif.star(4), 0.5, 0.0725),
    (Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 0.5, 0.07),
])
def test_el_residual_of_the_motif_is_the_reported_one(motif, e, t):
    # one residual serves every motif: the solver reports el_residual's value
    res = maximize_entropy(DensityPair(e=e, t=t), motif, OptimConfig(m=6, multistart_count=1))
    got = el_residual(res.g_star, res.beta1, res.beta2, motif)
    assert got.hex() == res.el_residual_norm.hex()


def test_estimate_multipliers_recovers_betas():
    sol = closed_form_half(0.124)
    fit = estimate_multipliers(sol.graphon(8))
    assert fit["beta1"] == pytest.approx(sol.beta1, abs=1e-6)
    assert fit["beta2"] == pytest.approx(sol.beta2, abs=1e-6)


def test_estimate_multipliers_degenerate_on_constant():
    with pytest.raises(errors.DegenerateFit):
        estimate_multipliers(constant_graphon(0.5, 4))


def test_estimate_multipliers_degenerate_without_interior_blocks():
    # every block of the upper-boundary clique is 0 or 1: the Euler-Lagrange
    # equation holds on none of them (they carry box multipliers)
    with pytest.raises(errors.DegenerateFit):
        estimate_multipliers(closed_form_upper(0.25, 8))


def test_multiplier_fit_is_none_on_non_finite_coefficients():
    # an infinite I0' on an interior block makes the least-squares fit non-finite
    a = np.full((3, 3), 0.5)
    a[0, 1] = a[1, 0] = 0.3
    d = np.arange(9.0).reshape(3, 3)
    i0_prime = np.zeros((3, 3))
    i0_prime[0, 0] = np.inf
    assert optimize._ls_multipliers(a, d + d.T, i0_prime) is None


@st.composite
def _multiplier_fit_inputs(draw):
    """A symmetric a with some entries at the box faces, I0'(a), and a
    symmetric field d on a grid of step >= 0.05, so that d is either constant
    on the interior blocks or well spread over them."""
    m = draw(st.integers(2, 16))
    entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.0 - 1e-3))
    upper = draw(arrays(np.float64, (m, m), elements=entry))
    a = np.triu(upper) + np.triu(upper, 1).T
    k = draw(arrays(np.int64, (m, m), elements=st.integers(-8, 8)))
    d = draw(st.floats(-2.0, 2.0)) + draw(st.floats(0.05, 3.0)) * (k + k.T)
    return a, d, rate_derivative(a)


@settings(max_examples=300, deadline=None)
@given(_multiplier_fit_inputs())
def test_multiplier_fit_is_the_least_squares_fit(inputs):
    # the closed form against LAPACK's least squares over the interior blocks,
    # and None exactly where the degeneracy rule says so
    a, d, i0_prime = inputs
    interior = (a > 1e-6) & (a < 1.0 - 1e-6)
    hv = d[interior]
    fit = optimize._ls_multipliers(a, d, i0_prime)
    if hv.size < 3 or np.std(hv) < 1e-8 * max(1.0, float(np.mean(np.abs(hv)))):
        assert fit is None
        return
    x = np.column_stack([np.ones(hv.size), hv])
    ref, *_ = np.linalg.lstsq(x, i0_prime[interior], rcond=None)
    assert np.max(np.abs(fit - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


# ---------------------------------------------------------------------------
# Solver


def test_maximize_entropy_defaults_to_the_triangle_and_the_default_config():
    # (1/2, 1/8) lies on the Erdos-Renyi curve: the constant start reaches
    # the ceiling -I0(1/2) and ends the search
    res = maximize_entropy(DensityPair(e=0.5, t=0.125))
    assert res.g_star.m == OptimConfig().m
    assert res.converged and res.multistart_values == [res.s_value]
    assert res.s_value == pytest.approx(-rate_value(0.5), abs=1e-12)


def test_a_solve_that_stops_at_the_ceiling_draws_no_random_start(monkeypatch):
    drawn = []
    monkeypatch.setattr(_random.Generator, "_raw", lambda self, n: drawn.append(n) or [0] * n)
    res = maximize_entropy(DensityPair(e=0.5, t=0.125), Motif.triangle(), FAST)
    assert res.converged and len(res.multistart_values) == 1
    assert drawn == []


@pytest.mark.parametrize("t", [0.02, 0.08, 0.124])
def test_a_solve_that_reaches_the_closed_form_runs_no_later_start(monkeypatch, t):
    # below the ridge at e = 1/2 the checkerboard start converges to the
    # closed form, a proven bound on s there, and the solve ends with it:
    # the constant start, then the checkerboard, and no random start drawn
    drawn = []
    monkeypatch.setattr(_random.Generator, "_raw", lambda self, n: drawn.append(n) or [0] * n)
    res = maximize_entropy(DensityPair(e=0.5, t=t), Motif.triangle(),
                           OptimConfig(m=16, multistart_count=4, seed=0))
    assert res.converged and len(res.multistart_values) == 2
    assert res.s_value == pytest.approx(closed_form_half(t).s_value, rel=0, abs=1e-12)
    assert drawn == []


@pytest.mark.parametrize("motif, t, m", [
    ("triangle", 0.126, 16),  # above the ridge: no bound but the ceiling, out of reach
    ("triangle", 0.124, 15),  # the checkerboard's split is 7/15, short of the closed form
    ("star:2", 0.3, 16),  # the closed form bounds the triangle alone
])
def test_a_solve_short_of_a_proven_bound_runs_every_start(monkeypatch, motif, t, m):
    runs = []
    solve = optimize._solve_constrained
    monkeypatch.setattr(optimize, "_solve_constrained", lambda *a: runs.append(1) or solve(*a))
    cfg = OptimConfig(m=m, multistart_count=4, seed=0)
    # at m = 15 no start reaches (0.5, 0.124) within CONSTRAINT_TOL, and the
    # solve raises Infeasible after the last of them
    with contextlib.suppress(errors.Infeasible):
        maximize_entropy(DensityPair(e=0.5, t=t), Motif.parse(motif), cfg)
    assert len(runs) == 4 + cfg.multistart_count


def test_er_curve_hits_ceiling():
    for e in (0.3, 0.5, 0.7):
        res = maximize_entropy(DensityPair(e=e, t=e ** 3), Motif.triangle(), FAST)
        assert res.converged
        assert res.s_value == pytest.approx(-rate_value(e), abs=1e-6)


@pytest.mark.parametrize("delta", [1e-4, 1e-3, 1e-2, 3e-2], ids=["1e-4", "1e-3", "1e-2", "3e-2"])
def test_below_crease_matches_closed_form(delta):
    # below the ridge on the e = 1/2 slice the solver reaches the exact
    # optimizer, and its multipliers are the exact ones: by the envelope
    # theorem ds/dt = -beta2, the slope the crease is read from
    t = 0.125 - delta
    res = maximize_entropy(DensityPair(e=0.5, t=t), Motif.triangle(), FAST)
    sol = closed_form_half(t)
    assert res.converged
    assert res.s_value == pytest.approx(sol.s_value, rel=0, abs=1e-12)
    assert res.beta1 == pytest.approx(sol.beta1, rel=1e-12, abs=0)
    assert res.beta2 == pytest.approx(sol.beta2, rel=1e-12, abs=0)


def test_slice_multipliers_fails_on_a_perturbed_beta2(monkeypatch):
    ok, detail = invariants.slice_multipliers()
    assert ok, detail
    solve = invariants.maximize_entropy

    def perturbed(*args):
        res = solve(*args)
        return dataclasses.replace(res, beta2=res.beta2 * (1.0 + 1e-11))

    monkeypatch.setattr(invariants, "maximize_entropy", perturbed)
    ok, detail = invariants.slice_multipliers()
    assert not ok
    assert detail == "max relative multiplier gap 1.0e-11"


def test_solution_never_beats_ceiling():
    res = maximize_entropy(DensityPair(e=0.5, t=0.11), Motif.triangle(), FAST)
    assert res.s_value <= -rate_value(0.5) + 1e-9


def test_achieved_densities_within_tolerance():
    res = maximize_entropy(DensityPair(e=0.5, t=0.13), Motif.triangle(), FAST)
    assert abs(res.achieved.e - 0.5) <= optimize.CONSTRAINT_TOL
    assert abs(res.achieved.t - 0.13) <= optimize.CONSTRAINT_TOL


def test_value_bounds_s_at_the_achieved_densities_not_at_the_target():
    # at the corner (1, 1) the iterate lies within CONSTRAINT_TOL inside the
    # region, so its -I bounds s there, below -I0 of its own edge density,
    # and not s(1, 1) = 0
    res = maximize_entropy(DensityPair(e=1.0, t=1.0), Motif.triangle(), OptimConfig(m=4))
    assert abs(res.achieved.e - 1.0) <= optimize.CONSTRAINT_TOL
    assert abs(res.achieved.t - 1.0) <= optimize.CONSTRAINT_TOL
    assert res.s_value <= -rate_value(res.achieved.e) + 1e-12


def test_infeasible_region_pre_check():
    with pytest.raises(errors.Infeasible):
        maximize_entropy(DensityPair(e=0.5, t=0.4), Motif.triangle(), FAST)
    with pytest.raises(errors.Infeasible):
        maximize_entropy(DensityPair(e=0.7, t=0.2), Motif.triangle(), FAST)


@pytest.mark.parametrize("bad", [
    {"m": 0}, {"m": 2.5}, {"m": True}, {"m": "16"},
    {"multistart_count": -3}, {"multistart_count": 1.0}, {"multistart_count": None},
    {"seed": -1}, {"seed": False},
    {"warm_start": np.full((4, 4), 0.5)},
    # above the resolution cap; numpy refuses 10^9 unallocated, should the cap fail
    {"m": 10 ** 9},
])
def test_optim_config_validates_itself(bad):
    with pytest.raises(errors.ValueOutOfRange):
        OptimConfig(**bad)


def test_star_below_jensen_floor_infeasible():
    with pytest.raises(errors.Infeasible):
        maximize_entropy(DensityPair(e=0.5, t=0.0525), Motif.star(4), FAST)


@pytest.mark.parametrize("motif,e,t", [
    (Motif.star(4), 0.5, 1.0 / 16.0 - 1e-3),  # below e^k (Jensen)
    (Motif.star(2), 0.5, 0.6),  # above e (r^k <= r)
])
def test_star_region_rejected_before_any_start(monkeypatch, motif, e, t):
    def no_solve(*args, **kwargs):
        raise AssertionError("a start ran for a target outside the region")

    monkeypatch.setattr(optimize, "_solve_constrained", no_solve)
    # the message names the bounds region.motif_bounds gives
    k = motif.k
    message = rf"^target \({e},{t}\) outside e\^{k} <= t <= e for the star:{k} model$"
    with pytest.raises(errors.Infeasible, match=message):
        maximize_entropy(DensityPair(e=e, t=t), motif, FAST)


@st.composite
def _step_graphons(draw, sizes, lo, hi):
    """Symmetric m x m step graphons, m drawn from sizes, entries in [lo, hi]."""
    m = draw(st.sampled_from(sizes))
    r = draw(arrays(np.float64, (m, m), elements=st.floats(lo, hi)))
    return Graphon(values=np.triu(r) + np.triu(r, 1).T)


@settings(max_examples=100, deadline=None)
@given(g=_step_graphons(range(1, 9), 0.0, 1.0), k=st.integers(1, 4))
def test_star_precheck_accepts_every_graphon(g, k):
    star = Motif.star(k)
    target = DensityPair(e=float(np.mean(g.values)), t=motif_density(g, star))
    region_precheck(target, star)


def test_star_above_floor_converges():
    res = maximize_entropy(DensityPair(e=0.5, t=0.0725), Motif.star(4), FAST)
    assert res.converged
    assert res.s_value <= -rate_value(0.5) + 1e-9


def test_warm_start_used():
    sol = closed_form_half(0.124)
    cfg = OptimConfig(m=8, multistart_count=0, warm_start=sol.graphon(8))
    res = maximize_entropy(DensityPair(e=0.5, t=0.124), Motif.triangle(), cfg)
    assert res.converged
    # the warm start runs first, and it is the exact optimizer
    assert res.multistart_values[0] == pytest.approx(sol.s_value, abs=1e-8)


PATH3 = Motif.from_edges(3, [(1, 2), (2, 3)])
# the one motif here on the einsum kernel: path3 is the 2-star relabelled
C4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


@pytest.mark.parametrize("motif", [Motif.triangle(), Motif.star(2), Motif.star(3), PATH3, C4],
                         ids=["triangle", "star2", "star3", "path3", "c4"])
@settings(max_examples=20, deadline=None)
@given(g=_step_graphons([1, 2, 4, 8], 0.05, 0.95))
def test_value_is_a_lower_bound_at_a_known_feasible_point(motif, g):
    # g itself is feasible at its own densities, so the solver may not report
    # less than -I(g); Jensen caps every graphon at -I0 of its edge density
    target = DensityPair(e=edge_density(g), t=motif_density(g, motif))
    cfg = OptimConfig(m=8, multistart_count=0, warm_start=g)
    res = maximize_entropy(target, motif, cfg)
    assert -rate_function(g) - 1e-12 <= res.s_value <= -rate_value(res.achieved.e) + 1e-12
    assert res.s_value == pytest.approx(-rate_function(res.g_star), abs=1e-12)
    assert abs(res.achieved.e - target.e) <= optimize.CONSTRAINT_TOL
    assert abs(res.achieved.t - target.t) <= optimize.CONSTRAINT_TOL


def _facts(res):
    return (res.s_value, res.beta1, res.beta2, res.g_star.values.tobytes(),
            res.multistart_values)


def _no_einsum(monkeypatch):
    def refuse(*args):
        raise AssertionError("an einsum kernel ran")

    for name in ("einsum_density", "einsum_gradient"):
        monkeypatch.setattr(_kernel, name, refuse)


def test_path_motif_agrees_with_the_2_star(monkeypatch):
    # the path 1-2-3 is the 2-star relabelled, so it is the 2-star: its name,
    # its degree kernel, its proven region and every bit of its solve
    _no_einsum(monkeypatch)
    target = DensityPair(e=0.5, t=0.3)
    assert PATH3.is_star and PATH3.name == "star:2"
    assert region_precheck(target, PATH3) == region_precheck(target, Motif.star(2))
    with pytest.raises(errors.Infeasible, match=r"outside e\^2 <= t <= e for the star:2 model"):
        region_precheck(DensityPair(0.5, 0.6), PATH3)
    cfg = OptimConfig(m=8, multistart_count=0)
    path = maximize_entropy(target, PATH3, cfg)
    star = maximize_entropy(target, Motif.star(2), cfg)
    assert path.converged and star.converged
    assert _facts(path) == _facts(star)


def _star_centred_at_2(k):
    # vertex 2 is the centre; for k = 1 this is the one labelling of an edge
    return Motif.from_edges(k + 1, [(2, j) for j in range(1, k + 2) if j != 2])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_relabelled_star_solves_as_the_star(monkeypatch, k):
    star, other = Motif.star(k), _star_centred_at_2(k)
    assert other.name == star.name and (k == 1 or other != star)
    _no_einsum(monkeypatch)
    cfg = OptimConfig(m=8, multistart_count=0)
    target = DensityPair(0.5, min(1.2 * 0.5 ** k, 0.5))  # inside e^k <= t <= e
    assert _facts(maximize_entropy(target, other, cfg)) == _facts(
        maximize_entropy(target, star, cfg))
    with pytest.raises(errors.Infeasible,
                       match=rf"outside e\^{k} <= t <= e for the star:{k} model"):
        region_precheck(DensityPair(0.5, 0.6), other)


def test_a_failed_start_loop_keeps_the_bound_in_its_message(monkeypatch):
    # a target inside the proven region that no start reaches is no proof:
    # the message gives the best violation and the bounds the target is in,
    # or the violation alone for a motif with no proven bounds
    def infeasible(a0, target, dens):
        return optimize._RunRecord(lam=np.zeros(2), viol=0.25, converged=False,
                                   best_s=-math.inf, best_a=None)

    monkeypatch.setattr(optimize, "_solve_constrained", infeasible)
    cfg = OptimConfig(m=4, multistart_count=0)
    failed = r"^no start reached constraint tolerance \(best violation 0.25\)"
    with pytest.raises(errors.Infeasible,
                       match=failed + r"; inside g3\(e\) <= t <= e\^\(3/2\)$"):
        maximize_entropy(DensityPair(0.5, 0.1), Motif.triangle(), cfg)
    with pytest.raises(errors.Infeasible, match=failed + "$"):
        maximize_entropy(DensityPair(0.5, 0.1), C4, cfg)


# ---------------------------------------------------------------------------
# Crease scan


def test_crease_scan_quotients_split():
    scan = crease_scan(0.5, Motif.triangle(), deltas=[1e-3, 3e-3, 1e-2], config=FAST)
    assert scan.s_on_curve == pytest.approx(-rate_value(0.5), abs=1e-15)
    left = [p.quotient for p in scan.below if p.s is not None]
    right = [p.quotient for p in scan.above if p.s is not None]
    assert len(left) == 3
    assert len(right) == 3
    # the lower branch drops much faster than the upper branch
    assert min(left) > 2.0 * max(right)
    assert scan.bound_checks["all_hold"]


# ---------------------------------------------------------------------------
# Inner solves on the upper boundary


def _count_inner_solves(monkeypatch):
    """Record the iterations and the objective evaluations of each inner SPG
    solve, in order.  The evaluations count the start's once, whether the
    solve values it or starts from the (f, G) its caller repriced."""
    evals, grads, per_solve = [0], [0], []
    objective_class, spg_box = optimize.AugmentedLagrangian, optimize.spg_box

    def counted_objective(*args):
        objective = objective_class(*args)
        value, gradient = objective.value, objective.gradient

        def counted_value(a):
            evals[0] += 1
            return value(a)

        def counted_gradient():
            grads[0] += 1
            return gradient()

        objective.value, objective.gradient = counted_value, counted_gradient
        return objective

    def counted_spg(a, objective, tol, max_iter, start=None):
        before = evals[0], grads[0]
        out = spg_box(a, objective, tol, max_iter, start)
        # one G per accepted step, and each completed iteration accepts one;
        # a solve that values its start also builds G there
        iterations = grads[0] - before[1] - (start is None)
        per_solve.append((iterations, evals[0] - before[0] + (start is not None)))
        return out

    monkeypatch.setattr(optimize, "AugmentedLagrangian", counted_objective)
    monkeypatch.setattr(optimize, "spg_box", counted_spg)
    return per_solve


@pytest.mark.parametrize("e,t,unscaled_evals", [
    (0.25, 0.125 - 1e-9, 13_094),
    (0.5, 0.5 ** 1.5 - 1e-9, 6_638),
])
def test_upper_boundary_inner_solves_stop_short_of_the_step_limit(monkeypatch, e, t,
                                                                   unscaled_evals):
    # the optimizer is the clique, 1 on [0, sqrt(e))^2 and 0 elsewhere.  An
    # unscaled SPG runs 8 of these inner solves out of MAX_INNER_ITERATIONS,
    # and the two solves take unscaled_evals evaluations
    per_solve = _count_inner_solves(monkeypatch)
    cfg = OptimConfig(m=16, multistart_count=4, seed=0)
    # sqrt(1/2) * 16 is no integer, so the grid solver finds no feasible
    # iterate at e = 1/2
    with contextlib.suppress(errors.Infeasible):
        maximize_entropy(DensityPair(e=e, t=t), Motif.triangle(), cfg)
    iterations, evals = zip(*per_solve)
    assert max(iterations) < optimize.MAX_INNER_ITERATIONS
    assert sum(evals) <= unscaled_evals / 4


# ---------------------------------------------------------------------------
# What each augmented-Lagrangian round reuses


def test_each_round_starts_from_what_the_objective_holds(monkeypatch):
    # one run of 18 rounds, two of which take no step: the start iterate is
    # valued once, every later round starts from the objective repriced, G is
    # built once at the start and once per accepted step, and the multipliers
    # are refitted only where the iterate moved
    target = DensityPair(e=0.3, t=0.04)
    cfg = OptimConfig(m=8, multistart_count=2)
    starts = dict(optimize._starts(target, Motif.triangle(), cfg))
    a0 = optimize.project(starts["upper_corner"])
    log, rounds, fits, dens_calls = [], [], [0], [0]
    objective_class, spg_box = optimize.AugmentedLagrangian, optimize.spg_box
    ls_multipliers = optimize._ls_multipliers
    dens = optimize.density_gradient(Motif.triangle(), 8)

    def counted_dens(a):
        dens_calls[0] += 1
        return dens(a)

    def counted_objective(*args):
        objective = objective_class(*args)
        value, gradient = objective.value, objective.gradient

        def counted_value(a):
            log.append(("value", a.tobytes()))
            return value(a)

        def counted_gradient():
            log.append(("gradient", objective.a.tobytes()))
            return gradient()

        objective.value, objective.gradient = counted_value, counted_gradient
        return objective

    def counted_spg(a, *args):
        out = spg_box(a, *args)
        rounds.append(out[0] is not a)
        return out

    def counted_fit(*args):
        fits[0] += 1
        return ls_multipliers(*args)

    monkeypatch.setattr(optimize, "AugmentedLagrangian", counted_objective)
    monkeypatch.setattr(optimize, "spg_box", counted_spg)
    monkeypatch.setattr(optimize, "_ls_multipliers", counted_fit)
    rec = optimize._solve_constrained(a0, target, counted_dens)
    assert rec.converged
    assert len(rounds) == 18 and rounds.count(False) == 2
    values = [a for kind, a in log if kind == "value"]
    gradients = [a for kind, a in log if kind == "gradient"]
    assert values[0] == a0.tobytes() and values.count(values[0]) == 1
    # a round that valued its start again would repeat the last A of the one before
    assert all(x != y for x, y in zip(values, values[1:]))
    # G is built at the A valued just before it, and never twice at one A:
    # once at the start and once per accepted step
    assert gradients[0] == a0.tobytes()
    assert all(log[i - 1] == ("value", a) for i, (kind, a) in enumerate(log)
               if kind == "gradient")
    assert all(x != y for x, y in zip(gradients, gradients[1:]))
    # the only densities are those of the values: the seed fit made no call
    assert dens_calls[0] == len(values)
    # the seed fit, then one per round that moved, except the last, which
    # converged before its fit
    assert fits[0] == 1 + sum(rounds[:-1])


@pytest.mark.parametrize("t, stops", [
    (0.124, True),  # the target of the MAXIMIZE_AT_D15F377 pin at e = 1/2
    (0.125 + 2e-6, True),  # above (1/2 + CONSTRAINT_TOL)^3 + CONSTRAINT_TOL
    (0.125 - 2e-6, True),  # below (1/2 - CONSTRAINT_TOL)^3 - CONSTRAINT_TOL
    (0.125 + 1.5e-6, False),  # a constant within CONSTRAINT_TOL of 1/2 may reach these
    (0.125 - 1.5e-6, False),
])
def test_a_constant_run_off_its_reach_values_only_its_start(monkeypatch, t, stops):
    # spg_box keeps a constant iterate constant, so from the constant 1/2 the
    # run reaches only t = c^3 with c near 1/2; where no such c is within
    # CONSTRAINT_TOL of the target, it ends before its first round (at
    # (0.5, 0.124) it valued 58 iterates before), and elsewhere it goes on
    valued, rounds = [], []
    objective_class, spg_box = optimize.AugmentedLagrangian, optimize.spg_box

    def counted_objective(*args):
        objective = objective_class(*args)
        value = objective.value

        def counted_value(a):
            valued.append(a)
            return value(a)

        objective.value = counted_value
        return objective

    def counted_spg(*args):
        rounds.append(args[0])
        return spg_box(*args)

    monkeypatch.setattr(optimize, "AugmentedLagrangian", counted_objective)
    monkeypatch.setattr(optimize, "spg_box", counted_spg)
    rec = optimize._solve_constrained(np.full((16, 16), 0.5), DensityPair(0.5, t),
                                      _kernel.density_gradient(Motif.triangle(), 16))
    assert (rounds == []) == stops
    if stops:
        assert len(valued) == 1
        assert rec.best_a is None and not rec.converged and rec.viol == abs(0.125 - t)


# ---------------------------------------------------------------------------
# Penalty ceiling


def _ridge_scan(e):
    """The criterion-13 scan at e: t = e^3 and e^3 -/+ 1e-3, m = 8, 2 multistarts."""
    spec = ScanSpec(e_grid=[e], t_grid=[0.0, -1e-3, 1e-3], relative=True,
                    config=OptimConfig(m=8, multistart_count=2, seed=0))
    return phase_diagram_scan(spec)


def test_penalty_stays_under_its_ceiling_across_the_ridge(monkeypatch):
    # with no ceiling the penalty reached 655,360 on this scan, its inner solves
    # ran out of MAX_INNER_ITERATIONS, and the scan took 34,445 evaluations
    seen = {"rho": [], "evals": 0}
    objective_class = optimize.AugmentedLagrangian

    def counted(dens, te, tt, lam, rho, tol):
        seen["rho"].append(rho)
        objective = objective_class(dens, te, tt, lam, rho, tol)
        value, reprice = objective.value, objective.reprice

        def counted_value(a):
            seen["evals"] += 1
            return value(a)

        def counted_reprice(lam, rho):
            seen["rho"].append(rho)
            return reprice(lam, rho)

        objective.value = counted_value
        objective.reprice = counted_reprice
        return objective

    monkeypatch.setattr(optimize, "AugmentedLagrangian", counted)
    rows = _ridge_scan(0.5)
    assert [r.status for r in rows] == ["ok"] * 3
    assert max(seen["rho"]) <= optimize.PENALTY_MAX
    assert seen["evals"] <= 10_000


# s of the three rows (t ascending) of each criterion-13 scan before the
# penalty had a ceiling, at commit 7fa2956
RIDGE_SCAN_S_UNCAPPED = {
    0.3: (0.2933535226368611, 0.3054322837351939, 0.30291462890560233),
    0.5: (0.3365058335046282, 0.34657359027997264, 0.3452417384027532),
    0.7: (0.2933535226368611, 0.30543215102744675, 0.3043292068039136),
}


@pytest.mark.parametrize("e", sorted(RIDGE_SCAN_S_UNCAPPED))
def test_penalty_ceiling_keeps_ridge_scan_values(e):
    # a ceiling set too low (3e2) loses about 1e-2 at e = 0.7
    rows = _ridge_scan(e)
    assert [r.status for r in rows] == ["ok"] * 3
    for row, s_uncapped in zip(rows, RIDGE_SCAN_S_UNCAPPED[e]):
        assert row.s >= s_uncapped - 1e-5


# ---------------------------------------------------------------------------
# No LAPACK on the solve path


def test_the_solve_path_calls_no_lapack_routine(monkeypatch):
    # every numpy.linalg function but norm (a BLAS dot) raises; spectral's
    # eigvalsh, the trace step of `verify`, is the one LAPACK call left
    called = []

    def refuse(name):
        def call(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in np.linalg.__all__:
        obj = getattr(np.linalg, name)
        if name != "norm" and callable(obj) and not isinstance(obj, type):
            monkeypatch.setattr(np.linalg, name, refuse(name))
    cfg = OptimConfig(m=8, multistart_count=0)
    c4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for motif, e, t in ((Motif.triangle(), 0.3, 0.04), (Motif.star(4), 0.5, 0.0725),
                        (c4, 0.5, 0.07)):
        assert maximize_entropy(DensityPair(e=e, t=t), motif, cfg).s_value > 0
    scan = crease_scan(0.5, deltas=[1e-3, 3e-3, 1e-2], config=cfg)
    assert scan.below_fit is not None and scan.above_fit is not None
    assert estimate_multipliers(closed_form_half(0.124).graphon(8))["beta2"] < 0
    assert psi_full(ErgmParams(1.0, 2.0), cfg).converged
    assert called == []


# ---------------------------------------------------------------------------
# Bit identity

# (s_value, beta1, beta2, el_residual_norm) and multistart_values of
# maximize_entropy with m = 16 and 4 starts, recorded at commit d15f377, where
# every line-search trial built its gradient; the solver must reproduce every
# bit.  el_residual_norm is now that of the reported (beta1, beta2), not of a
# second least-squares fit at g_star, so its two values that differ were
# re-recorded, for (0.3, 0.04) and (0.5, 0.0725, star:4).  Every value that
# the closed-form multiplier fit moved was re-recorded with it: all but the
# s and multistart_values of (0.5, 0.124).  Every value that moved when the
# objectives came to share one log pair per iterate and to sum I, t and the
# SPG inner products as BLAS dots was re-recorded again.  A dot sums in the
# order of the ddot kernel OpenBLAS picks for the CPU, and np.log rounds as
# the SIMD code numpy dispatches for the CPU does, so this pin and the
# crease_scan pin below hold one record per (OpenBLAS core, numpy
# AVX512_SKX) pair, keyed as cpu_pair.py names it.  The SKYLAKEX_AVX512
# record is the history above; the other three were recorded from the same
# solver when the pins came to be kept per pair.  The s of (0.5, 0.124) has
# the same bits on all four, and its multipliers move by one ulp under
# OpenBLAS's Haswell kernel.  Its start list keeps the first two entries of
# the recorded eight, the constant start and the checkerboard: the
# checkerboard reaches the proven closed-form bound there, and a solve runs no
# start after one that does.
MAXIMIZE_AT_D15F377 = {
    SKYLAKEX_AVX512: {
        (0.5, 0.124, "triangle"): (
            ("0x1.5894fc37432c6p-2", "0x1.445f410f5af03p+2", "-0x1.b07f0169ce955p+2",
             "0x1.0000000000000p-50"),
            ("-inf", "0x1.5894fc37432c6p-2")),
        (0.3, 0.04, "triangle"): (
            ("0x1.195f0275cb9e3p-2", "-0x1.251e3000e7393p+0", "0x1.1f252bd0ddcf9p+1",
             "0x1.53b9cb7e94000p-11"),
            ("-inf", "0x1.dc95b0280950ap-3", "0x1.182099f85124cp-2", "0x1.176e1b753c5d0p-2",
             "-inf", "-inf", "0x1.19463e185992dp-2", "0x1.195f0275cb9e3p-2")),
        (0.5, 0.0725, "star:4"): (
            ("0x1.586815f6407a8p-2", "-0x1.fb54573cf9114p-2", "0x1.e2c0a4b58bcf4p-1",
             "0x1.a03d075f9dc00p-10"),
            ("-inf", "-inf", "0x1.53a34313e9311p-2", "-inf", "0x1.52e6cc96068f5p-2",
             "0x1.586815f6407a8p-2", "0x1.55c575dfc03c2p-2", "0x1.578a42e56ce86p-2")),
    },
    HASWELL_AVX512: {
        (0.5, 0.124, "triangle"): (
            ("0x1.5894fc37432c6p-2", "0x1.445f410f5af02p+2", "-0x1.b07f0169ce954p+2",
             "0x1.0000000000000p-50"),
            ("-inf", "0x1.5894fc37432c6p-2")),
        (0.3, 0.04, "triangle"): (
            ("0x1.195ef005d72acp-2", "-0x1.251e29ecc8531p+0", "0x1.1f252a35dc7b6p+1",
             "0x1.5496bf5a25e00p-10"),
            ("-inf", "0x1.dc95b02809507p-3", "0x1.182099f851263p-2", "0x1.176e1b753e0e8p-2",
             "-inf", "-inf", "0x1.19463e1809407p-2", "0x1.195ef005d72acp-2")),
        (0.5, 0.0725, "star:4"): (
            ("0x1.586815f6406c9p-2", "-0x1.fb5457d670398p-2", "0x1.e2c0a4aed118cp-1",
             "0x1.a03c5562a5c00p-10"),
            ("-inf", "-inf", "0x1.53a343145c1c4p-2", "-inf", "0x1.52e6cc9d81472p-2",
             "0x1.586815f6406c9p-2", "0x1.55c57615ec2fap-2", "0x1.578a42e56cd80p-2")),
    },
    SKYLAKEX_AVX2: {
        (0.5, 0.124, "triangle"): (
            ("0x1.5894fc37432c6p-2", "0x1.445f410f5af03p+2", "-0x1.b07f0169ce955p+2",
             "0x1.0000000000000p-50"),
            ("-inf", "0x1.5894fc37432c6p-2")),
        (0.3, 0.04, "triangle"): (
            ("0x1.195ef1753b6d3p-2", "-0x1.251e46494f295p+0", "0x1.1f25471e5b3adp+1",
             "0x1.fb806a030c000p-13"),
            ("-inf", "0x1.dc95b0280950ap-3", "0x1.182099f85124cp-2", "0x1.176e1b753c5d0p-2",
             "-inf", "-inf", "0x1.19463e185992dp-2", "0x1.195ef1753b6d3p-2")),
        (0.5, 0.0725, "star:4"): (
            ("0x1.586815f640658p-2", "-0x1.fb5457e7adc25p-2", "0x1.e2c0a4a168067p-1",
             "0x1.a03c134b19c00p-10"),
            ("-inf", "-inf", "0x1.53a34314067c3p-2", "-inf", "0x1.52e6cc9fc7f5ap-2",
             "0x1.586815f640658p-2", "0x1.55c575f517cf3p-2", "0x1.578a42e56c986p-2")),
    },
    HASWELL_AVX2: {
        (0.5, 0.124, "triangle"): (
            ("0x1.5894fc37432c6p-2", "0x1.445f410f5af02p+2", "-0x1.b07f0169ce954p+2",
             "0x1.0000000000000p-50"),
            ("-inf", "0x1.5894fc37432c6p-2")),
        (0.3, 0.04, "triangle"): (
            ("0x1.195eef4fcf90dp-2", "-0x1.251e300a9fdf8p+0", "0x1.1f2530892eaacp+1",
             "0x1.38721c95e0000p-12"),
            ("-inf", "0x1.dc95b02809507p-3", "0x1.182099f851263p-2", "0x1.176e1b753e0e8p-2",
             "-inf", "-inf", "0x1.19463e1809407p-2", "0x1.195eef4fcf90dp-2")),
        (0.5, 0.0725, "star:4"): (
            ("0x1.58681a029add4p-2", "-0x1.fb545843d5592p-2", "0x1.e2c0a3f6f4d7bp-1",
             "0x1.e5ac2c73cc000p-14"),
            ("-inf", "-inf", "0x1.53a343136bf54p-2", "-inf", "0x1.52e6cc94c05bcp-2",
             "0x1.58681a029add4p-2", "0x1.55c5764697cc2p-2", "0x1.578a42e56cbb6p-2")),
    },
}


# (status, s) of each point below, then above, the ridge of the continuation
# marches of crease_scan(0.5, deltas=[1e-3, 1e-2]) with m = 8 and 2 restarts,
# recorded at commit 2f23108, where the first point of each march also ran
# the constant graphon as a warm start; the last three were re-recorded when
# the multiplier fit became closed form, and all four when the objectives
# came to share one log pair per iterate and to sum as BLAS dots.  One record
# per pair, as for MAXIMIZE_AT_D15F377; the first point, at t = 0.124, has
# the same bits on all four.  The last point, above the ridge, rose by 5.2e-6
# when the multiplier fit became closed form: its warm-started run reached
# another of the near-tied local optima there.
CREASE_SCAN_AT_2F23108 = {
    SKYLAKEX_AVX512: (
        ("ok", "0x1.5894fc37432c6p-2"), ("ok", "0x1.31c5a0372b5d6p-2"),
        ("ok", "0x1.6186e7db62ca4p-2"), ("ok", "0x1.55352be9a5ae6p-2"),
    ),
    HASWELL_AVX512: (
        ("ok", "0x1.5894fc37432c6p-2"), ("ok", "0x1.31c5a0372aca0p-2"),
        ("ok", "0x1.6186d6beb8a22p-2"), ("ok", "0x1.5533ce666bee7p-2"),
    ),
    SKYLAKEX_AVX2: (
        ("ok", "0x1.5894fc37432c6p-2"), ("ok", "0x1.31c5a0372b5d6p-2"),
        ("ok", "0x1.6186f6a81fa81p-2"), ("ok", "0x1.55353cc03f028p-2"),
    ),
    HASWELL_AVX2: (
        ("ok", "0x1.5894fc37432c6p-2"), ("ok", "0x1.31c5a0372aca0p-2"),
        ("ok", "0x1.6186e5840cd96p-2"), ("ok", "0x1.5533d27981aeep-2"),
    ),
}


def test_crease_scan_bit_identical_to_recorded_values():
    scan = crease_scan(0.5, deltas=[1e-3, 1e-2], config=OptimConfig(m=8, multistart_count=2))
    got = [(p.status, float(p.s).hex()) for p in scan.below + scan.above]
    assert got == [(status, float.fromhex(h).hex())
                   for status, h in pinned(CREASE_SCAN_AT_2F23108)], pin_message()


@pytest.mark.parametrize("key", sorted(MAXIMIZE_AT_D15F377[SKYLAKEX_AVX512]))
def test_maximize_entropy_bit_identical_to_recorded_values(key):
    e, t, motif = key
    res = maximize_entropy(DensityPair(e=e, t=t), Motif.parse(motif),
                           OptimConfig(m=16, multistart_count=4, seed=0))
    scalars, starts = pinned(MAXIMIZE_AT_D15F377)[key]
    got = (res.s_value, res.beta1, res.beta2, res.el_residual_norm)
    assert [float(x).hex() for x in got] == [float.fromhex(h).hex() for h in scalars], (
        pin_message())
    assert [float(x).hex() for x in res.multistart_values] == [
        float.fromhex(h).hex() for h in starts], pin_message()
