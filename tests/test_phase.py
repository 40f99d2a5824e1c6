"""Phase-diagram drivers and the figures of their rows."""

import hashlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphentropy import errors, figures, phase
from graphentropy.figures import heatmap_svg, transition_curve_svg
from graphentropy.graphon import Graphon, Motif, rate_value
from graphentropy.optimize import OptimConfig
from graphentropy.phase import ScanRow, ScanSpec, crease_report, crease_scan, phase_diagram_scan
from graphentropy.region import lower_boundary

FAST = OptimConfig(m=8, multistart_count=2)


def test_scan_er_point():
    spec = ScanSpec(e_grid=[0.6], t_grid=[0.0], relative=True, config=FAST)
    table = phase_diagram_scan(spec)
    assert len(table) == 1
    row = table[0]
    assert row.status == "ok"
    assert row.s == pytest.approx(-rate_value(0.6), abs=1e-6)


def test_scan_rows_respect_ceiling_and_order():
    spec = ScanSpec(e_grid=[0.5], t_grid=[-1e-2, -1e-3, 0.0, 1e-3, 1e-2],
                    relative=True, config=FAST)
    table = phase_diagram_scan(spec)
    ts = [r.t for r in table]
    assert ts == sorted(ts)
    for r in table:
        if math.isfinite(r.s):
            assert r.s <= -rate_value(0.5) + 1e-9
    ridge = max(table, key=lambda r: r.s if math.isfinite(r.s) else -math.inf)
    assert ridge.t == pytest.approx(0.125, abs=1e-12)


def test_scan_records_infeasible_rows():
    spec = ScanSpec(e_grid=[0.5], t_grid=[0.4], relative=False, config=FAST)
    table = phase_diagram_scan(spec)
    assert table[0].status == "infeasible"
    assert math.isnan(table[0].s)


def test_scan_spec_validation():
    with pytest.raises(errors.ValueOutOfRange):
        ScanSpec(e_grid=[], t_grid=[0.0])
    # a NaN point is rejected, not dropped from the scan
    with pytest.raises(errors.ValueOutOfRange):
        ScanSpec(e_grid=[0.5, math.nan], t_grid=[0.0, math.nan])
    for relative in ("false", 1, None):
        with pytest.raises(errors.ValueOutOfRange, match="relative"):
            ScanSpec(e_grid=[0.5], t_grid=[0.0], relative=relative)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10)
_INVALID = (st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "0.5", "x"])
            | st.lists(_FINITE, max_size=2))


@settings(max_examples=200, deadline=None)
@given(grid=st.lists(_FINITE | _INVALID, max_size=5) | st.tuples(_FINITE, _FINITE)
       | st.sampled_from([None, 0.5, "0.5", True]))
def test_scan_spec_accepts_exactly_nonempty_finite_real_grids(grid):
    # either grid is a nonempty sequence of finite reals, none a bool, every
    # e in [0, 1], and the spec keeps it as floats
    finite = (isinstance(grid, (list, tuple)) and len(grid) > 0
              and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      and math.isfinite(x) for x in grid))
    for name in ("e_grid", "t_grid"):
        ok = finite and (name == "t_grid" or all(0.0 <= x <= 1.0 for x in grid))
        values = {"e_grid": [0.5], "t_grid": [0.0], name: grid}
        if ok:
            kept = getattr(ScanSpec(**values), name)
            assert kept == [float(x) for x in grid]
            assert all(type(x) is float for x in kept)
        else:
            with pytest.raises(errors.ValueOutOfRange, match=name):
                ScanSpec(**values)


def test_scan_and_crease_scan_share_the_march():
    # both drivers march from the constant graphon at e away from the ridge,
    # so they solve the same warm-started sequence and agree to the bit
    scan = crease_scan(0.5, deltas=[1e-3, 1e-2], config=FAST)
    table = phase_diagram_scan(ScanSpec(e_grid=[0.5], t_grid=[-1e-2, -1e-3, 1e-3, 1e-2],
                                        relative=True, config=FAST))
    by_t = {r.t: r for r in table}
    points = scan.below + scan.above
    assert len(points) == len(table) == 4
    for p in points:
        row = by_t[p.t]
        assert p.status == row.status == "ok"
        assert float(p.s).hex() == float(row.s).hex()


def test_crease_report_detects_triangle_crease():
    verdicts = crease_report([0.5], Motif.triangle(), FAST)
    v = verdicts[0]
    assert v.crease_detected
    assert not v.one_sided
    assert v.left_quotient > v.right_quotient
    assert v.separation_sigma > 5.0


def test_crease_report_one_sided_for_the_2_star():
    # below the ridge t = e^2 a 2-star is infeasible by Jensen, so only the
    # upper side has a fit and the crease is one-sided
    v, = crease_report([0.5], Motif.star(2), OptimConfig(m=8, multistart_count=0))
    assert [p.status for p in v.scan.below] == ["infeasible"] * len(phase.DEFAULT_OFFSETS)
    assert v.scan.below_fit is None
    assert v.one_sided and v.crease_detected
    assert v.left_quotient is None and v.right_quotient is not None
    assert v.separation_sigma is None


def test_crease_scan_starts_each_march_from_a_given_warm_start(monkeypatch):
    # the first solve of each side's march runs config.warm_start as one more
    # start; the later solves are warm-started from the march itself
    starts = []
    solve = phase.maximize_entropy

    def counted(target, motif, config):
        res = solve(target, motif, config)
        starts.append(len(res.multistart_values))
        return res

    monkeypatch.setattr(phase, "maximize_entropy", counted)
    cfg = OptimConfig(m=4, multistart_count=0)
    counts = []
    for config in (cfg, replace(cfg, warm_start=Graphon(values=np.full((4, 4), 0.5)))):
        starts.clear()
        crease_scan(0.5, deltas=[1e-3, 1e-2], config=config)
        counts.append(list(starts))
    cold, warm = counts
    assert [w - c for c, w in zip(cold, warm)] == [1, 0, 1, 0]


@settings(max_examples=60, deadline=None)
@given(e=st.floats(0.05, 0.95),
       offsets=st.lists(st.floats(0.0, 0.5, exclude_min=True), min_size=1, max_size=6),
       warm=st.booleans())
@example(e=0.5, offsets=[1e-3, 1e-300, 1e-2], warm=True)
@example(e=0.5, offsets=[1e-2, 1e-3, 1e-3], warm=False)
def test_crease_scan_pairs_each_point_with_its_offset(e, offsets, warm):
    # a recording stand-in for the solver: s names the call, above the
    # ceiling so that no side has a power fit, and each solve returns a
    # graphon of its own, so the warm starts can be traced
    calls = []

    def solve(target, motif, config):
        g = Graphon(values=np.full((2, 2), len(calls) / 1000.0))
        calls.append((target.t, config.warm_start, g))
        return SimpleNamespace(s_value=-rate_value(target.e) + len(calls), beta1=0.0,
                               beta2=0.0, converged=True, el_residual_norm=0.0, g_star=g)

    config = OptimConfig(m=2, multistart_count=0,
                         warm_start=Graphon(values=np.full((2, 2), 0.5)) if warm else None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase, "maximize_entropy", solve)
        scan = crease_scan(e, Motif.triangle(), offsets, config)
    t0 = e ** 3
    s0 = -rate_value(e)
    for points, sign in ((scan.below, -1.0), (scan.above, 1.0)):
        assert [p.delta for p in points] == sorted(offsets)
        solved = []
        for p in points:
            assert p.t.hex() == (t0 + sign * p.delta).hex()
            if 0.0 <= p.t <= 1.0:
                call = round(p.s - s0) - 1
                assert p.status == "ok"
                assert calls[call][0].hex() == p.t.hex()
                assert p.quotient.hex() == ((s0 - p.s) / p.delta).hex()
                solved.append(call)
            else:
                assert p.status == "infeasible" and p.s is None
        # a repeated offset too: each side's points, nearest first, in solve order
        assert solved == sorted(solved)
    # a point on the ridge (an offset below half an ulp of t0) is solved
    # alone; then the lower side in falling t and the upper side in rising t,
    # each march from config.warm_start
    ts = [p.t for p in scan.below + scan.above if 0.0 <= p.t <= 1.0]
    marches = [[t] for t in ts if t == t0] + [sorted((t for t in ts if t < t0), reverse=True),
                                              sorted(t for t in ts if t > t0)]
    assert [t for t, _, _ in calls] == [t for march in marches for t in march]
    i = 0
    for march in marches:
        warm_start = config.warm_start
        for _ in march:
            assert calls[i][1] is warm_start
            warm_start = calls[i][2]
            i += 1


@pytest.mark.parametrize("deltas", [[], [0.0, 1e-3, 1e-2], [-1e-3, 1e-3, 1e-2],
                                    ["x"], 5, [None]])
def test_crease_offsets_must_be_finite_and_positive(deltas):
    config = OptimConfig(m=4, multistart_count=0)
    with pytest.raises(errors.ValueOutOfRange, match="offsets"):
        crease_scan(0.5, Motif.triangle(), deltas, config)


@pytest.mark.parametrize("e", [0.0, 1.0])
def test_crease_scan_needs_e_inside_the_unit_interval(e):
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        crease_scan(e, Motif.triangle(), [1e-3], OptimConfig(m=4, multistart_count=0))


@pytest.mark.parametrize("motif", [Motif.triangle(), Motif.star(2)])
@pytest.mark.parametrize("e", [1e-13, 1.0 - 1e-13, math.nan, 2.0])
def test_crease_report_checks_every_e_against_the_box_before_any_solve(monkeypatch, motif, e):
    # one rule for every motif: f_minus's box [CLAMP, 1 - CLAMP]
    calls = []

    def maximize_entropy(target, *rest):
        calls.append(target)
        raise errors.Infeasible("not solved here")

    monkeypatch.setattr(phase, "maximize_entropy", maximize_entropy)
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        crease_report([0.5, e], motif, OptimConfig(m=4, multistart_count=0))
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        crease_scan(e, motif, [1e-3], OptimConfig(m=4, multistart_count=0))
    assert calls == []


@pytest.mark.parametrize("deltas", [[1e-3] * 3, [0.03125] * 3])
def test_crease_scan_fits_no_side_at_one_repeated_offset(deltas):
    # three drops at one offset identify no power law
    scan = crease_scan(0.5, Motif.triangle(), deltas, OptimConfig(m=4, multistart_count=0))
    assert scan.below_fit is None and scan.above_fit is None
    assert scan.left_exponent_fit is None


def test_crease_report_fits_each_side_once(monkeypatch):
    # the scan keeps both sides' power fits and the report reads them back
    calls = []
    fit = phase.power_fit

    def counted_fit(xs, ys):
        calls.append(len(xs))
        return fit(xs, ys)

    monkeypatch.setattr(phase, "power_fit", counted_fit)
    verdict, = crease_report([0.5], Motif.triangle(), FAST)
    assert len(calls) == 2
    assert verdict.left_quotient is not None and verdict.right_quotient is not None


def test_svg_renders_deterministically():
    spec = ScanSpec(e_grid=[0.5], t_grid=[0.0, -1e-2], relative=True, config=FAST)
    table = phase_diagram_scan(spec)
    svg1 = heatmap_svg(table, spec.motif)
    svg2 = heatmap_svg(table, spec.motif)
    assert svg1 == svg2
    assert svg1.startswith("<svg") and svg1.endswith("</svg>")


def test_svg_transition_curve():
    rows = [(1.0, -0.9, 0.15, 0.98), (2.0, -2.0, 0.02, 0.999)]
    svg = transition_curve_svg(rows)
    assert "polyline" in svg


def test_svg_empty_rejected():
    with pytest.raises(errors.EmptyTable):
        heatmap_svg([], Motif.triangle())
    with pytest.raises(errors.EmptyTable):
        transition_curve_svg([])


def test_heatmap_lower_outline_is_razborovs_boundary():
    # above e = 1/2 the outline is g3, not e(2e - 1): at e = 0.7 g3 is
    # 0.2871, and the outline does not pass through t = 0.28
    row = ScanRow(0.7, 0.3, -0.6, 0.0, 0.0, True, 0.0, "ok")
    lower = heatmap_svg([row], Motif.triangle()).splitlines()[-2]
    assert lower.startswith("<polyline")
    points = lower.split('"')[1].split()
    for t, drawn in ((lower_boundary(0.7), True), (0.28, False)):
        assert ("{:.2f},{:.2f}".format(*figures._page(0.7, t)) in points) is drawn


# sha256 of the triangle heatmap of a fixed five-row table, as drawn when the
# figure always drew the triangle's outline: reading the outline from
# region.motif_bounds moved no byte
TRIANGLE_HEATMAP_SHA256 = "c9763acd64b63a211333ed121829ee552e2d0cff9d9c2d222fe911d054733e02"


def test_triangle_heatmap_bytes_are_pinned():
    rows = [ScanRow(e, t, -0.6 + 0.01 * i, 0.0, 0.0, True, 0.0, "ok") for i, (e, t)
            in enumerate([(0.3, 0.02), (0.5, 0.1), (0.7, 0.3), (0.9, 0.7), (0.5, 0.125)])]
    svg = heatmap_svg(rows, Motif.triangle())
    assert hashlib.sha256(svg.encode()).hexdigest() == TRIANGLE_HEATMAP_SHA256


def _polylines(svg):
    """(points, dashed) of each polyline in an SVG document."""
    return [(line.split('"')[1].split(), "stroke-dasharray" in line)
            for line in svg.splitlines() if line.startswith("<polyline")]


def test_star_heatmap_point_sits_on_its_ridge():
    # a 2-star scan at e = 1/2, t = e^2: its square is centred on the dashed
    # ridge e^2, and the solid bounds are e (above) and e^2 (below, Jensen)
    spec = ScanSpec(e_grid=[0.5], t_grid=[0.0], relative=True, motif=Motif.star(2), config=FAST)
    table = phase_diagram_scan(spec)
    assert [(r.e, r.t) for r in table] == [(0.5, 0.25)]
    svg = heatmap_svg(table, spec.motif)
    assert '<rect x="317.00" y="332.00" width="6" height="6"' in svg
    (upper, upper_dashed), (ridge, ridge_dashed), (lower, lower_dashed) = _polylines(svg)
    assert (upper_dashed, ridge_dashed, lower_dashed) == (False, True, False)
    assert "320.00,335.00" in ridge and "320.00,335.00" in lower
    assert "320.00,240.00" in upper
    assert "320.00,382.50" not in ridge  # the triangle's e^3


def test_heatmap_of_a_motif_with_no_proven_bounds_draws_the_ridge_alone():
    c4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    row = ScanRow(0.5, 0.0625, -0.3, 0.0, 0.0, True, 0.0, "ok")
    (ridge, dashed), = _polylines(heatmap_svg([row], c4))
    assert dashed and "{:.2f},{:.2f}".format(*figures._page(0.5, 0.5 ** 4)) in ridge
