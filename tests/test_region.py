"""Feasible-region geometry tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphentropy import errors, optimize
from graphentropy.errors import check_unit
from graphentropy.graphon import DensityPair, Motif, bipodal_graphon
from graphentropy.problem import region_precheck
from graphentropy.region import (
    RegionClass,
    boundary_table,
    classify,
    er_curve,
    lower_boundary,
    motif_bounds,
    upper_boundary,
)


def test_boundary_values():
    assert upper_boundary(0.25) == pytest.approx(0.125, abs=1e-15)
    assert er_curve(0.5) == pytest.approx(0.125, abs=1e-15)


def test_boundary_ordering():
    for i in range(1, 100):
        e = i / 100
        assert lower_boundary(e) <= er_curve(e) <= upper_boundary(e) + 1e-15
    # the region table's envelope column is a lower bound for g3, below the
    # ER curve, equal to g3 = 0 up to e = 1/2 and to g3 at e = 3/4
    for e, upper, er, envelope in boundary_table(101):
        assert envelope <= lower_boundary(e) + 1e-15
        assert envelope <= er <= upper
        if e <= 0.5:
            assert envelope == lower_boundary(e) == 0.0
        if e == 0.75:
            assert envelope == pytest.approx(0.375, abs=1e-15)


def _partite_triangle_density(e):
    """(edge, triangle) densities of the complete (k+1)-partite graphon with k
    parts of size c and one of size 1 - kc <= c, c chosen to give density e."""
    k = math.floor(1.0 / (1.0 - e))
    c = (k + math.sqrt(k * (k - (k + 1) * e))) / (k * (k + 1))
    p = np.diag(np.array([c] * k + [1.0 - k * c]))
    w = 1.0 - np.eye(k + 1)
    pw = p @ w
    return float(np.sum(p @ w @ p)), float(np.trace(pw @ pw @ pw))


@pytest.mark.parametrize("e", [0.55, 0.6, 0.7, 0.85, 0.95])
def test_lower_boundary_is_the_partite_triangle_density(e):
    e_graphon, t_graphon = _partite_triangle_density(e)
    assert e_graphon == pytest.approx(e, abs=1e-12)
    assert lower_boundary(e) == pytest.approx(t_graphon, abs=1e-12)


def test_lower_boundary_touches_the_envelope():
    assert lower_boundary(0.0) == lower_boundary(0.3) == lower_boundary(0.5) == 0.0
    assert lower_boundary(1.0) == 1.0
    for k in range(1, 20):
        e = k / (k + 1)
        assert lower_boundary(e) == pytest.approx(e * (2.0 * e - 1.0), abs=1e-15)


def test_classification():
    assert classify(0.5, 0.125) is RegionClass.ON_ER
    assert classify(0.5, 0.2) is RegionClass.ABOVE_ER
    assert classify(0.5, 0.1) is RegionClass.BELOW_ER
    assert classify(0.5, 0.4) is RegionClass.OUTSIDE_UPPER
    # below g3(0.7) = 0.28709..., far below and above e(2e - 1) = 0.28
    assert classify(0.7, 0.2) is RegionClass.BELOW_LOWER
    assert classify(0.7, 0.285) is RegionClass.BELOW_LOWER
    assert classify(0.7, 0.3) is RegionClass.BELOW_ER
    assert classify(0.0, 0.0) is RegionClass.ON_ER
    assert classify(1.0, 1.0) is RegionClass.ON_ER


def test_classification_enum_values():
    assert RegionClass.BELOW_LOWER.value == "BelowLower"
    assert RegionClass.OUTSIDE_UPPER.value == "OutsideUpper"


def test_out_of_range_rejected():
    with pytest.raises(errors.ValueOutOfRange):
        classify(1.2, 0.5)
    with pytest.raises(errors.ValueOutOfRange):
        upper_boundary(-0.1)


@settings(max_examples=200, deadline=None)
@given(x=st.floats())
@example(x=0.0)
@example(x=1.0)
@example(x=-5e-324)
@example(x=math.nextafter(1.0, 2.0))
@example(x=math.nan)
def test_every_unit_interval_rule_is_check_unit(x):
    # one rule, 0 <= x <= 1 with NaN failing, and one message wherever a
    # scalar must lie in [0, 1]
    uses = [lambda: check_unit("x", x), lambda: upper_boundary(x), lambda: lower_boundary(x),
            lambda: classify(0.5, x), lambda: DensityPair(e=x, t=0.0),
            lambda: DensityPair(e=0.5, t=x), lambda: optimize.closed_form_upper(x, 4),
            lambda: bipodal_graphon(x, 0.5, 0.5, 0.5, 4)]
    for use in uses:
        if 0.0 <= x <= 1.0:
            use()
        else:
            with pytest.raises(errors.ValueOutOfRange, match=r"outside \[0,1\]"):
                use()


def test_boundary_table():
    rows = list(boundary_table(5))
    assert len(rows) == 5
    assert rows[0] == (0.0, 0.0, 0.0, 0.0)
    assert rows[-1] == (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(errors.ValueOutOfRange):
        boundary_table(1)


G3_BOUNDS = r"outside g3\(e\) <= t <= e\^\(3/2\) for the triangle model$"


def test_solver_rejects_the_strip_below_the_lower_boundary(monkeypatch):
    # no start is run for a target below g3 by more than CONSTRAINT_TOL; one
    # on g3 is not rejected by the region
    def no_solve(*args):
        raise AssertionError("a start was solved")

    monkeypatch.setattr(optimize, "_solve_constrained", no_solve)
    cfg = optimize.OptimConfig(m=8, multistart_count=0)
    with pytest.raises(errors.Infeasible, match=G3_BOUNDS):
        optimize.maximize_entropy(DensityPair(e=0.7, t=0.285), Motif.triangle(), cfg)
    g3 = lower_boundary(0.7)
    with pytest.raises(errors.Infeasible, match=G3_BOUNDS):
        optimize.maximize_entropy(DensityPair(e=0.7, t=g3 - 2e-6), Motif.triangle(), cfg)
    with pytest.raises(AssertionError, match="a start was solved"):
        optimize.maximize_entropy(DensityPair(e=0.7, t=g3 - 5e-7), Motif.triangle(), cfg)


_OUTSIDE = {RegionClass.OUTSIDE_UPPER, RegionClass.BELOW_LOWER}


@st.composite
def _triangle_targets(draw):
    """(e, t) with e uniform or k/(k+1), and t uniform or within 1e-12
    of a tolerance edge of g3(e) <= t <= e^(3/2), clipped to [0, 1]."""
    tol = optimize.CONSTRAINT_TOL
    e = draw(st.one_of(st.floats(0.0, 1.0), st.integers(1, 2000).map(lambda k: k / (k + 1.0))))
    edge = draw(st.sampled_from([lower_boundary(e) - tol, upper_boundary(e) + tol, None]))
    t = draw(st.floats(0.0, 1.0)) if edge is None else edge + draw(st.floats(-1e-12, 1e-12))
    return e, min(max(t, 0.0), 1.0)


@settings(max_examples=1000, deadline=None)
@given(target=_triangle_targets())
@example(target=(0.7, 0.285))  # above e(2e - 1), below g3
@example(target=(0.7, 0.2))  # below e(2e - 1)
@example(target=(0.5, 0.4))  # above e^(3/2)
def test_the_g3_bounds_reject_what_classify_puts_outside(target):
    # the precheck's one rule, g3(e) <= t <= e^(3/2) to CONSTRAINT_TOL,
    # rejects exactly where classify's two outside classes would at that
    # tolerance
    e, t = target
    tol = optimize.CONSTRAINT_TOL
    bounds = "g3(e) <= t <= e^(3/2)"
    try:
        note = region_precheck(DensityPair(e, t), Motif.triangle())
    except errors.Infeasible as exc:
        assert str(exc) == f"target ({e},{t}) outside {bounds} for the triangle model"
        assert classify(e, t) in _OUTSIDE
        rejected = True
    else:
        assert note == f"; inside {bounds}"
        rejected = False
    assert rejected == (t > upper_boundary(e) + tol or t < lower_boundary(e) - tol)


def test_motif_bounds():
    lower, upper, text = motif_bounds(Motif.triangle())
    assert (lower, upper, text) == (lower_boundary, upper_boundary, "g3(e) <= t <= e^(3/2)")
    for k in (1, 2, 4):
        lower, upper, text = motif_bounds(Motif.star(k))
        assert (lower(0.3), upper(0.3), text) == (0.3 ** k, 0.3, f"e^{k} <= t <= e")
    c4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert motif_bounds(c4) is None

