"""Geometry of the achievable (e, t) region, and each motif's proven bounds.

For the triangle the region is bounded above by e^(3/2) and below by
Razborov's scalloped curve g3(e), which is t = 0 for e <= 1/2 and meets the
lower envelope e(2e - 1) at the touch points e_k = k/(k+1); the Erdos-Renyi
curve t = e^3 runs between them.  `motif_bounds` is the one place a motif's
proven bounds are written: the triangle's curves, e^k <= t <= e for a k-star,
and none for any other motif.  The region precheck and the heatmap read it.
"""

from __future__ import annotations

import enum
import math

from .errors import MAX_POINTS, check_integer, check_unit

CURVE_TOL = 1e-12


class RegionClass(enum.Enum):
    ABOVE_ER = "Above_ER"
    ON_ER = "On_ER"
    BELOW_ER = "Below_ER"
    OUTSIDE_UPPER = "OutsideUpper"
    BELOW_ENVELOPE = "BelowEnvelope"
    BELOW_LOWER = "BelowLower"  # on or above the envelope, below g3


def upper_boundary(e) -> float:
    check_unit("e", e)
    return e ** 1.5


def lower_envelope(e) -> float:
    """max(0, e(2e-1)): exact for e <= 1/2 and at touch points, else a lower bound."""
    check_unit("e", e)
    return max(0.0, e * (2.0 * e - 1.0))


def lower_boundary(e) -> float:
    """Razborov's minimal triangle density g3(e) (Combin. Probab. Comput. 17,
    603, 2008).  For e in [1-1/k, 1-1/(k+1)] and r = sqrt(k(k - e(k+1))),
    g3(e) = (k-1)(k-2r)(k+r)^2 / (k^2 (k+1)^2): the triangle density of the
    complete (k+1)-partite graphon with k equal parts and one smaller part.
    It is 0 for e <= 1/2 and equals e(2e-1) at the touch points k/(k+1)."""
    check_unit("e", e)
    if e <= 0.5:
        return 0.0
    if e == 1.0:
        return 1.0
    k = math.floor(1.0 / (1.0 - e))
    r = math.sqrt(max(0.0, k * (k - e * (k + 1))))
    return (k - 1) * (k - 2 * r) * (k + r) ** 2 / (k ** 2 * (k + 1) ** 2)


def er_curve(e) -> float:
    check_unit("e", e)
    return e ** 3


def motif_bounds(motif):
    """(lower, upper, text) for a motif's proven region lower(e) <= t <=
    upper(e), text naming it, or None where nothing is proved.  The motif is
    read by its `is_triangle`, `is_star` and `k`.  The triangle's are g3 and
    e^(3/2).  A k-star's density is the mean of r(x)^k over the degree r(x),
    which lies in [0, 1] with mean e, so e^k <= t (Jensen) <= e (r^k <= r).
    """
    if motif.is_triangle:
        return lower_boundary, upper_boundary, "g3(e) <= t <= e^(3/2)"
    if motif.is_star:
        k = motif.k
        return (lambda e: e ** k), (lambda e: e), f"e^{k} <= t <= e"
    return None


def touch_point(k) -> float:
    """e_k = k/(k+1), where the scalloped boundary meets the envelope."""
    check_integer("touch point index k", k, 1)
    return k / (k + 1.0)


def classify(e, t, tol=CURVE_TOL) -> RegionClass:
    check_unit("e", e)
    check_unit("t", t)
    if t > upper_boundary(e) + tol:
        return RegionClass.OUTSIDE_UPPER
    if t < lower_envelope(e) - tol:
        return RegionClass.BELOW_ENVELOPE
    if t < lower_boundary(e) - tol:
        return RegionClass.BELOW_LOWER
    cube = er_curve(e)
    if t > cube + tol:
        return RegionClass.ABOVE_ER
    if t < cube - tol:
        return RegionClass.BELOW_ER
    return RegionClass.ON_ER


def boundary_table(samples):
    """Rows (e, upper, er, envelope) at uniform e for the CLI region command,
    made one at a time as they are read; samples is checked at the call."""
    check_integer("samples", samples, 2, MAX_POINTS)
    return ((e, upper_boundary(e), er_curve(e), lower_envelope(e))
            for e in (i / (samples - 1) for i in range(samples)))
