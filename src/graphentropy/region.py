"""Geometry of the achievable (e, t) region for the triangle model.

The region is bounded above by e^(3/2) and below by Razborov's scalloped
curve g3(e), which is t = 0 for e <= 1/2 and meets the lower envelope
e(2e - 1) at the touch points e_k = k/(k+1); the Erdos-Renyi curve t = e^3
runs between them.
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


def boundary_table(samples) -> list:
    """Rows (e, upper, er, envelope) at uniform e for the CLI region command."""
    check_integer("samples", samples, 2, MAX_POINTS)
    rows = []
    for i in range(samples):
        e = i / (samples - 1)
        rows.append((e, upper_boundary(e), er_curve(e), lower_envelope(e)))
    return rows
