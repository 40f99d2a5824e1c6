"""The paper's two figures as self-contained, deterministic SVG documents:
s(e, t) over the scanned motif's region, and the free-energy transition
curve.  Like `region`, whose proven bounds it draws, it loads no numpy.
"""

from __future__ import annotations

import math

from .errors import EmptyTable
from .region import motif_bounds

_W, _H, _PAD = 640, 480, 50


def _page(x, y, x0=0, x1=1, y0=0, y1=1):
    """The page point of (x, y), drawn from the box [x0, x1] x [y0, y1]."""
    return (_PAD + (x - x0) / (x1 - x0) * (_W - 2 * _PAD),
            _H - _PAD - (y - y0) / (y1 - y0) * (_H - 2 * _PAD))


def _color(v):
    """Blue-to-red ramp on [0,1]."""
    v = min(max(v, 0.0), 1.0)
    r = int(round(255 * v))
    b = int(round(255 * (1.0 - v)))
    g = int(round(96 * (1.0 - abs(2 * v - 1.0))))
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg(elements):
    """The SVG document holding the given element lines, on a white page."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        *elements,
        "</svg>",
    ])


def _polyline(points, dash=""):
    """A black polyline through the page points, `dash` its extra attributes."""
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="black"{dash}/>'


def _outlines(motif):
    """The motif's proven upper bound, its Erdos-Renyi ridge e^k (dashed)
    and its proven lower bound, each a polyline through 201 uniform e; the
    ridge alone where `region.motif_bounds` proves nothing."""
    es = [i / 200 for i in range(201)]
    ridge = (lambda e: e ** motif.k), ' stroke-dasharray="4 3"'
    bounds = motif_bounds(motif)
    if bounds is None:
        curves = [ridge]
    else:
        lower, upper, _ = bounds
        curves = [(upper, ""), ridge, (lower, "")]
    return [_polyline((_page(e, curve(e)) for e in es), dash) for curve, dash in curves]


def heatmap_svg(rows, motif) -> str:
    """s(e, t) of a phase_diagram_scan's rows with finite s, one colored
    square each, over the outline of the motif the scan constrained: its
    proven bounds solid and its Erdos-Renyi ridge e^k dashed."""
    rows = [r for r in rows if math.isfinite(r.s)]
    if not rows:
        raise EmptyTable("no finite scan rows to render")
    smin = min(r.s for r in rows)
    rng = max(r.s for r in rows) - smin or 1.0
    squares = [(*_page(r.e, r.t), _color((r.s - smin) / rng)) for r in rows]
    return _svg([f'<rect x="{x - 3:.2f}" y="{y - 3:.2f}" width="6" height="6" fill="{c}"/>'
                 for x, y, c in squares] + _outlines(motif))


def transition_curve_svg(rows) -> str:
    """The polyline of (beta1_critical, beta2) over ergm.transition_curve's
    rows, each axis padded by 0.5."""
    rows = list(rows)
    if not rows:
        raise EmptyTable("no transition points to render")
    b2s, b1s, *_ = zip(*rows)
    box = (min(b1s) - 0.5, max(b1s) + 0.5, min(b2s) - 0.5, max(b2s) + 0.5)
    return _svg([_polyline(_page(b1, b2, *box) for b2, b1, *_ in rows)])
