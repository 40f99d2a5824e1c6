"""Experiment drivers: phase-diagram scans, crease reports and SVG figures.

These assemble the solver, region geometry and closed forms into the headline
reproductions.  Scans march away from the t = e^k ridge on each side with
warm-started continuation so the crease is always approached by refinement
from one side, never jumped across.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import region
from .errors import EmptyTable, ValueOutOfRange
from .graphon import Graphon, Motif
from .optimize import (
    CreaseScanResult,
    OptimConfig,
    continuation_march,
    crease_scan,
    side_power_fit,
)


@dataclass
class ScanSpec:
    e_grid: list
    t_grid: list  # offsets from e^k when relative, else absolute t values
    relative: bool = True
    motif: Motif = field(default_factory=Motif.triangle)
    config: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if not self.e_grid or not self.t_grid:
            raise ValueOutOfRange("scan grids must be nonempty")


@dataclass
class ScanRow:
    e: float
    t: float
    s: float
    beta1: float
    beta2: float
    converged: bool
    el_residual: float
    status: str  # ok | infeasible | not_converged


def _scan_rows(e, ts, spec):
    nan = math.nan
    return [
        ScanRow(e, t, nan, nan, nan, False, nan, "infeasible") if res is None
        else ScanRow(e, t, res.s_value, res.beta1, res.beta2, res.converged,
                     res.el_residual_norm, "ok" if res.converged else "not_converged")
        for t, res in zip(ts, continuation_march(e, ts, spec.motif, spec.config))
    ]


def phase_diagram_scan(spec: ScanSpec) -> list:
    """Sweep s(e, t) over the grid; rows ordered by (e, t), statuses per point."""
    k = spec.motif.k
    table = []
    for e in spec.e_grid:
        ridge = e ** k
        ts = [ridge + d for d in spec.t_grid] if spec.relative else list(spec.t_grid)
        below = sorted([t for t in ts if t < ridge], reverse=True)
        above = sorted([t for t in ts if t > ridge])
        on = [t for t in ts if t == ridge]
        rows = []
        for t in on:
            rows.extend(_scan_rows(e, [t], spec))
        rows.extend(_scan_rows(e, below, spec))
        rows.extend(_scan_rows(e, above, spec))
        table.extend(sorted(rows, key=lambda r: r.t))
    return table


# ---------------------------------------------------------------------------
# Crease reports


@dataclass
class CreaseVerdict:
    e: float
    scan: CreaseScanResult
    left_quotient: float | None
    right_quotient: float | None
    separation_sigma: float | None
    crease_detected: bool
    one_sided: bool


def _side_quotient(points, s0, delta_ref):
    fit = side_power_fit(points, s0)
    if fit is None:
        return None, None
    coef, cov = fit
    x = np.array([1.0, math.log(delta_ref)])
    pred = float(x @ coef)
    se_log = math.sqrt(max(float(x @ cov @ x), 0.0))
    q = math.exp(pred) / delta_ref
    return q, q * se_log


def crease_report(e_values, motif: Motif | None = None,
                  config: OptimConfig | None = None, deltas=None) -> list:
    """Per-e crease verdicts: sides separated by > 5 sigma, or one-sided.

    The one-sided quotients are compared at the smallest offset through their
    power-law fits, with regression standard errors deciding significance.
    """
    if motif is None:
        motif = Motif.triangle()
    if config is None:
        config = OptimConfig()
    out = []
    for e in e_values:
        scan = crease_scan(e, motif, deltas, config)
        s0 = scan.s_on_curve
        dref = scan.below[0].delta  # the smallest offset
        ql, sel = _side_quotient(scan.below, s0, dref)
        qr, ser = _side_quotient(scan.above, s0, dref)
        one_sided = (ql is None) != (qr is None)
        if ql is not None and qr is not None:
            sigma = math.sqrt(sel ** 2 + ser ** 2)
            sep = abs(ql - qr) / sigma if sigma > 0 else math.inf
            detected = sep > 5.0
        else:
            sep = None
            detected = one_sided  # a branch ends at the curve: one-sided derivative
        out.append(CreaseVerdict(
            e=e,
            scan=scan,
            left_quotient=ql,
            right_quotient=qr,
            separation_sigma=sep,
            crease_detected=detected,
            one_sided=one_sided,
        ))
    return out


# ---------------------------------------------------------------------------
# SVG rendering


_W, _H, _PAD = 640, 480, 50


def _sx(x, x0, x1):
    return _PAD + (x - x0) / (x1 - x0) * (_W - 2 * _PAD)


def _sy(y, y0, y1):
    return _H - _PAD - (y - y0) / (y1 - y0) * (_H - 2 * _PAD)


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


def _boundary_paths():
    es = np.linspace(0.0, 1.0, 201)
    parts = []
    for name, f in (("upper", region.upper_boundary),
                    ("er", region.er_curve),
                    ("envelope", region.lower_envelope)):
        pts = " ".join(
            f"{_sx(e, 0, 1):.2f},{_sy(f(e), 0, 1):.2f}" for e in es
        )
        dash = ' stroke-dasharray="4 3"' if name == "er" else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black"{dash}/>')
    return parts


def render_svg(table, kind) -> str:
    """Self-contained deterministic SVG: s-heatmap, transition curve or graphon."""
    if kind == "heatmap":
        rows = [r for r in table if isinstance(r, ScanRow) and math.isfinite(r.s)]
        if not rows:
            raise EmptyTable("no finite scan rows to render")
        smin = min(r.s for r in rows)
        smax = max(r.s for r in rows)
        rng = smax - smin or 1.0
        parts = []
        for r in rows:
            c = _color((r.s - smin) / rng)
            parts.append(
                f'<rect x="{_sx(r.e, 0, 1) - 3:.2f}" y="{_sy(r.t, 0, 1) - 3:.2f}" '
                f'width="6" height="6" fill="{c}"/>'
            )
        return _svg(parts + _boundary_paths())
    if kind == "region":
        return _svg(_boundary_paths())
    if kind == "curves":
        rows = list(table)
        if not rows:
            raise EmptyTable("no transition points to render")
        b2s = [r[0] for r in rows]
        b1s = [r[1] for r in rows]
        x0, x1 = min(b1s) - 0.5, max(b1s) + 0.5
        y0, y1 = min(b2s) - 0.5, max(b2s) + 0.5
        pts = " ".join(
            f"{_sx(b1, x0, x1):.2f},{_sy(b2, y0, y1):.2f}" for b2, b1, *_ in rows
        )
        return _svg([f'<polyline points="{pts}" fill="none" stroke="black"/>'])
    if kind == "graphon":
        if isinstance(table, Graphon):
            vals = table.values
        else:
            vals = np.asarray(table, dtype=float)
        if vals.size == 0:
            raise EmptyTable("empty graphon")
        m = vals.shape[0]
        cell = (min(_W, _H) - 2 * _PAD) / m
        parts = []
        for i in range(m):
            for j in range(m):
                v = min(max(float(vals[i, j]), 0.0), 1.0)
                shade = int(round(255 * (1.0 - v)))
                parts.append(
                    f'<rect x="{_PAD + j * cell:.2f}" y="{_PAD + i * cell:.2f}" '
                    f'width="{cell:.2f}" height="{cell:.2f}" '
                    f'fill="#{shade:02x}{shade:02x}{shade:02x}"/>'
                )
        return _svg(parts)
    raise ValueOutOfRange(f"unknown render kind {kind!r}")
