"""Experiment drivers: phase-diagram scans, crease reports and SVG figures.

These assemble the solver, region geometry and closed forms into the headline
reproductions.  Scans march away from the t = e^k ridge on each side with
warm-started continuation so the crease is always approached by refinement
from one side, never jumped across.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import region
from .errors import EmptyTable, Infeasible, ValueOutOfRange
from .graphon import DensityPair, Graphon, Motif, constant_graphon
from .optimize import (
    CreaseScanResult,
    OptimConfig,
    crease_scan,
    maximize_entropy,
    power_fit,
)

DEFAULT_OFFSETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2)


@dataclass
class ScanSpec:
    e_grid: list
    t_grid: list  # offsets from e^k when relative, else absolute t values
    relative: bool = True
    motif: Motif = field(default_factory=Motif.triangle)
    config: OptimConfig = field(default_factory=OptimConfig)
    output_path: str | None = None

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


def _march(e, ts, motif, config):
    """Solve along a t-sequence with warm-started continuation."""
    rows = []
    warm = constant_graphon(e, config.m)
    for t in ts:
        if not (0.0 <= t <= 1.0):
            rows.append(ScanRow(e, t, math.nan, math.nan, math.nan, False, math.nan,
                                "infeasible"))
            continue
        cfg = replace(config, warm_start=warm)
        try:
            res = maximize_entropy(DensityPair(e=e, t=t), motif, cfg)
        except Infeasible:
            rows.append(ScanRow(e, t, math.nan, math.nan, math.nan, False, math.nan,
                                "infeasible"))
            continue
        rows.append(ScanRow(e, t, res.s_value, res.beta1, res.beta2, res.converged,
                            res.el_residual_norm, "ok" if res.converged else "not_converged"))
        warm = res.g_star
    return rows


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
            rows.extend(_march(e, [t], spec.motif, spec.config))
        rows.extend(_march(e, below, spec.motif, spec.config))
        rows.extend(_march(e, above, spec.motif, spec.config))
        table.extend(sorted(rows, key=lambda r: r.t))
    if spec.output_path:
        write_scan_csv(table, spec.output_path)
    return table


def write_scan_csv(table, path):
    with open(path, "w", newline="") as fh:
        fh.write("e,t,s,beta1,beta2,converged,el_residual,status\n")
        for r in table:
            fh.write(
                f"{r.e!r},{r.t!r},{r.s!r},{r.beta1!r},{r.beta2!r},"
                f"{int(r.converged)},{r.el_residual!r},{r.status}\n"
            )


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
    pts = [(p.delta, s0 - p.s) for p in points if p.s is not None and s0 - p.s > 0]
    if len(pts) < 3:
        return None, None
    coef, cov = power_fit([d for d, _ in pts], [r for _, r in pts])
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
    if deltas is None:
        deltas = list(DEFAULT_OFFSETS)
    out = []
    for e in e_values:
        scan = crease_scan(e, motif, deltas, config)
        s0 = scan.s_on_curve
        dref = min(deltas)
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


def _svg_open():
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]


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
        parts = _svg_open()
        for r in rows:
            c = _color((r.s - smin) / rng)
            parts.append(
                f'<rect x="{_sx(r.e, 0, 1) - 3:.2f}" y="{_sy(r.t, 0, 1) - 3:.2f}" '
                f'width="6" height="6" fill="{c}"/>'
            )
        parts.extend(_boundary_paths())
        parts.append("</svg>")
        return "\n".join(parts)
    if kind == "region":
        parts = _svg_open()
        parts.extend(_boundary_paths())
        parts.append("</svg>")
        return "\n".join(parts)
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
        parts = _svg_open()
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black"/>')
        parts.append("</svg>")
        return "\n".join(parts)
    if kind == "graphon":
        if isinstance(table, Graphon):
            vals = table.values
        else:
            vals = np.asarray(table, dtype=float)
        if vals.size == 0:
            raise EmptyTable("empty graphon")
        m = vals.shape[0]
        cell = (min(_W, _H) - 2 * _PAD) / m
        parts = _svg_open()
        for i in range(m):
            for j in range(m):
                v = min(max(float(vals[i, j]), 0.0), 1.0)
                shade = int(round(255 * (1.0 - v)))
                parts.append(
                    f'<rect x="{_PAD + j * cell:.2f}" y="{_PAD + i * cell:.2f}" '
                    f'width="{cell:.2f}" height="{cell:.2f}" '
                    f'fill="#{shade:02x}{shade:02x}{shade:02x}"/>'
                )
        parts.append("</svg>")
        return "\n".join(parts)
    raise ValueOutOfRange(f"unknown render kind {kind!r}")
