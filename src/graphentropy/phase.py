"""Experiment drivers: phase-diagram scans, crease scans and crease reports.

These assemble the solver and the closed forms into the headline
reproductions; `figures` draws a scan's rows.  Every march starts in `phase_diagram_scan`, through
`continuation_march`: a scan marches away from the t = e^k ridge on each side
with warm-started continuation, so the crease is always approached by
refinement from one side, never jumped across.  A crease scan is a scan of one
e at offsets -d and +d, and a `ScanSpec` checks its own grids when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real

from ._numpy import np
from .errors import DegenerateFit, Infeasible, ValueOutOfRange, check_unit
from .graphon import DensityPair, Motif, rate_value
from .optimize import OptimConfig, check_crease_e, f_minus, maximize_entropy

# ---------------------------------------------------------------------------
# Marches off the ridge

DEFAULT_OFFSETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2)


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


def continuation_march(e, ts, motif: Motif, config: OptimConfig) -> list:
    """Solve at (e, t) for each t in turn, each warm-started from the last
    solution found.  Until there is one a solve is warm-started from
    config.warm_start, and without that it has no warm start: its constant
    start is already the constant graphon at e.  One ScanRow per t, with
    status infeasible where t is outside [0, 1] or the solve raises Infeasible."""
    rows = []
    warm = config.warm_start
    for t in ts:
        row = ScanRow(e, t, math.nan, math.nan, math.nan, False, math.nan, "infeasible")
        if 0.0 <= t <= 1.0:
            try:
                res = maximize_entropy(DensityPair(e=e, t=t), motif,
                                       replace(config, warm_start=warm))
            except Infeasible:
                pass
            else:
                warm = res.g_star
                row = ScanRow(e, t, res.s_value, res.beta1, res.beta2, res.converged,
                              res.el_residual_norm, "ok" if res.converged else "not_converged")
        rows.append(row)
    return rows


def _finite_floats(values, what) -> list:
    """values as a list of floats, if it is a nonempty sequence of finite real
    numbers, none a bool; else ValueOutOfRange naming `what`."""
    try:
        items = list(values)
        floats = [float(x) for x in items if isinstance(x, Real) and not isinstance(x, bool)]
    except (TypeError, OverflowError):
        items, floats = [], []
    if not floats or len(floats) < len(items) or not all(map(math.isfinite, floats)):
        raise ValueOutOfRange(f"{what} must be a nonempty list of finite numbers, got {values!r}")
    return floats


@dataclass
class ScanSpec:
    """A phase-diagram scan's grid.  Each grid must be a nonempty sequence of
    finite real numbers, none a bool, and is stored as floats; every e must
    lie in [0, 1] and relative must be a bool.  Construction raises
    ValueOutOfRange on anything else, so a bad e stops a scan before its
    first solve."""

    e_grid: list
    t_grid: list  # offsets from e^k when relative, else absolute t values
    relative: bool = True
    motif: Motif = field(default_factory=Motif.triangle)
    config: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        self.e_grid = _finite_floats(self.e_grid, "e_grid")
        for e in self.e_grid:
            check_unit("e_grid", e)
        self.t_grid = _finite_floats(self.t_grid, "t_grid")
        if not isinstance(self.relative, bool):
            raise ValueOutOfRange(f"relative must be true or false, got {self.relative!r}")


def phase_diagram_scan(spec: ScanSpec) -> list:
    """Sweep s(e, t) over the grid; rows ordered by (e, t), statuses per point.
    At each e a point on e^k is solved alone, the points below it are one
    march in falling t and those above one in rising t, each from
    config.warm_start."""
    k = spec.motif.k
    table = []
    for e in spec.e_grid:
        ridge = e ** k
        ts = [ridge + d for d in spec.t_grid] if spec.relative else list(spec.t_grid)
        below = sorted([t for t in ts if t < ridge], reverse=True)
        above = sorted([t for t in ts if t > ridge])
        marches = [[t] for t in ts if t == ridge] + [below, above]
        rows = [row for march in marches
                for row in continuation_march(e, march, spec.motif, spec.config)]
        table.extend(sorted(rows, key=lambda r: r.t))
    return table


# ---------------------------------------------------------------------------
# Crease scans and reports


@dataclass
class CreasePoint:
    delta: float
    t: float
    s: float | None
    status: str  # ok | infeasible | not_converged
    quotient: float | None


@dataclass
class CreaseScanResult:
    e: float
    s_on_curve: float
    below: list
    above: list
    below_fit: tuple | None  # side_power_fit of each side: (coef, cov)
    above_fit: tuple | None
    left_exponent_fit: dict | None
    bound_checks: dict | None


def power_fit(xs, ys):
    """Ordinary least-squares line log y = c0 + c1 log x, for a power law y ~ C x^p.

    Returns (coef, cov): coef = [c0, c1] (so C = exp(c0), p = c1) and cov the
    OLS covariance s^2 (X^T X)^-1 of coef, with s^2 = RSS / (n - 2); the
    standard errors are the square roots of its diagonal.
    """
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    if n < 3 or lx.min() == lx.max():
        raise DegenerateFit(f"power fit needs at least 3 points and 2 distinct x, got {n} "
                            f"points and {np.unique(lx).size} distinct x")
    x = np.column_stack([np.ones(n), lx])
    coef, *_ = np.linalg.lstsq(x, ly, rcond=None)
    resid = ly - x @ coef
    cov = float(resid @ resid) / (n - 2) * np.linalg.inv(x.T @ x)
    return coef, cov


def side_power_fit(points, s0):
    """power_fit of the drops s0 - s > 0 against the offsets of one side's
    CreasePoints; None when fewer than 3 points drop, or their offsets take
    fewer than 2 distinct values."""
    pts = [(p.delta, s0 - p.s) for p in points if p.s is not None and s0 - p.s > 0]
    try:
        return power_fit([d for d, _ in pts], [r for _, r in pts])
    except DegenerateFit:
        return None


def crease_scan(e, motif: Motif = Motif.triangle(), deltas=DEFAULT_OFFSETS,
                config: OptimConfig = OptimConfig()) -> CreaseScanResult:
    """One-sided behavior of s(e, t) around the curve t = e^k.

    A crease scan is a phase_diagram_scan of the one e at the offsets -d and
    +d, so each side is marched away from the curve with warm-started
    continuation.  Reports difference quotients, the power fit of each side's
    drop, a log-log exponent fit for the lower branch, and the f_-(e)
    lower-bound checks (triangle motif only).  e must lie in the crease box
    [CLAMP, 1 - CLAMP] (check_crease_e), for every motif.  The offsets
    (DEFAULT_OFFSETS by default) must be finite positive numbers, and there
    must be at least one.
    """
    check_crease_e(e)
    offsets = sorted(_finite_floats(deltas, "offsets"))
    if offsets[0] <= 0.0:
        raise ValueOutOfRange(f"offsets must be positive, got {deltas!r}")
    s0 = -rate_value(e)
    # the rows run in rising t, with equal t in march order: the first n, in
    # falling t, are the lower side as marched, and the rest the upper side
    rows = phase_diagram_scan(ScanSpec([e], [-d for d in offsets] + offsets, True, motif, config))
    n = len(offsets)
    below, above = [
        [CreasePoint(d, r.t, None, r.status, None) if r.status == "infeasible"
         else CreasePoint(d, r.t, r.s, r.status, (s0 - r.s) / d)
         for d, r in zip(offsets, side)]
        for side in (sorted(rows[:n], key=lambda r: r.t, reverse=True), rows[n:])
    ]
    below_fit = side_power_fit(below, s0)
    above_fit = side_power_fit(above, s0)

    fit = None
    if below_fit is not None:
        coef, cov = below_fit
        fit = {
            "exponent": float(coef[1]),
            "exponent_stderr": math.sqrt(cov[1, 1]),
            "constant": math.exp(coef[0]),
            "intercept_stderr": math.sqrt(cov[0, 0]),
        }

    bounds = None
    if motif.is_triangle:
        fm = f_minus(e)
        checks_below = [
            (p.delta, (s0 - p.s) + 1e-6 >= fm.f_minus * p.delta ** (2.0 / 3.0)
             and (s0 - p.s) + 1e-6 >= fm.linear_constant_below * p.delta)
            for p in below if p.s is not None
        ]
        checks_above = [
            (p.delta, (s0 - p.s) + 1e-6 >= fm.linear_constant_above * p.delta)
            for p in above if p.s is not None
        ]
        bounds = {
            "f_minus": fm,
            "below": checks_below,
            "above": checks_above,
            "all_hold": all(b for _, b in checks_below + checks_above),
        }

    return CreaseScanResult(
        e=e,
        s_on_curve=float(s0),
        below=below,
        above=above,
        below_fit=below_fit,
        above_fit=above_fit,
        left_exponent_fit=fit,
        bound_checks=bounds,
    )


@dataclass
class CreaseVerdict:
    e: float
    scan: CreaseScanResult
    left_quotient: float | None
    right_quotient: float | None
    separation_sigma: float | None
    crease_detected: bool
    one_sided: bool


def _side_quotient(fit, delta_ref):
    """The quotient (s0 - s) / delta_ref of one side's power fit at delta_ref,
    and its regression standard error; (None, None) without a fit."""
    if fit is None:
        return None, None
    coef, cov = fit
    x = np.array([1.0, math.log(delta_ref)])
    pred = float(x @ coef)
    se_log = math.sqrt(max(float(x @ cov @ x), 0.0))
    q = math.exp(pred) / delta_ref
    return q, q * se_log


def crease_report(e_values, motif: Motif = Motif.triangle(),
                  config: OptimConfig = OptimConfig()) -> list:
    """Per-e crease verdicts: sides separated by > 5 sigma, or one-sided.

    Each e is a crease_scan over DEFAULT_OFFSETS, and every e is checked
    against crease_scan's box before the first scan.  The one-sided quotients
    are compared at the smallest offset through their power-law fits, with
    regression standard errors deciding significance.
    """
    e_values = list(e_values)
    for e in e_values:
        check_crease_e(e)
    out = []
    for e in e_values:
        scan = crease_scan(e, motif, config=config)
        dref = scan.below[0].delta  # the smallest offset
        ql, sel = _side_quotient(scan.below_fit, dref)
        qr, ser = _side_quotient(scan.above_fit, dref)
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
