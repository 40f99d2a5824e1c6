"""Constrained entropy maximization over step graphons.

The solver maximizes -I(g) subject to e(g) = e and t(H, g) = t by an
augmented-Lagrangian outer loop with a spectral projected-gradient inner loop
on the symmetric box [CLAMP, 1-CLAMP]^(m x m).  Closed forms for the e = 1/2
family and the upper boundary, f_-(e), Euler-Lagrange residuals and multiplier
fits live alongside it.  The marches off the t = e^k ridge that drive the
solver are in `phase`.

The reported entropy value is always -I of an explicitly feasible iterate, so
it is a rigorous lower bound for the true value; the ceiling -I0(e) (constant
graphon) is used both as a sanity invariant and as an early-exit test on the
Erdos-Renyi curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import region
from ._kernel import al_objective, density_gradient, minimize_bounded, project, spg_box
from .errors import DegenerateFit, Infeasible, ValueOutOfRange
from .graphon import (
    DensityPair,
    Graphon,
    Motif,
    bipodal_graphon,
    motif_gradient,
    rate_derivative,
    rate_second_derivative,
    rate_value,
    resample,
)

# Solver constants: a feasible iterate is within CONSTRAINT_TOL of both target
# densities, a converged one also has a projected gradient within KKT_TOL.
CONSTRAINT_TOL = 1e-6
KKT_TOL = 1e-5
MAX_OUTER_ITERATIONS = 60
MAX_INNER_ITERATIONS = 2000
PENALTY_INITIAL = 10.0
PENALTY_GROWTH = 4.0
# The multipliers come from the Euler-Lagrange fit, so the penalty only has to
# make each subproblem locally convex; a larger one makes the inner SPG solves
# ill-conditioned enough to exhaust MAX_INNER_ITERATIONS without converging.
PENALTY_MAX = 1e3


@dataclass(frozen=True)
class OptimConfig:
    m: int = 16
    multistart_count: int = 12
    seed: int = 0
    warm_start: Graphon | None = None


@dataclass
class EntropyResult:
    g_star: Graphon
    s_value: float
    target: DensityPair
    achieved: DensityPair
    beta1: float
    beta2: float
    el_residual_norm: float
    converged: bool
    multistart_values: list


@dataclass
class BipodalSolution:
    epsilon: float
    s_value: float
    beta1: float
    beta2: float
    beta_finite: bool

    def graphon(self, m) -> Graphon:
        # at epsilon = 0 every block is 1/2: the constant graphon
        return bipodal_graphon(
            0.5, 0.5 - self.epsilon, 0.5 + self.epsilon, 0.5 - self.epsilon, m
        )


@dataclass
class CreaseBoundConstants:
    e: float
    f_minus: float
    linear_constant_below: float
    linear_constant_above: float
    x_argmin: float


# ---------------------------------------------------------------------------
# f_-(e) and closed forms


def _f_ratio(e, x):
    """f(e, x) = [I0(e+x) - x I0'(e) - I0(e)] / x^2 with a stable small-x path."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[~small]
    out[~small] = (rate_value(e + xs) - xs * rate_derivative(e) - rate_value(e)) / xs ** 2
    if np.any(small):
        d2 = rate_second_derivative(e)
        d3 = 0.5 * (-1.0 / e ** 2 + 1.0 / (1.0 - e) ** 2)
        d4 = 1.0 / e ** 3 + 1.0 / (1.0 - e) ** 3
        xt = x[small]
        out[small] = d2 / 2.0 + d3 * xt / 6.0 + d4 * xt ** 2 / 24.0
    return out


def f_minus(e, grid_points=100_000) -> CreaseBoundConstants:
    """Infimum of f(e, x) over x in [-e, 1-e], by grid scan plus local polish."""
    if not (0.0 < e < 1.0):
        raise ValueOutOfRange(f"e={e} outside (0,1)")
    xs = np.linspace(-e, 1.0 - e, grid_points)
    fs = _f_ratio(e, xs)
    i = int(np.argmin(fs))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid_points - 1)]
    x, fx = minimize_bounded(lambda x: float(_f_ratio(e, np.array([x]))[0]), lo, hi, 1e-10)
    fm = min(float(fs[i]), fx)
    xmin = float(x) if fx <= fs[i] else float(xs[i])
    return CreaseBoundConstants(
        e=e,
        f_minus=fm,
        linear_constant_below=fm / e,
        linear_constant_above=fm / (3.0 * e + 1.0),
        x_argmin=xmin,
    )


def closed_form_half(t) -> BipodalSolution:
    """Exact optimizer family at e = 1/2 for t <= 1/8.

    epsilon = (1/8 - t)^(1/3); the entropy value is -I0(1/2 + epsilon) and the
    multipliers satisfy beta1 = -(3/4) beta2.  At epsilon = 0 and epsilon = 1/2
    the multipliers diverge and are reported as signed infinities.
    """
    if not (0.0 <= t <= 0.125):
        raise ValueOutOfRange(f"t={t} outside [0, 1/8]")
    eps = (0.125 - t) ** (1.0 / 3.0)
    s_val = -rate_value(0.5 + eps)
    tiny = 1e-12
    if eps < tiny or eps > 0.5 - tiny:
        return BipodalSolution(
            epsilon=eps,
            s_value=s_val,
            beta1=math.inf,
            beta2=-math.inf,
            beta_finite=False,
        )
    beta2 = -math.log((0.5 + eps) / (0.5 - eps)) / (6.0 * eps ** 2)
    return BipodalSolution(
        epsilon=eps,
        s_value=s_val,
        beta1=-0.75 * beta2,
        beta2=beta2,
        beta_finite=True,
    )


def closed_form_upper(e, m) -> Graphon:
    """Upper-boundary optimizer: 1 on [0, sqrt(e))^2, 0 elsewhere (grid-rounded)."""
    if not (0.0 <= e <= 1.0):
        raise ValueOutOfRange(f"e={e} outside [0,1]")
    mc = min(max(int(round(math.sqrt(e) * m)), 0), m)
    a = np.zeros((m, m))
    a[:mc, :mc] = 1.0
    return Graphon(values=a)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals and multiplier estimation


def _sup_residual(a, h, beta1, beta2) -> float:
    return float(np.max(np.abs(-rate_derivative(a) + beta1 + beta2 * h)))


def el_residual(g: Graphon, beta1, beta2, motif: Motif | None = None) -> float:
    """Sup over the blocks of the field -I0'(g) + beta1 + beta2 * h; h is the
    first-variation field of t(H, g) (3 * int g g for triangles)."""
    if motif is None:
        motif = Motif.triangle()
    return _sup_residual(g.values, motif_gradient(g, motif), beta1, beta2)


def estimate_multipliers(g: Graphon, motif: Motif | None = None) -> dict:
    """Least-squares (beta1, beta2) minimizing the Euler-Lagrange residual over
    the interior blocks (boundary blocks carry box multipliers); the residual
    norm is the sup over every block."""
    if motif is None:
        motif = Motif.triangle()
    h = motif_gradient(g, motif)
    coef = _ls_multipliers(g.values, h)
    if coef is None:
        raise DegenerateFit("too few interior blocks or a constant h field; beta2 unidentifiable")
    beta1, beta2 = float(coef[0]), float(coef[1])
    return {"beta1": beta1, "beta2": beta2,
            "residual_norm": _sup_residual(g.values, h, beta1, beta2)}


def _ls_multipliers(a, d):
    """Least-squares (lam1, lam2) solving I0'(a) = lam1 + lam2 * d over the
    interior blocks; None when too few interior blocks or d is constant."""
    interior = (a > 1e-6) & (a < 1.0 - 1e-6)
    hv = d[interior]
    n = hv.size
    if n < 3:
        return None
    # np.std and np.mean written out, with numpy's order of operations
    dev = hv - float(hv.sum()) / n
    std = math.sqrt(float((dev * dev).sum()) / n)
    if std < 1e-8 * max(1.0, float(np.abs(hv).sum()) / n):
        return None
    y = rate_derivative(a[interior])
    x = np.column_stack([np.ones_like(hv), hv])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    if not np.all(np.isfinite(coef)):
        return None
    return coef


# ---------------------------------------------------------------------------
# Augmented-Lagrangian solve


@dataclass
class _RunRecord:
    lam: np.ndarray
    viol: float
    converged: bool
    best_s: float  # best -I over feasible iterates (-inf if none)
    best_a: np.ndarray | None


def _solve_constrained(a0, target: DensityPair, motif: Motif, cfg: OptimConfig):
    m = cfg.m
    dens = density_gradient(motif, m)
    te, tt = target.e, target.t
    rho = PENALTY_INITIAL
    best = {"s": -math.inf, "a": None}
    a = project(np.array(a0, dtype=float))
    # seed the multipliers from the Euler-Lagrange fit at the start; for an
    # ansatz that is already the optimizer this makes it a fixed point of the
    # first inner solve instead of a point the penalty term drags away from
    _, field0 = dens(a)
    fit0 = _ls_multipliers(a, field0())
    lam = fit0 if fit0 is not None else np.zeros(2)

    # Multiplier updates: prefer the least-squares fit of the Euler-Lagrange
    # equations at the current iterate (stable even where the dual iteration
    # is ill-behaved, e.g. the convex stretch of s(1/2, t)); fall back to the
    # Hestenes-Powell update when the fit is degenerate.  The penalty grows
    # only while the violation stagnates, up to PENALTY_MAX.
    pg = math.inf
    viol = math.inf
    prev_viol = math.inf
    stall = 0
    for outer in range(MAX_OUTER_ITERATIONS):
        inner_tol = max(0.3 * KKT_TOL, min(1e-2, 0.5 ** outer))
        objective = al_objective(dens, te, tt, lam, rho, CONSTRAINT_TOL, best)
        a, _, _, pg = spg_box(a, objective, inner_tol, MAX_INNER_ITERATIONS)
        # a is the last iterate the objective valued, and its field d is built
        d = objective.d
        c = np.array([objective.e - te, objective.t - tt])
        viol = float(np.max(np.abs(c)))
        if viol <= CONSTRAINT_TOL and pg <= KKT_TOL:
            break
        fit = _ls_multipliers(a, d)
        if fit is not None:
            lam = fit
        else:
            # Hestenes-Powell step, trust-region capped so it cannot run away
            # in lockstep with a growing penalty
            dl = -rho * c
            cap = 10.0 * (1.0 + float(np.linalg.norm(lam)))
            n = float(np.linalg.norm(dl))
            if n > cap:
                dl *= cap / n
            lam = lam + dl
        if viol > 0.25 * prev_viol and viol > CONSTRAINT_TOL:
            rho = min(rho * PENALTY_GROWTH, PENALTY_MAX)
            stall += 1
        else:
            stall = 0
        if stall >= 8:  # violation no longer responding to the penalty
            break
        prev_viol = min(prev_viol, viol)
    return _RunRecord(
        lam=lam,
        viol=viol,
        converged=viol <= CONSTRAINT_TOL and pg <= KKT_TOL,
        best_s=best["s"],
        best_a=best["a"],
    )


# ---------------------------------------------------------------------------
# Start generation


def _random_bipodal(rng, m):
    c = rng.uniform(0.15, 0.85)
    p = rng.uniform(0.05, 0.95, size=3)
    return bipodal_graphon(c, p[0], p[1], p[2], m).values.copy()


def _starts(target: DensityPair, motif: Motif, cfg: OptimConfig):
    """Named starts: the warm start, the four ansatz starts (constant,
    checkerboard, upper_corner, bipodal_random), then the random restarts."""
    m = cfg.m
    e, t = target.e, target.t
    k = motif.k
    rng = np.random.default_rng(cfg.seed)
    starts = []
    if cfg.warm_start is not None:
        starts.append(("warm", resample(cfg.warm_start, m).values.copy()))
    starts.append(("constant", np.full((m, m), float(e))))
    # rank-one bipodal perturbation of g_e; exact optimizer family at e=1/2
    x = min(abs(e ** k - t) ** (1.0 / 3.0), e - 0.01, 1.0 - e - 0.01)
    if x > 0:
        sign = -1.0 if t <= e ** k else 1.0
        alpha = np.ones(m)
        alpha[: m // 2] = -1.0
        starts.append(("checkerboard", project(e + sign * x * np.outer(alpha, alpha))))
    corner = closed_form_upper(e, m).values
    denom = e ** 1.5 - e ** k
    theta = (t - e ** k) / denom if abs(denom) > 1e-12 else 0.0
    theta = min(max(theta, 0.05), 1.0)
    starts.append(("upper_corner", project(theta * corner + (1 - theta) * e)))
    starts.append(("bipodal_random", _random_bipodal(rng, m)))
    for i in range(cfg.multistart_count):
        if i % 2 == 0:
            starts.append((f"random{i}", _random_bipodal(rng, m)))
        else:
            r = rng.uniform(0.05, 0.95, size=(m, m))
            starts.append((f"random{i}", 0.5 * (r + r.T)))
    return starts


# ---------------------------------------------------------------------------
# Public solver


def _region_precheck(target: DensityPair, motif: Motif, tol) -> str:
    """Raise Infeasible for a target outside the motif's proven region; else
    return where it lies, for the message of a later Infeasible.  A k-star's
    degree r(x) lies in [0, 1] with mean e, so e^k <= t (Jensen) <= e (r^k <= r).
    """
    e, t = target.e, target.t
    if motif.is_triangle:
        cls = region.classify(e, t, tol=tol)
        if cls in (region.RegionClass.OUTSIDE_UPPER, region.RegionClass.BELOW_ENVELOPE,
                   region.RegionClass.BELOW_LOWER):
            raise Infeasible(f"target ({e},{t}) classified {cls.value} for the triangle model")
        return f"; region class {cls.value}"
    if motif.is_star:
        k = motif.k
        if not (e ** k - tol <= t <= e + tol):
            raise Infeasible(f"target ({e},{t}) outside e^{k} <= t <= e for the {motif.name} model")
        return f"; inside e^{k} <= t <= e"
    return ""


def maximize_entropy(target: DensityPair, motif: Motif | None = None,
                     config: OptimConfig | None = None) -> EntropyResult:
    """Maximize -I(g) subject to e(g) = target.e and t(H, g) = target.t.

    Runs the warm start, the ansatz starts and the random restarts, and
    returns the best feasible iterate.  Raises Infeasible when no start
    reaches an iterate within CONSTRAINT_TOL of the target.
    """
    if motif is None:
        motif = Motif.triangle()
    if config is None:
        config = OptimConfig()
    region_note = _region_precheck(target, motif, CONSTRAINT_TOL)
    ceiling = -rate_value(target.e)
    dens = density_gradient(motif, config.m)
    multistart_values = []
    best = None  # (s, record)
    min_viol = math.inf
    for _, a0 in _starts(target, motif, config):
        rec = _solve_constrained(a0, target, motif, config)
        min_viol = min(min_viol, rec.viol)
        multistart_values.append(rec.best_s)
        if rec.best_a is not None and (best is None or rec.best_s > best[0] + 1e-15):
            best = (rec.best_s, rec)
        # the constant graphon is the unconstrained-in-t maximizer at fixed e,
        # so nothing can beat the ceiling; stop once it is hit
        if rec.converged and rec.best_s >= ceiling - 1e-9:
            break
    if best is None:
        raise Infeasible(
            f"no start reached constraint tolerance (best violation {min_viol:.3g})"
            + region_note
        )
    _, rec = best
    a = rec.best_a
    t_val, field = dens(a)
    h = field()
    # the residual of the multiplier fit at the iterate, or of the run's own
    # multipliers where that fit is degenerate
    fit = _ls_multipliers(a, h)
    lam = rec.lam if fit is None else fit
    return EntropyResult(
        g_star=Graphon(values=a.copy()),
        s_value=float(best[0]),
        target=target,
        achieved=DensityPair(e=float(np.mean(a)), t=t_val),
        beta1=float(rec.lam[0]),
        beta2=float(rec.lam[1]),
        el_residual_norm=_sup_residual(a, h, float(lam[0]), float(lam[1])),
        converged=rec.converged,
        multistart_values=multistart_values,
    )
