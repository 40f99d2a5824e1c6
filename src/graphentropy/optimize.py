"""Constrained entropy maximization over step graphons.

The solver maximizes -I(g) subject to e(g) = e and t(H, g) = t by an
augmented-Lagrangian outer loop with a spectral projected-gradient inner loop
on the symmetric box [CLAMP, 1-CLAMP]^(m x m).  Closed forms for the e = 1/2
family, the upper boundary and the crease constant f_-(e) = atanh(1 - 2e) /
(1 - 2e), the e = 1/2 entropy slice's convexity, Euler-Lagrange residuals
and multiplier fits live alongside it.  The marches off the t = e^k ridge
that drive the solver are in `phase`.  What a solve is
asked (the target, the motif, the settings) and the region precheck that
rejects a target outside the proven region are in `problem`, which needs no numpy.

The reported entropy value is -I of an iterate whose densities are within
CONSTRAINT_TOL of the target's, so it is a lower bound for s at that
iterate's own densities, not at the target: near a corner where s falls
fast it can exceed s at the target.  With m = 4 it is 5.01e-6 at (0, 0),
from an iterate at e = 6.6e-7, and 2.42e-6 at (1, 1), from one at
e = 0.9999997, while s is 0 at both corners.  A solve ends at the first
converged start whose value reaches a proven upper bound on s at the target:
the ceiling -I0(e) of the constant graphon, which no graphon of edge density
e beats and which is also a sanity invariant, and for the triangle at
e = 1/2 with 0 <= t <= 1/8 the closed form -I0(1/2 + (1/8 - t)^(1/3)),
proved in `closed_form_half`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernel import (
    CLAMP,
    AugmentedLagrangian,
    bisect,
    density_gradient,
    project,
    spg_box,
)
from ._numpy import np
from ._random import Generator
from .errors import (
    MAX_POINTS,
    DegenerateFit,
    Infeasible,
    SignPatternUnexpected,
    ValueOutOfRange,
    check_integer,
    check_real,
    check_unit,
)
from .graphon import (
    Graphon,
    bipodal_graphon,
    motif_gradient,
    rate_derivative,
    rate_second_derivative,
    rate_value,
    resample,
)
from .problem import (
    CONSTRAINT_TOL,
    KKT_TOL,
    MAX_INNER_ITERATIONS,
    DensityPair,
    Motif,
    OptimConfig,
    region_precheck,
)

# The outer loop's limits.  CONSTRAINT_TOL, KKT_TOL and MAX_INNER_ITERATIONS
# are in `problem`, because its region precheck and `ergm` read them too.
MAX_OUTER_ITERATIONS = 60
PENALTY_INITIAL = 10.0
PENALTY_GROWTH = 4.0
# The multipliers come from the Euler-Lagrange fit, so the penalty only has to
# make each subproblem locally convex; a larger one makes the inner SPG solves
# ill-conditioned enough to exhaust MAX_INNER_ITERATIONS without converging.
PENALTY_MAX = 1e3


@dataclass
class EntropyResult:
    """The best feasible iterate g_star of a solve and s_value = -I(g_star).

    g_star's densities are `achieved`, each within CONSTRAINT_TOL of
    `target`, so s_value is a lower bound for s at `achieved`, not at
    `target`.  beta1 and beta2 are the multipliers of the run that reached
    g_star.  el_residual_norm is el_residual(g_star, beta1, beta2, motif): the
    sup norm of the Euler-Lagrange field of those multipliers, unprojected and
    over every block, the blocks at the box bounds included, where the equation
    need not hold.  A large value with no block at a bound means the iterate
    is not stationary: next to the upper boundary, at (1/4, 1/8 - 1e-9), the
    blocks are 8.5e-7 and 1 - 2.3e-6, none at a bound, and the residual is
    2.99 with `converged` False.  `converged` is the projected-gradient
    test: the run's last iterate was feasible and its projected gradient
    within KKT_TOL.  multistart_values has one entry per start run, in
    order, the best feasible -I of that run (-inf if none); a solve that
    reaches a proven bound runs fewer starts."""

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
class ConvexityReport:
    c1: float
    c2: float
    second_derivative_samples: list  # (t, s''(1/2, t)) pairs


@dataclass
class CreaseBoundConstants:
    e: float
    f_minus: float
    linear_constant_above: float
    x_argmin: float


# ---------------------------------------------------------------------------
# f_-(e) and closed forms


def check_crease_e(e):
    """Raise ValueOutOfRange unless CLAMP <= e <= 1 - CLAMP (NaN fails): the
    box of the solver's step-graphon values, where rate_derivative leaves
    I0'(e) unclamped, and the e of every crease scan, whatever its motif.
    It is the crease rule, not a limit of f_minus, whose closed form holds
    on all of (0, 1)."""
    check_real("e", e)
    if not (CLAMP <= e <= 1.0 - CLAMP):
        raise ValueOutOfRange(f"e={e} outside [{CLAMP}, 1 - {CLAMP}]")


def f_minus(e) -> CreaseBoundConstants:
    """Infimum of f(e, x) = [I0(e+x) - x I0'(e) - I0(e)] / x^2 over x in
    [-e, 1-e], e in [CLAMP, 1-CLAMP]: atanh(1 - 2e) / (1 - 2e), at x = 1 - 2e.

    Proof: Taylor's integral remainder gives f(e, x) = int_0^1 (1-s)
    I0''(e + s x) ds, and I0''(u) = 1/(2u(1-u)) is convex, so f(e, .) is
    convex.  At x = 1 - 2e, I0(e+x) = I0(e) and I0'(e+x) = -I0'(e), so f's
    x-derivative vanishes there and f = -I0'(e)/(1 - 2e); at e = 1/2 the
    minimum is f(1/2, 0) = I0''(1/2)/2 = 1.
    """
    check_crease_e(e)
    y = 1.0 - 2.0 * e
    # f_-(e) = f_-(1 - e); 1 - e is exact for e >= 1/2, so the pair shares its bits
    lo = min(e, 1.0 - e)
    z = 1.0 - 2.0 * lo
    if lo == 0.5:
        fm = 1.0
    elif lo >= 0.25:  # z is exact here
        fm = math.atanh(z) / z
    else:  # z rounds below e = 1/4, and atanh(z) would magnify that error
        fm = (math.log1p(-lo) - math.log(lo)) / (2.0 * z)
    return CreaseBoundConstants(
        e=e,
        f_minus=fm,
        linear_constant_above=fm / (3.0 * e + 1.0),
        x_argmin=y,
    )


def closed_form_half(t) -> BipodalSolution:
    """Exact optimizer family at e = 1/2 for t <= 1/8.

    epsilon = (1/8 - t)^(1/3); the entropy value is -I0(1/2 + epsilon) and the
    multipliers satisfy beta1 = -(3/4) beta2.  At epsilon = 0 and epsilon = 1/2
    the multipliers diverge and are reported as signed infinities.

    The value bounds s(1/2, t) from above.  For W = 1/2 + U with int U = 0
    and d(x) = int U(x, y) dy, t - 1/8 = (3/2)|d|^2 + t(U), so
    delta = 1/8 - t <= -t(U) <= sum |lambda_i|^3 <= |U|_2^3.  I0(1/2 + sqrt(y))
    has nonnegative Taylor coefficients in y, so it is convex and increasing
    on [0, 1/4], and Jensen gives I(W) >= I0(1/2 + |U|_2) >= I0(1/2 + epsilon).
    The bipodal graphons 1/2 -/+ epsilon attain it.
    """
    check_real("t", t)
    if not (0.0 <= t <= 0.125):
        raise ValueOutOfRange(f"t={t} outside [0, 1/8]")
    eps = (0.125 - t) ** (1.0 / 3.0)
    tiny = 1e-12
    finite = tiny <= eps <= 0.5 - tiny
    beta2 = -math.log((0.5 + eps) / (0.5 - eps)) / (6.0 * eps ** 2) if finite else -math.inf
    return BipodalSolution(epsilon=eps, s_value=-rate_value(0.5 + eps),
                           beta1=-0.75 * beta2, beta2=beta2, beta_finite=finite)


def closed_form_upper(e, m) -> Graphon:
    """Upper-boundary optimizer for e in [0, 1]: 1 on [0, sqrt(e))^2, 0
    elsewhere, the bipodal graphon with split sqrt(e) (grid-rounded)."""
    check_unit("e", e)
    return bipodal_graphon(math.sqrt(e), 1.0, 0.0, 0.0, m)


# ---------------------------------------------------------------------------
# Convexity of the e = 1/2 entropy slice


def _check_slice_t(t):
    """t as a float array, after raising ValueOutOfRange unless every entry
    lies in (0, 1/8) (NaN fails): the open interval where s''(1/2, t) exists."""
    a = np.asarray(t, dtype=float)
    ok = (a > 0.0) & (a < 0.125)
    if not ok.all():
        raise ValueOutOfRange(f"s''(1/2, t) takes t in (0, 1/8), got {a[~ok][0]}")
    return a


def slice_second_derivative(t):
    """Exact s''(1/2, t) for the closed-form slice s = -I0(1/2 + eps(t)), t in
    (0, 1/8), a number or an array."""
    t = _check_slice_t(t)
    eps = (0.125 - t) ** (1.0 / 3.0)
    u = 0.5 + eps
    return -(eps * rate_second_derivative(u) - 2.0 * rate_derivative(u)) / (9.0 * eps ** 5)


def slice_second_derivative_fd(t):
    """Fourth-order central-difference s''(1/2, t) of closed_form_half's s
    values, with step h = min(1e-4, 0.4 t, 0.4 (1/8 - t)), for one t in
    (0, 1/8); validation path."""
    check_real("t", t)
    _check_slice_t(t)
    h = min(1e-4, 0.4 * t, 0.4 * (0.125 - t))
    s = [closed_form_half(t + k * h).s_value for k in (-2, -1, 0, 1, 2)]
    return (-s[0] + 16 * s[1] - 30 * s[2] + 16 * s[3] - s[4]) / (12 * h ** 2)


def convexity_report(samples=400) -> ConvexityReport:
    """Locate the concave-to-convex change of s(1/2, t) on (0, 1/8)."""
    check_integer("samples", samples, 100, MAX_POINTS)
    ts = np.linspace(1e-4, 0.125 - 1e-6, samples)
    d2 = slice_second_derivative(ts)
    signs = np.sign(d2)
    changes = np.flatnonzero(signs[:-1] != signs[1:])
    if d2[0] >= 0 or d2[-1] <= 0 or len(changes) != 1:
        raise SignPatternUnexpected(
            f"expected a single concave-to-convex change, got {len(changes)} crossings"
        )
    i = int(changes[0])
    lo, hi = bisect(lambda t: slice_second_derivative(t) < 0.0, ts[i], ts[i + 1], 1e-14)
    root = float(0.5 * (lo + hi))
    return ConvexityReport(
        c1=root,
        c2=root,
        second_derivative_samples=list(zip(ts.tolist(), d2.tolist())),
    )


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals and multiplier estimation


def el_residual(g: Graphon, beta1, beta2, motif: Motif = Motif.triangle()) -> float:
    """Sup over the blocks of the field -I0'(g) + beta1 + beta2 * h; h is the
    first-variation field of the motif's density, 3 * int g g for the triangle."""
    h = motif_gradient(g, motif)
    return float(np.max(np.abs(-rate_derivative(g.values) + beta1 + beta2 * h)))


def estimate_multipliers(g: Graphon) -> dict:
    """Least-squares (beta1, beta2) minimizing the triangle model's
    Euler-Lagrange residual over the interior blocks (boundary blocks carry
    box multipliers), by the solver's closed-form fit; the residual norm is
    `el_residual`'s, over every block.  DegenerateFit where that fit is None."""
    coef = _ls_multipliers(g.values, motif_gradient(g, Motif.triangle()),
                           rate_derivative(g.values))
    if coef is None:
        raise DegenerateFit("too few interior blocks or a constant h field; beta2 unidentifiable")
    beta1, beta2 = float(coef[0]), float(coef[1])
    return {"beta1": beta1, "beta2": beta2, "residual_norm": el_residual(g, beta1, beta2)}


def _ls_multipliers(a, d, i0_prime):
    """Least-squares (lam1, lam2) solving I0'(a) = lam1 + lam2 * d over the
    interior blocks, given i0_prime = I0'(a), in closed form from centred
    sums; None when there are fewer than 3 interior blocks, d is constant on
    them, or a coefficient is not finite."""
    interior = (a > 1e-6) & (a < 1.0 - 1e-6)
    hv = d[interior]
    n = hv.size
    if n < 3:
        return None
    # np.std and np.mean written out, with numpy's order of operations
    hbar = float(hv.sum()) / n
    dev = hv - hbar
    sxx = float((dev * dev).sum())
    if math.sqrt(sxx / n) < 1e-8 * max(1.0, float(np.abs(hv).sum()) / n):
        return None
    y = i0_prime[interior]
    ybar = float(y.sum()) / n
    if not math.isfinite(ybar):  # y - ybar would be inf - inf
        return None
    slope = float(dev @ (y - ybar)) / sxx
    return np.array([ybar - slope * hbar, slope]) if math.isfinite(slope) else None


# ---------------------------------------------------------------------------
# Augmented-Lagrangian solve


@dataclass
class _RunRecord:
    lam: np.ndarray
    viol: float
    converged: bool
    best_s: float  # best -I over feasible iterates (-inf if none)
    best_a: np.ndarray | None


def _solve_constrained(a0, target: DensityPair, dens):
    """One augmented-Lagrangian run from a0; dens is the motif's
    `density_gradient` at the resolution of a0."""
    te, tt = target.e, target.t
    rho = PENALTY_INITIAL
    a = project(np.array(a0, dtype=float))
    # One objective serves every round and keeps the run's best feasible
    # iterate.  It values and differentiates the start once; each round
    # reprices it, and the inner solve starts from the (f, G) that returns.
    objective = AugmentedLagrangian(dens, te, tt, np.zeros(2), rho, CONSTRAINT_TOL)
    objective.value(a)
    objective.gradient()
    # seed the multipliers from the Euler-Lagrange fit at the start; for an
    # ansatz that is already the optimizer this makes it a fixed point of the
    # first inner solve instead of a point the penalty term drags away from
    fit = _ls_multipliers(a, objective.d, objective.i0_prime)
    lam = fit if fit is not None else np.zeros(2)

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
        # spg_box keeps a constant iterate constant (its D is constant, so
        # the fit is None), and the t of a constant graphon c grows with c.
        # So a run at one with no feasible iterate yet stops when no c within
        # CONSTRAINT_TOL of te has t within it of tt, up to a few ulps of
        # the rounding of e and t.
        if fit is None and objective.best_a is None and a.min() == a.max():
            slack = CONSTRAINT_TOL + 16 * 2.0 ** -52
            t_lo, t_hi = (dens(project(np.full(a.shape, te + dc)))[0] for dc in (-slack, slack))
            if not t_lo - slack <= tt <= t_hi + slack:
                viol = max(abs(objective.e - te), abs(objective.t - tt))
                break
        inner_tol = max(0.3 * KKT_TOL, min(1e-2, 0.5 ** outer))
        start = objective.reprice(lam, rho)
        a_next, _, _, pg = spg_box(a, objective, inner_tol, MAX_INNER_ITERATIONS, start)
        moved, a = a_next is not a, a_next
        # a is the last iterate the objective valued, and its I0' and D are built
        c = np.array([objective.e - te, objective.t - tt])
        viol = float(np.max(np.abs(c)))
        if viol <= CONSTRAINT_TOL and pg <= KKT_TOL:
            break
        if moved:  # else the fit at a is the one already made
            fit = _ls_multipliers(a, objective.d, objective.i0_prime)
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
        best_s=objective.best_s,
        best_a=objective.best_a,
    )


# ---------------------------------------------------------------------------
# Start generation


def _random_bipodal(rng, m):
    c = rng.uniform(0.15, 0.85)
    p = rng.uniform(0.05, 0.95, size=3)
    return bipodal_graphon(c, p[0], p[1], p[2], m).values


def _starts(target: DensityPair, motif: Motif, cfg: OptimConfig):
    """Yield the named starts in turn: the warm start, the four ansatz starts
    (constant, checkerboard, upper_corner, bipodal_random), then the random
    restarts, each as built; `_solve_constrained` copies and projects it.  A
    start is drawn only when the solve asks for it, so a solve that stops at
    a proven bound before the random starts draws none."""
    m = cfg.m
    e, t = target.e, target.t
    k = motif.k
    rng = Generator(cfg.seed)
    if cfg.warm_start is not None:
        yield "warm", resample(cfg.warm_start, m).values
    yield "constant", np.full((m, m), float(e))
    # rank-one bipodal perturbation of g_e; exact optimizer family at e=1/2
    x = min(abs(e ** k - t) ** (1.0 / 3.0), e - 0.01, 1.0 - e - 0.01)
    if x > 0:
        sx = -x if t <= e ** k else x
        yield "checkerboard", bipodal_graphon((m // 2) / m, e + sx, e - sx, e + sx, m).values
    corner = closed_form_upper(e, m).values
    denom = e ** 1.5 - e ** k
    theta = (t - e ** k) / denom if abs(denom) > 1e-12 else 0.0
    theta = min(max(theta, 0.05), 1.0)
    yield "upper_corner", theta * corner + (1 - theta) * e
    yield "bipodal_random", _random_bipodal(rng, m)
    for i in range(cfg.multistart_count):
        if i % 2 == 0:
            yield f"random{i}", _random_bipodal(rng, m)
        else:
            r = rng.uniform(0.05, 0.95, size=(m, m))
            yield f"random{i}", 0.5 * (r + r.T)


# ---------------------------------------------------------------------------
# Public solver


def maximize_entropy(target: DensityPair, motif: Motif = Motif.triangle(),
                     config: OptimConfig = OptimConfig()) -> EntropyResult:
    """Maximize -I(g) subject to e(g) = target.e and t(H, g) = target.t.

    Runs the warm start, the ansatz starts and the random restarts, and
    returns the best feasible iterate.  A solve stops at a proven bound: it
    runs no start after the first converged one whose value reaches, less
    1e-9, the ceiling -I0(e), which the constant graphon attains and no
    graphon of edge density e beats whatever t, or for the triangle at
    e = 1/2 with 0 <= t <= 1/8 the closed form, proved in `closed_form_half`.
    Raises Infeasible when no start reaches an iterate within CONSTRAINT_TOL
    of the target.
    """
    region_note = region_precheck(target, motif)
    if motif.is_triangle and target.e == 0.5 and 0.0 <= target.t <= 0.125:
        bound = closed_form_half(target.t).s_value
    else:
        bound = -rate_value(target.e)
    dens = density_gradient(motif, config.m)
    multistart_values = []
    best = None  # (s, record)
    min_viol = math.inf
    for _, a0 in _starts(target, motif, config):
        rec = _solve_constrained(a0, target, dens)
        min_viol = min(min_viol, rec.viol)
        multistart_values.append(rec.best_s)
        if rec.best_a is not None and (best is None or rec.best_s > best[0] + 1e-15):
            best = (rec.best_s, rec)
        if rec.converged and rec.best_s >= bound - 1e-9:
            break
    if best is None:
        raise Infeasible(
            f"no start reached constraint tolerance (best violation {min_viol:.3g})"
            + region_note
        )
    _, rec = best
    g = Graphon(values=rec.best_a)
    beta1, beta2 = float(rec.lam[0]), float(rec.lam[1])
    return EntropyResult(
        g_star=g,
        s_value=float(best[0]),
        target=target,
        achieved=DensityPair(e=float(np.mean(g.values)), t=dens(g.values)[0]),
        beta1=beta1,
        beta2=beta2,
        el_residual_norm=el_residual(g, beta1, beta2, motif),
        converged=rec.converged,
        multistart_values=multistart_values,
    )
