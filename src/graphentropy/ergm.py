"""Exponential-family free energy over graphons and its transition structure.

The free energy psi(b1, b2) is the maximum of -I(g) + b1 e(g) + b2 t(g) over
step graphons.  On the regime treated here the maximizers are constant, so the
scalar family phi(u) = -I0(u) + b1 u + b2 u^3 carries the transition curve.
The full graphon maximization runs SPG from the warm start, from the
constant graphons at phi's maximizers and from random restarts; the warm and
random runs leave the constant family and are the cross-check that does not
rest on phi, for psi and for the t <= e^3 bound verification.
"""

from __future__ import annotations

import functools
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
from .errors import MAX_POINTS, NoTransitionFound, ValueOutOfRange, check_integer, check_real
from .graphon import Graphon, rate_value, resample
from .problem import KKT_TOL, MAX_INNER_ITERATIONS, DensityPair, Motif, OptimConfig

# _scalar_maximizers refines the local maxima of phi found on a grid of this
# many points; find_transition bisects beta1 down to TRANSITION_TOL
SCALAR_GRID_POINTS = 10_000
TRANSITION_TOL = 1e-13


@dataclass(frozen=True)
class ErgmParams:
    beta1: float
    beta2: float

    def __post_init__(self):
        check_real("beta1", self.beta1)
        check_real("beta2", self.beta2)
        if not (math.isfinite(self.beta1) and math.isfinite(self.beta2)):
            raise ValueOutOfRange("parameters must be finite")


@dataclass
class FreeEnergyResult:
    psi: float
    maximizer: Graphon
    maximizer_densities: DensityPair
    degenerate: bool
    converged: bool  # the maximizer's projected gradient is within KKT_TOL


# ---------------------------------------------------------------------------
# Constant-graphon reduction


def _phi(u, beta1, beta2):
    return -rate_value(u) + beta1 * u + beta2 * u ** 3


def _dphi(u, beta1, beta2):
    """phi'(u) in scalar math: numpy scalars would cost more than the search."""
    return -0.5 * math.log(u / (1.0 - u)) + beta1 + 3.0 * beta2 * u * u


@functools.cache
def _grid():
    """The grid of _scalar_maximizers and the parts of phi on it that do not
    depend on beta, (u, -I0(u), u^3), so that phi there is _phi's operations
    in _phi's order; built on first use, not at import."""
    us = np.linspace(CLAMP, 1.0 - CLAMP, SCALAR_GRID_POINTS)
    return us, -rate_value(us), us ** 3


def _scalar_maximizers(beta1, beta2, tie_tol=1e-8):
    """All local maximizers of phi on [0,1] within tie_tol of the global max:
    each local maximum on the grid, refined by bisecting the sign of phi' over
    its two cells to a width of 1e-14 (one at a grid end goes to that end)."""
    us, neg_i0, us3 = _grid()
    ph = neg_i0 + beta1 * us + beta2 * us3
    # local maxima on the grid, endpoints included
    padded = np.concatenate(([-np.inf], ph, [-np.inf]))
    inner = (ph >= padded[:-2]) & (ph >= padded[2:])
    cands = []
    for i in np.flatnonzero(inner):
        lo, hi = bisect(lambda u: _dphi(u, beta1, beta2) > 0.0, float(us[max(i - 1, 0)]),
                        float(us[min(i + 1, SCALAR_GRID_POINTS - 1)]), 1e-14)
        u = 0.5 * (lo + hi)
        cands.append((u, float(_phi(u, beta1, beta2))))
    best = max(v for _, v in cands)
    tied = sorted(u for u, v in cands if v >= best - tie_tol)
    # dedupe near-identical roots from adjacent grid cells
    u_star = []
    for u in tied:
        if not u_star or u - u_star[-1] > 1e-7:
            u_star.append(u)
    return best, u_star


def psi_constant(params: ErgmParams) -> dict:
    """Free energy restricted to constant graphons; lists all tied maximizers."""
    psi_er, u_star = _scalar_maximizers(params.beta1, params.beta2)
    return {"psi_er": psi_er, "u_star": u_star}


# ---------------------------------------------------------------------------
# Full graphon maximization


def psi_full(params: ErgmParams, config: OptimConfig = OptimConfig()) -> FreeEnergyResult:
    """Box maximization of -I + b1 e + b2 t (t the triangle density) over
    m x m step graphons.

    The candidates are the SPG runs from the warm start, from the constant
    graphon at each `psi_constant` maximizer u_star and from the random
    restarts.  A run from u_star returns its start: the gradient there is
    -phi'(u_star) in every entry, and u_star is a zero of phi' to rounding
    or so near a face that the face bounds the step.  The warm and random
    starts leave the constant family and cross-check it.

    Returns the best candidate; its `converged` is true when its projected
    gradient is within KKT_TOL.
    """
    b1, b2 = params.beta1, params.beta2
    m = config.m
    # At target (0, 0), no penalty and multipliers (b1, b2) the Lagrangian's
    # f is I - (b1 e + b2 t), the negated free-energy functional; no iterate
    # meets the tolerance -1, since the free energy has no constraint.
    objective = AugmentedLagrangian(density_gradient(Motif.triangle(), m),
                                    0.0, 0.0, (b1, b2), 0.0, -1.0)

    rng = Generator(config.seed)
    starts = []
    if config.warm_start is not None:
        starts.append(resample(config.warm_start, m).values)
    starts += [np.full((m, m), u) for u in psi_constant(params)["u_star"]]
    for _ in range(max(config.multistart_count // 2, 2)):
        r = rng.uniform(0.05, 0.95, size=(m, m))
        starts.append(0.5 * (r + r.T))

    runs = []
    for a0 in starts:
        a, f, _, pg = spg_box(project(a0), objective, 0.3 * KKT_TOL, MAX_INNER_ITERATIONS)
        # a is the last array the objective valued
        runs.append((-f, objective.e, objective.t, pg, a))
    runs.sort(key=lambda r: -r[0])
    psi, e_val, t_val, pg, a = runs[0]
    # degenerate: another run ties psi at other densities
    degenerate = any(psi - psi2 <= 1e-7 and max(abs(e2 - e_val), abs(t2 - t_val)) > 1e-3
                     for psi2, e2, t2, _, _ in runs[1:])
    return FreeEnergyResult(
        psi=psi,
        maximizer=Graphon(values=a),
        maximizer_densities=DensityPair(e=e_val, t=t_val),
        degenerate=degenerate,
        converged=pg <= KKT_TOL,
    )


def parameter_grid(b1lo, b1hi, n1, b2lo, b2hi, n2):
    """The n1 x n2 parameters at uniform beta1 in [b1lo, b1hi] and beta2 in
    [b2lo, b2hi], beta1 the outer loop, made one at a time as they are read;
    the counts are checked at the call, their product against MAX_POINTS."""
    check_integer("grid count n1", n1, 1)
    check_integer("grid count n2", n2, 1)
    check_integer("grid point count n1*n2", n1 * n2, 1, MAX_POINTS)
    return (ErgmParams(float(b1), float(b2))
            for b1 in np.linspace(b1lo, b1hi, n1) for b2 in np.linspace(b2lo, b2hi, n2))


# the grid on which `ergm --verify-thm5` and the acceptance suite check t <= e^3:
# 7 x 7 points of [-3, 3]^2
THEOREM5_GRID = tuple(parameter_grid(-3, 3, 7, -3, 3, 7))


def verify_t_le_e_cubed(grid, config: OptimConfig = OptimConfig()) -> dict:
    """Check t(maximizer) <= e(maximizer)^3 + 1e-6 across a parameter grid."""
    rows = []
    violations = []
    for params in grid:
        res = psi_full(params, config)
        e_val, t_val = res.maximizer_densities.e, res.maximizer_densities.t
        excess = t_val - e_val ** 3
        rows.append((params.beta1, params.beta2, e_val, t_val, excess))
        if excess > 1e-6:
            violations.append(rows[-1])
    return {
        "points": rows,
        "violations": violations,
        "max_excess": max(r[4] for r in rows) if rows else -math.inf,
    }


# ---------------------------------------------------------------------------
# Transition curve


def find_transition(beta2) -> tuple:
    """Bisect on beta1 for the jump of the scalar-family maximizer at fixed beta2.

    Returns (beta1_critical, u_low, u_high).  The jump exists only above the
    critical coupling 9/16: phi'' = -I0'' + 6 beta2 u is positive only where
    12 beta2 u^2 (1-u) > 1, and u^2 (1-u) <= 4/27 with equality at u = 2/3.
    Raises NoTransitionFound for every beta2 <= 9/16, where the maximizer
    varies continuously, and where the jump is within the 1e-3 threshold,
    which is only for beta2 within about 3e-7 above 9/16 (the jump grows like
    1.78 sqrt(beta2 - 9/16)).

    The bisection splits at u = 2/3, which lies inside every jump: phi' falls,
    rises on the interval where phi'' > 0 (which always contains 2/3), then
    falls, and the two tied maxima sit on the falling parts, so
    u_low < 2/3 < u_high.  The beta1 bracket [min(-20, -3 beta2), 20] holds
    that split for every beta2 > -1/2: at its lower end phi' <= -ln(2)/2 on
    [2/3, 1), and at its upper end phi' > 18 on (0, 2/3].
    """
    check_real("beta2", beta2)
    if not (math.isfinite(beta2) and beta2 > -0.5):
        raise ValueOutOfRange(f"beta2={beta2} outside the treated regime (> -1/2)")

    def top(b1):
        # strict global argmax; ties resolved by magnitude so the bisection
        # locates the exact value crossing, not the tie-tolerance shoulder
        _, us = _scalar_maximizers(b1, beta2, tie_tol=1e-15)
        return us[-1]

    lo, hi = bisect(lambda b1: top(b1) < 2.0 / 3.0, min(-20.0, -3.0 * beta2), 20.0,
                    TRANSITION_TOL)
    b1c = 0.5 * (lo + hi)
    u_low, u_high = top(lo), top(hi)
    if u_high - u_low <= 1e-3:
        raise NoTransitionFound(f"jump at beta2={beta2} below threshold")
    gap = abs(_phi(u_low, b1c, beta2) - _phi(u_high, b1c, beta2))
    if gap > 1e-9:
        raise NoTransitionFound(f"tied-value gap {gap:.3g} too large at beta2={beta2}")
    return b1c, u_low, u_high


def transition_curve(beta2_min, beta2_max, steps) -> list:
    """Sampled first-order transition curve; rows (beta2, beta1_critical, u_low, u_high).

    beta2 values without a jump are skipped (reported by absence, not error);
    raises NoTransitionFound only when no sampled beta2 has one.
    """
    check_integer("steps", steps, 2, MAX_POINTS)
    check_real("beta2_min", beta2_min)
    check_real("beta2_max", beta2_max)
    if not (math.isfinite(beta2_min) and math.isfinite(beta2_max)):
        raise ValueOutOfRange(f"beta2 range [{beta2_min}, {beta2_max}] must be finite")
    if min(beta2_min, beta2_max) <= -0.5:
        raise ValueOutOfRange("beta2 range must stay above -1/2")
    rows = []
    for beta2 in np.linspace(beta2_min, beta2_max, steps):
        try:
            b1c, u_low, u_high = find_transition(float(beta2))
        except NoTransitionFound:
            continue
        rows.append((float(beta2), b1c, u_low, u_high))
    if not rows:
        raise NoTransitionFound(
            f"no first-order jump found for beta2 in [{beta2_min}, {beta2_max}]"
        )
    return rows
