"""The checkable facts the paper's argument rests on, one function each.

`graphentropy verify` runs every check here with small sample counts, and the
acceptance suite calls the same functions with its larger ones.  A check takes
only what those callers set differently (an rng, a sample count, a solver
config) and returns (ok, detail): whether the invariant held, and the worst
figure it measured.
"""

from . import census, optimize, region, spectral
from ._numpy import np
from .graphon import DensityPair, Graphon, Motif, motif_density, motif_gradient, rate_value
from .optimize import closed_form_half, el_residual, estimate_multipliers, maximize_entropy


def trace_inequality(rng, samples):
    """|Tr T^3| <= (Tr T^2)^(3/2) on `samples` random symmetric kernels, and equality
    (gap below 1e-10) on 20 random rank-one kernels; both sizes cycle through 2..16."""
    reports = []
    for i in range(samples):
        m = 2 + i % 15
        r = rng.uniform(-1, 1, size=(m, m))
        reports.append(spectral.verify_trace_inequality(0.5 * (r + r.T)))
    gaps = []
    for i in range(20):
        v = rng.uniform(-1, 1, size=2 + i % 15)
        rep = spectral.verify_trace_inequality(np.outer(v, v))
        gaps.append(rep["gap"] if rep["rank_one"] else np.inf)
    ok = all(rep["holds"] for rep in reports) and all(g < 1e-10 for g in gaps)
    excess = max(rep["lhs"] - rep["rhs"] for rep in reports)
    return ok, f"max lhs - rhs {excess:.1e}, max rank-one gap {max(gaps):.1e}"


def gradient_checks(rng, samples):
    """motif_gradient against central differences of the density, for the triangle
    and the 4-star, at `samples` random graphons each.  The sizes cycle through
    3..8 and the probed entry steps through the matrix, diagonal and off it."""
    h = 1e-6
    errors = []
    for motif in (Motif.triangle(), Motif.star(4)):
        for k in range(samples):
            m = 3 + k % 6
            r = rng.uniform(0.1, 0.9, size=(m, m))
            a = 0.5 * (r + r.T)
            d = motif_gradient(Graphon(values=a), motif)
            i, j = k % m, k // 2 % m
            ap, am = a.copy(), a.copy()
            ap[i, j] += h
            am[i, j] -= h
            if i != j:  # an off-diagonal step moves both symmetric entries
                ap[j, i] += h
                am[j, i] -= h
            fd = (motif_density(Graphon(values=ap), motif)
                  - motif_density(Graphon(values=am), motif)) / (2 * h)
            exact = (1.0 if i == j else 2.0) * d[i, j] / m ** 2
            errors.append(abs(fd - exact) / max(1.0, abs(exact)))
    return all(x <= 1e-6 for x in errors), f"max relative error {max(errors):.1e}"


def closed_form_agreement():
    """The e = 1/2 closed form at t = 1/8 - eps^3 solves the Euler-Lagrange
    equation on 16 blocks, and the multiplier fit recovers its betas."""
    residuals, misfits = [], []
    for eps in (0.05, 0.1, 0.2, 0.4):
        sol = closed_form_half(0.125 - eps ** 3)
        g = sol.graphon(16)
        residuals.append(el_residual(g, sol.beta1, sol.beta2))
        fit = estimate_multipliers(g)
        misfits += [abs(fit["beta1"] - sol.beta1), abs(fit["beta2"] - sol.beta2)]
    ok = all(x <= 1e-10 for x in residuals) and all(x <= 1e-6 for x in misfits)
    return ok, f"max EL residual {max(residuals):.1e}, max multiplier error {max(misfits):.1e}"


def region_geometry():
    """On the triangle's bounds from `region.motif_bounds`, g3 <= e^3 <=
    e^(3/2) at e = 0.2, 0.5, 0.8 and g3(1/2) = 0; (0.7, 0.2) lies below g3."""
    lower, upper, _ = region.motif_bounds(Motif.triangle())
    ok = region.classify(0.7, 0.2) is region.RegionClass.BELOW_LOWER
    for e in (0.2, 0.5, 0.8):
        ok &= lower(e) <= region.er_curve(e) <= upper(e)
    return ok and lower(0.5) == 0.0, f"g3(1/2) = {lower(0.5)!r}"


def census_hand_enumeration(threads):
    """The n = 3 census by hand, counted on `threads` workers: one empty
    graph, three with one edge, three with two, one triangle."""
    counts = census.enumerate_census(3, threads).counts
    return counts == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 1): 1}, f"counts {counts}"


def convexity_derivative_paths(samples):
    """s(1/2, t) turns from concave to convex once, at c1 = c2 in (0, 1/8), on a
    `samples`-point grid, and the exact s'' matches a finite difference to 1e-6."""
    rep = optimize.convexity_report(samples)
    d2 = rep.second_derivative_samples
    ok = 0.0 < rep.c1 <= rep.c2 < 0.125 and d2[0][1] < 0.0 < d2[-1][1]
    errors = []
    for t in (0.02, 0.05, 0.08, 0.09, 0.11, 0.12):
        exact = float(optimize.slice_second_derivative(t))
        errors.append(abs(optimize.slice_second_derivative_fd(t) - exact) / max(1.0, abs(exact)))
    ok = ok and all(x <= 1e-6 for x in errors)
    return ok, f"c1=c2={rep.c1:.5f}, max relative FD error {max(errors):.1e}"


def er_curve_ceiling(config):
    """On the ER curve t = e^3 the solver reaches s = -I0(e) to 1e-6, at
    e = 0.3, 0.5, 0.7."""
    errors = []
    for e in (0.3, 0.5, 0.7):
        res = maximize_entropy(DensityPair(e=e, t=e ** 3), Motif.triangle(), config)
        errors.append(abs(res.s_value + float(rate_value(e))))
    return all(x <= 1e-6 for x in errors), f"max |s + I0(e)| {max(errors):.1e}"
