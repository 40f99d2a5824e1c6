"""Motif densities, their gradients and the two solver objectives on step graphons.

Each motif's density and first-variation field is computed here once: a
matmul for the triangle, row degrees for the k-stars and an einsum
contraction for any other motif.  `density_gradient` returns a motif's
density at once and its field on demand, from the intermediate both share
(A^2 or the degrees); `al_objective` (the augmented-Lagrangian subproblem of
the entropy solver) and `free_energy_objective` (the ERGM free energy) are
built on it, and `spg_box` is the projected-gradient loop both minimize
with.  Each objective comes in two parts: a value part that computes f with
the densities and keeps the intermediates, and a gradient part that builds
G = I0'(A) - lam_eff (1, D) from them.  `spg_box` values every line-search
trial but builds G only at the steps it accepts, so the 53% of trials it
rejects on a `solver` benchmark pass cost no gradient.  Its steps are
scaled by the entropy's inverse curvature within about 1/CURVATURE_SCALE of
a face of the box, where the optimizers of the upper boundary sit; every
other step is the plain spectral step, bit for bit.  Matrices follow the
gradient convention of `graphon`.  The two scalar searches the rest of
the package needs, `minimize_bounded` and `bisect`, live here too.

At the sizes the solvers use (m = 8..32) one numpy call costs more than the
arithmetic behind it, so the objectives avoid calls without changing a bit
of any result:

- `float(x.sum()) / x.size` in place of `np.mean(x)`, which sums the same
  way but costs three times as much to call;
- `np.minimum(np.maximum(x, lo), hi)` in place of `np.clip`, the same
  operation at half the call cost;
- I0 without the boundary mask of `graphon.rate_value`: SPG iterates lie in
  the box [CLAMP, 1-CLAMP] up to rounding far below CLAMP, so the mask would
  select every entry;
- the factor 1/2 of I0 applied to the mean rather than to every entry: a
  power-of-two scaling is exact, so the bits are the same;
- lam_eff = lam - rho c entry by entry on floats, which round each entry
  as numpy's 2-vector operations do.

The constraint dots stay numpy 2-vector dots: scalar
`l0*c0 + l1*c1` rounds differently from `lam @ c` in the last bit for about
one random input in seven, and that changes the iteration paths.
"""

from __future__ import annotations

import math

import numpy as np

# Keeps I0' finite on the closed box; iterates live in [CLAMP, 1-CLAMP].
CLAMP = 1e-12
_HI = 1.0 - CLAMP
# spg_box scales an entry's step by min(1, CURVATURE_SCALE a(1-a)), so only
# entries within about 1/CURVATURE_SCALE of a face take shorter steps.  Of
# 25, 50, 100, 200 and 400, 100 is the largest (the one that scales the least
# of the box) with which spg_box solves the separable entropy problem of the
# tests within 200 evaluations.
CURVATURE_SCALE = 100.0

_IDX = "abcdef"


# ---------------------------------------------------------------------------
# Per-motif density and gradient


def _triangle_density(a, a2, m):
    return float((a2 * a).sum()) / m ** 3


def _triangle_gradient(a2, m):
    return 3.0 * a2 / m


def _degrees(a, m):
    return a.sum(axis=1) / m


def _star_density(r, k, m):
    return float((r ** k).sum()) / m


def _star_gradient(r, k):
    rp = r ** (k - 1)
    return 0.5 * k * (rp[:, None] + rp[None, :])


def _subscripts(edges):
    return [_IDX[i - 1] + _IDX[j - 1] for (i, j) in edges]


def einsum_density(a, m, motif) -> float:
    """t(H, A) by contraction in an optimized elimination order."""
    if not motif.edges:
        return 1.0
    spec = ",".join(_subscripts(sorted(motif.edges))) + "->"
    return float(np.einsum(spec, *([a] * motif.k), optimize=True)) / m ** motif.ell


def _pinned_field(a, m, ell, rest_edges, va, vb):
    """Block field of the density with one edge factor removed and its endpoints
    pinned to (block of x, block of y); divided by m^(ell-2)."""
    subs = _subscripts(rest_edges)
    ops = [a] * len(rest_edges)
    covered = {v for edge in rest_edges for v in edge}
    ones = np.ones(m)
    for v in range(1, ell + 1):
        if v not in covered and v not in (va, vb):
            subs.append(_IDX[v - 1])
            ops.append(ones)
    for v in (va, vb):
        if v not in covered:
            subs.append(_IDX[v - 1])
            ops.append(ones)
    out = _IDX[va - 1] + _IDX[vb - 1]
    f = np.einsum(",".join(subs) + "->" + out, *ops, optimize=True)
    return f / m ** (ell - 2)


def einsum_gradient(a, m, motif) -> np.ndarray:
    """First-variation field of t(H, A): one pinned contraction per edge."""
    d = np.zeros((m, m))
    edges = sorted(motif.edges)
    for e in edges:
        rest = [x for x in edges if x != e]
        f = _pinned_field(a, m, motif.ell, rest, e[0], e[1])
        d += 0.5 * (f + f.T)
    return d


def density(a, motif) -> float:
    m = a.shape[0]
    if motif.is_triangle:
        return _triangle_density(a, a @ a, m)
    if motif.is_star:
        return _star_density(_degrees(a, m), motif.k, m)
    return einsum_density(a, m, motif)


def gradient(a, motif) -> np.ndarray:
    m = a.shape[0]
    if motif.is_triangle:
        return _triangle_gradient(a @ a, m)
    if motif.is_star:
        return _star_gradient(_degrees(a, m), motif.k)
    return einsum_gradient(a, m, motif)


def density_gradient(motif, m):
    """Return dens(A) -> (t, field) for m x m matrices, dispatched on the motif
    once: t(H, A) at once, and field() -> D, its first-variation field, built
    on demand from the intermediate both share (A^2 or the degrees)."""
    if motif.is_triangle:

        def dens(a):
            a2 = a @ a
            return _triangle_density(a, a2, m), lambda: _triangle_gradient(a2, m)

        return dens
    if motif.is_star:
        k = motif.k

        def dens(a):
            r = _degrees(a, m)
            return _star_density(r, k, m), lambda: _star_gradient(r, k)

        return dens

    def dens(a):
        return einsum_density(a, m, motif), lambda: einsum_gradient(a, m, motif)

    return dens


# ---------------------------------------------------------------------------
# Rate function on the box


def project(a):
    """Clamp onto the box [CLAMP, 1-CLAMP]."""
    return np.minimum(np.maximum(a, CLAMP), _HI)


def rate_derivative(a):
    """I0'(a) = (1/2) ln(a / (1-a)) with a clamped onto the box."""
    a = project(a)
    return 0.5 * (np.log(a) - np.log1p(-a))


def _mean(x):
    return float(x.sum()) / x.size


def _mean_rate(a):
    """I(A) for A inside the open unit box, where I0 needs no boundary case."""
    b = 1.0 - a
    return 0.5 * _mean(a * np.log(a) + b * np.log(b))


# ---------------------------------------------------------------------------
# Objectives


class _Objective:
    """An objective in the two parts `spg_box` calls: value(A) -> f keeps what
    the gradient shares with f, and gradient() -> G builds G at the last A
    valued.  After a solve, e and t are the densities of the last A valued and
    d its motif field, which gradient() built."""

    def __init__(self, dens):
        self._dens = dens

    def _densities(self, a):
        self.a = a
        self.e = _mean(a)
        self.t, self._field = self._dens(a)

    def _motif_field(self):
        self.d = self._field()
        return self.d


class _AugmentedLagrangian(_Objective):
    def __init__(self, dens, target_e, target_t, lam, rho, tol, best):
        super().__init__(dens)
        self._target = (target_e, target_t)
        self._lam, self._rho, self._tol, self._best = lam, rho, tol, best

    def value(self, a):
        i_val = _mean_rate(a)
        self._densities(a)
        c0, c1 = self._c = (self.e - self._target[0], self.t - self._target[1])
        c = np.array([c0, c1])
        f = i_val - float(self._lam @ c) + 0.5 * self._rho * float(c @ c)
        best = self._best
        if max(abs(c0), abs(c1)) <= self._tol and -i_val > best["s"]:
            best["s"] = -i_val
            best["a"] = a.copy()
        return f

    def gradient(self):
        # lam_eff = lam - rho c entry by entry, as numpy would round it
        (c0, c1), rho = self._c, self._rho
        l0, l1 = self._lam.tolist()
        return rate_derivative(self.a) - (l0 - rho * c0) - (l1 - rho * c1) * self._motif_field()


class _FreeEnergy(_Objective):
    def __init__(self, dens, beta1, beta2):
        super().__init__(dens)
        self._beta1, self._beta2 = beta1, beta2

    def value(self, a):
        self._densities(a)
        return _mean_rate(a) - self._beta1 * self.e - self._beta2 * self.t

    def gradient(self):
        return rate_derivative(self.a) - self._beta1 - self._beta2 * self._motif_field()


def al_objective(dens, target_e, target_t, lam, rho, tol, best):
    """Augmented-Lagrangian subproblem of max -I subject to e = target_e, t = target_t.

    An objective for `spg_box` with value f = I(A) - lam . c + (rho/2) |c|^2,
    c = (e(A) - target_e, t(A) - target_t), and gradient
    G = I0'(A) - lam_eff[0] - lam_eff[1] D with lam_eff = lam - rho c and D the
    motif field.  Every valued A whose violation max|c| is within tol and
    whose -I beats best["s"] is recorded in best["s"] and best["a"], line
    search trials included.
    """
    return _AugmentedLagrangian(dens, target_e, target_t, lam, rho, tol, best)


def free_energy_objective(dens, beta1, beta2):
    """An objective for `spg_box` with value f = I(A) - beta1 e(A) - beta2 t(A),
    the negated ERGM free-energy functional, and gradient
    G = I0'(A) - beta1 - beta2 D."""
    return _FreeEnergy(dens, beta1, beta2)


# ---------------------------------------------------------------------------
# Spectral projected gradient


def projected_gradient_norm(a, g):
    """Sup norm of the projected-gradient step A - P(A - G)."""
    return float(np.abs(a - project(a - g)).max())


def _dot(x, y):
    return _mean(x * y)


def _step_scale(a):
    """w = min(1, C a(1-a)) entrywise, C = CURVATURE_SCALE: the inverse of the
    entropy's curvature I0''(a) = 1/(2a(1-a)) up to the factor C/2, capped at 1."""
    return np.minimum(CURVATURE_SCALE * (a * (1.0 - a)), 1.0)


def _entry_steps(w, step):
    """Per-entry step lengths: step where w = 1, and min(step, 2/C) w where
    w < 1, which never exceeds 2a(1-a) = 1/I0''(a), the Newton step of the
    entropy alone."""
    return np.where(w < 1.0, min(step, 2.0 / CURVATURE_SCALE) * w, step)


def spg_box(a, objective, tol, max_iter):
    """Nonmonotone spectral projected gradient on the clamped box, with steps
    scaled entrywise near its faces.

    The SPG of Birgin, Martinez and Raydan (SIAM J. Optim. 10, 1196, 2000)
    with the diagonal scaling of Bonettini, Zanella and Zanni (Inverse
    Problems 25, 015002, 2009).  Near a face I0''(a) = 1/(2a(1-a)) blows up,
    so no one step length suits both those entries and the interior ones,
    and an unscaled loop crawls there until max_iter.  So with w =
    `_step_scale` of the current iterate the direction is P(A - step w G) - A,
    and the Barzilai-Borwein step <s, s/w> / <s, y> is measured in the same
    metric.  An entry with w < 1 moves at most its entropy Newton step
    (`_entry_steps`): the objective changes there by less than its rounding,
    so the line search cannot stop an overshoot.  For the same reason the
    loop gives up only when <G, D> >= 0 at both the spectral and the unit
    step; a fixed margin below 0 would stop it where scaled steps are small.

    Where every entry of the iterate has C a(1-a) >= 1, w is exactly 1.0 and
    the step is the unscaled one bit for bit.  The stopping test (the
    unscaled projected-gradient sup norm against tol), the Armijo rule, the
    10-value nonmonotone window and the [1e-8, 1e8] step clamp do not depend
    on w.

    The objective comes in two parts, as `al_objective` and
    `free_energy_objective` build it: objective.value(A) -> f, and
    objective.gradient() -> G, the mean-convention gradient at the last A
    valued.  Every line-search trial is valued, but G is built only at the
    start and at each accepted step, which is always the last trial valued:
    on a `solver` benchmark pass 15,416 of the 28,848 values are trials the
    Armijo test rejects, so G is built 13,432 times instead of 28,848.
    Returns the final iterate, value, gradient and the projected-gradient sup
    norm at that iterate, which is also the last A the objective valued.
    """
    f = objective.value(a)
    g = objective.gradient()
    step = 1.0 / max(1.0, float(np.abs(g).max()))
    hist = [f]
    for _ in range(max_iter):
        pg = projected_gradient_norm(a, g)
        if pg <= tol:
            break
        w = _step_scale(a)
        d = project(a - _entry_steps(w, step) * g) - a
        gd = _dot(g, d)
        if gd >= 0.0:
            step = 1.0
            d = project(a - _entry_steps(w, step) * g) - a
            gd = _dot(g, d)
            if gd >= 0.0:
                break
        fref = max(hist[-10:])
        alpha = 1.0
        while True:
            an = a + alpha * d
            fn = objective.value(an)
            if fn <= fref + 1e-4 * alpha * gd or alpha < 1e-12:
                break
            alpha *= 0.5
        gn = objective.gradient()
        s = an - a
        y = gn - g
        sy = _dot(s, y)
        step = min(max(_dot(s, s / w) / sy, 1e-8), 1e8) if sy > 1e-18 else 1.0
        a, f, g = an, fn, gn
        hist.append(f)
    else:  # out of iterations: measure the norm at the iterate returned
        pg = projected_gradient_norm(a, g)
    return a, f, g, pg


# ---------------------------------------------------------------------------
# Scalar searches


def minimize_bounded(f, lo, hi, xatol):
    """Minimize f on [lo, hi] by Brent's bounded method; returns (x, f(x)).

    Brent, "Algorithms for Minimization without Derivatives" (1973), as
    `fminbound` has it in scipy (BSD licence): golden-section steps, with a
    parabolic step through the three best points whenever it falls inside
    the bracket and shrinks fast enough.  The arithmetic follows scipy's
    `_minimize_scalar_bounded` operation by operation, so the result is
    bit-identical to `scipy.optimize.minimize_scalar(method="bounded")`.
    Stops when the bracket is within about xatol of the best point, or after
    500 evaluations of f.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _sign(x):
    """sign(x) + (x == 0): the step direction of `minimize_bounded`, 1 at 0."""
    return -1.0 if x < 0 else 1.0


def bisect(below, lo, hi, tol):
    """Halve [lo, hi] until hi - lo <= tol, keeping below(lo) true and below(hi)
    false; returns the final (lo, hi).  The caller checks the ends."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
