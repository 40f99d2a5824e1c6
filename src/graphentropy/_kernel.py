"""Motif densities, their gradients and the solvers' one objective on step graphons.

Each motif's density and first-variation field is computed here once: a
matmul for the triangle, row degrees for the k-stars and an einsum
contraction for any other motif.  `density_gradient` is the one place that
chooses among them; it returns a motif's density at once and its field on
demand, from the intermediate both share (A^2 or the degrees).
`graphon.motif_density` and `motif_gradient` call it as the solvers do, so
every caller gets the same bits.  `AugmentedLagrangian`, the subproblem of
the entropy solver, is built on it; at target (0, 0) with no penalty and
lam = (beta1, beta2) it is the negated ERGM free energy, so both solvers
minimize the one objective, with `spg_box`, the projected-gradient loop.
The objective comes in two parts: a value part that computes f with the
densities and keeps the intermediates, and a gradient part that builds
G = I0'(A) - lam_eff (1, D) from them.  `spg_box` values every line-search
trial but builds G only at the steps it accepts, so the trials it rejects
cost no gradient.  The objective also keeps I(A) and I0'(A) of the last A
it valued and differentiated, so the entropy solver's outer loop reprices it
to each round's multipliers and penalty and starts the round's `spg_box`
from that (f, G), the same formulas on the same parts and so the same bits,
instead of valuing and differentiating again the iterate the last round
returned.  `spg_box`'s steps are scaled by the entropy's inverse curvature
within about 1/CURVATURE_SCALE of a face of the box, where the optimizers of
the upper boundary sit; every other step is the plain spectral step, bit for
bit.  Matrices follow the gradient convention of `graphon`.
The one scalar search the rest of the package needs, `bisect`, lives here
too.

At the sizes the solvers use (m = 8..32) one numpy call costs more than the
arithmetic behind it, so each valued A is touched once:

- value(A) computes 1 - A, ln A, ln(1 - A) and the motif intermediate (A^2
  or the degrees) once, sums I(A) = (1/2) mean(A ln A + (1 - A) ln(1 - A))
  as two BLAS dots, and prices f from I, e and t in Python floats;
- gradient() builds I0'(A) = (1/2)(ln A - ln(1 - A)) from the two logs that
  value kept, with no second log and no projection: SPG iterates lie in the
  box [CLAMP, 1-CLAMP] up to rounding far below CLAMP, so a clamp would
  move no entry and 1 - A stays positive;
- the triangle's t = <A^2, A>/m^3 is one dot and its field (3/m) A^2 one
  multiply;
- `spg_box` takes each inner product as one dot.

`tests/test_graphon.py` keeps a pairwise formulation of these formulas as
a closeness oracle.  It sums in another order: a dot sums in the order of
the BLAS kernel numpy links, not pairwise, ln(1 - A) rounds 1 - A first
where the oracle takes log1p, and f is priced in Python floats rather than
with numpy 2-vector dots.  So values and gradients agree with the oracle's
to a few ulps of their largest term, not bit for bit.  A dot sums in the
same order on every call on one machine, so a solve is deterministic there.
"""

from __future__ import annotations

import math

from ._numpy import np

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
    # a Motif is connected, so only an endpoint of the removed edge can lie on
    # no other edge
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


def density_gradient(motif, m, density=True):
    """Return dens(A) -> (t, field) for m x m matrices, dispatched on the motif
    once: t(H, A) at once, and field() -> D, its first-variation field, built
    on demand from the intermediate both share (A^2 or the degrees).  With
    density=False, t is None and is not computed, for a caller that wants the
    field alone.  The only reader of `Motif.is_triangle` and `Motif.is_star`
    in this module."""
    if motif.is_triangle:

        def dens(a):
            a2 = a @ a
            t = float(np.vdot(a2, a)) / m ** 3 if density else None
            return t, lambda: (3.0 / m) * a2

        return dens
    if motif.is_star:
        k = motif.k

        def dens(a):
            r = np.add.reduce(a, 1) / m
            t = float(np.add.reduce(r ** k, None)) / m if density else None

            def field():
                rp = r ** (k - 1)
                return 0.5 * k * (rp[:, None] + rp[None, :])

            return t, field

        return dens

    def dens(a):
        t = einsum_density(a, m, motif) if density else None
        return t, lambda: einsum_gradient(a, m, motif)

    return dens


# ---------------------------------------------------------------------------
# The box


def project(a):
    """Clamp onto the box [CLAMP, 1-CLAMP]."""
    return np.minimum(np.maximum(a, CLAMP), _HI)


# ---------------------------------------------------------------------------
# Objectives


class AugmentedLagrangian:
    """Augmented-Lagrangian subproblem of max -I subject to e = target_e, t = target_t.

    An objective for `spg_box` in the two parts it calls: value(A) -> f,
    with f = I(A) - lam . c + (rho/2) |c|^2 and
    c = (e(A) - target_e, t(A) - target_t), keeps what the gradient shares
    with f, and gradient() -> G = I0'(A) - lam_eff[0] - lam_eff[1] D, with
    lam_eff = lam - rho c and D the motif field, builds G at the last A
    valued.  At target (0, 0), rho = 0 and lam = (beta1, beta2), f is
    I(A) - beta1 e(A) - beta2 t(A), the negated ERGM free-energy functional,
    and G = I0'(A) - beta1 - beta2 D, which `ergm.psi_full` minimizes.
    Every valued A whose violation max|c| is within tol and whose -I beats
    best_s is kept in best_s and best_a (-inf and None until one is), line
    search trials included.  reprice(lam, rho) sets new multipliers and
    penalty and returns (f, G) at the last A valued and differentiated
    without valuing it again: the same formulas on the I(A), c, I0'(A) and
    D it holds, so the same bits as a fresh objective's value(A) and
    gradient().  After a solve, a is the last A valued and e and t its
    densities, and i0_prime its I0'(A) and d its motif field, which
    gradient() built.
    """

    def __init__(self, dens, target_e, target_t, lam, rho, tol):
        self._dens = dens
        self._target = (target_e, target_t)
        self._tol = tol
        self._set_prices(lam, rho)
        self.best_s, self.best_a = -math.inf, None

    def _set_prices(self, lam, rho):
        self._lam, self._rho = (float(lam[0]), float(lam[1])), rho

    def value(self, a):
        # I(A) for A inside the open unit box, where I0 needs no boundary
        # case; keeps ln A, ln(1 - A) and the motif field for gradient()
        b = 1.0 - a
        self._log_a, self._log_b = log_a, log_b = np.log(a), np.log(b)
        n = a.size
        self.a = a
        self.e = float(np.add.reduce(a, None)) / n
        self.t, self._field = self._dens(a)
        self._i = i_val = 0.5 * (float(np.vdot(a, log_a)) + float(np.vdot(b, log_b))) / n
        c0, c1 = self._c = (self.e - self._target[0], self.t - self._target[1])
        if max(abs(c0), abs(c1)) <= self._tol and -i_val > self.best_s:
            self.best_s, self.best_a = -i_val, a.copy()
        return self._price()

    def gradient(self):
        self.i0_prime = 0.5 * (self._log_a - self._log_b)
        self.d = self._field()
        return self._combine()

    def reprice(self, lam, rho):
        """Set new multipliers and penalty and return (f, G) at the last A
        valued and differentiated, from the I(A), c, I0'(A) and D it holds."""
        self._set_prices(lam, rho)
        return self._price(), self._combine()

    def _price(self):
        (c0, c1), (l0, l1) = self._c, self._lam
        return self._i - (l0 * c0 + l1 * c1) + 0.5 * self._rho * (c0 * c0 + c1 * c1)

    def _combine(self):
        (c0, c1), (l0, l1), rho = self._c, self._lam, self._rho
        return self.i0_prime - (l0 - rho * c0) - (l1 - rho * c1) * self.d


# ---------------------------------------------------------------------------
# Spectral projected gradient


def projected_gradient_norm(a, g):
    """Sup norm of the projected-gradient step A - P(A - G)."""
    return float(np.maximum.reduce(np.abs(a - project(a - g)), None))


def _dot(x, y):
    return float(np.vdot(x, y)) / x.size


def _step_scale(a):
    """w = min(1, C a(1-a)) entrywise, C = CURVATURE_SCALE: the inverse of the
    entropy's curvature I0''(a) = 1/(2a(1-a)) up to the factor C/2, capped at 1."""
    return np.minimum(CURVATURE_SCALE * (a * (1.0 - a)), 1.0)


def _entry_steps(w, step):
    """Per-entry step lengths: step where w = 1, and min(step, 2/C) w where
    w < 1, which never exceeds 2a(1-a) = 1/I0''(a), the Newton step of the
    entropy alone.  At step <= 2/C that is step w in every entry, bit for
    bit, since w = 1 exactly where it is not below 1."""
    cap = 2.0 / CURVATURE_SCALE
    if step <= cap:
        return step * w
    return np.where(w < 1.0, cap * w, step)


def spg_box(a, objective, tol, max_iter, start=None):
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

    The objective comes in two parts, as `AugmentedLagrangian` defines
    them: objective.value(A) -> f, and
    objective.gradient() -> G, the mean-convention gradient at the last A
    valued.  Every line-search trial is valued, but G is built only at each
    accepted step, which is always the last trial valued, so a trial the
    Armijo test rejects costs no gradient.  start is (f, G) at a when the
    caller holds them, as the augmented-Lagrangian rounds do after the first
    (`AugmentedLagrangian.reprice`): G is then built at the start of a run of
    rounds, not of every round.  With start None the loop values and
    differentiates a itself.
    Returns the final iterate, value, gradient and the projected-gradient sup
    norm at that iterate, which is also the last A the objective valued; the
    iterate is the array a itself when no step was accepted.
    """
    f, g = (objective.value(a), objective.gradient()) if start is None else start
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
        an = a + d
        while True:
            fn = objective.value(an)
            if fn <= fref + 1e-4 * alpha * gd or alpha < 1e-12:
                break
            alpha *= 0.5
            an = a + alpha * d
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
# Scalar search


def bisect(below, lo, hi, tol):
    """Halve [lo, hi] until hi - lo <= tol, or until no float lies between the
    ends, keeping below(lo) true and below(hi) false; returns the final
    (lo, hi).  The caller checks the ends."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
