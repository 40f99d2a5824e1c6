"""Motif densities, their gradients and the two solver objectives on step graphons.

Each motif's density and first-variation field is computed here once: a
matmul for the triangle, row degrees for the k-stars and an einsum
contraction for any other motif.  `density_gradient` fuses a motif's density
and gradient into one call that shares the intermediate (A^2 or the degrees);
`al_objective` (the augmented-Lagrangian subproblem of the entropy solver)
and `free_energy_objective` (the ERGM free energy) are built on it, and
`spg_box` is the projected-gradient loop both minimize with.  Matrices follow
the gradient convention of `graphon`.

At the sizes the solvers use (m = 8..32) one numpy call costs more than the
arithmetic behind it, so the objectives avoid calls without changing a bit
of any result:

- `float(x.sum()) / x.size` in place of `np.mean(x)`, which sums the same
  way but costs three times as much to call;
- `np.minimum(np.maximum(x, lo), hi)` in place of `np.clip`, the same
  operation at half the call cost;
- I0 without the boundary mask of `graphon.rate_value`: SPG iterates lie in
  the box [CLAMP, 1-CLAMP] up to rounding far below CLAMP, so the mask would
  select every entry.

The two-element constraint arithmetic stays numpy 2-vector dots: scalar
`l0*c0 + l1*c1` rounds differently from `lam @ c` in the last bit for about
one random input in seven, and that changes the iteration paths.
"""

from __future__ import annotations

import numpy as np

# Keeps I0' finite on the closed box; iterates live in [CLAMP, 1-CLAMP].
CLAMP = 1e-12
_HI = 1.0 - CLAMP

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
    """Return dens_grad(A) -> (t, D) for m x m matrices, dispatched on the motif once."""
    if motif.is_triangle:

        def dens_grad(a):
            a2 = a @ a
            return _triangle_density(a, a2, m), _triangle_gradient(a2, m)

        return dens_grad
    if motif.is_star:
        k = motif.k

        def dens_grad(a):
            r = _degrees(a, m)
            return _star_density(r, k, m), _star_gradient(r, k)

        return dens_grad

    def dens_grad(a):
        return einsum_density(a, m, motif), einsum_gradient(a, m, motif)

    return dens_grad


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
    return _mean(0.5 * (a * np.log(a) + b * np.log(b)))


# ---------------------------------------------------------------------------
# Objectives


def al_objective(dens_grad, target_e, target_t, lam, rho, tol, best):
    """Augmented-Lagrangian subproblem of max -I subject to e = target_e, t = target_t.

    Returns obj_grad(A) -> (f, G) with
    f = I(A) - lam . c + (rho/2) |c|^2 and c = (e(A) - target_e, t(A) - target_t).
    Every evaluated A whose violation max|c| is within tol and whose -I beats
    best["s"] is recorded in best["s"] and best["a"].
    """

    def obj_grad(a):
        i_val = _mean_rate(a)
        t_val, d = dens_grad(a)
        c = np.array([_mean(a) - target_e, t_val - target_t])
        lam_eff = lam - rho * c
        f = i_val - float(lam @ c) + 0.5 * rho * float(c @ c)
        g = rate_derivative(a) - lam_eff[0] - lam_eff[1] * d
        if max(abs(c[0]), abs(c[1])) <= tol and -i_val > best["s"]:
            best["s"] = -i_val
            best["a"] = a.copy()
        return f, g

    return obj_grad


def free_energy_objective(dens_grad, beta1, beta2):
    """Returns obj_grad(A) -> (f, G) with f = I(A) - beta1 e(A) - beta2 t(A),
    the negated ERGM free-energy functional."""

    def obj_grad(a):
        t_val, d = dens_grad(a)
        f = _mean_rate(a) - beta1 * _mean(a) - beta2 * t_val
        return f, rate_derivative(a) - beta1 - beta2 * d

    return obj_grad


# ---------------------------------------------------------------------------
# Spectral projected gradient


def projected_gradient_norm(a, g):
    """Sup norm of the projected-gradient step A - P(A - G)."""
    return float(np.abs(a - project(a - g)).max())


def _dot(x, y):
    return _mean(x * y)


def spg_box(a, obj_grad, tol, max_iter):
    """Nonmonotone spectral projected gradient on the clamped box.

    obj_grad(A) -> (f, G) with the mean-convention gradient; returns the final
    iterate, value, gradient and the projected-gradient sup norm at that
    iterate.
    """
    f, g = obj_grad(a)
    step = 1.0 / max(1.0, float(np.abs(g).max()))
    hist = [f]
    for _ in range(max_iter):
        pg = projected_gradient_norm(a, g)
        if pg <= tol:
            break
        d = project(a - step * g) - a
        gd = _dot(g, d)
        if gd >= -1e-18:
            step = 1.0
            d = project(a - step * g) - a
            gd = _dot(g, d)
            if gd >= -1e-18:
                break
        fref = max(hist[-10:])
        alpha = 1.0
        while True:
            an = a + alpha * d
            fn, gn = obj_grad(an)
            if fn <= fref + 1e-4 * alpha * gd or alpha < 1e-12:
                break
            alpha *= 0.5
        s = an - a
        y = gn - g
        sy = _dot(s, y)
        step = min(max(_dot(s, s) / sy, 1e-8), 1e8) if sy > 1e-18 else 1.0
        a, f, g = an, fn, gn
        hist.append(f)
    else:  # out of iterations: measure the norm at the iterate returned
        pg = projected_gradient_norm(a, g)
    return a, f, g, pg
