"""Kernel-operator spectral analysis of graphon perturbations.

A symmetric step kernel dg acts on block-constant functions through the matrix
dg/m, and its nonzero spectrum is that matrix's spectrum.  Everything here is
phrased in terms of that finite operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgeDensityMismatch, UnsupportedPower, ValueOutOfRange, check_symmetric
from .graphon import Graphon, Motif, edge_density, motif_density

RANK_TOL = 1e-9


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # sorted by descending magnitude
    trace2: float
    trace3: float
    quad_term: float  # 3e <phi1, T^2 phi1>
    delta_t: float  # quad_term + trace3
    numerical_rank: int


def _check_symmetric(dg):
    dg = np.asarray(dg, dtype=float)
    if not np.isfinite(dg).all():
        raise ValueOutOfRange("kernel entries must be finite")
    check_symmetric("kernel", dg)
    return 0.5 * (dg + dg.T)


def _decompose(dg):
    """Check dg once; return T = dg/m, symmetrized, and its eigenvalues sorted
    by descending magnitude, from one eigvalsh call."""
    dg = _check_symmetric(dg)
    t = dg / dg.shape[0]
    mu = np.linalg.eigvalsh(t)
    return t, mu[np.argsort(-np.abs(mu), kind="stable")]


def _traces(t, mu, powers):
    """Tr T^p for each p in powers (a subset of {2, 3}), each taken from T's
    matrix products and cross-checked against the eigenvalues' power sums."""
    t2 = t @ t
    traces = [float(np.trace(t2 if p == 2 else t2 @ t)) for p in powers]
    for p, direct in zip(powers, traces):
        spectral = float(np.sum(mu ** p))
        if abs(direct - spectral) > 1e-10 * max(1.0, abs(direct)):
            raise ArithmeticError(f"trace path mismatch: direct={direct} spectral={spectral}")
    return traces


def kernel_operator_spectrum(dg) -> np.ndarray:
    """All m eigenvalues of dg/m, sorted by descending magnitude."""
    return _decompose(dg)[1]


def numerical_rank(eigenvalues) -> int:
    mu = np.asarray(eigenvalues)
    if mu.size == 0:
        return 0
    tol = RANK_TOL * max(1.0, float(np.max(np.abs(mu))))
    return int(np.sum(np.abs(mu) > tol))


def trace_power(dg, p) -> float:
    """Tr (dg/m)^p for p in {2,3}; direct and spectral paths cross-checked."""
    if p not in (2, 3):
        raise UnsupportedPower(f"only p in {{2,3}} supported, got {p}")
    return _traces(*_decompose(dg), (p,))[0]


def delta_t_decomposition(g: Graphon, e) -> SpectralReport:
    """Decompose t(g) - e^3 into the quadratic term and Tr T^3.

    Requires e(g) to match e, otherwise the dropped linear term is nonzero.
    """
    de = edge_density(g) - e
    if abs(de) > 1e-8:
        raise EdgeDensityMismatch(f"edge density off target by {de}")
    dg = g.values - e
    t, mu = _decompose(dg)
    trace2, trace3 = _traces(t, mu, (2, 3))
    row_means = np.mean(dg, axis=1)
    quad = 3.0 * e * float(np.mean(row_means ** 2))
    return SpectralReport(
        eigenvalues=mu,
        trace2=trace2,
        trace3=trace3,
        quad_term=quad,
        delta_t=quad + trace3,
        numerical_rank=numerical_rank(mu),
    )


def verify_trace_inequality(dg) -> dict:
    """|Tr T^3| <= (Tr T^2)^(3/2), with equality exactly at rank one.  At
    equality the two sides differ by rounding, so `holds` allows 1e-12
    relative to rhs (absolute below rhs = 1)."""
    mu = kernel_operator_spectrum(dg)
    lhs = abs(float(np.sum(mu ** 3)))
    rhs = float(np.sum(mu ** 2)) ** 1.5
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs + 1e-12 * max(1.0, rhs),
        "rank_one": numerical_rank(mu) <= 1,
        "gap": rhs - lhs,
    }


def triangle_delta_direct(g: Graphon, e) -> float:
    """Direct oracle t(g, triangle) - e^3."""
    return motif_density(g, Motif.triangle()) - e ** 3
