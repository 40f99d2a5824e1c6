"""Step-function graphons, motif densities and the large-deviation rate function.

A graphon is stored as a symmetric m x m matrix of block values on the uniform
grid of the unit square.  All densities are finite sums and therefore exact for
this class of kernels.

Gradient convention used throughout: for any density functional F the returned
matrix D satisfies  dF = (1/m^2) * sum_ij D[i,j] * dA[i,j]  for symmetric
perturbations dA, i.e. D is m^2 times the per-entry partial derivative, which
equals the continuum functional-derivative density averaged over each block.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from ._numpy import np
from .errors import (
    EmptyMatrix,
    FormatError,
    ValueOutOfRange,
    check_integer,
    check_symmetric,
    check_unit,
    open_path,
)
# the motif, the target pair and the motif file reader are numpy-free, in
# `problem`; they are part of this module's interface too
from .problem import DensityPair, Motif, read_motif


@dataclass(frozen=True, eq=False)
class Graphon:
    """Symmetric step function on [0,1]^2 with values in [0,1]; compared by identity.

    Construction enforces that (EmptyMatrix, ValueOutOfRange with NaN included,
    then errors.check_symmetric), then makes the array read-only uncopied."""

    values: np.ndarray

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def __post_init__(self):
        a = self.values
        if a.size == 0:
            raise EmptyMatrix("graphon matrix is empty")
        inside = (a >= 0.0) & (a <= 1.0)
        if not inside.all():
            raise ValueOutOfRange(f"graphon value {a[~inside][0]} outside [0,1]")
        check_symmetric("matrix", a)
        a.setflags(write=False)


def validate(values) -> Graphon:
    """The matrix as a Graphon, which checks it, with its two triangles averaged."""
    try:
        a = np.array(values, dtype=float)
    except ValueError as exc:
        raise FormatError(f"not a matrix of numbers: {exc}") from None
    Graphon(values=a)
    return Graphon(values=0.5 * (a + a.T))


def constant_graphon(a, m) -> Graphon:
    check_integer("resolution", m, 1)
    return Graphon(values=np.full((m, m), float(a)))


def bipodal_graphon(c, p11, p12, p22, m) -> Graphon:
    """Two-cluster step graphon: p11 on [0, c)^2, p22 on [c, 1]^2 and p12
    elsewhere.  The split c in [0, 1] is rounded to the grid, so c = 0 and
    c = 1 give the constant graphons p22 and p11."""
    check_integer("resolution", m, 1)
    check_unit("split", c)
    mc = int(round(c * m))
    a = np.full((m, m), float(p22))
    a[:mc, :mc] = p11
    a[:mc, mc:] = p12
    a[mc:, :mc] = p12
    return Graphon(values=a)


def edge_density(g: Graphon) -> float:
    return float(np.mean(g.values))


def motif_density(g: Graphon, motif: Motif) -> float:
    """Homomorphism density t(H, g), exact for step graphons.

    Triangles cost one matmul and k-stars O(m^2); other motifs are contracted
    with an optimized elimination order rather than summed over m^ell terms;
    `_kernel.density_gradient` chooses the kernel.
    """
    return _kernel.density_gradient(motif, g.m)(g.values)[0]


def motif_gradient(g: Graphon, motif: Motif) -> np.ndarray:
    """First-variation field of t(H, g); see the module gradient convention.

    On a constant graphon with the triangle this is the matrix 3 e^2; in
    general it is the block average of the continuum field h(x, y).
    """
    return _kernel.density_gradient(motif, g.m, density=False)(g.values)[1]()


def _check_rate_u(name, u):
    """u as a float array, after raising ValueOutOfRange unless every entry
    lies in [0, 1] (NaN fails): the domain of I0, I0' and I0''."""
    a = np.asarray(u, dtype=float)
    ok = (a >= 0.0) & (a <= 1.0)
    if not ok.all():
        raise ValueOutOfRange(f"{name} takes u in [0, 1], got {a[~ok][0]}")
    return a


def rate_value(u):
    """I0(u) = (1/2)[u ln u + (1-u) ln(1-u)], continuously extended to {0,1}.
    Raises ValueOutOfRange for a u outside [0, 1], NaN included."""
    if isinstance(u, float) and 0.0 < u < 1.0:
        # the array path's operations on one value at a twentieth of its call
        # cost: `transition_curve(0.6, 2.0, 8)` takes a third longer without it
        return float(0.5 * (u * np.log(u) + (1.0 - u) * np.log(1.0 - u)))
    a = _check_rate_u("I0", u)
    out = np.zeros_like(a)
    inner = (a > 0.0) & (a < 1.0)
    ai = a[inner]
    out[inner] = 0.5 * (ai * np.log(ai) + (1.0 - ai) * np.log(1.0 - ai))
    return float(out) if out.ndim == 0 else out


def rate_derivative(u):
    """I0'(u) = (1/2) ln(u / (1-u)) for u in [0, 1], evaluated with the
    boundary clamp; ValueOutOfRange elsewhere, NaN included."""
    a = _kernel.project(_check_rate_u("I0'", u))
    out = 0.5 * (np.log(a) - np.log1p(-a))
    return float(out) if out.ndim == 0 else out


def rate_second_derivative(u):
    """I0''(u) = (1/2) (1/u + 1/(1-u)) for u in [0, 1], +inf at 0 and 1;
    ValueOutOfRange elsewhere, NaN included."""
    a = _check_rate_u("I0''", u)
    with np.errstate(divide="ignore"):
        out = 0.5 * (1.0 / a + 1.0 / (1.0 - a))
    return float(out) if out.ndim == 0 else out


def rate_function(g: Graphon) -> float:
    """I(g): block average of I0 over the graphon values."""
    return float(np.mean(rate_value(g.values)))


def graphon_distance(f: Graphon, g: Graphon, motifs) -> float:
    """Truncated homomorphism-density metric sum_j 2^-j |t(H_j,f) - t(H_j,g)|."""
    if not motifs:
        raise ValueOutOfRange("motif list must be nonempty")
    total = 0.0
    for j, h in enumerate(motifs, start=1):
        total += abs(motif_density(f, h) - motif_density(g, h)) / 2.0 ** j
    return total


def resample(g: Graphon, m2) -> Graphon:
    """Re-grid to resolution m2.

    Exact block refinement when m2 is a multiple of m; otherwise area-weighted
    averaging, which preserves the edge density exactly.
    """
    check_integer("resolution", m2, 1)
    m = g.m
    if m2 == m:
        return g
    if m2 % m == 0:
        r = m2 // m
        return Graphon(values=np.kron(g.values, np.ones((r, r))))
    # overlap matrix: P[i,k] = m2 * |[i/m2,(i+1)/m2) ∩ [k/m,(k+1)/m)|
    i = np.arange(m2)[:, None]
    k = np.arange(m)[None, :]
    lo = np.maximum(i / m2, k / m)
    hi = np.minimum((i + 1) / m2, (k + 1) / m)
    p = np.where(hi > lo, (hi - lo) * m2, 0.0)
    vals = p @ g.values @ p.T
    return Graphon(values=np.clip(0.5 * (vals + vals.T), 0.0, 1.0))


def write_graphon(g: Graphon, path):
    with open_path("graphon", path, "w") as fh:
        fh.write(graphon_text(g))


def graphon_text(g: Graphon) -> str:
    lines = [f"graphon v1 m={g.m}"]
    for row in g.values:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_graphon(path) -> Graphon:
    with open_path("graphon", path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("graphon v1 m="):
        raise FormatError("missing 'graphon v1 m=<int>' header")
    try:
        m = int(lines[0].split("m=", 1)[1])
    except ValueError as exc:
        raise FormatError("bad resolution in header") from exc
    if len(lines) != m + 1:
        raise FormatError(f"expected {m} data rows, found {len(lines) - 1}")
    try:
        a = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
    except ValueError as exc:  # a word that is no number, or ragged rows
        raise FormatError(f"data rows must be {m} numbers each: {exc}") from None
    if a.shape != (m, m):
        raise FormatError(f"expected {m}x{m} values, found {a.shape}")
    return validate(a)
