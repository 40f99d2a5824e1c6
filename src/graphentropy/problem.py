"""What a solve is asked: the target densities, the motif, the solver settings
and the region precheck, without numpy.

`graphon`, `optimize` and `ergm` import these names from here, so the CLI can
read a config, parse a motif and reject a target outside the proven region
before it loads numpy or any solver module.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING

from . import region
from .errors import (
    DisconnectedMotif,
    DuplicateEdge,
    FormatError,
    Infeasible,
    LoopEdge,
    MotifTooLarge,
    ValueOutOfRange,
    check_integer,
    check_unit,
    open_path,
)

if TYPE_CHECKING:
    from .graphon import Graphon

MAX_MOTIF_VERTICES = 6

# Solver constants: a feasible iterate is within CONSTRAINT_TOL of both target
# densities, a converged one also has a projected gradient within KKT_TOL.
# Each projected-gradient run takes at most MAX_INNER_ITERATIONS steps.
CONSTRAINT_TOL = 1e-6
KKT_TOL = 1e-5
MAX_INNER_ITERATIONS = 2000
# The largest grid resolution m.  A triangle evaluation takes about 46 ms at
# m = 1024 (2-CPU x86 VM, one BLAS thread) and grows as m^3, so about 3 s at
# 4096, where a solve makes thousands; a larger m is invalid input, not a
# numpy allocation error
MAX_RESOLUTION = 4096


def _check_vertex_cap(ell):
    if ell > MAX_MOTIF_VERTICES:
        raise MotifTooLarge(f"ell={ell} exceeds cap {MAX_MOTIF_VERTICES}")


@dataclass(frozen=True)
class Motif:
    """Small simple connected graph H whose density constrains the optimization.

    Every Motif that exists can be evaluated.  Construction checks that ell
    is a whole number >= 1, then each edge in input order, and raises on the
    first that is not a pair of whole numbers (ValueOutOfRange), is a loop
    (LoopEdge), is not (i, j) with 1 <= i < j <= ell (ValueOutOfRange) or
    repeats one before it (DuplicateEdge); then that ell is at most
    MAX_MOTIF_VERTICES and the motif is connected.  It stores the edges as a
    frozenset.  `from_edges` only puts each pair in (min, max) order first,
    so it accepts either order.
    """

    ell: int
    edges: frozenset  # frozenset of (i, j) with 1 <= i < j <= ell

    def __post_init__(self):
        ell, seen = self.ell, set()
        check_integer("ell", ell, 1)
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2
                    and all(isinstance(v, Integral) for v in e)):
                raise ValueOutOfRange(f"edge {e!r} is not a pair of whole numbers")
            i, j = e
            if i == j:
                raise LoopEdge(f"loop at vertex {i}")
            if not 1 <= i < j <= ell:
                raise ValueOutOfRange(f"edge ({i},{j}) outside 1..{ell} or not i < j")
            if e in seen:
                raise DuplicateEdge(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", frozenset(seen))
        _check_vertex_cap(ell)
        if not self._connected():
            raise DisconnectedMotif("motif must be connected")

    @property
    def k(self) -> int:
        return len(self.edges)

    @property
    def is_triangle(self) -> bool:
        # the only simple graph on 3 vertices with 3 edges
        return self.ell == 3 and self.k == 3

    @property
    def is_star(self) -> bool:
        return self.ell >= 2 and self.edges == frozenset(
            (1, j) for j in range(2, self.ell + 1)
        )

    @property
    def name(self) -> str:
        if self.is_triangle:
            return "triangle"
        if self.is_star:
            return f"star:{self.k}"
        return f"motif(ell={self.ell},k={self.k})"

    @classmethod
    def from_edges(cls, ell, edges):
        return cls(ell=ell, edges=[tuple(sorted(e)) for e in edges])

    @classmethod
    def edge(cls):
        return cls.from_edges(2, [(1, 2)])

    @classmethod
    def triangle(cls):
        return cls.from_edges(3, [(1, 2), (1, 3), (2, 3)])

    @classmethod
    def star(cls, k):
        check_integer("star edge count k", k, 1)
        _check_vertex_cap(k + 1)  # before any of the k edges is built
        return cls.from_edges(k + 1, [(1, j) for j in range(2, k + 2)])

    @classmethod
    def parse(cls, text):
        """Parse 'triangle', 'edge' or 'star:k'; any other text is the path of
        a motif file (see read_motif).  Anything but a string is invalid."""
        if not isinstance(text, str):
            raise ValueOutOfRange(f"a motif is named by a string, got {text!r}")
        if text == "triangle":
            return cls.triangle()
        if text == "edge":
            return cls.edge()
        if text.startswith("star:"):
            if not text[5:].isdecimal():
                raise ValueOutOfRange(f"star needs a whole edge count, got {text!r}")
            try:
                k = int(text[5:])
            except ValueError:  # more digits than int() reads: far above the cap
                raise MotifTooLarge(f"a {len(text) - 5}-digit star exceeds the cap") from None
            return cls.star(k)
        return read_motif(text)

    def _connected(self):
        if self.ell == 1:
            return True
        adj = {v: set() for v in range(1, self.ell + 1)}
        for (i, j) in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.ell


@dataclass(frozen=True)
class DensityPair:
    e: float
    t: float

    def __post_init__(self):
        check_unit("e", self.e)
        check_unit("t", self.t)


def read_motif(path) -> Motif:
    with open_path("motif", path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("motif v1 ell="):
        raise FormatError("missing 'motif v1 ell=<int>' header")
    try:
        ell = int(lines[0].split("ell=", 1)[1])
    except ValueError as exc:
        raise FormatError("bad vertex count in header") from exc
    edges = []
    for ln in lines[1:]:
        try:
            i, j = (int(x) for x in ln.split())
        except ValueError:
            raise FormatError(f"bad motif edge row {ln!r}; want two vertex numbers") from None
        edges.append((i, j))
    return Motif.from_edges(ell, edges)


@dataclass(frozen=True)
class OptimConfig:
    """Solver settings: the grid resolution 1 <= m <= MAX_RESOLUTION, the
    number of random restarts >= 0 and their seed >= 0, each a whole number
    and not a bool, and an optional Graphon to start from.  Construction
    raises ValueOutOfRange on any other value, TooLarge for m above its cap.
    At m >= 101 the result's last bits depend on the OpenBLAS thread count,
    which is 1 unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS is set or numpy was loaded before the package."""

    m: int = 16
    multistart_count: int = 12
    seed: int = 0
    warm_start: Graphon | None = None

    def __post_init__(self):
        for name, low, high in (("m", 1, MAX_RESOLUTION), ("multistart_count", 0, None),
                                ("seed", 0, None)):
            check_integer(name, getattr(self, name), low, high)
        if self.warm_start is not None:
            # only a warm start needs the graphon module, and with it numpy
            from .graphon import Graphon

            if not isinstance(self.warm_start, Graphon):
                raise ValueOutOfRange(
                    f"warm_start must be None or a Graphon, got {self.warm_start!r}")


def region_precheck(target: DensityPair, motif: Motif) -> str:
    """Raise Infeasible for a target outside the motif's proven region
    (`region.motif_bounds`), by more than CONSTRAINT_TOL; else return where
    it lies, for the message of a later Infeasible.  The triangle's region is
    told by `region.classify`.
    """
    e, t, tol = target.e, target.t, CONSTRAINT_TOL
    if motif.is_triangle:
        cls = region.classify(e, t, tol=tol)
        if cls in (region.RegionClass.OUTSIDE_UPPER, region.RegionClass.BELOW_ENVELOPE,
                   region.RegionClass.BELOW_LOWER):
            raise Infeasible(f"target ({e},{t}) classified {cls.value} for the triangle model")
        return f"; region class {cls.value}"
    bounds = region.motif_bounds(motif)
    if bounds is None:
        return ""
    lower, upper, text = bounds
    if not (lower(e) - tol <= t <= upper(e) + tol):
        raise Infeasible(f"target ({e},{t}) outside {text} for the {motif.name} model")
    return f"; inside {text}"
