"""Exact enumeration of labeled simple graphs by edge and triangle counts.

Graphs on n vertices are encoded as bitmasks over the C(n,2) possible edges.
All 2^C(n,2) masks are enumerated in contiguous chunks; per-graph edge counts
come from popcounts and triangle counts from precomputed 3-edge triple masks.
Counts are exact integers, so the table doubles as a finite-size oracle for
the entropy definition.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import TooLarge, ValueOutOfRange

MAX_N_DEFAULT = 7
MAX_N_FLAGGED = 8
# the mask space is counted in chunks of 2^CHUNK_BITS masks
CHUNK_BITS = 20


@dataclass(frozen=True)
class CensusTable:
    n: int
    counts: dict  # (edge_count, triangle_count) -> exact integer

    @property
    def edge_slots(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def triangle_slots(self) -> int:
        return math.comb(self.n, 3)

    def total(self) -> int:
        return sum(self.counts.values())


def _edge_index(n):
    """Map unordered vertex pairs to bit positions, lexicographic."""
    return {pair: i for i, pair in enumerate(combinations(range(n), 2))}


def _triple_masks(n):
    idx = _edge_index(n)
    masks = []
    for a, b, c in combinations(range(n), 3):
        masks.append((1 << idx[(a, b)]) | (1 << idx[(a, c)]) | (1 << idx[(b, c)]))
    return masks


def _count_chunk(start, stop, triples):
    masks = np.arange(start, stop, dtype=np.uint64)
    edges = np.bitwise_count(masks).astype(np.int64)
    tris = np.zeros(masks.shape, dtype=np.int64)
    for tm in triples:
        t = np.uint64(tm)
        tris += (masks & t) == t
    return edges, tris


def enumerate_census(n, allow_large=False, threads=1) -> CensusTable:
    """Exact (edge count, triangle count) census of all labeled graphs on n vertices.

    n <= 7 by default; n = 8 (2^28 graphs) only with allow_large.  The mask
    space is split into contiguous chunks merged by exact addition, so the
    result is independent of threads and of CHUNK_BITS.
    """
    if n < 1:
        raise ValueOutOfRange("need at least one vertex")
    cap = MAX_N_FLAGGED if allow_large else MAX_N_DEFAULT
    if n > cap:
        raise TooLarge(f"n={n} exceeds the cap {cap}; pass allow_large for n=8")
    nbits = n * (n - 1) // 2
    ntri_slots = math.comb(n, 3)
    triples = _triple_masks(n)
    total = 1 << nbits
    chunk = min(total, 1 << CHUNK_BITS)
    ranges = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    width = ntri_slots + 1
    acc = np.zeros((nbits + 1) * width, dtype=np.int64)

    def work(rng):
        start, stop = rng
        edges, tris = _count_chunk(start, stop, triples)
        return np.bincount(edges * width + tris, minlength=acc.size)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(work, ranges):
            acc += part
    counts = {}
    for flat in np.flatnonzero(acc):
        counts[(int(flat) // width, int(flat) % width)] = int(acc[flat])
    return CensusTable(n=n, counts=counts)


def _check_alpha(alpha):
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueOutOfRange(f"alpha must be finite and positive, got {alpha}")


def empirical_entropy(table: CensusTable, e, t, alpha) -> float:
    """ln(count of graphs with densities within alpha of (e, t)) / n^2.

    Densities are edge_count/C(n,2) and triangle_count/C(n,3); an empty
    window yields the -inf sentinel.
    """
    _check_alpha(alpha)
    n = table.n
    ne = table.edge_slots
    nt = table.triangle_slots
    z = 0
    for (ec, tc), cnt in table.counts.items():
        ed = ec / ne if ne else 0.0
        td = tc / nt if nt else 0.0
        if abs(ed - e) < alpha and abs(td - t) < alpha:
            z += cnt
    if z == 0:
        return -math.inf
    return math.log(z) / n ** 2


def ridge_bins(table: CensusTable) -> dict:
    """Per edge count, the triangle bin of maximal count (ties to the lowest)."""
    best = {}
    for (ec, tc), cnt in sorted(table.counts.items()):
        if ec not in best or cnt > best[ec][1]:
            best[ec] = (tc, cnt)
    return {ec: tc for ec, (tc, _) in best.items()}


def compare_to_variational(table: CensusTable, points, alpha, reference) -> dict:
    """Finite-n entropy against the variational solver at the given points.

    reference maps a DensityPair-like (e, t) to the variational s value; rows
    are (e, t, s_empirical, s_variational, gap).  Also reports, per edge
    count, the distance of the maximal triangle bin from e^3 * C(n,3).
    Rejects an alpha that is not finite and positive before any point.
    """
    _check_alpha(alpha)
    nt = table.triangle_slots
    ne = table.edge_slots
    rows = []
    for p in points:
        s_emp = empirical_entropy(table, p.e, p.t, alpha)
        s_var = reference(p)
        gap = s_var - s_emp if math.isfinite(s_emp) else math.inf
        rows.append((p.e, p.t, s_emp, s_var, gap))
    ridge = []
    for ec, tc in sorted(ridge_bins(table).items()):
        e_d = ec / ne if ne else 0.0
        ridge.append((ec, tc, e_d ** 3 * nt, abs(tc - e_d ** 3 * nt)))
    return {"alpha": alpha, "n": table.n, "points": rows, "ridge": ridge}


def census_csv(table: CensusTable) -> str:
    """CSV text: rows (n, edges, triangles, count) ordered by (edges, triangles),
    lines ended by \n; the output of `graphentropy census`."""
    lines = ["n,edges,triangles,count"]
    lines += [f"{table.n},{ec},{tc},{table.counts[(ec, tc)]}" for (ec, tc) in sorted(table.counts)]
    return "\n".join(lines) + "\n"
