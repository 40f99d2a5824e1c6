"""Exact enumeration of labeled simple graphs by edge and triangle counts.

A graph on n vertices is a graph H on the first n - 1 vertices, encoded as a
bitmask over its C(n-1,2) edge slots, plus the neighbourhood S of the last
vertex.  Its edge count is e(H) + |S| and its triangle count is
t(H) + popcount(H & inside[S]), where inside[S] masks the slots of H with both
ends in S.  So only the 2^C(n-1,2) masks H are enumerated, in blocks, with
edge counts from popcounts and triangle counts from inside[S] for |S| = 3;
each neighbourhood then costs one AND, one popcount and one histogram per block.
Counts are exact integers, so the table doubles as a finite-size oracle for
the entropy definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from ._numpy import np
from .errors import TooLarge, ValueOutOfRange, check_integer, check_real

# n = 8 is 2^28 graphs, about a second on one thread
MAX_N = 8
# the masks H are counted in blocks of at most 2^BLOCK_BITS
BLOCK_BITS = 16


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


def _inside_masks(m):
    """For each subset S of range(m), as a bitmask, the mask of the edge slots
    (the pairs of range(m), in lexicographic order) with both ends in S."""
    slots = list(combinations(range(m), 2))
    return [sum(1 << i for i, (u, v) in enumerate(slots) if s >> u & 1 and s >> v & 1)
            for s in range(1 << m)]


def _block(start, stop, triples, width):
    """The masks start..stop-1 and their flat (edge count, triangle count) bins."""
    masks = np.arange(start, stop, dtype=np.uint64)
    tris = np.zeros(masks.shape, dtype=np.int64)
    for tm in triples:
        t = np.uint64(tm)
        tris += (masks & t) == t
    return masks, np.bitwise_count(masks).astype(np.int64) * width + tris


def check_census_args(n, threads):
    """Raise as `enumerate_census(n, threads)` does on its arguments, before any work."""
    check_integer("n", n, 1)
    check_integer("threads, the worker count,", threads, 1)
    if n > MAX_N:
        raise TooLarge(f"n={n} exceeds the cap {MAX_N}")


def enumerate_census(n, threads=1) -> CensusTable:
    """Exact (edge count, triangle count) census of all labeled graphs on n vertices.

    1 <= n <= MAX_N.  Each (block of H, neighbourhood S) item is counted into
    an int64 histogram; threads >= 1 workers, at most one per item, take a
    fixed partition of the items and their histograms are summed exactly, so
    the result is independent of threads.  A single worker is the calling
    thread: no pool is started.
    """
    check_census_args(n, threads)
    m = n - 1
    hbits = m * (m - 1) // 2
    width = math.comb(n, 3) + 1
    hsize = (hbits + 1) * width  # bins reachable by e(H), t(H) + popcount(H & inside[S])
    size = (n * m // 2 + 1) * width
    inside = _inside_masks(m)
    triples = [mask for s, mask in enumerate(inside) if s.bit_count() == 3]
    total = 1 << hbits
    block = min(total, 1 << BLOCK_BITS)
    items = [(b, s) for b in range(0, total, block) for s in range(1 << m)]

    def work(part):
        acc = np.zeros(size, dtype=np.int64)
        start = None
        for b, s in part:
            if b != start:
                start = b
                masks, base = _block(b, min(b + block, total), triples, width)
            # |S| shifts the slice of acc, so no Python int meets the uint8
            # popcount (under NEP 50 that sum stays uint8 and wraps at n = 8)
            flat = base + np.bitwise_count(masks & np.uint64(inside[s]))
            lo = s.bit_count() * width
            acc[lo:lo + hsize] += np.bincount(flat, minlength=hsize)
        return acc

    workers = min(threads, len(items))
    if workers == 1:  # the calling thread: no pool, and no concurrent.futures
        acc = work(items)
    else:
        from concurrent.futures import ThreadPoolExecutor

        parts = [items[i * len(items) // workers:(i + 1) * len(items) // workers]
                 for i in range(workers)]
        acc = np.zeros(size, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(work, parts):
                acc += part
    counts = {}
    for flat in np.flatnonzero(acc):
        counts[(int(flat) // width, int(flat) % width)] = int(acc[flat])
    return CensusTable(n=n, counts=counts)


def check_alpha(alpha):
    """Raise ValueOutOfRange unless the density window alpha is finite and positive."""
    check_real("alpha", alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueOutOfRange(f"alpha must be finite and positive, got {alpha}")


def empirical_entropy(table: CensusTable, e, t, alpha) -> float:
    """ln(count of graphs with densities within alpha of (e, t)) / n^2.

    Densities are edge_count/C(n,2) and triangle_count/C(n,3); an empty
    window yields the -inf sentinel.
    """
    check_alpha(alpha)
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
    check_alpha(alpha)
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

