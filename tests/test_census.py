"""Exact small-graph census tests."""

import hashlib
import math
from collections import Counter
from itertools import combinations

import pytest

from graphentropy import census, errors
from graphentropy.census import (
    compare_to_variational,
    empirical_entropy,
    enumerate_census,
    ridge_bins,
)
from graphentropy.cli import run
from graphentropy.graphon import DensityPair


def test_hand_enumeration_n3():
    t = enumerate_census(3)
    assert t.counts == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 1): 1}


def test_hand_enumeration_n2():
    t = enumerate_census(2)
    assert t.counts == {(0, 0): 1, (1, 0): 1}


def test_totals_and_row_sums():
    t = enumerate_census(5)
    assert t.total() == 2 ** 10
    for m in range(11):
        row = sum(c for (ec, _), c in t.counts.items() if ec == m)
        assert row == math.comb(10, m)
    # empty and complete graphs are singletons
    assert t.counts[(0, 0)] == 1
    assert t.counts[(10, 10)] == 1


def test_partitioned_enumeration_is_exact():
    # n = 1, 2 and 3 have 1, 2 and 4 work items, fewer than four threads
    for n in range(1, 8):
        one = enumerate_census(n).counts
        for threads in (2, 3, 4):
            assert enumerate_census(n, threads=threads).counts == one, (n, threads)


def _brute_force_counts(n):
    """(edge count, triangle count) -> number of graphs, one graph at a time."""
    pairs = list(combinations(range(n), 2))
    counts = Counter()
    for mask in range(1 << len(pairs)):
        edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
        tris = sum(
            {(a, b), (a, c), (b, c)} <= edges for a, b, c in combinations(range(n), 3)
        )
        counts[(len(edges), tris)] += 1
    return dict(counts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_brute_force(n):
    assert enumerate_census(n).counts == _brute_force_counts(n)


def test_triangle_free_totals_match_oeis_a006785():
    free = [sum(c for (_, tc), c in enumerate_census(n).counts.items() if tc == 0)
            for n in range(1, 8)]
    assert free == [1, 2, 7, 41, 388, 5789, 133501]


# sha256 of the `graphentropy census` output, as the whole-mask enumeration
# that preceded the last-vertex recursion wrote it
CSV_SHA256 = {
    1: "f8249fe6d07eb6e2a52c2c69004a2bfea46eecfe37a9fceabbbd5104792aee3d",
    2: "86c5937c6fbf0d3f264248119d979535edd71edd6e9891c3906d47f0629853ab",
    3: "0ebbe5bffc593976138d6fac6dfe5c8a4345938f73d97d10bfa867c47f899555",
    4: "722e702d302a26704fa8dc6647bf721fcbd9bf0e8794376a312b46aeaa0567a2",
    5: "e5eccc759a1b4b883755692865ce22b2695dfe1d109fd35b3933aaf9adc3f163",
    6: "78bd1f26ddfa49ba248ec33b002905e1ad28271b723e9c48bda3812c49721f3a",
    7: "a3e7531642e1c18a881c799f98acac174c82426b21e14f69a336030cc51108fe",
    8: "03d177059873c1e72db214186df6057a00366e8b389f44b603e54379737c98ac",
}


def _cli_csv(tmp_path, n, *flags):
    """The bytes `graphentropy census --n n` writes."""
    out = tmp_path / f"census{n}.csv"
    assert run(["census", "--n", str(n), *flags, "--out", str(out)]) == 0
    return out.read_bytes()


def _parse_csv(data):
    """The header line and the (n, edges, triangles, count) int rows of a census CSV."""
    header, *rows = data.decode().splitlines()
    return header, [tuple(int(x) for x in r.split(",")) for r in rows]


@pytest.mark.parametrize("n", range(1, 8))
def test_csv_bytes_are_pinned(tmp_path, n):
    assert hashlib.sha256(_cli_csv(tmp_path, n)).hexdigest() == CSV_SHA256[n]


def test_n8_census(tmp_path):
    data = _cli_csv(tmp_path, 8, "--allow-large", "--threads", "2")
    assert hashlib.sha256(data).hexdigest() == CSV_SHA256[8]
    _, rows = _parse_csv(data)
    assert sum(cnt for *_, cnt in rows) == 2 ** 28
    assert sum(cnt for _, _, tc, cnt in rows if tc == 0) == 4682270


class _RecordingPool:
    """A stand-in ThreadPoolExecutor that records its worker count and the
    parts it is handed, and runs them in this thread."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.parts = []
        _RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, parts):
        self.parts = list(parts)
        return map(fn, self.parts)


@pytest.mark.parametrize("n, threads, items", [(1, 8, 1), (3, 8, 4), (3, 3, 4), (4, 64, 8),
                                                (4, 10 ** 6, 8), (5, 5, 16), (5, 100, 16)])
def test_census_starts_no_more_workers_than_items(monkeypatch, n, threads, items):
    # every part is nonempty, and together they hold each item once; the
    # counts do not depend on the split
    _RecordingPool.made.clear()
    monkeypatch.setattr(census, "ThreadPoolExecutor", _RecordingPool)
    table = enumerate_census(n, threads=threads)
    pool, = _RecordingPool.made
    assert pool.max_workers == len(pool.parts) == min(threads, items)
    assert all(pool.parts)
    assert sum(len(part) for part in pool.parts) == items
    assert table.counts == enumerate_census(n, threads=1).counts


@pytest.mark.parametrize("threads", [0, -1])
def test_census_needs_a_worker(threads):
    with pytest.raises(errors.ValueOutOfRange, match="worker"):
        enumerate_census(3, threads=threads)


def test_size_cap():
    with pytest.raises(errors.TooLarge):
        enumerate_census(8)
    with pytest.raises(errors.TooLarge):
        enumerate_census(9, allow_large=True)
    with pytest.raises(errors.ValueOutOfRange):
        enumerate_census(0)


def test_empirical_entropy_examples():
    t3 = enumerate_census(3)
    assert empirical_entropy(t3, 1.0 / 3.0, 0.0, 0.2) == pytest.approx(
        math.log(3.0) / 9.0, abs=1e-14
    )
    assert empirical_entropy(t3, 0.9, 0.0, 0.01) == -math.inf
    # window covering everything
    assert empirical_entropy(t3, 0.5, 0.5, 2.0) == pytest.approx(
        3.0 * math.log(2.0) / 9.0, abs=1e-14
    )
    with pytest.raises(errors.ValueOutOfRange):
        empirical_entropy(t3, 0.5, 0.5, 0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_alpha_must_be_finite_and_positive(alpha):
    t3 = enumerate_census(3)
    with pytest.raises(errors.ValueOutOfRange):
        empirical_entropy(t3, 0.5, 0.5, alpha)
    # rejected before any point, so also with none
    with pytest.raises(errors.ValueOutOfRange):
        compare_to_variational(t3, [], alpha, lambda p: 0.0)


def test_empirical_entropy_monotone_in_alpha():
    t5 = enumerate_census(5)
    vals = [empirical_entropy(t5, 0.5, 0.1, a) for a in (0.05, 0.1, 0.2, 0.5)]
    finite = [v for v in vals if math.isfinite(v)]
    assert finite == sorted(finite)


def test_ridge_bins_track_er_curve():
    t7 = enumerate_census(7)
    bins = ridge_bins(t7)
    for e in (0.4, 0.5, 0.6):
        ec = round(e * 21)
        target = (ec / 21) ** 3 * 35
        assert abs(bins[ec] - target) <= 2.0


def test_compare_to_variational_shape():
    t5 = enumerate_census(5)
    pts = [DensityPair(e=0.5, t=0.125)]
    report = compare_to_variational(t5, pts, 0.15, lambda p: 0.34657)
    ((e, t, s_emp, s_var, gap),) = report["points"]
    assert math.isfinite(s_emp)
    assert s_emp <= 10 * math.log(2.0) / 25 + 1e-12  # crude total-count bound
    assert gap == pytest.approx(s_var - s_emp, abs=1e-14)
    assert report["ridge"]


def test_csv_roundtrip(tmp_path):
    t4 = enumerate_census(4)
    header, parsed = _parse_csv(_cli_csv(tmp_path, 4))
    assert header == "n,edges,triangles,count"
    assert {n for n, *_ in parsed} == {4}
    assert {(ec, tc): cnt for _, ec, tc, cnt in parsed} == t4.counts
    # deterministic ordering by (edges, triangles)
    keys = [(ec, tc) for _, ec, tc, _ in parsed]
    assert keys == sorted(keys)


def test_csv_bytes_match_the_cli(tmp_path):
    # one line per (edges, triangles) bin, in that order, each ended by \n
    t4 = enumerate_census(4)
    want = "n,edges,triangles,count\n" + "".join(
        f"4,{ec},{tc},{t4.counts[(ec, tc)]}\n" for ec, tc in sorted(t4.counts))
    data = _cli_csv(tmp_path, 4)
    assert data == want.encode()
    assert b"\r" not in data
