"""Exact small-graph census tests."""

import math

import pytest

from graphentropy import census, errors
from graphentropy.census import (
    census_csv,
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


def test_partitioned_enumeration_is_exact(monkeypatch):
    a = enumerate_census(6)
    monkeypatch.setattr(census, "CHUNK_BITS", 10)
    b = enumerate_census(6, threads=4)
    assert a.counts == b.counts


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


def test_csv_roundtrip():
    t4 = enumerate_census(4)
    header, *rows = census_csv(t4).splitlines()
    assert header == "n,edges,triangles,count"
    parsed = [tuple(int(x) for x in r.split(",")) for r in rows]
    assert {n for n, *_ in parsed} == {4}
    assert {(ec, tc): cnt for _, ec, tc, cnt in parsed} == t4.counts
    # deterministic ordering by (edges, triangles)
    keys = [(ec, tc) for _, ec, tc, _ in parsed]
    assert keys == sorted(keys)


def test_csv_bytes_match_the_cli(tmp_path):
    cli_path = tmp_path / "cli.csv"
    assert run(["census", "--n", "4", "--out", str(cli_path)]) == 0
    assert cli_path.read_bytes() == census_csv(enumerate_census(4)).encode()
    assert b"\r" not in cli_path.read_bytes()
