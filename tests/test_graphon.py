"""Core graphon, motif density and rate-function tests."""

import collections
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphentropy import _kernel, ergm, errors, optimize, region
from graphentropy.graphon import (
    DensityPair,
    Graphon,
    Motif,
    bipodal_graphon,
    constant_graphon,
    edge_density,
    graphon_distance,
    graphon_text,
    motif_density,
    motif_gradient,
    rate_derivative,
    rate_function,
    rate_second_derivative,
    rate_value,
    read_graphon,
    read_motif,
    resample,
    validate,
    write_graphon,
)
from graphentropy.census import check_alpha, enumerate_census
from graphentropy.ergm import ErgmParams, find_transition, transition_curve
from graphentropy.optimize import (
    closed_form_half,
    closed_form_upper,
    convexity_report,
    f_minus,
    slice_second_derivative,
    slice_second_derivative_fd,
)
from graphentropy.problem import OptimConfig
from graphentropy.region import boundary_table


def _random_graphon(rng, m):
    r = rng.uniform(0.05, 0.95, size=(m, m))
    return Graphon(values=0.5 * (r + r.T))


# ---------------------------------------------------------------------------
# Motif construction


def test_motif_shorthands():
    assert Motif.parse("triangle") == Motif.triangle()
    assert Motif.parse("star:4") == Motif.star(4)
    assert Motif.parse("edge") == Motif.edge()
    assert Motif.triangle().k == 3
    assert Motif.star(4).k == 4
    assert Motif.triangle().name == "triangle"
    assert Motif.star(4).name == "star:4"
    assert Motif.from_edges(1, []).name == "motif(ell=1,k=0)"


def test_motif_parse_reads_files_and_rejects_bad_counts(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("motif v1 ell=4\n1 2\n2 3\n3 4\n1 4\n")
    assert Motif.parse(str(path)) == read_motif(path)
    with pytest.raises(errors.ValueOutOfRange):
        Motif.parse("star:x")
    with pytest.raises(errors.ValueOutOfRange):
        Motif.parse("star:0")
    with pytest.raises(FileNotFoundError):
        Motif.parse(str(tmp_path / "missing.txt"))
    # a path no file can have, with a null byte or a lone surrogate, is
    # invalid input, not Python's ValueError or UnicodeEncodeError
    for path in ("a\u0000b", "\ud800.txt"):
        with pytest.raises(errors.ValueOutOfRange, match="cannot name a file"):
            Motif.parse(path)


@pytest.mark.parametrize("text", [3, None, True, ["triangle"], b"triangle"])
def test_motif_parse_rejects_anything_but_a_string(text):
    with pytest.raises(errors.ValueOutOfRange, match="string"):
        Motif.parse(text)


@pytest.mark.parametrize("row", ["1", "1 2 3", "1 x"])
def test_read_motif_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "bad.txt"
    path.write_text(f"motif v1 ell=3\n1 2\n{row}\n")
    with pytest.raises(errors.FormatError):
        read_motif(path)


def test_motif_validation():
    with pytest.raises(errors.LoopEdge):
        Motif.from_edges(2, [(1, 1)])
    with pytest.raises(errors.DuplicateEdge):
        Motif.from_edges(2, [(1, 2), (2, 1)])
    with pytest.raises(errors.DisconnectedMotif):
        Motif.from_edges(4, [(1, 2), (3, 4)])
    # the edge checks come before the vertex cap, in input order
    with pytest.raises(errors.LoopEdge):
        Motif.from_edges(7, [(1, 2), (3, 3)])
    with pytest.raises(errors.MotifTooLarge):
        Motif.from_edges(7, [(i + 1, i) for i in range(1, 7)])


def test_a_star_above_the_vertex_cap_is_refused_before_its_edges():
    # the star's 10^6 edges are never built: the parse takes microseconds
    start = time.perf_counter()
    with pytest.raises(errors.MotifTooLarge):
        Motif.parse("star:1000000")
    assert time.perf_counter() - start < 0.1
    # a count of more digits than int() reads is too large, not a ValueError
    with pytest.raises(errors.MotifTooLarge):
        Motif.parse("star:" + "9" * 5000)


@pytest.mark.parametrize("ell, edges, error", [
    (7, {(i, i + 1) for i in range(1, 7)}, errors.MotifTooLarge),
    (4, {(1, 2), (3, 4)}, errors.DisconnectedMotif),
    (3, {(2, 1), (2, 3)}, errors.ValueOutOfRange),
    (3, {(1, 2), (2, 4)}, errors.ValueOutOfRange),
    (3, {(1.0, 2.0), (2.0, 3.0)}, errors.ValueOutOfRange),
    (0, set(), errors.ValueOutOfRange),
    (3, [(1, 2), (1, 2), (1, 3), (2, 3)], errors.DuplicateEdge),
])
def test_a_directly_built_motif_validates_itself(ell, edges, error):
    with pytest.raises(errors.ValueOutOfRange) as caught:
        Motif(ell=ell, edges=edges)
    assert caught.type is error


@pytest.mark.parametrize("edges, error, message", [
    ([(1, 2), (2, 2)], errors.LoopEdge, "loop at vertex 2"),
    ([(1, 2), (2, 5)], errors.ValueOutOfRange, r"edge \(2,5\) outside 1..4"),
    ([(1, 2), (2, 1)], errors.DuplicateEdge, r"duplicate edge \(1, 2\)"),
])
def test_motifs_and_embedded_graphs_reject_the_same_edge_lists(edges, error, message):
    with pytest.raises(errors.ValueOutOfRange, match=message) as caught:
        Motif.from_edges(4, edges)
    assert caught.type is error
    # built directly from the same edges in (min, max) order, a motif raises
    # the same error with the same message: both go through one check
    with pytest.raises(errors.ValueOutOfRange) as direct:
        Motif(ell=4, edges=[(min(i, j), max(i, j)) for (i, j) in edges])
    assert direct.type is error and str(direct.value) == str(caught.value)


def test_a_directly_built_motif_is_the_parsed_one():
    motif = Motif(ell=3, edges={(1, 2), (1, 3), (2, 3)})
    assert motif == Motif.triangle() and hash(motif) == hash(Motif.triangle())


def _connected_labelled_motifs(ell):
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        try:
            yield Motif(ell=ell, edges=[p for p, on in zip(pairs, chosen) if on])
        except errors.DisconnectedMotif:
            pass


def _graph_class(motif):
    """The least sorted edge list over all relabellings: equal exactly for
    isomorphic motifs."""
    return min(tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for (i, j) in motif.edges))
               for perm in itertools.permutations(range(1, motif.ell + 1)))


def _facts(motif):
    bounds = region.motif_bounds(motif)
    return (motif.is_triangle, motif.is_star, motif.name, bounds and bounds[2])


def test_motif_facts_depend_only_on_the_graph():
    motifs = [h for ell in range(2, 6) for h in _connected_labelled_motifs(ell)]
    assert len(motifs) == 1 + 4 + 38 + 728
    facts = {}
    for h in motifs:
        assert facts.setdefault((h.ell, _graph_class(h)), _facts(h)) == _facts(h), h
        degrees = collections.Counter(v for edge in h.edges for v in edge)
        # a star is a tree with a vertex on every edge
        assert h.is_star == (h.k == h.ell - 1 and h.ell - 1 in degrees.values()), h
        if h.is_star:
            assert _facts(h) == _facts(Motif.star(h.k))
    assert sum(star for (_, star, _, _) in facts.values()) == 4


def _star_centred_at_the_last_vertex(k):
    return Motif.from_edges(k + 1, [(j, k + 1) for j in range(1, k + 1)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_relabelled_star_has_the_stars_density_and_gradient(monkeypatch, k):
    def refuse(*args):
        raise AssertionError("an einsum kernel ran")

    for name in ("einsum_density", "einsum_gradient"):
        monkeypatch.setattr(_kernel, name, refuse)
    star, other = Motif.star(k), _star_centred_at_the_last_vertex(k)
    rng = np.random.default_rng(k)
    for m in (1, 3, 8, 16):
        g = _random_graphon(rng, m)
        assert motif_density(g, other) == motif_density(g, star)
        assert np.array_equal(motif_gradient(g, other), motif_gradient(g, star))


_NON_STARS = {
    "p4": Motif.from_edges(4, [(1, 2), (2, 3), (3, 4)]),
    "c4": Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "c5": Motif.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "k4": Motif.from_edges(4, list(itertools.combinations(range(1, 5), 2))),
    "paw": Motif.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
}


def _recorded(ran, name, kernel):
    def call(*args):
        ran.append(name)
        return kernel(*args)

    return call


@pytest.mark.parametrize("motif", _NON_STARS.values(), ids=_NON_STARS)
def test_other_motifs_take_the_einsum_kernel(monkeypatch, motif):
    ran = []
    for name in ("einsum_density", "einsum_gradient"):
        monkeypatch.setattr(_kernel, name, _recorded(ran, name, getattr(_kernel, name)))
    assert not (motif.is_triangle or motif.is_star)
    assert motif.name == f"motif(ell={motif.ell},k={motif.k})"
    assert region.motif_bounds(motif) is None
    g = _random_graphon(np.random.default_rng(5), 6)
    motif_density(g, motif)
    motif_gradient(g, motif)
    assert ran == ["einsum_density", "einsum_gradient"]


def test_density_pair_range():
    with pytest.raises(errors.ValueOutOfRange):
        DensityPair(e=1.2, t=0.0)


# ---------------------------------------------------------------------------
# Densities


def test_constant_graphon_densities():
    for p in (0.2, 0.5, 0.8):
        g = constant_graphon(p, 6)
        assert edge_density(g) == pytest.approx(p, abs=1e-15)
        assert motif_density(g, Motif.triangle()) == pytest.approx(p ** 3, abs=1e-14)
        assert motif_density(g, Motif.star(4)) == pytest.approx(p ** 4, abs=1e-14)


def test_complete_graph_triangle_density():
    # K_4 as a 0-1 graphon: t = P(all three pairs distinct blocks and adjacent)
    g = Graphon(values=1.0 - np.eye(4))
    a = g.values
    m = 4
    t = float(np.einsum("ab,ac,bc->", a, a, a)) / m ** 3
    assert motif_density(g, Motif.triangle()) == pytest.approx(t, abs=1e-15)


def test_fast_paths_match_einsum():
    rng = np.random.default_rng(7)
    square = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for m in (3, 5, 8):
        g = _random_graphon(rng, m)
        for motif in (Motif.triangle(), Motif.star(3), Motif.star(4), square):
            fast = motif_density(g, motif)
            ref = _kernel.einsum_density(g.values, m, motif)
            assert fast == pytest.approx(ref, rel=1e-12)
            gf = motif_gradient(g, motif)
            gr = _kernel.einsum_gradient(g.values, m, motif)
            assert np.allclose(gf, gr, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for motif in (Motif.triangle(), Motif.star(4)):
        g = _random_graphon(rng, 6)
        a = g.values
        d = motif_gradient(g, motif)
        m = 6
        for _ in range(5):
            i, j = rng.integers(m), rng.integers(m)
            ap = np.array(a)
            am = np.array(a)
            scale = 1.0 if i == j else 2.0
            ap[i, j] += h
            am[i, j] -= h
            if i != j:
                ap[j, i] += h
                am[j, i] -= h
            fd = (motif_density(Graphon(values=ap), motif)
                  - motif_density(Graphon(values=am), motif)) / (2 * h)
            assert fd == pytest.approx(scale * d[i, j] / m ** 2, rel=1e-6)


def test_star_density_is_degree_moment():
    rng = np.random.default_rng(3)
    g = _random_graphon(rng, 7)
    r = np.mean(g.values, axis=1)
    for k in (2, 3, 4):
        assert motif_density(g, Motif.star(k)) == pytest.approx(
            float(np.mean(r ** k)), rel=1e-13
        )


# ---------------------------------------------------------------------------
# Rate function


def test_rate_values():
    assert rate_value(0.5) == pytest.approx(-0.5 * math.log(2.0), abs=1e-15)
    assert rate_value(0.0) == 0.0
    assert rate_value(1.0) == 0.0
    assert rate_derivative(0.5) == 0.0
    assert rate_second_derivative(0.5) == pytest.approx(2.0, abs=1e-15)
    # symmetric about 1/2
    for u in (0.1, 0.3, 0.45):
        assert rate_value(u) == pytest.approx(rate_value(1.0 - u), abs=1e-15)


# bands where the scalar and array paths of rate_value could part: the left
# tail down to 1e-300 and the right end, where 1 - u loses bits
_RATE_EDGE_BANDS = [10.0 ** -k for k in range(1, 301)] + [1.0 - 10.0 ** -k for k in range(1, 17)]


@settings(max_examples=300, deadline=None)
@given(u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_rate_value_scalar_path_matches_the_array_path_bit_for_bit(u):
    for v in (u, np.float64(u)):
        assert rate_value(v).hex() == float(rate_value(np.array([v]))[0]).hex()


def test_rate_value_scalar_path_bit_for_bit_at_the_edges():
    us = _RATE_EDGE_BANDS
    assert all(0.0 < u < 1.0 for u in us)
    assert [rate_value(u).hex() for u in us] == [float(x).hex() for x in rate_value(np.array(us))]
    # the values the scalar path leaves to the array path: the ends read 0,
    # and a 0-d array or float32 still gives a float
    assert [rate_value(u) for u in (0.0, 1.0)] == [0.0] * 2
    for u in (np.array(0.3), np.float32(0.3)):
        assert rate_value(u) == float(rate_value(np.array([u]))[0])


@pytest.mark.parametrize("u", [math.nan, -0.5, 1.5, -1e-300, math.nextafter(1.0, 2.0),
                               np.array([1.5, -1.0, math.nan, 0.3]), [0.3, math.nan]])
def test_rate_value_rejects_values_outside_the_unit_interval(u):
    with pytest.raises(errors.ValueOutOfRange):
        rate_value(u)


def test_rate_value_keeps_the_shape_of_a_list():
    assert rate_value([0.0, 1.0, 0.3]).tolist() == [0.0, 0.0, rate_value(0.3)]


def test_rate_function_block_average():
    g = bipodal_graphon(0.5, 0.6, 0.4, 0.6, 8)
    expect = 0.5 * (rate_value(0.6) + rate_value(0.4))
    assert rate_function(g) == pytest.approx(expect, abs=1e-14)


def test_bipodal_graphon_blocks_and_ends():
    # p11 on [0, c)^2, p22 on [c, 1]^2, p12 elsewhere; c = 0 and c = 1 are
    # the constant graphons p22 and p11
    g = bipodal_graphon(0.25, 0.9, 0.2, 0.4, 8).values
    assert np.all(g[:2, :2] == 0.9) and np.all(g[2:, 2:] == 0.4)
    assert np.all(g[:2, 2:] == 0.2) and np.all(g[2:, :2] == 0.2)
    for m in (1, 2, 7):
        assert np.array_equal(bipodal_graphon(0.0, 0.9, 0.2, 0.4, m).values, np.full((m, m), 0.4))
        assert np.array_equal(bipodal_graphon(1.0, 0.9, 0.2, 0.4, m).values, np.full((m, m), 0.9))


@pytest.mark.parametrize("c,p11,p12,p22", [
    (-1e-12, 0.5, 0.5, 0.5), (1.0 + 1e-12, 0.5, 0.5, 0.5), (math.nan, 0.5, 0.5, 0.5),
    (0.5, -0.1, 0.5, 0.5), (0.5, 0.5, 1.1, 0.5), (0.5, 0.5, 0.5, math.nan),
])
def test_bipodal_graphon_rejects_values_outside_the_unit_interval(c, p11, p12, p22):
    with pytest.raises(errors.ValueOutOfRange):
        bipodal_graphon(c, p11, p12, p22, 4)


def test_edgeless_motif_has_density_one():
    # the one-vertex motif with no edge: t(H, g) = 1 and its field is zero
    h = Motif.from_edges(1, [])
    a = _random_graphon(np.random.default_rng(5), 4).values
    assert _kernel.einsum_density(a, 4, h) == 1.0
    assert motif_density(Graphon(values=a), h) == 1.0
    assert np.array_equal(motif_gradient(Graphon(values=a), h), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# Validation, resampling, distance


def test_graphons_compare_and_hash_by_identity():
    a = np.full((2, 2), 0.5)
    g = Graphon(values=a)
    assert g == g and g != Graphon(values=a.copy())
    assert hash(g) == hash(g)
    # so a config with a warm start compares and hashes too
    assert len({OptimConfig(m=4, warm_start=g), OptimConfig(m=4, warm_start=g)}) == 1


def test_validate_rejects_bad_matrices():
    with pytest.raises(errors.AsymmetricMatrix):
        validate([[0.1, 0.2], [0.3, 0.1]])
    with pytest.raises(errors.ValueOutOfRange):
        validate([[1.5]])
    with pytest.raises(errors.EmptyMatrix):
        validate(np.zeros((0, 0)))
    with pytest.raises(errors.AsymmetricMatrix, match="not square"):
        validate(np.zeros((2, 3)))
    with pytest.raises(errors.ValueOutOfRange):
        validate([[math.nan]])
    with pytest.raises(errors.FormatError):
        validate([[0.5, 0.5], [0.5]])
    # a directly built Graphon checks itself as validate does
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        Graphon(values=np.array([[2.0]]))


@st.composite
def _flawed_matrices(draw):
    """(valid matrix, the same matrix with one flaw, the error the flaw raises):
    one entry NaN, -1e-9 or 1 + 1e-9, or one off-diagonal pair 2e-12 apart."""
    m = draw(st.integers(1, 6))
    r = draw(arrays(np.float64, (m, m), elements=st.floats(0.0, 1.0)))
    a = np.triu(r) + np.triu(r, 1).T
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    flaw = draw(st.sampled_from(["nan", "below", "above"] + (["pair"] if i != j else [])))
    bad = a.copy()
    if flaw == "pair":
        bad[j, i] = a[i, j] + (2e-12 if a[i, j] < 0.5 else -2e-12)
        return a, bad, errors.AsymmetricMatrix
    bad[i, j] = {"nan": math.nan, "below": -1e-9, "above": 1.0 + 1e-9}[flaw]
    return a, bad, errors.ValueOutOfRange


@settings(max_examples=100, deadline=None)
@given(case=_flawed_matrices())
def test_graphon_validate_and_read_graphon_refuse_the_same_flaw(tmp_path_factory, case):
    good, bad, error = case
    path = tmp_path_factory.getbasetemp() / "flawed.txt"
    validate(good)
    path.write_text(f"graphon v1 m={len(bad)}\n"
                    + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in bad))
    for refuse in (lambda: Graphon(values=bad.copy()), lambda: validate(bad),
                   lambda: read_graphon(path)):
        with pytest.raises(errors.GraphEntropyError) as caught:
            refuse()
        assert caught.type is error


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.0, 1.0), p=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       e=st.floats(0.0, 1.0), t=st.floats(0.0, 0.125), m=st.integers(1, 12),
       m2=st.integers(1, 30))
def test_every_builder_output_passes_the_graphon_check(c, p, e, t, m, m2):
    bipodal = bipodal_graphon(c, *p, m)
    built = [constant_graphon(e, m), bipodal, closed_form_upper(e, m),
             closed_form_half(t).graphon(m), resample(bipodal, m2),
             resample(_random_graphon(np.random.default_rng(m2), m), m2)]
    for g in built:
        v = g.values
        assert v.shape == (g.m, g.m) and not v.flags.writeable
        assert np.all((v >= 0.0) & (v <= 1.0)) and np.max(np.abs(v - v.T)) <= 1e-12


def test_resample_preserves_densities():
    rng = np.random.default_rng(5)
    g = _random_graphon(rng, 4)
    fine = resample(g, 12)  # exact refinement
    assert edge_density(fine) == pytest.approx(edge_density(g), abs=1e-15)
    assert motif_density(fine, Motif.triangle()) == pytest.approx(
        motif_density(g, Motif.triangle()), rel=1e-12
    )
    coarse = resample(g, 7)  # averaging path keeps the edge density
    assert edge_density(coarse) == pytest.approx(edge_density(g), abs=1e-12)


def test_graphon_builders_reject_bad_arguments():
    with pytest.raises(errors.ValueOutOfRange, match="outside"):
        constant_graphon(1.5, 2)
    g = constant_graphon(0.5, 2)
    with pytest.raises(errors.ValueOutOfRange, match="nonempty"):
        graphon_distance(g, g, [])
    for m2 in (0, 2.5, True):
        with pytest.raises(errors.ValueOutOfRange, match="resolution"):
            resample(g, m2)


@pytest.mark.parametrize("call", [
    lambda: constant_graphon(0.5, 2.5),
    lambda: constant_graphon(0.5, True),
    lambda: bipodal_graphon(0.5, 0.2, 0.3, 0.4, 2.5),
    lambda: closed_form_upper(0.5, 2.5),
    lambda: closed_form_half(0.1).graphon(2.5),
    lambda: boundary_table(2.5),
    lambda: convexity_report(400.5),
    lambda: Motif.star(True),
    lambda: Motif.from_edges(2.5, [(1, 2)]),
    lambda: Motif(ell=True, edges=[]),
    lambda: enumerate_census(2.5),
    lambda: enumerate_census(3, threads=1.5),
    lambda: enumerate_census(True),
], ids=["constant", "constant-bool", "bipodal", "upper", "half", "boundary_table",
        "convexity_report", "star-bool", "motif-float", "motif-bool", "census-float",
        "census-threads-float", "census-bool"])
def test_counts_and_resolutions_must_be_whole_numbers(call):
    # a float or a bool is invalid input, not Python's TypeError, and True is not k = 1
    with pytest.raises(errors.ValueOutOfRange, match="integer"):
        call()


def _no_point(*args):
    raise AssertionError("a point was computed")


@pytest.mark.parametrize("module, point, call", [
    (region, "upper_boundary", boundary_table),
    (ergm, "find_transition", lambda n: transition_curve(0.6, 2.0, n)),
    (optimize, "slice_second_derivative", convexity_report),
], ids=["boundary_table", "transition_curve", "convexity_report"])
def test_a_point_count_above_the_cap_is_refused_before_any_point(monkeypatch, module, point,
                                                                 call):
    monkeypatch.setattr(module, point, _no_point)
    cap = errors.MAX_POINTS
    with pytest.raises(errors.TooLarge, match=f"^[a-z]+={cap + 1} exceeds the cap {cap}$"):
        call(cap + 1)


@pytest.mark.parametrize("call", [
    lambda: DensityPair(e="0.5", t=0.1),
    lambda: DensityPair(e=True, t=True),
    lambda: f_minus("0.5"),
    lambda: closed_form_half("0.1"),
    lambda: closed_form_upper(None, 4),
    lambda: bipodal_graphon("0.5", 0.1, 0.2, 0.3, 4),
    lambda: ErgmParams("1", 0.0),
    lambda: ErgmParams(True, 0.0),
    lambda: find_transition("1"),
    lambda: transition_curve(0.6, "2", 8),
    lambda: check_alpha("1"),
], ids=["pair-str", "pair-bool", "f_minus", "half", "upper", "bipodal", "ergm-str",
        "ergm-bool", "find_transition", "transition_curve", "alpha"])
def test_scalars_must_be_real_numbers(call):
    # a string or None is invalid input, not Python's TypeError, and True is not 1
    with pytest.raises(errors.ValueOutOfRange, match="real number"):
        call()


def test_numpy_scalars_pass_the_scalar_rules():
    assert DensityPair(e=np.float64(0.5), t=np.float64(0.1)).t == 0.1
    assert ErgmParams(np.float64(1.0), np.int64(0)).beta1 == 1.0
    assert closed_form_half(np.float64(0.1)).epsilon == closed_form_half(0.1).epsilon
    check_alpha(np.float64(0.05))


@pytest.mark.parametrize("function, argument, named", [
    (rate_value, 2.0, "2.0"),
    (rate_derivative, 2.0, "2.0"),
    (rate_derivative, math.nan, "nan"),
    (rate_derivative, np.array([0.5, -0.1]), "-0.1"),
    (rate_second_derivative, 2.0, "2.0"),
    (rate_second_derivative, math.nan, "nan"),
    (slice_second_derivative, -0.1, "-0.1"),
    (slice_second_derivative, 0.2, "0.2"),
    (slice_second_derivative, 0.0, "0.0"),
    (slice_second_derivative, 0.125, "0.125"),
    (slice_second_derivative, np.array([0.05, 0.2]), "0.2"),
    (slice_second_derivative_fd, 0.0, "0.0"),
    (slice_second_derivative_fd, 0.125, "0.125"),
    (slice_second_derivative_fd, 0.2, "0.2"),
    (slice_second_derivative_fd, math.nan, "nan"),
])
def test_rate_and_slice_derivatives_refuse_points_outside_their_domain(function, argument, named):
    # I0, I0' and I0'' take u in [0, 1]; the e = 1/2 slice's s'' takes t in
    # (0, 1/8); the error names the point given, not a shifted one
    with pytest.raises(errors.ValueOutOfRange, match=rf"takes .* got {named}$"):
        function(argument)


def test_rate_derivatives_take_the_faces_of_the_unit_interval():
    # I0' is clamped there and I0'' is infinite, with no divide warning
    faces = np.array([0.0, 1.0])
    assert np.array_equal(rate_derivative(faces), _kernel.rate_derivative(faces))
    assert rate_second_derivative(faces).tolist() == [math.inf, math.inf]
    assert rate_second_derivative(0.0) == rate_second_derivative(1.0) == math.inf


def _loop_resample(g, m2):
    """resample's averaging path as a Python double loop over the overlap
    matrix, the reference for the array form."""
    m = g.m
    p = np.zeros((m2, m))
    for i in range(m2):
        for k in range(m):
            lo = max(i / m2, k / m)
            hi = min((i + 1) / m2, (k + 1) / m)
            if hi > lo:
                p[i, k] = (hi - lo) * m2
    vals = p @ g.values @ p.T
    return np.clip(0.5 * (vals + vals.T), 0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 39), m2=st.integers(1, 69), seed=st.integers(0, 2 ** 32 - 1))
@example(m=39, m2=68, seed=0)
@example(m=7, m2=3, seed=1)
def test_resample_overlap_matches_the_loop_bitwise(m, m2, seed):
    assume(m2 % m != 0)  # the identity and block refinement build no overlap matrix
    g = _random_graphon(np.random.default_rng(seed), m)
    assert resample(g, m2).values.tobytes() == _loop_resample(g, m2).tobytes()


def test_graphon_distance():
    g1 = constant_graphon(0.5, 4)
    g2 = constant_graphon(0.5, 9)
    motifs = [Motif.edge(), Motif.triangle()]
    assert graphon_distance(g1, g2, motifs) == pytest.approx(0.0, abs=1e-15)
    g3 = constant_graphon(0.6, 4)
    assert graphon_distance(g1, g3, [Motif.edge()]) == pytest.approx(0.05, abs=1e-15)


# ---------------------------------------------------------------------------
# File formats


def test_graphon_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    g = _random_graphon(rng, 5)
    path = tmp_path / "g.txt"
    write_graphon(g, path)
    back = read_graphon(path)
    assert np.array_equal(back.values, g.values)


def test_graphon_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense\n")
    with pytest.raises(errors.FormatError):
        read_graphon(path)
    path.write_text("graphon v1 m=2\n0.1 0.9\n0.2 0.1\n")
    with pytest.raises(errors.AsymmetricMatrix):
        read_graphon(path)
    for text, message in (("graphon v1 m=x\n0.5\n", "bad resolution"),
                          ("graphon v1 m=2\n0.5 0.5\n", "expected 2 data rows, found 1"),
                          ("graphon v1 m=2\n0.5 0.5 0.5\n0.5 0.5 0.5\n",
                           r"expected 2x2 values, found \(2, 3\)"),
                          ("graphon v1 m=2\n0.5 0.5\n0.5\n", "2 numbers each"),
                          ("graphon v1 m=2\n0.5 x\n0.5 0.5\n", "2 numbers each")):
        path.write_text(text)
        with pytest.raises(errors.FormatError, match=message):
            read_graphon(path)


@pytest.mark.parametrize("path", ["a\u0000b", "\ud800.txt"], ids=["null-byte", "surrogate"])
def test_graphon_files_refuse_a_path_no_file_can_have(path):
    # as read_motif does: invalid input, not Python's ValueError or UnicodeEncodeError
    with pytest.raises(errors.ValueOutOfRange, match="graphon path .* cannot name a file"):
        read_graphon(path)
    with pytest.raises(errors.ValueOutOfRange, match="graphon path .* cannot name a file"):
        write_graphon(constant_graphon(0.5, 2), path)


def test_motif_file_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("motif v1 ell=4\n1 2\n1 3\n1 4\n")
    assert read_motif(path) == Motif.star(3)


def test_graphon_text_full_precision():
    g = constant_graphon(1.0 / 3.0, 2)
    assert repr(1.0 / 3.0) in graphon_text(g)


# ---------------------------------------------------------------------------
# Solver kernels against a reference copy
#
# The functions below state the solver's density/gradient fast paths, its
# augmented-Lagrangian objective (the free energy's too, at zero penalty) and
# the rate function as plain formulas, in the order `_kernel` sums them: I(A) and t as dots, I0'
# from the same two logs, f priced in Python floats.  They are the kernel's
# formulas written out, so triangle and star results must be equal, not
# close.  The longer, pairwise formulation the kernel had before it shared
# one log pair per iterate follows them, as a closeness oracle.

_REF_CLAMP = 1e-12


def _ref_rate_value(u):
    scalar = np.isscalar(u) or getattr(u, "ndim", 0) == 0
    a = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(a)
    inner = (a > 0.0) & (a < 1.0)
    ai = a[inner]
    out[inner] = 0.5 * (ai * np.log(ai) + (1.0 - ai) * np.log(1.0 - ai))
    return float(out[0]) if scalar else out.reshape(np.shape(u))


def _ref_rate_derivative(u):
    a = np.clip(np.asarray(u, dtype=float), _REF_CLAMP, 1.0 - _REF_CLAMP)
    out = 0.5 * (np.log(a) - np.log1p(-a))
    return float(out) if out.ndim == 0 else out


def _ref_make_problem(motif, m):
    if motif == Motif.triangle():

        def dens_grad(a):
            a2 = a @ a
            return float(np.vdot(a2, a)) / m ** 3, (3.0 / m) * a2

        return dens_grad
    assert motif.edges == frozenset((1, j) for j in range(2, motif.ell + 1))
    k = motif.k

    def dens_grad(a):
        r = np.mean(a, axis=1)
        rp = r ** (k - 1)
        d = 0.5 * k * (rp[:, None] + rp[None, :])
        return float(np.mean(r ** k)), d

    return dens_grad


def _ref_rate(a):
    """I(A) as two dots, and I0'(A) from the same two logs."""
    b = 1.0 - a
    log_a, log_b = np.log(a), np.log(b)
    i_val = 0.5 * (float(np.vdot(a, log_a)) + float(np.vdot(b, log_b))) / a.size
    return i_val, 0.5 * (log_a - log_b)


def _ref_al_objective(dens_grad, te, tt, lam, rho, tol, best):
    def obj_grad(a):
        i_val, i0_prime = _ref_rate(a)
        t_val, d = dens_grad(a)
        c0, c1 = float(np.mean(a)) - te, t_val - tt
        l0, l1 = float(lam[0]), float(lam[1])
        f = i_val - (l0 * c0 + l1 * c1) + 0.5 * rho * (c0 * c0 + c1 * c1)
        g = i0_prime - (l0 - rho * c0) - (l1 - rho * c1) * d
        if max(abs(c0), abs(c1)) <= tol and -i_val > best["s"]:
            best["s"] = -i_val
            best["a"] = a.copy()
        return f, g

    return obj_grad


# The pairwise formulation: I(A) as the mean of the masked rate, t as a
# pairwise sum, I0' from log and log1p of the clamped A, and f priced with
# numpy 2-vector dots.


def _pairwise_make_problem(motif, m):
    if motif == Motif.triangle():

        def dens_grad(a):
            a2 = a @ a
            return float(np.sum(a2 * a)) / m ** 3, 3.0 * a2 / m

        return dens_grad
    return _ref_make_problem(motif, m)


def _pairwise_al_objective(dens_grad, te, tt, lam, rho, tol, best):
    def obj_grad(a):
        i_val = float(np.mean(_ref_rate_value(a)))
        e_val = float(np.mean(a))
        t_val, d = dens_grad(a)
        c = np.array([e_val - te, t_val - tt])
        lam_eff = lam - rho * c
        f = i_val - float(lam @ c) + 0.5 * rho * float(c @ c)
        g = _ref_rate_derivative(a) - lam_eff[0] - lam_eff[1] * d
        if max(abs(c[0]), abs(c[1])) <= tol and -i_val > best["s"]:
            best["s"] = -i_val
            best["a"] = a.copy()
        return f, g

    return obj_grad


def _pairwise_free_energy(dens_grad, b1, b2):
    def obj_grad(a):
        t_val, d = dens_grad(a)
        f = float(np.mean(_ref_rate_value(a))) - b1 * float(np.mean(a)) - b2 * t_val
        return f, _ref_rate_derivative(a) - b1 - b2 * d

    return obj_grad


_FAST_MOTIFS = [Motif.triangle()] + [Motif.star(k) for k in (1, 2, 3, 4)]
_BOX = st.floats(_REF_CLAMP, 1.0 - _REF_CLAMP)


@st.composite
def _box_graphons(draw, elements=_BOX):
    """Symmetric m x m matrices with entries drawn from elements, by default
    [CLAMP, 1-CLAMP] with the box ends included."""
    m = draw(st.sampled_from([1, 2, 7, 16]))
    r = draw(arrays(np.float64, (m, m), elements=elements))
    return np.triu(r) + np.triu(r, 1).T


_SETTINGS = settings(max_examples=60, deadline=None)


@_SETTINGS
@given(a=_box_graphons(), motif=st.sampled_from(_FAST_MOTIFS))
def test_kernel_density_gradient_bit_equal_to_reference(a, motif):
    m = a.shape[0]
    t_ref, d_ref = _ref_make_problem(motif, m)(a)
    t, field = _kernel.density_gradient(motif, m)(a)
    assert t == t_ref and np.array_equal(field(), d_ref)
    g = Graphon(values=a.copy())
    assert motif_density(g, motif) == t_ref
    assert np.array_equal(motif_gradient(g, motif), d_ref)


def test_motif_gradient_computes_no_density(monkeypatch):
    # the field alone, with the same bits as the field of the solver's path
    g = _random_graphon(np.random.default_rng(3), 5)
    motifs = [*_FAST_MOTIFS, Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])]
    want = [_kernel.density_gradient(h, g.m)(g.values)[1]() for h in motifs]

    def no_density(*args):
        raise AssertionError("a density was computed")

    for name in ("_triangle_density", "_star_density", "einsum_density"):
        monkeypatch.setattr(_kernel, name, no_density)
    for h, d in zip(motifs, want):
        assert np.array_equal(motif_gradient(g, h), d)


@_SETTINGS
@given(a=_box_graphons())
def test_kernel_c4_matches_matrix_powers(a):
    # t(C4) = tr(A^4) / m^4 and its field is 4 A^3 / m^2
    m = a.shape[0]
    c4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    a3 = a @ a @ a
    t_ref = float(np.sum(a3 * a)) / m ** 4
    d_ref = 4.0 * a3 / m ** 2
    t, field = _kernel.density_gradient(c4, m)(a)
    assert t == pytest.approx(t_ref, rel=1e-13)
    assert np.allclose(field(), d_ref, rtol=1e-13, atol=0.0)


# Scalars come from a seeded generator rather than from hypothesis floats,
# which favour values such as 0, 1 and integers whose products round
# exactly and so would hide a change in rounding.
_SEEDS = st.integers(0, 2 ** 32 - 1)


@_SETTINGS
@given(
    a=_box_graphons(),
    motif=st.sampled_from(_FAST_MOTIFS),
    seed=_SEEDS,
    tol=st.sampled_from([1e-6, 2.0]),
)
def test_kernel_al_objective_bit_equal_to_reference(a, motif, seed, tol):
    m = a.shape[0]
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-50.0, 50.0, size=2)
    rho = 10.0 ** float(rng.uniform(-2.0, 8.0))
    te, tt = rng.uniform(0.0, 1.0, size=2).tolist()
    best_ref = {"s": -math.inf, "a": None}
    f_ref, g_ref = _ref_al_objective(
        _ref_make_problem(motif, m), te, tt, lam, rho, tol, best_ref)(a)
    objective = _kernel.AugmentedLagrangian(
        _kernel.density_gradient(motif, m), te, tt, lam, rho, tol)
    f = objective.value(a)
    # the record is kept by the value part alone
    assert objective.best_s == best_ref["s"]
    g = objective.gradient()
    assert f == f_ref and np.array_equal(g, g_ref)
    assert objective.best_s == best_ref["s"]
    assert (objective.best_a is None) == (best_ref["a"] is None)
    if objective.best_a is not None:
        assert np.array_equal(objective.best_a, best_ref["a"])


@st.composite
def _near_face_graphons(draw):
    """Symmetric m x m matrices, m in {4, 8, 16}, on the box, with a drawn
    share of entries within 1e-3 of one of its faces."""
    m = draw(st.sampled_from([4, 8, 16]))
    near_share = draw(st.floats(0.05, 0.5))
    rng = np.random.default_rng(draw(_SEEDS))
    r = rng.uniform(_REF_CLAMP, 1.0 - _REF_CLAMP, size=(m, m))
    gap = 10.0 ** rng.uniform(-12.0, -3.0, size=(m, m))
    face = np.where(rng.random((m, m)) < 0.5, gap, 1.0 - gap)
    r = np.where(rng.random((m, m)) < near_share, face, r)
    return np.triu(r) + np.triu(r, 1).T


_C4 = Motif.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


@_SETTINGS
@given(a=_near_face_graphons(), motif=st.sampled_from(_FAST_MOTIFS + [_C4]), seed=_SEEDS)
def test_kernel_al_reprice_bit_equal_to_a_fresh_objective(a, motif, seed):
    # the objective valued and differentiated at A under one (lam, rho), then
    # repriced twice, gives the bits a new objective gives at A
    m = a.shape[0]
    rng = np.random.default_rng(seed)
    te, tt = rng.uniform(0.0, 1.0, size=2).tolist()
    prices = [(rng.uniform(-50.0, 50.0, size=2), 10.0 ** float(rng.uniform(-2.0, 8.0)))
              for _ in range(3)]
    dens = _kernel.density_gradient(motif, m)
    held = _kernel.AugmentedLagrangian(dens, te, tt, *prices[0], 1e-6)
    held.value(a)
    held.gradient()
    for lam, rho in prices[1:]:
        f, g = held.reprice(lam, rho)
        fresh = _kernel.AugmentedLagrangian(dens, te, tt, lam, rho, 1e-6)
        assert f.hex() == fresh.value(a).hex()
        assert g.tobytes() == fresh.gradient().tobytes()


# The kernel sums the pairwise formulation's terms in another order and
# takes ln(1 - A) where it took log1p(-A).  f and each entry of G are sums of
# at most four terms (I, lam0 c0, lam1 c1 and (rho/2) |c|^2; I0', lam_eff0
# and lam_eff1 D), and each formulation rounds each term a few times: a log,
# a product, and a sum of m^2 <= 256 same-signed entries that a pairwise or
# a BLAS sum rounds by a few ulps at these sizes.  So 4 terms x 2
# formulations x 2 ulps bounds their difference, 16 ulps of the largest
# term; 20,000 draws like these gave at most 6.
_PAIRWISE_ULPS = 16 * 2.0 ** -53


@_SETTINGS
@given(
    a=st.one_of(_box_graphons(), _near_face_graphons()),
    motif=st.sampled_from(_FAST_MOTIFS),
    seed=_SEEDS,
)
def test_kernel_objectives_close_to_the_pairwise_formulation(a, motif, seed):
    m = a.shape[0]
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-50.0, 50.0, size=2)
    rho = 10.0 ** float(rng.uniform(-2.0, 8.0))
    te, tt = rng.uniform(0.0, 1.0, size=2).tolist()
    b1, b2 = rng.uniform(-20.0, 20.0, size=2).tolist()
    best = {"s": -math.inf, "a": None}
    f_al, g_al = _pairwise_al_objective(
        _pairwise_make_problem(motif, m), te, tt, lam, rho, 1e-6, best)(a)
    f_fe, g_fe = _pairwise_free_energy(_pairwise_make_problem(motif, m), b1, b2)(a)
    dens = _kernel.density_gradient(motif, m)
    al = _kernel.AugmentedLagrangian(dens, te, tt, lam, rho, 1e-6)
    # the free energy is the Lagrangian at target (0, 0) with no penalty
    fe = _kernel.AugmentedLagrangian(dens, 0.0, 0.0, (b1, b2), 0.0, -1.0)
    f, g = al.value(a), al.gradient()
    e, t, d, i_val = al.e, al.t, al.d, float(np.mean(_ref_rate_value(a)))
    # the terms' sizes, with c's two parts apart: c = e - te can cancel
    l0, l1 = np.abs(lam).tolist()
    ce, ct = e + te, t + tt
    half_logs = 0.5 * np.maximum(np.abs(np.log(a)), np.abs(np.log1p(-a)))
    assert abs(f - f_al) <= _PAIRWISE_ULPS * max(
        abs(i_val), l0 * ce, l1 * ct, 0.5 * rho * (ce * ce + ct * ct))
    assert np.all(np.abs(g - g_al) <= _PAIRWISE_ULPS * np.maximum(
        half_logs, np.maximum(l0 + rho * ce, (l1 + rho * ct) * np.abs(d))))
    f, g = fe.value(a), fe.gradient()
    assert abs(f - f_fe) <= _PAIRWISE_ULPS * max(abs(i_val), abs(b1) * e, abs(b2) * t)
    assert np.all(np.abs(g - g_fe) <= _PAIRWISE_ULPS * np.maximum(
        half_logs, np.maximum(abs(b1), abs(b2) * np.abs(d))))


@_SETTINGS
@given(a=_box_graphons(), motif=st.sampled_from(_FAST_MOTIFS), seed=_SEEDS)
def test_kernel_free_energy_bit_equal_to_reference(a, motif, seed):
    # the negated ERGM free energy, as ergm.psi_full prices it: the
    # Lagrangian at target (0, 0), no penalty, lam = (beta1, beta2) and a
    # tolerance no iterate meets
    m = a.shape[0]
    lam = np.random.default_rng(seed).uniform(-20.0, 20.0, size=2)
    best_ref = {"s": -math.inf, "a": None}
    f_ref, g_ref = _ref_al_objective(
        _ref_make_problem(motif, m), 0.0, 0.0, lam, 0.0, -1.0, best_ref)(a)
    objective = _kernel.AugmentedLagrangian(
        _kernel.density_gradient(motif, m), 0.0, 0.0, tuple(lam), 0.0, -1.0)
    f = objective.value(a)
    assert f == f_ref and np.array_equal(objective.gradient(), g_ref)
    assert objective.best_a is None and objective.best_s == -math.inf


class _CountingNumpy:
    """numpy, with the calls of the functions named counted; a counted ufunc
    keeps its methods, whose calls are not counted."""

    def __init__(self, names):
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        return _CountedCall(self, name) if name in self.calls else getattr(np, name)


class _CountedCall:
    def __init__(self, counter, name):
        self._counter, self._name = counter, name

    def __call__(self, *args, **kwargs):
        self._counter.calls[self._name] += 1
        return getattr(np, self._name)(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(getattr(np, self._name), attr)


_BUDGETED = ("log", "log1p", "minimum", "maximum")


def _interior_triangle_objective(m=16):
    """An augmented-Lagrangian objective for the triangle and an m x m iterate
    with entries in [0.1, 0.9]."""
    r = np.random.default_rng(5).uniform(0.1, 0.9, size=(m, m))
    objective = _kernel.AugmentedLagrangian(_kernel.density_gradient(Motif.triangle(), m),
                                            0.5, 0.1, np.array([0.3, -1.2]), 10.0, 1e-6)
    return 0.5 * (r + r.T), objective


def test_one_value_and_gradient_take_one_log_pair(monkeypatch):
    # I(A) and I0'(A) share ln A and ln(1 - A), and an iterate of the box
    # needs no clamp
    a, objective = _interior_triangle_objective()
    counting = _CountingNumpy(_BUDGETED)
    monkeypatch.setattr(_kernel, "np", counting)
    objective.value(a)
    objective.gradient()
    assert counting.calls == {"log": 2, "log1p": 0, "minimum": 0, "maximum": 0}


@_SETTINGS
@given(a=_box_graphons(), shift=st.floats(-0.5, 0.5))
def test_rate_derivative_and_projection_bit_equal_to_reference(a, shift):
    # shifted entries leave the box, so the clamp is exercised; the public I0'
    # takes u in [0, 1] only, so it sees them clipped to [0, 1], whose faces
    # lie outside the box too
    x = a + shift
    assert np.array_equal(_kernel.rate_derivative(x), _ref_rate_derivative(x))
    u = np.clip(x, 0.0, 1.0)
    assert np.array_equal(rate_derivative(u), _ref_rate_derivative(u))
    assert rate_derivative(float(u[0, 0])) == _ref_rate_derivative(float(u[0, 0]))
    assert np.array_equal(_kernel.project(x), np.clip(x, _REF_CLAMP, 1.0 - _REF_CLAMP))


class _Counted:
    """An spg_box objective from value(A) -> f and gradient(A) -> G; counts
    the values and the gradients built, and builds G at the last A valued."""

    def __init__(self, value, gradient):
        self._value, self._gradient = value, gradient
        self.values = self.gradients = 0

    def value(self, a):
        self.values += 1
        self._a = a
        return self._value(a)

    def gradient(self):
        self.gradients += 1
        return self._gradient(self._a)


def _box_quadratic(m=4):
    """f(A) = mean(w (A - C)^2) / 2 with C partly outside the box, so SPG
    projects and does not converge in a few steps."""
    rng = np.random.default_rng(3)
    c = rng.uniform(-0.5, 1.5, size=(m, m))
    w = rng.uniform(0.5, 5.0, size=(m, m))
    c, w = 0.5 * (c + c.T), 0.5 * (w + w.T)
    objective = _Counted(lambda a: 0.5 * float(np.mean(w * (a - c) * (a - c))),
                         lambda a: w * (a - c))
    return np.full((m, m), 0.5), objective


@pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
def test_spg_box_norm_is_measured_at_the_returned_iterate(max_iter):
    a0, objective = _box_quadratic()
    a, f, g, pg = _kernel.spg_box(a0, objective, 0.0, max_iter)
    f_a = objective.value(a)
    assert f == f_a and np.array_equal(g, objective.gradient())
    assert pg == _kernel.projected_gradient_norm(a, g)
    if max_iter == 0:
        assert np.array_equal(a, a0)
    else:
        assert not np.array_equal(a, a0)


def _linear(a0, g):
    """f(A) = mean(G A): a constant gradient G from the start a0."""
    return a0, _Counted(lambda a: float(np.mean(g * a)), lambda a: g.copy())


def _face_pinned(interior, g_interior):
    """A 4 x 4 start with every entry at `interior` but one on the lower face,
    where the gradient 1e20 pushes it out of the box; the other entries have
    gradient g_interior.  The spectral step 1 / max|G| = 1e-20 cannot move
    them, so the spectral direction is 0 and <G, D> = 0."""
    a0 = np.full((4, 4), interior)
    a0[0, 0] = _REF_CLAMP
    g = np.full((4, 4), g_interior)
    g[0, 0] = 1e20
    step = 1.0 / float(np.abs(g).max())
    d = _kernel.project(a0 - _kernel._entry_steps(_kernel._step_scale(a0), step) * g) - a0
    assert not d.any()
    return _linear(a0, g)


def test_spg_box_retries_a_spectral_step_that_cannot_descend_with_the_unit_step():
    # at the unit step the interior entries descend to the face, up to the
    # rounding of 0.5 + (CLAMP - 0.5)
    a0, objective = _face_pinned(0.5, 1.0)
    f0 = objective.value(a0)
    a, f, _, pg = _kernel.spg_box(a0, objective, 1e-8, 10)
    assert a is not a0 and f < f0
    np.testing.assert_allclose(a, _REF_CLAMP, rtol=0.0, atol=1e-16)
    assert pg <= 1e-8


def test_spg_box_stops_where_neither_step_can_descend():
    # at 1e-3 the scaled unit step moves an entry by 2e-3 G = 2e-20, below
    # half its ulp, while the unscaled projected gradient is still 1e-17
    a0, objective = _face_pinned(1e-3, 1e-17)
    a, f, g, pg = _kernel.spg_box(a0, objective, 1e-18, 10)
    assert a is a0
    assert pg > 1e-18
    assert (objective.values, objective.gradients) == (1, 1)


# B cycles through -12, -3, 0, 3, 8 along the anti-diagonals; an unscaled
# SPG runs out of 2000 steps on it and stops at pg 5e-3.
_FACE_FIELD = np.array([-12.0, -3.0, 0.0, 3.0, 8.0])[np.add.outer(range(16), range(16)) % 5]


def _separable(b):
    """f(A) = mean(I0(A) - B A), minimized entrywise by I0'(a) = B, that is
    a = sigmoid(2B)."""
    return _Counted(lambda a: float(np.mean(rate_value(a) - b * a)),
                    lambda a: rate_derivative(a) - b)


@settings(max_examples=100, deadline=None)
@given(b=_box_graphons(st.floats(-12.0, 8.0)))
@example(b=_FACE_FIELD)
def test_spg_box_solves_the_separable_entropy_problem(b):
    # a = sigmoid(2B) is within 4e-11 of the lower face at B = -12.  B stops at
    # 8 on the upper side.  Near a = 1 one ulp of a moves I0'(a) by
    # I0''(a) * 1.1e-16: 5e-10 at B = 8, but 1.2e-6 at B = 12, where the double
    # just past the optimum can have pg of that size.
    objective = _separable(b)
    a, _, _, pg = _kernel.spg_box(np.full(b.shape, 0.5), objective, 1e-8, 2000)
    assert pg <= 1e-8
    assert objective.values <= 200
    np.testing.assert_allclose(a, 1.0 / (1.0 + np.exp(-2.0 * b)), rtol=0.0, atol=2e-8)


def _ref_spg_box(a, obj_grad, tol, max_iter):
    """spg_box as it was when every trial built (f, G) at once; returns the
    final iterate and the numbers of evaluations and accepted steps."""
    f, g = obj_grad(a)
    evals, steps = 1, 0
    step = 1.0 / max(1.0, float(np.abs(g).max()))
    hist = [f]
    for _ in range(max_iter):
        if _kernel.projected_gradient_norm(a, g) <= tol:
            break
        w = _kernel._step_scale(a)
        d = _kernel.project(a - _kernel._entry_steps(w, step) * g) - a
        gd = _kernel._dot(g, d)
        if gd >= 0.0:
            step = 1.0
            d = _kernel.project(a - _kernel._entry_steps(w, step) * g) - a
            gd = _kernel._dot(g, d)
            if gd >= 0.0:
                break
        fref = max(hist[-10:])
        alpha = 1.0
        while True:
            an = a + alpha * d
            fn, gn = obj_grad(an)
            evals += 1
            if fn <= fref + 1e-4 * alpha * gd or alpha < 1e-12:
                break
            alpha *= 0.5
        s, y = an - a, gn - g
        sy = _kernel._dot(s, y)
        step = min(max(_kernel._dot(s, s / w) / sy, 1e-8), 1e8) if sy > 1e-18 else 1.0
        a, f, g = an, fn, gn
        steps += 1
        hist.append(f)
    return a, evals, steps


def _check_against_the_eager_reference(a0, b):
    """spg_box on the separable problem from a0: the eager reference's
    iterate bit for bit, with one G at the start and one per accepted step."""
    objective = _separable(b)
    a, _, _, _ = _kernel.spg_box(a0.copy(), objective, 1e-8, 2000)
    eager = _separable(b)

    def obj_grad(a):
        return eager.value(a), eager.gradient()

    a_ref, evals, steps = _ref_spg_box(a0.copy(), obj_grad, 1e-8, 2000)
    assert a.tobytes() == a_ref.tobytes()
    assert objective.values == evals
    assert objective.gradients == steps + 1


@settings(max_examples=100, deadline=None)
@given(b=_box_graphons(st.floats(-12.0, 8.0)))
@example(b=_FACE_FIELD)
def test_spg_box_builds_the_gradient_only_at_accepted_steps(b):
    # the same iterates and values as the loop that built G at every trial,
    # with one G at the start and one per accepted step
    _check_against_the_eager_reference(np.full(b.shape, 0.5), b)


# C a(1-a) < 1, the scaled band, holds for a below about 0.0102 or above 0.9898
_BAND_EDGES = st.one_of(st.floats(_REF_CLAMP, 0.02), st.floats(0.98, 1.0 - _REF_CLAMP))


@st.composite
def _separable_runs(draw):
    """(start, B) with starts inside, at the edge of and outside the scaled
    band, and fields whose optimum lies on either side of it."""
    b = draw(_box_graphons(st.floats(-12.0, 8.0)))
    elements = st.one_of(_BAND_EDGES, st.floats(0.02, 0.98))
    a0 = draw(arrays(np.float64, b.shape, elements=elements))
    return np.triu(a0) + np.triu(a0, 1).T, b


@settings(max_examples=60, deadline=None)
@given(run=_separable_runs())
def test_spg_box_matches_the_eager_reference_across_the_scaled_band(run):
    # starts where the face scaling acts on some entries, on all or on none,
    # and runs that cross into or out of the band: the lazy gradient keeps
    # the reference's iterates there too, bit for bit
    _check_against_the_eager_reference(*run)
