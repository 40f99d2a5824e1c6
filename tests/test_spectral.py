"""Kernel-operator spectral decomposition tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphentropy import errors, spectral
from graphentropy.graphon import (
    Graphon,
    Motif,
    constant_graphon,
    edge_density,
    motif_density,
    rate_function,
    rate_value,
)
from graphentropy.spectral import (
    delta_t_decomposition,
    kernel_operator_spectrum,
    numerical_rank,
    trace_power,
    triangle_delta_direct,
    verify_trace_inequality,
)


def _random_kernel(rng, m):
    r = rng.uniform(-1, 1, size=(m, m))
    return 0.5 * (r + r.T)


def test_rank_one_spectrum():
    v = np.array([1.0, -1.0, 2.0, 0.5])
    dg = np.outer(v, v)
    mu = kernel_operator_spectrum(dg)
    # single nonzero eigenvalue |v|^2 / m
    assert mu[0] == pytest.approx(float(v @ v) / 4, abs=1e-12)
    assert np.allclose(mu[1:], 0.0, atol=1e-12)
    assert numerical_rank(mu) == 1


def test_trace_powers_match_spectrum():
    rng = np.random.default_rng(2)
    for m in (2, 5, 9):
        dg = _random_kernel(rng, m)
        mu = kernel_operator_spectrum(dg)
        assert trace_power(dg, 2) == pytest.approx(float(np.sum(mu ** 2)), rel=1e-10)
        assert trace_power(dg, 3) == pytest.approx(float(np.sum(mu ** 3)), rel=1e-10)
    with pytest.raises(errors.UnsupportedPower):
        trace_power(np.eye(3), 4)


def test_numerical_rank_of_no_eigenvalues_is_zero():
    assert numerical_rank([]) == 0


def test_trace_power_raises_where_its_two_paths_disagree():
    # eigenvalues +-1e6 cancel in Tr T^3; the rounding of the matrix product
    # and of the eigenvalues leaves residues far apart on that scale.  Turned
    # by a fixed 4 x 4 orthogonal Q, they read direct 40 against spectral 54
    # on all four kernel pairs of cpu_pair.py, where a 2-D rotation reads 0
    # against 0 under numpy's AVX2 code
    q, _ = np.linalg.qr(np.cos(1.7 * np.arange(16.0).reshape(4, 4) + 0.3))
    dg = q @ np.diag([1e6, -1e6, 0.0, 0.0]) @ q.T
    with pytest.raises(ArithmeticError, match="trace path mismatch"):
        trace_power(0.5 * (dg + dg.T), 3)


def test_asymmetric_rejected():
    with pytest.raises(errors.AsymmetricMatrix):
        kernel_operator_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # verify_trace_inequality checks through kernel_operator_spectrum alone
    for dg in (np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros((2, 3))):
        with pytest.raises(errors.AsymmetricMatrix):
            verify_trace_inequality(dg)
    # a non-finite entry is out of range, not a broken symmetry
    for bad in (np.nan, np.inf):
        with pytest.raises(errors.ValueOutOfRange):
            kernel_operator_spectrum(np.array([[0.0, bad], [bad, 0.0]]))


def test_trace_power_checks_its_kernel_once(monkeypatch):
    check, calls = spectral._check_symmetric, []
    monkeypatch.setattr(spectral, "_check_symmetric", lambda dg: calls.append(p) or check(dg))
    for p in (2, 3):
        trace_power(_random_kernel(np.random.default_rng(3), 5), p)
    assert calls == [2, 3]


def test_each_spectral_function_checks_and_diagonalizes_its_kernel_once(monkeypatch):
    calls = []
    for module, name in ((spectral, "_check_symmetric"), (np.linalg, "eigvalsh")):
        wrapped = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda a, name=name, wrapped=wrapped: calls.append(name) or wrapped(a))
    r = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 6))
    g = Graphon(values=0.5 * (r + r.T))
    dg = g.values - edge_density(g)
    for run in (lambda: delta_t_decomposition(g, edge_density(g)),
                lambda: trace_power(dg, 2), lambda: trace_power(dg, 3),
                lambda: verify_trace_inequality(dg)):
        calls.clear()
        run()
        assert calls == ["_check_symmetric", "eigvalsh"]


@st.composite
def _symmetric_and_pair(draw):
    """A symmetric matrix with entries in [0, 1] and an off-diagonal (i, j)."""
    m = draw(st.integers(2, 6))
    r = draw(arrays(np.float64, (m, m), elements=st.floats(0.0, 1.0)))
    i = draw(st.integers(0, m - 1))
    return np.triu(r) + np.triu(r, 1).T, i, (i + draw(st.integers(1, m - 1))) % m


@settings(max_examples=100, deadline=None)
@given(case=_symmetric_and_pair())
def test_graphons_and_kernels_share_one_symmetry_tolerance(case):
    # one off-diagonal pair 2e-12 apart is refused and 5e-13 apart accepted,
    # by the graphon check and the kernel check alike
    a, i, j = case
    for gap, refused in ((2e-12, True), (5e-13, False)):
        b = a.copy()
        b[j, i] = a[i, j] + (gap if a[i, j] < 0.5 else -gap)
        for check in (lambda: Graphon(values=b.copy()), lambda: kernel_operator_spectrum(b)):
            if refused:
                with pytest.raises(errors.AsymmetricMatrix, match="not symmetric"):
                    check()
            else:
                check()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 16))
def test_delta_t_traces_are_the_direct_traces_bitwise(seed, m):
    # the decomposition takes its traces from trace_power; the direct
    # products of T = (g - e) / m stay here as the reference
    r = np.random.default_rng(seed).uniform(0.0, 1.0, size=(m, m))
    g = Graphon(values=0.5 * (r + r.T))
    e = edge_density(g)
    rep = delta_t_decomposition(g, e)
    t = (g.values - e) / m
    assert rep.trace2.hex() == float(np.trace(t @ t)).hex()
    assert rep.trace3.hex() == float(np.trace(t @ t @ t)).hex()


def test_delta_t_decomposition_matches_direct():
    rng = np.random.default_rng(13)
    for m in (4, 8, 16):
        r = rng.uniform(0.1, 0.9, size=(m, m))
        g = Graphon(values=0.5 * (r + r.T))
        e = float(np.mean(g.values))
        rep = delta_t_decomposition(g, e)
        assert rep.delta_t == pytest.approx(triangle_delta_direct(g, e), abs=1e-12)


def test_delta_t_requires_matched_edge_density():
    g = constant_graphon(0.5, 4)
    with pytest.raises(errors.EdgeDensityMismatch):
        delta_t_decomposition(g, 0.4)


def test_trace_inequality_random_and_rank_one():
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = int(rng.integers(2, 17))
        rep = verify_trace_inequality(_random_kernel(rng, m))
        assert rep["holds"]
    v = rng.uniform(-1, 1, size=10)
    rep = verify_trace_inequality(np.outer(v, v))
    assert rep["rank_one"]
    assert rep["gap"] < 1e-10


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 16),
       scale=st.floats(1e1, 1e3), sign=st.sampled_from([1.0, -1.0]))
@example(seed=4, m=3, scale=10.0, sign=1.0)
@example(seed=1, m=8, scale=1000.0, sign=1.0)
def test_trace_inequality_holds_on_scaled_rank_one_kernels(seed, m, scale, sign):
    # rank one is the equality case, where lhs and rhs differ by rounding
    # alone, at any scale of the kernel
    v = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, size=m)
    rep = verify_trace_inequality(sign * np.outer(v, v))
    assert rep["holds"]
    assert rep["rank_one"]


def test_negative_rank_one_strict_gap():
    # equality needs Tr T^3 = +(Tr T^2)^{3/2} in absolute value; a negative
    # rank-one kernel still attains it through the absolute value
    v = np.array([1.0, 2.0, -1.0])
    rep = verify_trace_inequality(-np.outer(v, v))
    assert rep["holds"]
    assert rep["gap"] < 1e-10


CYCLES = {ell: Motif.from_edges(ell, [(i, i % ell + 1) for i in range(1, ell + 1)])
          for ell in range(3, 7)}


@st.composite
def _step_graphons(draw):
    """Symmetric m x m step graphons with m = 2..11, a third of them 0/1."""
    m = draw(st.integers(2, 11))
    binary = draw(st.integers(0, 2)) == 0
    elements = st.sampled_from([0.0, 1.0]) if binary else st.floats(0.0, 1.0)
    r = draw(arrays(np.float64, (m, m), elements=elements))
    return Graphon(values=np.triu(r) + np.triu(r, 1).T)


@settings(max_examples=300, deadline=None)
@given(g=_step_graphons())
def test_cycle_densities_meet_their_spectral_bounds(g):
    # t(C_ell, W) is the sum of lambda_i^ell over W's eigenvalues; the top one
    # is at least e, so the others' squares sum to at most |W - e|_2^2, and
    # |W|_2^2 <= e.  Hence e^ell - |W - e|_2^ell <= t for odd ell, e^ell <= t
    # for even ell, and t <= e^(ell/2).  I0'' >= 2 and the mean of W - e
    # being 0 give I(W) - I0(e) >= |W - e|_2^2.
    e = edge_density(g)
    dist = float(np.sqrt(np.mean((g.values - e) ** 2)))
    for ell, cycle in CYCLES.items():
        t = motif_density(g, cycle)
        assert t <= e ** (ell / 2) + 1e-12, ell
        assert t >= e ** ell - (dist ** ell if ell % 2 else 0.0) - 1e-12, ell
    assert rate_function(g) - rate_value(e) >= dist ** 2 - 1e-12


# Densities of the rank-one witness W = e + x aa^T, a = +1 on one half and -1
# on the other: expanding t_H(W) over edge subsets F of H leaves the subsets
# whose vertices all have even F-degree, each giving e^(|E|-|F|) x^|F|.
RANK_ONE_DENSITIES = {
    "c4": (CYCLES[4], lambda e, x: e ** 4 + x ** 4),
    "c5": (CYCLES[5], lambda e, x: e ** 5 + x ** 5),
    "c6": (CYCLES[6], lambda e, x: e ** 6 + x ** 6),
    "k4": (Motif.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
           lambda e, x: e ** 6 + 4 * e ** 3 * x ** 3 + 3 * e ** 2 * x ** 4),
    "paw": (Motif.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
            lambda e, x: e ** 4 + e * x ** 3),
}


@settings(max_examples=100, deadline=None)
@given(e=st.floats(0.2, 0.8), share=st.floats(-1.0, 1.0), m=st.sampled_from([2, 4, 6, 8, 16]))
def test_rank_one_witness_densities_are_exact(e, share, m):
    x = share * min(e, 1.0 - e) / 2
    alpha = np.where(np.arange(m) < m // 2, 1.0, -1.0)
    g = Graphon(values=e + x * np.outer(alpha, alpha))
    for name, (motif, density) in RANK_ONE_DENSITIES.items():
        assert abs(motif_density(g, motif) - density(e, x)) <= 1e-13, name
