"""Kernel-operator spectral decomposition tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphentropy import errors
from graphentropy.graphon import Graphon, constant_graphon, edge_density
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
    # and of the eigenvalues leaves residues far apart on that scale
    c, s = np.cos(0.3), np.sin(0.3)
    r = np.array([[c, -s], [s, c]])
    dg = r @ np.diag([1e6, -1e6]) @ r.T
    with pytest.raises(ArithmeticError, match="trace path mismatch"):
        trace_power(0.5 * (dg + dg.T), 3)


def test_asymmetric_rejected():
    with pytest.raises(errors.AsymmetricMatrix):
        kernel_operator_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # verify_trace_inequality checks through kernel_operator_spectrum alone
    for dg in (np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros((2, 3))):
        with pytest.raises(errors.AsymmetricMatrix):
            verify_trace_inequality(dg)


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


def test_negative_rank_one_strict_gap():
    # equality needs Tr T^3 = +(Tr T^2)^{3/2} in absolute value; a negative
    # rank-one kernel still attains it through the absolute value
    v = np.array([1.0, 2.0, -1.0])
    rep = verify_trace_inequality(-np.outer(v, v))
    assert rep["holds"]
    assert rep["gap"] < 1e-10
