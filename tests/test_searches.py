"""The two scalar searches of `_kernel` and the results built on them."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphentropy import _kernel
from graphentropy.ergm import find_transition
from graphentropy.optimize import convexity_report, f_minus

# Recorded at commit b5acaf7, where f_minus and the transition's scalar
# maximizers came from scipy.optimize.minimize_scalar(method="bounded");
# the port must reproduce every bit.
F_MINUS_AT_B5ACAF7 = {  # e: (f_minus, x_argmin)
    0.2: ("0x1.27be27f25daf1p+0", "0x1.333333330a7f8p-1"),
    0.3: ("0x1.0f22a4066ad21p+0", "0x1.99999999cccfcp-2"),
    0.5: ("0x1.0000000000000p+0", "0x1.4e5fdad4c26bcp-27"),
    0.7: ("0x1.0f22a4066ad1fp+0", "-0x1.9999993276a0dp-2"),
    0.9: ("0x1.5f8e5195843cep+0", "-0x1.999999ff8ea20p-1"),
}
TRANSITION_AT_B5ACAF7 = {  # beta2: (beta1_critical, u_low, u_high)
    0.58: ("-0x1.b4e159620d680p-2", "0x1.16c739b731e3ep-1", "0x1.8cfeb8c2a722ep-1"),
    1.0: ("-0x1.de5e9f495d6c0p-1", "0x1.338764d71688cp-3", "0x1.f5c90deb2a378p-1"),
    2.0: ("-0x1.fdac7b6fff5a0p+0", "0x1.2d302f7db0951p-6", "0x1.ffd47db0b5a38p-1"),
}
# scipy.optimize.brentq(xtol=1e-14) at b5acaf7; bisection to the same width
# lands within 1e-14 of it, not on the same bits
C1_AT_B5ACAF7 = float.fromhex("0x1.fac7e0b7eed76p-5")


def test_f_minus_bit_identical_to_recorded_values():
    for e, (fm, x) in F_MINUS_AT_B5ACAF7.items():
        c = f_minus(e)
        assert (c.f_minus.hex(), c.x_argmin.hex()) == (float.fromhex(fm).hex(),
                                                        float.fromhex(x).hex())


def test_find_transition_bit_identical_to_recorded_values():
    for beta2, expected in TRANSITION_AT_B5ACAF7.items():
        got = find_transition(beta2)
        assert [float(v).hex() for v in got] == [float.fromhex(h).hex() for h in expected]


def test_convexity_root_within_1e14_of_recorded_value():
    assert abs(convexity_report(400).c1 - C1_AT_B5ACAF7) <= 1e-14


# Parameters come from a seeded generator, as in tests/test_graphon.py, so
# that hypothesis does not favour round values whose arithmetic is exact.
_SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS)
def test_minimize_bounded_finds_quadratic_minimizer(seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
    x0 = rng.uniform(-1.5, 1.5)  # outside [lo, hi] about half the time
    c, d = rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0)
    # above about 1e-7 the absolute tolerance dominates Brent's relative one
    # (sqrt(2.2e-16) |x| with |x| <= 1)
    xatol = 10.0 ** rng.uniform(-6.0, -2.0)

    def f(x):
        return c * (x - x0) ** 2 + d

    x, fx = _kernel.minimize_bounded(f, lo, hi, xatol)
    assert lo <= x <= hi
    assert fx == f(x)
    assert abs(x - min(max(x0, lo), hi)) <= xatol


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS)
def test_bisect_keeps_the_sign_change(seed):
    rng = np.random.default_rng(seed)
    roots = rng.uniform(0.0, 1.0, 3)
    tol = 10.0 ** rng.uniform(-14.0, -2.0)

    def f(x):  # negative left of every root, positive right of them
        return math.prod(x - r for r in roots)

    lo, hi = _kernel.bisect(lambda x: f(x) < 0.0, -0.1, 1.1, tol)
    assert -0.1 <= lo < hi <= 1.1
    assert hi - lo <= tol
    assert f(lo) < 0.0 <= f(hi)
