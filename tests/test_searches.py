"""The scalar search of `_kernel` and the results built on them."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphentropy import _kernel, errors
from graphentropy.ergm import _dphi, find_transition
from graphentropy.optimize import convexity_report, f_minus

# f_minus from its closed form atanh(1 - 2e)/(1 - 2e), re-recorded from the
# values of the two scans it replaced (f_- moved one ulp at e = 0.3 and 0.7,
# x_argmin at 0.5 and 0.7), and the transition's scalar maximizers refined by
# bisecting the sign of phi' to a width of 1e-14; every bit must be
# reproduced.  beta1_critical has the same bits as at commit b5acaf7, where
# the maximizers came from scipy.optimize.minimize_scalar(method="bounded").
F_MINUS_FROM_TWO_SCANS = {  # e: (f_minus, x_argmin)
    0.2: ("0x1.27be27f25daf2p+0", "0x1.3333333333333p-1"),
    0.3: ("0x1.0f22a4066ad20p+0", "0x1.999999999999ap-2"),
    0.5: ("0x1.0000000000000p+0", "0x0.0p+0"),
    0.7: ("0x1.0f22a4066ad20p+0", "-0x1.9999999999998p-2"),
    0.9: ("0x1.5f8e5195843cdp+0", "-0x1.999999999999ap-1"),
}
TRANSITION_FROM_PHI_PRIME_BISECTION = {  # beta2: (beta1_critical, u_low, u_high)
    0.58: ("-0x1.b4e159620d680p-2", "0x1.16c739a1daca0p-1", "0x1.8cfeb88890314p-1"),
    1.0: ("-0x1.de5e9f495d6c0p-1", "0x1.338764b77e553p-3", "0x1.f5c90df4eb6c4p-1"),
    2.0: ("-0x1.fdac7b6fff5a0p+0", "0x1.2d302f72189d9p-6", "0x1.ffd47dc3afcfap-1"),
}
# scipy.optimize.brentq(xtol=1e-14) at b5acaf7; bisection to the same width
# lands within 1e-14 of it, not on the same bits
C1_AT_B5ACAF7 = float.fromhex("0x1.fac7e0b7eed76p-5")


def test_f_minus_bit_identical_to_recorded_values():
    for e, (fm, x) in F_MINUS_FROM_TWO_SCANS.items():
        c = f_minus(e)
        assert (c.f_minus.hex(), c.x_argmin.hex()) == (float.fromhex(fm).hex(),
                                                        float.fromhex(x).hex())


@pytest.mark.parametrize("e", [0.0, 5e-324, 1e-200, 1e-100, 1e-13,
                               math.nextafter(_kernel.CLAMP, 0.0),
                               math.nextafter(1.0 - _kernel.CLAMP, 1.0), 1.0 - 1e-13, 1.0,
                               math.nan])
def test_f_minus_rejects_e_outside_the_box(e):
    # I0'(e) is clamped to the box, so outside it f_minus returned about
    # 13.8155 (f(e, 1 - e) alone is 115.13 at e = 1e-100), and below e of
    # about 1e-108 raised ZeroDivisionError
    with pytest.raises(errors.ValueOutOfRange):
        f_minus(e)


@pytest.mark.parametrize("e", [0.05, 0.5, 0.95])
def test_f_minus_scan_peak_memory_below_one_and_a_half_mib(e):
    # the one-pass scan's temporaries peaked at 7.82 MiB
    tracemalloc.start()
    try:
        f_minus(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_find_transition_bit_identical_to_recorded_values():
    for beta2, expected in TRANSITION_FROM_PHI_PRIME_BISECTION.items():
        got = find_transition(beta2)
        assert [float(v).hex() for v in got] == [float.fromhex(h).hex() for h in expected]


def test_transition_maximizers_are_zeros_of_phi_prime():
    # a search on values of phi places a maximizer only to about sqrt(eps)
    for beta2 in TRANSITION_FROM_PHI_PRIME_BISECTION:
        b1c, u_low, u_high = find_transition(beta2)
        assert abs(_dphi(u_low, b1c, beta2)) <= 1e-11
        assert abs(_dphi(u_high, b1c, beta2)) <= 1e-11


def test_convexity_root_within_1e14_of_recorded_value():
    assert abs(convexity_report(400).c1 - C1_AT_B5ACAF7) <= 1e-14


# Parameters come from a seeded generator, as in tests/test_graphon.py, so
# that hypothesis does not favour round values whose arithmetic is exact.
_SEEDS = st.integers(0, 2 ** 32 - 1)


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


def test_bisect_stops_where_no_float_lies_between_the_ends():
    # a width of 1e-13 is below one ulp of 1e6, so only this stop ends the loop
    lo, hi = _kernel.bisect(lambda x: x < 1e6 + 0.1, 1e6 - 1.0, 1e6 + 1.0, 1e-13)
    assert hi == math.nextafter(lo, math.inf)
    assert lo < 1e6 + 0.1 <= hi
