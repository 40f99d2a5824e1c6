"""The package's random stream against `numpy.random.default_rng`, bit for bit."""

import numpy as np
import pytest

from graphentropy import errors
from graphentropy._random import Generator

SEEDS = [*range(200), 2 ** 32 + 5, 2 ** 64 + 7, 2 ** 128 + 3]


def _calls(step):
    """The call shapes the package makes, interleaved so that doubles and the
    kept half of a 32-bit draw meet in every order."""
    m = 1 + step % 16
    return [
        ("uniform", (0.15, 0.85), {}),
        ("uniform", (0.05, 0.95), {"size": 3}),
        ("integers", (2, 17), {}),
        ("uniform", (-1, 1), {"size": (m, m)}),
        ("integers", (m + 1,), {}),
        ("integers", (m + 2,), {}),
        ("uniform", (0.05, 0.95), {"size": (m, m)}),
        ("integers", (3, 9), {}),
        ("uniform", (-1, 1), {"size": 1 + step % 5}),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_is_default_rngs(seed):
    ours, numpys = Generator(seed), np.random.default_rng(seed)
    for step in range(4):
        for name, args, kwargs in _calls(step):
            got = np.asarray(getattr(ours, name)(*args, **kwargs))
            want = np.asarray(getattr(numpys, name)(*args, **kwargs))
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), (seed, step, name)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 + 7])
def test_integers_rejection_and_range_ends_follow_numpy(seed):
    # a range just above 2**31 rejects about half its draws; a one-value
    # range takes none, and a 2**32-value range keeps every draw
    ours, numpys = Generator(seed), np.random.default_rng(seed)
    for low, high in ((0, 1), (5, 6), (0, 2 ** 31 + 1), (-7, 3 * 2 ** 30), (0, 2 ** 32 - 1),
                      (-3, 2 ** 32 - 3)):
        for _ in range(20):
            assert ours.integers(low, high) == numpys.integers(low, high), (low, high)


def test_bad_seeds_and_ranges_are_invalid_input():
    for seed in (-1, 2.5, True):
        with pytest.raises(errors.ValueOutOfRange, match="integer"):
            Generator(seed)
    for bounds in ((0,), (3, 3), (0, 2 ** 32 + 1)):
        with pytest.raises(errors.ValueOutOfRange):
            Generator(0).integers(*bounds)
