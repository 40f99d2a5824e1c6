"""The random stream of `numpy.random.default_rng(seed)`, bit for bit, in numpy alone.

The solver's random restarts, `ergm.psi_full`'s and `verify`'s sampled checks
draw from `Generator(seed)`.  It follows numpy's default generator step for
step: `SeedSequence(seed)` hashes the seed's 32-bit words into a pool of four
and expands it into PCG64's 128-bit state and increment; each 64-bit output
is PCG64's XSL-RR of the state after one LCG step; a double is
(x >> 11) * 2**-53 of a 64-bit output; and `uniform(low, high)` is
low + (high - low) * u.  So a seed gives the doubles `default_rng` gives,
whatever numpy version is installed, and importing this module loads neither
`numpy.random` nor, through its `secrets` import, OpenSSL's hash module:
about 6 MB less resident memory in a solving process.  A double costs about
0.6 us in Python, 0.15 ms for a 16 x 16 random start.
"""

from ._numpy import np
from .errors import check_integer

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341

# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_pool(seed):
    """SeedSequence(seed).pool: the seed's 32-bit words, least significant
    first, hashed and mixed into four words."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seed(seed):
    """PCG64(SeedSequence(seed))'s (state, increment): generate_state(4,
    uint64) gives the initial state's high and low words, then the stream's."""
    pool, hash_const, halves = _seed_pool(seed), _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    w = [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = (inc + (w[0] << 64 | w[1])) * _PCG_MULTIPLIER + inc
    return state & _MASK128, inc


class Generator:
    """The draws of `numpy.random.default_rng(seed)` for the one call the
    package makes, `uniform(low, high[, size])`."""

    def __init__(self, seed):
        check_integer("seed", seed, 0)
        self._state, self._inc = _pcg64_seed(seed)

    def _raw(self, n):
        """The next n 64-bit outputs."""
        s, inc, out = self._state, self._inc, []
        for _ in range(n):
            s = (s * _PCG_MULTIPLIER + inc) & _MASK128
            x = ((s >> 64) ^ s) & _MASK64
            rot = s >> 122
            out.append((x >> rot | x << (64 - rot)) & _MASK64)
        self._state = s
        return out

    def uniform(self, low, high, size=None):
        """A float in [low, high), or an array of them of shape `size`."""
        low = float(low)
        span = float(high) - low
        raw = self._raw(1 if size is None else int(np.prod(size)))
        values = [low + span * ((x >> 11) * 2.0 ** -53) for x in raw]
        return values[0] if size is None else np.array(values).reshape(size)
