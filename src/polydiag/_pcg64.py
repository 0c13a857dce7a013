"""numpy's default seeded uniform draw, ``default_rng(seed).uniform``, in
plain Python, bit for bit.

The seed is hashed by numpy's ``SeedSequence`` into 256 bits that seed a
PCG64 generator (XSL-RR 128/64) as numpy seeds it, and each uniform float
is ``low + (high - low) * ((next64 >> 11) * 2**-53)``.  A draw of many
values fills them row-major, so one draw of a*b values is the same stream
as a draws of b values.
"""

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, const, mult):
    """SeedSequence's hash of a 32-bit word: (the hashed word, the next
    hash constant)."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _pool(seed):
    """SeedSequence's pool of four 32-bit words for a non-negative int: its
    words, low word first and zero-padded to four, hashed into the pool,
    every pool word mixed into every other, then any words beyond the
    fourth mixed in."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    const, pool = 0x43B0D7E5, []
    for word in (words + [0] * 3)[:4]:
        value, const = _hashmix(word, const, 0x931E8875)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, 0x931E8875)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const, 0x931E8875)
            pool[dst] = _mix(pool[dst], value)
    return pool


class PCG64:
    """``PCG64(seed).uniform(low, high, size)`` is the list of the values of
    ``numpy.random.default_rng(seed).uniform(low, high, size)``, and later
    draws continue the same stream.  The seed must be a non-negative int:
    ValueError for a negative one, TypeError for anything else, as numpy
    refuses them; a negative size is a ValueError, as in numpy."""

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        pool, const, words = _pool(seed), 0x8B51F9DD, []
        for i in range(8):  # generate_state(4, uint64), two words per uint64, low word first
            value, const = _hashmix(pool[i % 4], const, 0x58F38DED)
            words.append(value)
        u = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (u[2] << 65 | u[3] << 1 | 1) & _MASK128
        self._state = ((self._inc + (u[0] << 64 | u[1])) * _MULTIPLIER + self._inc) & _MASK128

    def uniform(self, low, high, size):
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        low = float(low)
        span = float(high) - low
        state, inc, out = self._state, self._inc, []
        for _ in range(size):
            state = (state * _MULTIPLIER + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            out.append(low + span * ((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53))
        self._state = state
        return out
