"""The plain-Python seeded draw against its oracle, numpy's
``default_rng(seed).uniform``: the same float64 bits for every seed, size
and sequence of draws."""

import random

import numpy as np
import pytest

from polydiag._pcg64 import PCG64

_RNG = random.Random(2028)
# 0..199, 180 seeds of 31 to 200 bits, and seeds of six words or more,
# which SeedSequence mixes in after its pool of four
SEEDS = (list(range(200)) + [_RNG.getrandbits(_RNG.randint(31, 200)) for _ in range(180)]
         + [2**160, 2**192 - 1, 2**1000 + 12345] + [2**160 + _RNG.getrandbits(_RNG.randint(1, 400)) for _ in range(20)])
# the draws of the dynamics: a van der Pol start, the Lorenz attractor
# start, the 50 points of the equivariance f check, a Lorenz pair start
SEQUENCES = ((-1, 1, 3), (-0.05, 0.05, 3), (-2, 2, 150), (-1, 1, 7))


def _same(ours, theirs):
    return np.array(ours, dtype=float).tobytes() == theirs.tobytes()


def test_seeds_cover_every_length_of_seed():
    words = {(seed.bit_length() + 31) // 32 for seed in SEEDS}
    assert {0, 1, 2, 4, 5, 6, 7} <= words and max(words) > 8


def test_uniform_is_numpys_for_many_seeds():
    for seed in SEEDS:
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        for low, high, size in SEQUENCES:
            assert _same(ours.uniform(low, high, size), theirs.uniform(low, high, size)), (seed, low, size)


def test_uniform_is_numpys_at_every_size():
    # fresh generators, and one stream drawn in growing chunks
    stream, theirs = PCG64(7), np.random.default_rng(7)
    for size in range(1, 451):
        assert _same(PCG64(size).uniform(-2, 2, size), np.random.default_rng(size).uniform(-2, 2, size)), size
        assert _same(stream.uniform(-1, 1, size), theirs.uniform(-1, 1, size)), size


def test_many_values_fill_row_major():
    # numpy fills a shape (a, b) row by row from one stream
    ours = PCG64(3).uniform(-2, 2, 6)
    assert _same(ours, np.random.default_rng(3).uniform(-2, 2, size=(2, 3)))
    rng = PCG64(3)
    assert rng.uniform(-2, 2, 3) + rng.uniform(-2, 2, 3) == ours


@pytest.mark.parametrize("seed", range(10))
def test_lorenz_attractor_sequence_is_numpys(seed):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for _ in range(2):
        assert _same(ours.uniform(-1, 1, 3), theirs.uniform(-1, 1, size=3))
        assert _same(ours.uniform(-0.05, 0.05, 3), theirs.uniform(-0.05, 0.05, size=3))


def test_size_zero_draws_nothing():
    rng = PCG64(5)
    assert rng.uniform(-1, 1, 0) == []
    assert _same(rng.uniform(-1, 1, 4), np.random.default_rng(5).uniform(-1, 1, 4))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError), ("1", TypeError),
                                         (None, TypeError)])
def test_refuses_what_numpy_refuses(seed, error):
    if seed is not None:  # numpy draws OS entropy for None
        with pytest.raises(error):
            np.random.default_rng(seed)
    with pytest.raises(error):
        PCG64(seed)


@pytest.mark.parametrize("size, error", [(-1, ValueError), (np.int64(-3), ValueError), (-(2**70), ValueError),
                                         (1.5, TypeError), ("3", TypeError)])
def test_uniform_refuses_the_sizes_numpy_refuses(size, error):
    with pytest.raises(error):
        np.random.default_rng(0).uniform(-1, 1, size)
    rng = PCG64(0)
    with pytest.raises(error, match="negative dimensions" if error is ValueError else None):
        rng.uniform(-1, 1, size)
    assert _same(rng.uniform(-1, 1, 4), np.random.default_rng(0).uniform(-1, 1, 4))  # nothing was drawn
