"""Tagged partitions under a vertex permutation, kept as an oracle.

``invariance.orbits`` pulls each generator back once and canonicalises
the images itself; the tests check it, and the cycle-index counts, against
this direct form, which checks every permutation it is given.
"""

from polydiag.partitions import TaggedPartition, from_symbols


def relabel(p: TaggedPartition, perm) -> TaggedPartition:
    """Image of p under a vertex permutation (perm[i-1] is the image of i)."""
    if sorted(perm) != list(range(1, p.n + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (p.n, perm))
    symbols = [0] * p.n
    for cell, s in zip(perm, p.symbols):
        symbols[cell - 1] = s
    return from_symbols(symbols)
