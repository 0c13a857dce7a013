"""The scan of a permutation matrix against the cycle index (ROADMAP item 9).

For a permutation sigma of the cells, the matrix P with P[i][sigma(i)] = 1
maps Delta_p onto the subspace of p relabelled by sigma^-1, so Delta_p is
invariant exactly when sigma fixes the tagged partition p.  A tagged
partition is a structure of the species T = E(E+ + E2(E+)) * E: a set of
components, each an untagged class (E+) or an unordered pair of classes
(E2(E+)), times the fixed class (E, possibly empty).  The structures fixed
by a permutation of cycle type c = (c_1, c_2, ...) number
prod_k k^c_k c_k! times the coefficient of x_1^c_1 x_2^c_2 ... in Z_T
(Bergeron, Labelle & Leroux, "Combinatorial Species and Tree-like
Structures", 1998, ch. 1-2), where

    Z_E = exp(sum_k x_k / k),  Z_E+ = Z_E - 1,
    G = Z_E+ + (Z_E+^2 + Z_E+(x_2, x_4, ...)) / 2,
    Z_T = exp(sum_k G(x_k, x_2k, ...) / k) * Z_E.

Synchrony subspaces are the structures of E(E+), and freely tagged ones
those of E(E+ + E2(E+)).  The series here are dicts from exponent tuples
to Fractions, kept only at monomials that divide x^c, and nothing is read
from the counting module.
"""

import itertools
import math
import operator
from fractions import Fraction

import pytest

from polydiag.invariance import invariant_polydiagonals
from polydiag.partitions import from_symbols, typical_element

from relabel_oracle import relabel


def _mul(f, g, bound):
    out = {}
    for e1, x in f.items():
        for e2, y in g.items():
            e = tuple(map(operator.add, e1, e2))
            if all(map(operator.le, e, bound)):
                out[e] = out.get(e, 0) + x * y
    return out


def _set(bound):
    """Z_E: the sum over exponents e of prod_k x_k^e_k / (k^e_k e_k!)."""
    return {
        e: Fraction(1, math.prod(k**m * math.factorial(m) for k, m in enumerate(e, start=1)))
        for e in itertools.product(*(range(m + 1) for m in bound))
    }


def _nonempty_set(bound):
    """Z_E+ = Z_E - 1."""
    return {e: x for e, x in _set(bound).items() if any(e)}


def _stretch(f, k, length):
    """f(x_k, x_2k, ...): the exponent of x_i moves to x_ik."""
    out = {}
    for e, x in f.items():
        e2 = [0] * length
        e2[k - 1 :: k] = e
        out[tuple(e2)] = x
    return out


def _class_or_pair(bound):
    """G = Z_E+ + Z_E2(E+), the cycle index of one component."""
    single = _nonempty_set(bound)
    pair = _mul(single, single, bound)
    for e, x in _stretch(_nonempty_set(bound[1::2]), 2, len(bound)).items():
        pair[e] = pair.get(e, 0) + x
    out = dict(single)
    for e, x in pair.items():
        out[e] = out.get(e, 0) + x / 2
    return out


def _sets_of(component, bound):
    """Z_E(F) = exp(sum_k F(x_k, x_2k, ...) / k) for F = component(bound)."""
    length = len(bound)
    s = {}
    for k in range(1, length + 1):
        for e, x in _stretch(component(bound[k - 1 :: k]), k, length).items():
            s[e] = s.get(e, 0) + Fraction(x) / k
    out = {(0,) * length: Fraction(1)}
    power = dict(out)
    for m in range(1, sum(bound) + 1):
        power = {e: x / m for e, x in _mul(power, s, bound).items()}  # s^m / m!
        for e, x in power.items():
            out[e] = out.get(e, 0) + x
    return out


def cycle_index_counts(cycle_type):
    """(tagged partitions, synchrony ones, freely tagged ones) fixed by a
    permutation with these cycle lengths."""
    n = sum(cycle_type)
    bound = tuple(cycle_type.count(k) for k in range(1, n + 1))
    automorphisms = math.prod(k**m * math.factorial(m) for k, m in enumerate(bound, start=1))
    freely = _sets_of(_class_or_pair, bound)
    counts = (_mul(freely, _set(bound), bound), _sets_of(_nonempty_set, bound), freely)
    return tuple(int(c.get(bound, 0) * automorphisms) for c in counts)


def _permutation(cycle_type):
    """perm[i - 1] = sigma(i): cycles of consecutive cells, in the given order."""
    perm = []
    for length in cycle_type:
        start = len(perm) + 1
        perm += [start + (i + 1) % length for i in range(length)]
    return tuple(perm)


def _permutation_matrix(perm):
    return [[int(j + 1 == image) for j in range(len(perm))] for image in perm]


def _cycle_types(n, largest=None):
    """The partitions of n, parts in falling order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - part, part):
            yield (part,) + rest


def test_relabel_direction_by_hand():
    """sigma = (1 2 3) sends cell 1 to 2, 2 to 3 and 3 to 1, and relabel
    moves each cell's symbol to its image: (a,b,0) becomes (0,a,b).  The
    matrix of sigma maps the typical vector (1, 2, 0) of (a,b,0) to
    (x_2, x_3, x_1) = (2, 0, 1), whose subspace is that of (a,0,b), the
    relabelling by sigma^-1 = (1 3 2)."""
    sigma, inverse = (2, 3, 1), (3, 1, 2)
    p = from_symbols([1, 2, 0])
    assert _permutation((3,)) == sigma
    assert typical_element(relabel(p, sigma)) == "(0,a,b)"
    image = [sum(w * x for w, x in zip(row, p.symbols)) for row in _permutation_matrix(sigma)]
    assert image == [2, 0, 1]
    assert from_symbols(image) == relabel(p, inverse)
    assert typical_element(relabel(p, inverse)) == "(a,0,b)"


def test_cycle_index_gives_the_one_cycle_forms():
    """For one n-cycle: d(n) + [2 | n] d(n/2) + 1 in all, d(n) synchrony,
    d(n) + [2 | n] d(n/2) freely tagged (d counts divisors)."""
    for n in range(1, 15):
        d = [sum(1 for k in range(1, m + 1) if m % k == 0) for m in (n, n // 2)]
        anti = d[1] if n % 2 == 0 else 0
        assert cycle_index_counts((n,)) == (d[0] + anti + 1, d[0], d[0] + anti)


# hits of the scan for named cycle types beyond n = 8, from ROADMAP item 9,
# then mixed types at n = 11-12 (each scan well under a second)
KNOWN = {(2,) * 5: 17632, (3, 3, 3): 139, (4, 4): 56, (2, 2, 1, 1, 1): 1352, (5, 3, 2, 2): 432,
         (6, 4, 2, 1): 968, (2,) * 6: 207936,
         (5, 4, 3): 82, (6, 4, 2): 328, (7, 5): 11, (4, 4, 3): 196, (8, 4): 68, (4, 4, 4): 680,
         (3, 3, 3, 3): 1409, (6, 5, 1): 70}
SMALL = [c for n in range(1, 8) for c in _cycle_types(n)]
EIGHT = list(_cycle_types(8))
# the identity of n = 8 fixes all 219,920 tagged partitions, a scan of 5-8 s
SLOW = {(6, 4, 2, 1), (2,) * 6, (1,) * 8}
CASES = SMALL + EIGHT + [c for c in KNOWN if c not in SMALL + EIGHT]


def test_cycle_index_totals():
    """The 44 cycle types with n <= 7 have 44,335 fixed tagged partitions in
    all, and the 22 with n = 8 have 277,223, of which the identity fixes
    219,920 (every tagged partition of 8 cells); the named types have the
    counts in KNOWN."""
    assert len(SMALL) == 44 and len(EIGHT) == 22
    assert sum(cycle_index_counts(c)[0] for c in SMALL) == 44335
    assert sum(cycle_index_counts(c)[0] for c in EIGHT) == 277223
    assert cycle_index_counts((1,) * 8) == (219920, 4140, 75905)
    assert {c: cycle_index_counts(c)[0] for c in KNOWN} == KNOWN


@pytest.mark.parametrize(
    "cycle_type",
    [pytest.param(c, marks=pytest.mark.slow) if c in SLOW else c for c in CASES],
    ids=lambda c: ",".join(map(str, c)),
)
def test_permutation_scan_matches_the_cycle_index(cycle_type):
    perm = _permutation(cycle_type)
    n = len(perm)
    found = invariant_polydiagonals(_permutation_matrix(perm), n_cap=n).subspaces
    assert all(relabel(p, perm) == p for p, _ in found)
    counts = (len(found), sum(c.synchrony for _, c in found), sum(c.freely_tagged for _, c in found))
    assert counts == cycle_index_counts(cycle_type)
