"""Counting polydiagonal subspaces by three independent methods.

Each kind of subspace in :data:`polydiag.partitions.KINDS` is counted by
(1) an exponential generating function with exact rational coefficients,
(2) a recurrence, which the freely kinds lack, and (3) a census that
walks every class-size shape and every type of partial involution on
its classes.  The methods must agree; the count table cross-checks them
where the enumeration is feasible.

The EGFs come from the exponential formula (Bergeron, Labelle & Leroux,
*Combinatorial Species and Tree-like Structures*, 1998): a tagged
partition is a set of blocks, so a kind's EGF is exp of the EGF of the
blocks it allows in :data:`~polydiag.partitions.KINDS`.  On k cells there
are 1 untagged class, 2^(k-1) - 1 pairs of classes and, at even k,
binomial(k, k/2)/2 pairs of equal size.  An optional fixed class adds the
term x, as exp(x) = e^x counts one set of any size, the empty set too; a
required fixed class multiplies by e^x - 1 instead.  So a freely kind's
EGF times e^x is its plain kind's: freely tagged times e^x is
polydiagonal, and so on for fully and evenly tagged.  anti_synchrony is
polydiagonal minus synchrony.

The census builds no tagged partition.  A tagged partition's type depends
only on its class sizes and its involution, and relabelling the classes
permutes the involutions on them, so all set partitions of one shape (the
class sizes, an integer partition of n) carry the same multiset of types.
The census therefore walks the shapes, not the set partitions: it weights
each shape by its number of set partitions, n! / (prod s_i! * prod m_j!)
for sizes s_i that occur m_j times each.  Nor does it walk the
involutions on a shape's classes: their flags depend only on their type,
which is whether there is a fixed class and of what size, the number k
of pairs on the r other classes and, when 2k = r, whether every pair
has equal sizes.  A type with a fixed class of size s has c_s choices of
it, where c_s classes have size s, and C(r, 2k) * (2k-1)!! choices of
the pairs; when 2k = r, prod_s (c'_s - 1)!! of the (r-1)!! matchings pair
equal sizes if every count c'_s of the r classes is even, and none
otherwise.  The census classifies one involution of each type and
weights it by the number of its type.  At n = 8 it walks 22 shapes and
classifies 162 types, where there are 4,274 (shape, involution) pairs,
4,140 set partitions and 219,920 tagged partitions.  It adds up the
weight of each distinct SubspaceClass and reads every kind's count off
the table with the kind's test.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .partitions import KINDS, _classify

DEFAULT_ORDER = 16
ENUMERATION_CAP = 8

FIGURE_KINDS = tuple(KINDS)[:6]  # the six rows of the published table


# ---------------------------------------------------------------------------
# truncated power series over Q


@dataclass(frozen=True)
class RationalSeries:
    """Coefficients c[0..order] of a power series truncated at x^order."""

    coeffs: tuple

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __sub__(self, other):
        return RationalSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if self.order != other.order:
            raise ValueError("truncation orders differ")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return RationalSeries(tuple(out))


def series(coeffs, order) -> RationalSeries:
    cs = [Fraction(c) for c in coeffs][: order + 1]
    cs += [Fraction(0)] * (order + 1 - len(cs))
    return RationalSeries(tuple(cs))


def series_exp(s: RationalSeries) -> RationalSeries:
    """exp of a series with zero constant term, via h' = s' h."""
    if s.coeffs[0] != 0:
        raise ValueError("series_exp needs zero constant term")
    n = s.order
    h = [Fraction(1)] + [Fraction(0)] * n
    for k in range(n):
        # (k+1) h_{k+1} = sum_{i=0..k} (i+1) s_{i+1} h_{k-i}
        acc = sum((i + 1) * s.coeffs[i + 1] * h[k - i] for i in range(k + 1))
        h[k + 1] = acc / (k + 1)
    return RationalSeries(tuple(h))


def exp_x(order) -> RationalSeries:
    """Series of e^x."""
    return RationalSeries(tuple(Fraction(1, math.factorial(k)) for k in range(order + 1)))


@lru_cache(maxsize=None)
def egf(kind: str, order: int = DEFAULT_ORDER) -> RationalSeries:
    """The exponential generating function of a kind, truncated: exp of the
    EGF of the blocks that the kind allows (see the module docstring)."""
    if kind not in KINDS:
        raise KeyError("unknown kind %r" % kind)
    if kind == "anti_synchrony":
        return egf("polydiagonal", order) - egf("synchrony", order)
    untagged, pairs, fixed = KINDS[kind][2]
    blocks = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        if untagged:
            blocks[k] += Fraction(1, math.factorial(k))
        if pairs == "any":
            blocks[k] += Fraction(2 ** (k - 1) - 1, math.factorial(k))
        elif pairs == "even" and k % 2 == 0:
            blocks[k] += Fraction(1, 2 * math.factorial(k // 2) ** 2)
        if fixed == "optional" and k == 1:
            blocks[k] += 1
    h = series_exp(RationalSeries(tuple(blocks)))
    return h * (exp_x(order) - series([1], order)) if fixed == "required" else h


def egf_count(kind: str, n: int, order: int | None = None) -> int:
    """n! times the x^n coefficient of the kind's EGF, as an exact int."""
    if n < 0:
        raise ValueError("n must be >= 0")
    order = order if order is not None else max(DEFAULT_ORDER, n)
    if n > order:
        raise ValueError("n exceeds truncation order")
    c = egf(kind, order).coeffs[n] * math.factorial(n)
    if c.denominator != 1:
        raise ArithmeticError("EGF coefficient is not integral")
    return int(c)


# ---------------------------------------------------------------------------
# recurrences


def _multinomial(n, k, l):
    return math.comb(n, k) * math.comb(n - k, l)


@lru_cache(maxsize=None)
def _rec_seq(kind: str, n: int) -> int:
    if n == 0:
        return 1
    m = n - 1
    if kind == "synchrony":
        return sum(math.comb(m, k) * _rec_seq(kind, k) for k in range(m + 1))
    if kind == "polydiagonal":
        total = _rec_seq(kind, m)
        total += sum(
            _multinomial(m, k, l) * _rec_seq(kind, k)
            for k in range(m)
            for l in range(m - k)
        )
        total += sum(math.comb(m, k) * _rec_seq(kind, k) for k in range(m + 1))
        return total
    if kind == "fully":
        return _rec_seq(kind, m) + sum(
            _multinomial(m, k, l) * _rec_seq(kind, k)
            for k in range(m)
            for l in range(m - k)
        )
    if kind == "evenly":
        return _rec_seq(kind, m) + sum(
            _multinomial(m, m - 2 * l - 1, l) * _rec_seq(kind, m - 2 * l - 1)
            for l in range((m - 1) // 2 + 1)
        )
    raise KeyError(kind)


def recurrence_count(kind: str, n: int) -> int:
    """Exact count from the recurrences; minimally via the Bell difference
    and anti_synchrony as the complement of synchrony."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind in ("polydiagonal", "synchrony", "fully", "evenly"):
        return _rec_seq(kind, n)
    if kind == "minimally":
        return _rec_seq("synchrony", n + 1) - _rec_seq("synchrony", n)
    if kind == "anti_synchrony":
        return _rec_seq("polydiagonal", n) - _rec_seq("synchrony", n)
    if kind in KINDS:  # the freely kinds
        raise KeyError("no recurrence for %r; use egf_count or enumeration_count" % kind)
    raise KeyError("unknown kind %r" % kind)


# ---------------------------------------------------------------------------
# enumeration census


def _shapes(n, largest):
    """The integer partitions of n into parts of at most ``largest``, parts
    non-increasing: the class-size shapes of the set partitions of {1..n}
    when ``largest`` is n."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _shapes(n - first, first):
            yield (first,) + rest


def _ways(sizes) -> int:
    """The number of set partitions with class sizes ``sizes``: n! over the
    product of the sizes' factorials and of their multiplicities'."""
    return math.factorial(sum(sizes)) // (
        math.prod(map(math.factorial, sizes)) * math.prod(map(math.factorial, Counter(sizes).values()))
    )


def _matchings(r) -> int:
    """The perfect matchings of r things: (r-1)!! for even r, none for odd."""
    return 0 if r % 2 else math.prod(range(r - 1, 0, -2))


def _involution_types(sizes):
    """The types of partial involution on classes of these sizes
    (non-increasing): the fixed class, none or one of each size; the
    number k of pairs on the r other classes; and, when 2k = r, whether
    every pair has equal sizes.  Yields each type as one involution of it,
    (pairs, fixed), and the number of involutions of the type."""
    count = Counter(sizes)
    for fixed_size, choices in [(None, 1), *count.items()]:
        fixed = None if fixed_size is None else sizes.index(fixed_size)
        rest = [i for i in range(len(sizes)) if i != fixed]
        r = len(rest)
        for k in range(r // 2 + 1):
            number = choices * math.comb(r, 2 * k) * _matchings(2 * k)
            pairs = list(zip(rest[0 : 2 * k : 2], rest[1 : 2 * k : 2]))
            if 2 * k < r:
                yield pairs, fixed, number
                continue
            # a matching of equal sizes matches the r classes of each size
            # among themselves; rest is sorted by size, so its consecutive
            # pairs are one such when there is one, and rotated by one they
            # pair two sizes unless every matching is of equal sizes
            equal = choices * math.prod(_matchings(c - (s == fixed_size)) for s, c in count.items())
            if equal:
                yield pairs, fixed, equal
            if number > equal:
                yield list(zip(rest[1::2], rest[2::2] + rest[:1])), fixed, number - equal


@lru_cache(maxsize=None)
def _census(n: int) -> dict:
    """Count every tagged partition of {1..n} by kind: each class-size shape
    of {1..n} weighted by its number of set partitions, times the number of
    partial involutions of each type on its classes (see the module
    docstring)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    weight = Counter()
    for sizes in _shapes(n, n):
        ways = _ways(sizes)
        for pairs, fixed, involutions in _involution_types(sizes):
            weight[_classify(sizes, pairs, fixed)] += ways * involutions
    return {kind: sum(w for c, w in weight.items() if test(c)) for kind, (_, test, _) in KINDS.items()}


def enumeration_count(kind: str, n: int) -> int:
    if kind not in KINDS:
        raise KeyError("unknown kind %r" % kind)
    if n > ENUMERATION_CAP:
        raise ValueError("n=%d exceeds enumeration cap %d" % (n, ENUMERATION_CAP))
    return _census(n)[kind]


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class CountTable:
    max_n: int
    rows: dict  # kind -> list of ints, n = 0..max_n
    cross_checked: dict  # kind -> bool (three-way agreement on the checked range)


def count_table(max_n: int, kinds=FIGURE_KINDS) -> CountTable:
    """Counts for n = 0..max_n, enumeration cross-checked where feasible.
    The EGFs are truncated at max_n: coefficient n of a truncated series
    does not depend on the higher orders."""
    rows, checked = {}, {}
    for kind in kinds:
        vals = []
        ok = True
        for n in range(max_n + 1):
            by_egf = egf_count(kind, n, max_n)
            try:
                by_rec = recurrence_count(kind, n)
            except KeyError:
                by_rec = by_egf
            if by_rec != by_egf:
                ok = False
            if n <= ENUMERATION_CAP and enumeration_count(kind, n) != by_egf:
                ok = False
            vals.append(by_egf)
        rows[kind] = vals
        checked[kind] = ok
    return CountTable(max_n, rows, checked)


def table_to_markdown(t: CountTable) -> str:
    header = "| kind | sym | " + " | ".join("n=%d" % n for n in range(t.max_n + 1)) + " | check |"
    rule = "|" + "---|" * (t.max_n + 4)
    lines = [header, rule]
    for kind, vals in t.rows.items():
        lines.append(
            "| %s | %s | %s | %s |"
            % (
                kind,
                KINDS[kind][0],
                " | ".join(str(v) for v in vals),
                "ok" if t.cross_checked[kind] else "MISMATCH",
            )
        )
    return "\n".join(lines) + "\n"


def table_to_csv(t: CountTable) -> str:
    lines = ["kind," + ",".join("n%d" % n for n in range(t.max_n + 1)) + ",check"]
    for kind, vals in t.rows.items():
        lines.append(
            "%s,%s,%s"
            % (kind, ",".join(str(v) for v in vals), "ok" if t.cross_checked[kind] else "MISMATCH")
        )
    return "\n".join(lines) + "\n"
