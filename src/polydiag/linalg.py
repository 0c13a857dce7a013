"""Exact linear algebra over the rationals: Fractions at the boundary,
integers inside.

Vectors are tuples of Fraction and matrices are tuples of row tuples.
Everything is immutable and every operation is pure.

:func:`frac` is the one rule for exact numbers: an int, a Fraction or a
string such as ``"0.25"`` or ``"-1/2"`` is the rational it spells, a
float or a bool raises TypeError, and a string that spells no rational,
``"1/0"`` included, or one too long to print raises ValueError.  Each
input meets it at one door: a weight in :class:`graph.WeightedDigraph`,
a matrix in :func:`invariance._exact`, a ``--scale`` or ``--lambda`` of
the CLI, rows here in :func:`clear_denominators`, which takes an int or
a Fraction as it is, so an exact matrix is not coerced twice.

Row reduction does not compute in Fraction.  Each row is cleared of
denominators once (:func:`clear_denominators`) and the work is done on
Python ints: Gauss-Jordan elimination is fraction-free, in the manner of
Bareiss (Math. Comp. 22, 1968), with each new row divided by the gcd of
its entries so the entries stay small.  Fractions are built only
for the results, and since the reduced row-echelon form is unique they
are the values and the order that Fraction elimination gives.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce an int, Fraction, or string like ``-1/2`` / ``0.25`` to
    Fraction; a Fraction is returned as it is.  ``"1/0"`` raises
    ValueError, as any string that spells no rational does, or one with
    too many digits to print (:func:`_check_digits`)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are inexact; pass a string such as '0.5'")
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers; pass an int or a string such as '1'")
    if isinstance(x, str):
        _check_digits(x)
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():  # a plain int: int() parses it 3x faster than Fraction
            return Fraction(int(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


# Fraction's decimal form (whole part, fraction, exponent); re compiles it at first use, not at import
_DECIMAL = r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?(?:e([-+]?\d+(?:_\d+)*))?\s*\Z"


def _check_digits(text):
    """Refuse a decimal whose numerator (its digits times 10**exponent) or
    denominator (10**(fraction digits - exponent)) would have more digits
    than Python prints an int with, before Fraction builds either."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before Python 3.10.7
    m = re.match(_DECIMAL, text, re.I) if limit and (len(text) > limit or "e" in text or "E" in text) else None
    if m:  # without an exponent, neither has more digits than text has characters
        whole, part, exp = (g.replace("_", "") if g else "" for g in m.groups())
        e = int(exp or 0)
        if max(len((whole + part).lstrip("0")), 1) + max(e, 0) > limit or 1 + len(part) + max(-e, 0) > limit:
            raise ValueError("%.60r has a numerator or denominator of more than %d digits" % (text, limit))


_EXACT = (int, Fraction)  # exact already: frac would at most wrap an int in a Fraction


def clear_denominators(rows):
    """Each row times the lcm of its entries' denominators, as a list of
    int rows.  Every entry that is not an int or a Fraction goes through
    :func:`frac`."""
    ints = []
    for row in rows:
        row = [x if type(x) in _EXACT else frac(x) for x in row]
        d = math.lcm(*[x.denominator for x in row])
        ints.append([x.numerator * (d // x.denominator) for x in row])
    return ints


def transpose(m) -> tuple:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_vec(m, v) -> tuple:
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def shifted(m, lam) -> tuple:
    """m - lam*I for a square m and a Fraction lam."""
    return tuple(
        tuple(x - lam if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def _rref_pivots(m):
    """Fraction-free Gauss-Jordan elimination: (int rows, pivot columns).
    ValueError("ragged rows") unless every row of m has the length of the
    first.

    Row r < rank, divided by its pivot entry rows[r][pivots[r]], is row r
    of the reduced row-echelon form of m; the rows from the rank on are
    zero.  Eliminating column c of row i with pivot row r sets row i to
    p*row_i - f*row_r (p the pivot, f = row_i[c]) and divides it by the gcd
    of its entries, so every row stays a nonzero multiple of the row that
    Fraction elimination would hold, and the pivots are the same."""
    rows = clear_denominators(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def nullspace(m):
    """Basis of {x : m x = 0}, deterministic.

    Free variables are taken in ascending column order; each basis vector
    has a 1 in its free slot and back-substituted pivot entries.
    """
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _rref_pivots(m)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(tuple(v))
    return basis


def span_contains(basis, v) -> bool:
    """Exact test for v in span(basis)."""
    if any(len(b) != len(v) for b in basis):
        raise ValueError("dimension mismatch")
    aug = [[b[i] for b in basis] + [v[i]] for i in range(len(v))]
    # inconsistent iff the reduced form has a row (0 ... 0 | nonzero),
    # that is, iff v's column holds a pivot
    return len(basis) not in _rref_pivots(aug)[1]
