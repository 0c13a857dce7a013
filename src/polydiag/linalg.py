"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction and matrices are tuples of row tuples.
Everything is immutable and every operation is pure.  Plain Python ints
are accepted anywhere a rational is expected (they are exact), but floats
are rejected: callers with decimal input must pass strings like ``"0.25"``
so the conversion is exact decimal parsing rather than a binary
approximation.
"""

from __future__ import annotations

from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce an int, Fraction, or string like ``-1/2`` / ``0.25`` to Fraction."""
    if isinstance(x, float):
        raise TypeError("floats are inexact; pass a string such as '0.5'")
    return Fraction(x)


def vector(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def matrix(rows) -> tuple:
    rows = tuple(tuple(frac(x) for x in row) for row in rows)
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    return rows


def zeros(r: int, c: int) -> tuple:
    return tuple((Fraction(0),) * c for _ in range(r))


def identity(n: int) -> tuple:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(m) -> tuple:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_vec(m, v) -> tuple:
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a, b) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def shifted(m, lam) -> tuple:
    """m - lam*I for a square m."""
    lam = frac(lam)
    return tuple(
        tuple(x - lam if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(x * y for x, y in zip(u, v))


def rref(m):
    """Reduced row-echelon form.  Returns (rref_matrix, rank)."""
    red, pivots = _rref_pivots(m)
    return red, len(pivots)


def _rref_pivots(m):
    rows = [[frac(x) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(m) -> int:
    return rref(m)[1]


def nullspace(m):
    """Basis of {x : m x = 0}, deterministic.

    Free variables are taken in ascending column order; each basis vector
    has a 1 in its free slot and back-substituted pivot entries.
    """
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = _rref_pivots(m)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def span_contains(basis, v) -> bool:
    """Exact test for v in span(basis)."""
    if any(len(b) != len(v) for b in basis):
        raise ValueError("dimension mismatch")
    if not basis:
        return all(x == 0 for x in v)
    k = len(basis)
    aug = tuple(
        tuple(frac(b[i]) for b in basis) + (frac(v[i]),) for i in range(len(v))
    )
    red, _ = _rref_pivots(aug)
    # inconsistent iff a row reads (0 ... 0 | nonzero)
    for row in red:
        if row[k] != 0 and all(x == 0 for x in row[:k]):
            return False
    return True
