import sys
from fractions import Fraction as F

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiag import linalg
from polydiag.linalg import (
    _rref_pivots,
    clear_denominators,
    frac,
    mat_vec,
    nullspace,
    span_contains,
)


def test_frac_rejects_floats():
    for x in (0.5, numpy.float64(0.5)):
        with pytest.raises(TypeError):
            frac(x)
    assert frac("0.5") == F(1, 2)
    assert frac("-1/2") == F(-1, 2)


def test_frac_rejects_booleans():
    for x in (True, False):
        with pytest.raises(TypeError):
            frac(x)
    with pytest.raises(TypeError):
        clear_denominators([[1, True]])


def test_frac_refuses_a_zero_denominator():
    for x in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            frac(x)
    with pytest.raises(ValueError, match="zero denominator"):
        clear_denominators([[1, "1/0"]])


def test_frac_refuses_a_decimal_too_long_to_print():
    """At the default limit of 4300 digits: 10**4299 has 4300 digits and is
    kept exactly; 10**4300 and 10**-4300 would have 4301."""
    assert sys.get_int_max_str_digits() == 4300
    x = frac("1e4299")
    assert x == 10**4299 and str(x) == "1" + "0" * 4299
    assert frac("1e-4299") == F(1, 10**4299)
    for text in ("1e4300", "1e-4300", "0e4300", "1" + "0" * 5000, "1e99999999999999999999", "1.5e-4299"):
        with pytest.raises(ValueError):
            frac(text)


def _built_digits(whole, part, exp):
    """Digits of the largest ints Fraction builds for whole.part e exp
    before it reduces: 10**exp and int(whole part) * 10**exp for the
    numerator, 10**(len(part) - exp) for the denominator."""
    e = int(exp or 0)
    power = 10 ** max(e, 0)
    num = int(whole + (part or "") or "0") * power
    den = 10 ** (len(part or "") + max(-e, 0))
    return max(len(str(num)), len(str(power))), len(str(den))


def test_frac_limit_matches_the_digits_fraction_builds():
    """Under a limit of 640 digits (the least Python allows), every decimal
    of a grid around the limit is refused exactly when its numerator or
    denominator, as built, would have more; the ones kept equal Fraction's
    value and print."""
    wholes = ("", "0", "7", "12", "0012", "9" * 300, "9" * 400)
    parts = (None, "", "5", "0" * 300 + "1", "1" * 339)
    exps = (None, "0", "1", "-1") + tuple("%+d" % (s * (640 - k)) for s in (1, -1) for k in (0, 1, 2, 300, 340))
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        cases = [(w, p, e, _built_digits(w, p, e)) for w in wholes for p in parts for e in exps if w or p]
        sys.set_int_max_str_digits(640)
        for whole, part, exp, (num, den) in cases:
            text = whole + ("" if part is None else "." + part) + ("" if exp is None else "e" + exp)
            if num > 640 or den > 640:
                with pytest.raises(ValueError):
                    frac(text)
            else:
                x = frac(text)
                assert x == F(text) and str(x), text
    finally:
        sys.set_int_max_str_digits(old)


def _fraction_path(text):
    """frac of a string as Fraction's own parser decides it, without the
    plain-int shortcut: the value, or the exception's type and message."""
    try:
        linalg._check_digits(text)
        try:
            return F(text)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (text,)) from None
    except ValueError as e:
        return type(e), str(e)


def test_frac_plain_int_strings_match_the_fraction_path():
    """Strings that are an optional '-' and ASCII digits skip Fraction's
    parser; everything else, and every refusal, must come out as before."""
    limit = sys.get_int_max_str_digits()
    corpus = ["0", "-0", "007", "+3", "1_0", " 5", "5 ", "٣", "²", "3/2", "0.25", "1e3", "1/0",
              "-", "", "--1", "-+1", "12", "-12", "9" * limit, "-" + "9" * limit, "9" * (limit + 1),
              "-" + "9" * (limit + 1)]
    for text in corpus:
        try:
            got = frac(text)
            assert type(got) is F
        except ValueError as e:
            got = type(e), str(e)
        assert got == _fraction_path(text), text[:20]


def test_frac_passes_a_fraction_through():
    x = F(-7, 3)
    assert frac(x) is x
    assert type(frac(3)) is F and frac(3) == 3


def test_clear_denominators_per_row():
    assert clear_denominators([["1/2", F(1, 3), 2], [4, "-6", 0], []]) == [[3, 2, 12], [4, -6, 0], []]


def test_rref_identity():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _rref_pivots(m) == (m, (0, 1, 2))


def test_rref_zero():
    assert _rref_pivots([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], ())


def test_rref_rank_one():
    assert _rref_pivots([[1, 2], [2, 4]]) == ([[1, 2], [0, 0]], (0,))


def test_nullspace_block_laplacian():
    # Laplacian of the one-edge-plus-isolated-vertex graph: 0 has multiplicity 2
    lap = [[0, 0, 0], [0, 1, -1], [0, -1, 1]]
    basis = nullspace(lap)
    assert len(basis) == 2
    assert span_contains(basis, (1, 0, 0))
    assert span_contains(basis, (0, 1, 1))


def test_nullspace_simple_eigenvector():
    m = [[1, 0, 0], [-1, -1, -1], [0, 1, 1]]
    basis = nullspace(m)
    assert len(basis) == 1
    assert span_contains(basis, (0, 1, -1))
    assert span_contains([(0, 1, -1)], basis[0])


def test_nullspace_zero_matrix():
    basis = nullspace([[0, 0], [0, 0]])
    assert basis == [(1, 0), (0, 1)]


def test_span_contains_examples():
    assert span_contains([(1, -1)], (2, -2))
    assert not span_contains([(1, -1)], (1, 1))
    # two independent eigenvectors of the Dirichlet example
    assert not span_contains([(1, 2, 1)], (1, 0, -1))


def test_span_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        span_contains([(1, 0)], (1, 0, 0))


REFUSED = {
    "ragged rows": (lambda: _rref_pivots([[1, 2], [3]]), "ragged rows"),
    "pivots of a longer row": (lambda: _rref_pivots([[1], [2, 3]]), "ragged rows"),
    "nullspace of a longer row": (lambda: nullspace([[1, 2], [3, 4, 5]]), "ragged rows"),
    "nullspace of a shorter row": (lambda: nullspace([[1, 2, 3], [4, 5]]), "ragged rows"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


small_entries = st.integers(min_value=-6, max_value=6)


def mats(n, m):
    return st.lists(st.lists(small_entries, min_size=m, max_size=m), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(mats(3, 4))
def test_rref_idempotent(m):
    rows, pivots = _rref_pivots(m)
    assert _rref_pivots(rows) == (rows, pivots)


@settings(max_examples=60, deadline=None)
@given(mats(4, 4))
def test_rank_nullity_and_kernel(m):
    basis = nullspace(m)
    assert len(_rref_pivots(m)[1]) + len(basis) == 4
    for b in basis:
        assert mat_vec(m, b) == (F(0),) * 4


@settings(max_examples=40, deadline=None)
@given(mats(3, 5), st.lists(small_entries, min_size=5, max_size=5))
def test_span_contains_matches_rank_oracle(basis_rows, v):
    basis = [tuple(row) for row in basis_rows]
    rank = len(oracle_rref(basis_rows)[1])
    assert span_contains(basis, v) == (len(oracle_rref(basis_rows + [v])[1]) == rank)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec([[1, 2]], (1,))


# ---------------------------------------------------------------------------
# slow oracle: Gauss-Jordan and the triple-loop product on Fractions


def oracle_rref(m):
    """(reduced row-echelon rows, pivot columns) by Fraction elimination:
    scale the pivot row to a leading 1, then clear its column in every
    other row."""
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


def oracle_nullspace(m):
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = oracle_rref(m)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def oracle_span_contains(basis, v):
    if not basis:
        return all(frac(x) == 0 for x in v)
    k = len(basis)
    red, _ = oracle_rref([[b[i] for b in basis] + [v[i]] for i in range(len(v))])
    return not any(row[k] != 0 and all(x == 0 for x in row[:k]) for row in red)


def all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


# Entries: small ints, small fractions, fractions with large denominators
# (either sign), and zero; spelled as int, Fraction or string.
rationals = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(F, st.integers(-(10**12), 10**12), st.integers(10**6, 10**12)),
)


@st.composite
def spelled(draw, x):
    """x as a Fraction, a string ("-3/4", "0.25" or "2"), or an int."""
    forms = [x, str(x)]
    if x.denominator == 1:
        forms.append(int(x))
    if x * 10000 == int(x * 10000):
        forms.append("%s" % (float(x),))
    return draw(st.sampled_from(forms))


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """Rectangular matrices with 0-6 rows and 0-6 columns.  A row is drawn
    fresh, left zero, or made a rational combination of two earlier rows,
    so ranks below the full one are common."""
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    if ncols is None:
        ncols = draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "combination")))
        if kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(rationals), draw(rationals)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append([draw(rationals) for _ in range(ncols)])
    return tuple(tuple(draw(spelled(x)) for x in row) for row in rows)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rref_rank_nullspace_match_fraction_elimination(m):
    red, pivots = oracle_rref(m)
    rows, got_pivots = _rref_pivots(m)
    assert got_pivots == pivots and all(type(x) is int for row in rows for x in row)
    # row r < rank, divided by its pivot entry, is row r of the reduced form
    # and the rows from the rank on are zero
    assert [tuple(F(x, row[c]) for x in row) for row, c in zip(rows, pivots)] == list(red[:len(pivots)])
    assert not any(x for row in rows[len(pivots):] for x in row) and len(rows) == len(red)
    basis = nullspace(m)
    assert basis == oracle_nullspace(m)
    assert all_fractions(basis)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_contains_matches_fraction_elimination(data):
    n = data.draw(st.integers(0, 6))
    basis = list(data.draw(rational_matrices(ncols=n)))
    inside = data.draw(st.booleans()) and basis
    if inside:
        coeffs = data.draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
        v = tuple(sum((c * frac(b[i]) for c, b in zip(coeffs, basis)), F(0)) for i in range(n))
        v = tuple(data.draw(spelled(x)) for x in v)
    else:
        v = data.draw(rational_matrices(nrows=1, ncols=n))[0]
    assert span_contains(basis, v) == oracle_span_contains(basis, v)
    if inside:
        assert span_contains(basis, v)
