from fractions import Fraction as F

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiag.linalg import (
    clear_denominators,
    dot,
    frac,
    identity,
    matrix,
    mat_vec,
    nullspace,
    rank,
    rref,
    span_contains,
    vector,
    zeros,
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
        matrix([[1, True]])


def test_frac_passes_a_fraction_through():
    x = F(-7, 3)
    assert frac(x) is x
    assert type(frac(3)) is F and frac(3) == 3


def test_clear_denominators_per_row():
    assert clear_denominators([["1/2", F(1, 3), 2], [4, "-6", 0], []]) == [[3, 2, 12], [4, -6, 0], []]


def test_rref_identity():
    m = identity(3)
    red, rk = rref(m)
    assert red == m and rk == 3


def test_rref_zero():
    m = zeros(2, 2)
    red, rk = rref(m)
    assert red == m and rk == 0


def test_rref_rank_one():
    red, rk = rref(matrix([[1, 2], [2, 4]]))
    assert rk == 1
    assert red == matrix([[1, 2], [0, 0]])


def test_nullspace_block_laplacian():
    # Laplacian of the one-edge-plus-isolated-vertex graph: 0 has multiplicity 2
    lap = matrix([[0, 0, 0], [0, 1, -1], [0, -1, 1]])
    basis = nullspace(lap)
    assert len(basis) == 2
    assert span_contains(basis, vector([1, 0, 0]))
    assert span_contains(basis, vector([0, 1, 1]))


def test_nullspace_simple_eigenvector():
    m = matrix([[1, 0, 0], [-1, -1, -1], [0, 1, 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert span_contains(basis, vector([0, 1, -1]))
    assert span_contains([vector([0, 1, -1])], basis[0])


def test_nullspace_zero_matrix():
    basis = nullspace(zeros(2, 2))
    assert basis == [vector([1, 0]), vector([0, 1])]


def test_span_contains_examples():
    assert span_contains([vector([1, -1])], vector([2, -2]))
    assert not span_contains([vector([1, -1])], vector([1, 1]))
    # two independent eigenvectors of the Dirichlet example
    assert not span_contains([vector([1, 2, 1])], vector([1, 0, -1]))


def test_span_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        span_contains([vector([1, 0])], vector([1, 0, 0]))


REFUSED = {
    "ragged rows": (lambda: matrix([[1, 2], [3]]), "ragged rows"),
    "rank of a longer row": (lambda: rank([[1], [2, 3]]), "ragged rows"),
    "rank of a shorter row": (lambda: rank([[1, 2], [3]]), "ragged rows"),
    "nullspace of a longer row": (lambda: nullspace([[1, 2], [3, 4, 5]]), "ragged rows"),
    "rref of a shorter row": (lambda: rref([[1, 2, 3], [4, 5]]), "ragged rows"),
    "dot length mismatch": (lambda: dot(vector([1, 2]), vector([1, 2, 3])), "dimension mismatch"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


small_entries = st.integers(min_value=-6, max_value=6)


def mats(n, m):
    return st.lists(
        st.lists(small_entries, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(matrix)


@settings(max_examples=60, deadline=None)
@given(mats(3, 4))
def test_rref_idempotent(m):
    red, _ = rref(m)
    assert rref(red)[0] == red


@settings(max_examples=60, deadline=None)
@given(mats(4, 4))
def test_rank_nullity_and_kernel(m):
    basis = nullspace(m)
    assert rank(m) + len(basis) == 4
    for b in basis:
        assert mat_vec(m, b) == (F(0),) * 4


@settings(max_examples=40, deadline=None)
@given(mats(3, 5), st.lists(small_entries, min_size=5, max_size=5))
def test_span_contains_matches_rank_oracle(basis_rows, v):
    v = vector(v)
    basis = [tuple(row) for row in basis_rows]
    stacked = matrix(list(basis_rows) + [v])
    assert span_contains(basis, v) == (rank(stacked) == rank(basis_rows))


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec(matrix([[1, 2]]), vector([1]))


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
    got_red, got_rank = rref(m)
    assert got_red == red and got_rank == len(pivots) == rank(m)
    assert all_fractions(got_red)
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
