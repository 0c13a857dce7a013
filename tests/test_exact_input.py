"""Exact numbers enter once.

Every public entry point that takes a matrix or arrow weights reads ints,
Fractions and strings as the rationals they spell, refuses a float or a
bool with TypeError and a zero denominator with ValueError, and, when it
takes a matrix, refuses a ragged or non-square one with ValueError.
Behind those doors the digraph readers and the scan coerce nothing again:
one ``invariants`` run calls ``linalg.frac`` once per arrow weight and
once per matrix entry, and a ``check main-lemma|column-sums --file`` run
once more, for the eigenvalue.
"""

import os
from fractions import Fraction as F

import pytest

from polydiag import cli, graph, invariance, linalg
from polydiag.invariance import (
    check_constant_column_sums_theorem,
    check_main_lemma,
    dichotomy_rows,
    eigendata,
    invariant_polydiagonals,
    is_invariant,
)
from polydiag.partitions import enumerate_tagged_partitions

# Column sums 2; the eigenvalue 2 is simple, with eigenvector (1, 2).
M = [[F(1), F(1, 2)], [F(1), F(3, 2)]]
SPELLINGS = {
    "fractions": M,
    "ints": [[1, F(1, 2)], [1, F(3, 2)]],
    "strings": [["1", "1/2"], ["1", "3/2"]],
    "decimals": [["1.0", "0.5"], ["1", "1.5"]],
    "mixed": [[F(1), "1/2"], [1, "1.5"]],
}


def _arrows(m):
    """The arrows of the digraph whose in-adjacency matrix is m."""
    return [(j + 1, i + 1, w) for i, row in enumerate(m) for j, w in enumerate(row)]


def _weights(g):
    return [(t, h, w, type(w)) for t, h, w in g.arrows]


# name -> (call on a matrix, whether it refuses a ragged or non-square one)
ENTRY_POINTS = {
    "invariant_polydiagonals": (lambda m: invariant_polydiagonals(m).subspaces, True),
    "is_invariant": (lambda m: [is_invariant(m, p) for p in enumerate_tagged_partitions(2)], True),
    "eigendata": (lambda m: eigendata(m, 2), True),
    "dichotomy_rows": (lambda m: dichotomy_rows(m, eigendata(M, 2)), True),
    "check_main_lemma": (lambda m: check_main_lemma(m, 2), True),
    "check_constant_column_sums_theorem": (check_constant_column_sums_theorem, True),
    "from_adjacency": (lambda m: _weights(graph.from_adjacency(m)), True),
    "WeightedDigraph": (lambda m: _weights(graph.WeightedDigraph(2, tuple(_arrows(m)))), False),
    "from_weight_map": (lambda m: _weights(graph.from_weight_map(2, {(t, h): w for t, h, w in _arrows(m)})), False),
    "from_json_dict": (lambda m: _weights(graph.from_json_dict({"n": 2, "arrows": [list(a) for a in _arrows(m)]})), False),
    "cayley_digraph": (lambda m: _weights(graph.cayley_digraph(graph.cyclic_group_table(2), list(enumerate(m[0])))), False),
}
SHAPED = [name for name, (_, shaped) in ENTRY_POINTS.items() if shaped]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_spelling_gives_one_answer(name):
    call = ENTRY_POINTS[name][0]
    want = call(M)
    for spelling, m in SPELLINGS.items():
        assert call(m) == want, spelling


@pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_floats_and_bools_are_refused(name, bad):
    m = [[bad, "1/2"], [1, "3/2"]]
    with pytest.raises(TypeError):
        ENTRY_POINTS[name][0](m)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_zero_denominators_are_refused(name):
    with pytest.raises(ValueError, match="zero denominator"):
        ENTRY_POINTS[name][0]([["1/0", "1/2"], [1, "3/2"]])


@pytest.mark.parametrize("m", [[[1, 2], [3, 4, 5]], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]],
                         ids=["ragged", "short-row", "2x3"])
@pytest.mark.parametrize("name", SHAPED)
def test_ragged_and_non_square_matrices_are_refused(name, m):
    with pytest.raises(ValueError, match="square"):
        ENTRY_POINTS[name][0](m)


D3 = os.path.join(os.path.dirname(__file__), "..", "demos", "data", "d3_cayley_equal.json")


@pytest.mark.parametrize("which", ["adjacency", "laplacian"])
def test_one_invariants_run_coerces_each_weight_and_entry_once(which, monkeypatch, capsys):
    """12 arrows and a 6 x 6 matrix: 48 calls of frac, in every module that
    binds it."""
    g = graph.load_digraph(D3)
    frac = linalg.frac
    calls = []

    def counted(x):
        calls.append(x)
        return frac(x)

    for module in (graph, invariance, linalg):
        monkeypatch.setattr(module, "frac", counted)
    assert cli.main(["invariants", D3, "--matrix", which]) == 0
    assert capsys.readouterr().out
    assert len(calls) == len(g.arrows) + g.n ** 2 == 48


@pytest.mark.parametrize("argv", [["main-lemma", "--lambda", "2"], ["column-sums"]], ids=["main-lemma", "column-sums"])
def test_one_report_run_coerces_each_weight_and_entry_once(argv, monkeypatch, capsys):
    """12 arrows, a 6 x 6 matrix and the eigenvalue: 49 calls of frac (193
    when the report, eigendata, both nullspaces and the scan each coerced
    the matrix)."""
    g = graph.load_digraph(D3)
    frac = linalg.frac
    calls = []

    def counted(x):
        calls.append(x)
        return frac(x)

    for module in (graph, invariance, linalg):
        monkeypatch.setattr(module, "frac", counted)
    assert cli.main(["check", argv[0], "--file", D3, *argv[1:]]) == 0
    assert capsys.readouterr().out
    assert len(calls) == len(g.arrows) + g.n ** 2 + 1 == 49
